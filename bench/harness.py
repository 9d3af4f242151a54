"""Closed-loop CLI harness: seeded inputs, workload call lists, output checks.

One client runs ``python -m sphere_chroma.cli`` one subprocess at a time;
each call starts only after the previous one has exited.  Child resource
use comes from ``os.wait4`` in a small launcher process, so CPU seconds
and peak RSS are per call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from inputs import variant_path

ROOT = Path(__file__).resolve().parent.parent
SRC_PKG = ROOT / "src" / "sphere_chroma"
BENCH_DIR = Path(__file__).resolve().parent
INPUTS_PY = BENCH_DIR / "inputs.py"
LAUNCHER_PY = BENCH_DIR / "launcher.py"
PINS = json.loads((BENCH_DIR / "pins.json").read_text())

CALL_TIMEOUT_S = 45.0
# set-up repeats: at least this many, more while their total is under the floor
SETUP_REPEATS = 5
SETUP_FLOOR_S = 4.0
MAX_SETUP_REPEATS = 10
# relabelings per input; pass p reads variant p % INPUT_VARIANTS, so one run
# spreads over several vertex orders instead of resting on a single one
INPUT_VARIANTS = 3
REF_ITERATIONS = 1_500_000
# setup_s is reported in seconds at this reference loop time (see NOTES.md)
REF_NOMINAL_S = 0.1


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Call:
    """One CLI invocation in a pass and the rule its result must satisfy.

    ``check`` is "sha" (stdout pinned by sha256 in pins.json, exit 0),
    "bounds" (chi --bounds: 1 <= lower <= upper) or "interval" (budgeted
    chi: exit 3 with a sound interval, or exit 0 with a decided chi, both
    against the known range ``chi_range``).
    """

    name: str
    argv: tuple
    check: str = "sha"
    chi_range: tuple = ()


@dataclass(frozen=True)
class Generated:
    """A seeded input: CLI generate argv, permuted before any call sees it."""

    name: str
    argv: tuple


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    inputs: tuple
    calls: tuple


def _inp(name):
    return f"@{name}"  # placeholder for the permuted input file path


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "partition-build",
            (Generated("s12", ("generate", "sphere", "--n", "12")),),
            (
                Call("generate-sphere-12", ("generate", "sphere", "--n", "12")),
                Call("lemma2-12", ("verify", "lemma2", "--n", "12")),
                Call("bounds-s12", ("chi", "--bounds", "--input", _inp("s12")), "bounds"),
            ),
        ),
        Workload(
            "exact-search",
            tuple(
                Generated(name, argv)
                for name, argv in (
                    ("s7", ("generate", "sphere", "--n", "7")),
                    ("tk7", ("generate", "total-kneser", "--n", "7")),
                    ("s8", ("generate", "sphere", "--n", "8")),
                    ("tk8", ("generate", "total-kneser", "--n", "8")),
                    ("kg10-4", ("generate", "kneser", "--n", "10", "--k", "4")),
                    ("s9", ("generate", "sphere", "--n", "9")),
                    ("tk9", ("generate", "total-kneser", "--n", "9")),
                )
            ),
            tuple(
                Call(f"chi-{name}", ("chi", "--exact", "--input", _inp(name)))
                for name in ("s7", "tk7", "s8", "tk8", "kg10-4")
            )
            + (
                Call("chi-s9-budget", ("chi", "--exact", "--budget", "50000", "--input", _inp("s9")),
                     "interval", (11, 12)),
                Call("chi-tk9-budget", ("chi", "--exact", "--budget", "50000", "--input", _inp("tk9")),
                     "interval", (20, 21)),
            ),
        ),
        Workload(
            "cover-verify",
            (),
            (
                Call("proper-r6", ("verify", "proper", "--r", "6")),
                Call("proper-r5-cut", ("verify", "proper", "--r", "5", "--with-cut-spheres")),
                Call("color-r5", ("color", "--r", "5")),
            ),
        ),
        Workload(
            "farey-sparse",
            (Generated("farey11-fins", ("generate", "farey", "--depth", "11", "--fins")),),
            (
                Call("farey-parity-12", ("verify", "farey-parity", "--depth", "12")),
                Call("chi-farey11-fins", ("chi", "--exact", "--input", _inp("farey11-fins"))),
                Call("generate-farey-12-fins", ("generate", "farey", "--depth", "12", "--fins")),
            ),
        ),
    )
}

# a trivial call: start-up cost, and the cold call of a workload without inputs
STARTUP_ARGV = ("count", "--r", "3", "--rank-mode", "paper")


# ---------------------------------------------------------------- processes

@dataclass
class CallResult:
    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout_path: Path
    stderr_path: Path
    timed_out: bool = False
    failure: str | None = None
    gap: int = 0  # upper - lower of an undecided budgeted call

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "rss_mb": self.rss_mb,
            "exit": self.exit_code,
            "failure": self.failure,
            "gap": self.gap,
        }


class Client:
    """Runs CLI calls from a private copy of the package.

    Each ``fresh_install`` copies ``src/sphere_chroma`` without bytecode,
    so the next call compiles it, as a user's first call after install
    does; later calls reuse the bytecode it wrote.  Calls are spawned by
    ``launcher.py``, started here before the benchmark process grows, so
    a call's peak RSS does not include the benchmark's.  ``close`` stops
    the launcher and any call it is running.
    """

    def __init__(self, work: Path):
        self.work = work
        self.pkg_root = work / "pkg"
        self.out_dir = work / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(self.pkg_root)
        self.env.pop("PYTHONPYCACHEPREFIX", None)
        self._launcher = subprocess.Popen(
            [sys.executable, str(LAUNCHER_PY)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=self.env, cwd=self.work, text=True)
        # wait until the launcher is up, so its start-up overlaps no timing
        self.rss_floor_mb()

    def close(self) -> None:
        self._launcher.terminate()
        self._launcher.wait()
        self._launcher.stdin.close()
        self._launcher.stdout.close()

    def _ask(self, request: list) -> list:
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        line = self._launcher.stdout.readline()
        if not line:
            raise RuntimeError("the launcher exited")
        return json.loads(line)

    def rss_floor_mb(self) -> float:
        """The launcher's own peak RSS, below which no call's peak can read."""
        return self._ask([[], "", "", 0])[0] / 1024.0

    def fresh_install(self) -> None:
        shutil.rmtree(self.pkg_root, ignore_errors=True)
        shutil.copytree(SRC_PKG, self.pkg_root / "sphere_chroma",
                        ignore=shutil.ignore_patterns("__pycache__"))

    def run(self, name: str, argv) -> CallResult:
        out_path = self.out_dir / f"{name}.out"
        err_path = self.out_dir / f"{name}.err"
        cmd = [sys.executable, "-m", "sphere_chroma.cli", *argv]
        wall, code, cpu, maxrss_kb, timed_out = self._ask(
            [cmd, str(out_path), str(err_path), CALL_TIMEOUT_S])
        return CallResult(name, wall, cpu, maxrss_kb / 1024.0, code, out_path, err_path, timed_out)


def check_call(call: Call, res: CallResult) -> None:
    """Set ``res.failure`` to the first reason the call's result is wrong."""
    if res.timed_out:
        res.failure = f"timeout after {CALL_TIMEOUT_S:.0f}s"
        return
    if b"Traceback" in res.stderr_path.read_bytes():
        res.failure = "traceback on stderr"
        return
    out = res.stdout_path.read_bytes()
    if call.check == "sha":
        if res.exit_code != 0:
            res.failure = f"exit {res.exit_code}, expected 0"
        elif hashlib.sha256(out).hexdigest() != PINS[call.name]:
            res.failure = "stdout sha256 differs from the pin"
        return
    try:
        doc = json.loads(out)
    except ValueError:
        doc = None
    if not isinstance(doc, dict):
        res.failure = "stdout is not a JSON object"
        return
    if call.check == "bounds":
        if res.exit_code != 0:
            res.failure = f"exit {res.exit_code}, expected 0"
        elif not (isinstance(doc.get("lower"), int) and isinstance(doc.get("upper"), int)
                  and 1 <= doc["lower"] <= doc["upper"]):
            res.failure = f"bounds {doc} violate 1 <= lower <= upper"
        return
    lo, hi = call.chi_range
    if res.exit_code == 3 and doc.get("undecided") is True:
        lower, upper = doc.get("lower"), doc.get("upper")
        if not (isinstance(lower, int) and isinstance(upper, int)
                and lower <= hi and upper >= lo and lower <= upper):
            res.failure = f"interval [{lower}, {upper}] excludes chi in [{lo}, {hi}]"
        else:
            res.gap = upper - lower
    elif res.exit_code == 0 and "chi" in doc:
        if not lo <= doc["chi"] <= hi:
            res.failure = f"decided chi {doc['chi']} outside [{lo}, {hi}]"
    else:
        res.failure = f"exit {res.exit_code} with {doc}, expected exit 3 or a decided chi"


# ---------------------------------------------------------------- runs

@dataclass
class Setup:
    """Per-setup wall times, the reference loop times taken just before
    and just after each set-up, and the directory of seeded inputs the
    passes read."""

    input_dir: Path
    times: list = field(default_factory=list)
    refs: list = field(default_factory=list)  # (before, after) per set-up
    failures: list = field(default_factory=list)
    attempted: int = 0


def _inputs_helper(source: Path, st: Setup, seed: int, name: str, *flags) -> int:
    cmd = [sys.executable, str(INPUTS_PY), str(source), str(st.input_dir), "--seed", str(seed),
           "--name", name, "--variants", str(INPUT_VARIANTS), *flags]
    return subprocess.run(cmd, stdin=subprocess.DEVNULL, timeout=CALL_TIMEOUT_S).returncode


def set_up(client: Client, wl: Workload, seed: int) -> Setup:
    """Install cold, generate every input and write its seeded relabelings.

    The timed part is the cold first CLI call and the generate calls; the
    relabelings are written after the clock stops, by the first two
    set-ups only, which must write byte-identical files.  Repeated at
    least SETUP_REPEATS times.  The relabelings are then checked to be
    the isomorphic relabelings that the seed draws from what the last
    set-up's generate calls wrote.
    """
    st = Setup(client.work / "inputs")
    st.input_dir.mkdir(exist_ok=True)
    digests = None
    while len(st.times) < SETUP_REPEATS or (
            sum(st.times) < SETUP_FLOOR_S and len(st.times) < MAX_SETUP_REPEATS):
        client.fresh_install()
        before = reference_s()
        t0 = time.perf_counter()
        results = [] if wl.inputs else [client.run("setup-startup", STARTUP_ARGV)]
        results += [client.run(f"setup-{gen.name}", gen.argv) for gen in wl.inputs]
        st.times.append(time.perf_counter() - t0)
        st.refs.append((before, reference_s()))
        writes = len(st.times) <= 2
        for gen, res in zip(wl.inputs, results):
            if writes and res.exit_code == 0 and not res.timed_out:
                res.exit_code = _inputs_helper(res.stdout_path, st, seed, gen.name)
        for res in results:
            st.attempted += 1
            if res.exit_code != 0 or res.timed_out:
                st.failures.append(f"{res.name}: exit {res.exit_code}")
        if writes:
            rep = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in st.input_dir.iterdir()}
            st.attempted += 1
            if digests is not None and rep != digests:
                st.failures.append("seeded inputs differ between set-ups of the same seed")
            digests = rep
    for gen in wl.inputs:
        st.attempted += 1
        if _inputs_helper(client.out_dir / f"setup-{gen.name}.out", st, seed, gen.name, "--check"):
            st.failures.append(f"{gen.name}: seeded inputs are not its relabelings")
    return st


def reference_s() -> float:
    """Wall seconds of a fixed pure-Python loop: the machine's current speed.

    On a shared VM the speed can drift by 10-30% over minutes, on every
    vCPU at once.  Dividing a run's times by the mean of this loop's
    times, taken between its calls, cancels most of that drift (see
    NOTES.md).
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_ITERATIONS):
        s += i & 7
    return time.perf_counter() - t0


@dataclass
class Pass:
    """Calls of one pass and the reference times taken between them."""

    results: list
    refs: list

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)


def run_pass(client: Client, wl: Workload, setup: Setup, rng: random.Random, tracer,
             pass_id: int) -> Pass:
    """One closed-loop pass over the workload's calls in a seeded order,
    with the reference loop timed before each call and after the last."""
    order = list(wl.calls)
    rng.shuffle(order)
    variant = pass_id % INPUT_VARIANTS
    results, refs = [], []
    tracer.pass_id = pass_id
    with tracer.span(f"pass:{wl.name}"):
        for call in order:
            argv = [str(variant_path(setup.input_dir, a[1:], variant)) if a.startswith("@") else a
                    for a in call.argv]
            with tracer.span("bench.reference"):
                refs.append(reference_s())
            with tracer.span(f"cli:{call.name}"):
                results.append((call, client.run(call.name, argv)))
        with tracer.span("bench.reference"):
            refs.append(reference_s())
    tracer.pass_id = None
    for call, res in results:
        check_call(call, res)
    return Pass([res for _, res in results], refs)


def git_commit() -> str:
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        if out.returncode == 0:
            return out.stdout.strip()
    return "unknown"
