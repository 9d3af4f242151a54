import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import sphere_chroma
from sphere_chroma import cli, covercolor, farey, spheres
from sphere_chroma.farey import MAX_DEPTH
from sphere_chroma.graphcore import Graph, chromatic_number_exact, from_json, to_json
from sphere_chroma.spheres import SphereKneserReport


@pytest.fixture
def run(capsys, monkeypatch):
    def invoke(argv, stdin_text=None):
        if stdin_text is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestGenerate:
    def test_sphere_graph_document(self, run):
        code, out, _ = run(["generate", "sphere", "--n", "5"])
        assert code == 0
        g = from_json(out)
        assert g.n == 10 and g.m == 15

    def test_kneser(self, run):
        code, out, _ = run(["generate", "kneser", "--n", "5", "--k", "2"])
        assert code == 0
        assert from_json(out).n == 10

    def test_total_kneser(self, run):
        code, out, _ = run(["generate", "total-kneser", "--n", "4"])
        assert code == 0
        assert from_json(out).n == 7

    def test_glued(self, run):
        code, out, _ = run(["generate", "glued", "--r", "3"])
        assert from_json(out).n == 25 and code == 0
        code, out, _ = run(["generate", "glued", "--r", "3", "--with-cut-spheres"])
        assert from_json(out).n == 28

    def test_farey_with_fins(self, run):
        code, out, _ = run(["generate", "farey", "--depth", "3", "--fins"])
        g = from_json(out)
        assert code == 0
        assert g.n == 9 + 15

    def test_single_line_output(self, run):
        _, out, _ = run(["generate", "farey", "--depth", "2"])
        assert out.count("\n") == 1 and out.endswith("\n")


class TestChi:
    def test_pipe_matches_in_process(self, run):
        _, doc, _ = run(["generate", "sphere", "--n", "5"])
        code, out, _ = run(["chi", "--exact"], stdin_text=doc)
        assert code == 0
        assert out == '{"chi":3}\n'
        assert json.loads(out)["chi"] == chromatic_number_exact(from_json(doc)).chi

    def test_input_file(self, run, tmp_path):
        _, doc, _ = run(["generate", "kneser", "--n", "5", "--k", "2"])
        path = tmp_path / "g.json"
        path.write_text(doc)
        code, out, _ = run(["chi", "--input", str(path)])
        assert code == 0 and json.loads(out) == {"chi": 3}

    def test_dash_reads_stdin(self, run):
        _, doc, _ = run(["generate", "farey", "--depth", "0"])
        code, out, _ = run(["chi", "--input", "-"], stdin_text=doc)
        assert code == 0 and json.loads(out) == {"chi": 2}

    def test_bounds_mode(self, run):
        _, doc, _ = run(["generate", "sphere", "--n", "6"])
        code, out, _ = run(["chi", "--bounds"], stdin_text=doc)
        assert code == 0
        parsed = json.loads(out)
        assert set(parsed) == {"lower", "upper"}
        assert parsed["lower"] <= 5 <= parsed["upper"]

    def test_budget_exhaustion_exits_3(self, run):
        _, doc, _ = run(["generate", "sphere", "--n", "8"])
        code, out, _ = run(["chi", "--exact", "--budget", "10"], stdin_text=doc)
        assert code == 3
        parsed = json.loads(out)
        assert parsed["undecided"] is True
        assert parsed["lower"] <= parsed["upper"]

    def test_negative_budget_exits_64(self, run):
        _, doc, _ = run(["generate", "sphere", "--n", "6"])
        code, out, err = run(["chi", "--exact", "--budget", "-5"], stdin_text=doc)
        assert code == 64 and out == "" and "budget" in err and "-5" in err
        code, out, _ = run(["chi", "--exact", "--budget", "0"], stdin_text=doc)
        assert code == 3 and json.loads(out)["undecided"] is True

    def test_bounds_refuses_budget(self, run):
        _, doc, _ = run(["generate", "sphere", "--n", "6"])
        for budget in ("100", "-5"):
            code, out, err = run(["chi", "--bounds", "--budget", budget], stdin_text=doc)
            assert code == 64 and out == "" and "--budget" in err

    def test_missing_file_exits_74(self, run, tmp_path):
        code, out, err = run(["chi", "--input", str(tmp_path / "absent.json")])
        assert code == 74 and out == "" and "cannot read" in err

    def test_garbage_stdin_exits_74(self, run):
        code, _, err = run(["chi"], stdin_text="not a graph")
        assert code == 74 and "not a graph document" in err


class TestVerify:
    def test_lemma2_golden_line(self, run):
        code, out, _ = run(["verify", "lemma2", "--n", "5"])
        assert code == 0
        assert out == '{"lemma":"sphere-kneser","n":5,"ok":true}\n'

    def test_lemma2_failure_exits_2(self, run, monkeypatch):
        monkeypatch.setattr(
            "sphere_chroma.spheres.verify_lemma_sphere_kneser",
            lambda n: SphereKneserReport(n, False, True, (("1 2|3 4", "1 3|2 4"),), ()),
        )
        code, out, _ = run(["verify", "lemma2", "--n", "4"])
        assert code == 2
        parsed = json.loads(out)
        assert parsed["ok"] is False and parsed["missing_edges"]

    def test_petersen(self, run):
        code, out, _ = run(["verify", "petersen"])
        assert code == 0 and json.loads(out) == {"check": "petersen", "ok": True}

    def test_petersen_failure_exits_2(self, run, monkeypatch):
        g = spheres.sphere_graph_holed(5)
        i, j = g.sorted_edges[0]
        toggled = Graph(g.labels, set(g.sorted_edges) ^ {(i, j)})
        monkeypatch.setattr(spheres, "sphere_graph_holed", lambda n: toggled)
        code, out, _ = run(["verify", "petersen"])
        assert code == 2
        parsed = json.loads(out)
        assert parsed["ok"] is False and parsed["reason"]
        # the dropped edge, named by its two partition labels
        assert parsed["witness_edge"] == [g.labels[i], g.labels[j]]

    def test_proper(self, run):
        code, out, _ = run(["verify", "proper", "--r", "3"])
        assert code == 0
        parsed = json.loads(out)
        assert parsed["ok"] is True and parsed["violations"] == []

    def test_farey_parity_flags_open_question(self, run):
        code, out, _ = run(["verify", "farey-parity", "--depth", "4"])
        assert code == 0
        parsed = json.loads(out)
        assert parsed["ok"] is True and parsed["chi"] == 3
        assert "not decided here" in parsed["open_question"]

    def test_farey_parity_improper_exits_2(self, run, monkeypatch):
        # give 1/1 the color of its neighbour 0/1: the check on the finned
        # ball must see the Farey edge between them
        real = farey.parity_classes

        def broken(fractions, upper):
            a = real(fractions, upper)
            a[fractions.index((1, 1))] = a[fractions.index((0, 1))]
            return a

        monkeypatch.setattr(farey, "parity_classes", broken)
        code, out, _ = run(["verify", "farey-parity", "--depth", "4"])
        assert code == 2 and json.loads(out)["ok"] is False

    def test_farey_12_fins_matches_benchmark_pin(self, run):
        # bench/pins.json is only read here; the pin is stdout's sha256
        pins = json.loads((Path(__file__).resolve().parent.parent / "bench" / "pins.json").read_text())
        code, out, err = run(["generate", "farey", "--depth", "12", "--fins"])
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == pins["generate-farey-12-fins"]

    def test_farey_parity_depth_capped(self, run):
        code, _, err = run(["verify", "farey-parity", "--depth", str(MAX_DEPTH + 1)])
        assert code == 64 and "depth" in err


class TestCount:
    def test_r3_paper_golden_line(self, run):
        code, out, _ = run(["count", "--r", "3", "--rank-mode", "paper"])
        assert code == 0
        assert out == (
            '{"t":7,"x":3673600,"log2_f":152.661,"bound_9r2r":216,"ok":true,'
            '"m":10,"rank_mode":"paper",'
            '"note":"rank modes disagree: paper mode uses m=4r-2=10, '
            'computed cover homology gives m=2r-1=5"}\n'
        )

    def test_computed_mode(self, run):
        code, out, _ = run(["count", "--r", "3", "--rank-mode", "computed"])
        assert code == 0
        parsed = json.loads(out)
        assert parsed["x"] == 3696 and parsed["m"] == 5

    def test_bad_mode_exits_64(self, run):
        code, _, _ = run(["count", "--r", "3", "--rank-mode", "guessed"])
        assert code == 64

    @pytest.mark.parametrize("mode", ["paper", "computed"])
    def test_failed_bound_exits_2(self, run, monkeypatch, mode):
        # the bound holds for every r the command takes, so fake a log2
        # that breaks it: both modes report it the same way
        fake = SimpleNamespace(comb=math.comb, log2=lambda x: 1e6)
        monkeypatch.setattr(covercolor, "math", fake)
        assert covercolor.count_colors(3, mode).ok is False
        code, out, _ = run(["count", "--r", "3", "--rank-mode", mode])
        assert code == 2 and '"ok":false' in out


class TestColor:
    def test_table_shape(self, run):
        code, out, _ = run(["color", "--r", "2"])
        assert code == 0
        parsed = json.loads(out)
        assert parsed["covers"] == ["01", "10", "11"]
        assert set(parsed["colors"]) == {"1 2|3 4", "1 3|2 4", "1 4|2 3"}
        for table in parsed["colors"].values():
            assert len(table) == 3
            assert all(len(entry) in (1, 2) for entry in table)


class TestExport:
    def test_dot(self, run):
        _, doc, _ = run(["generate", "farey", "--depth", "0"])
        code, out, _ = run(["export", "dot"], stdin_text=doc)
        assert code == 0
        assert out == 'graph G {\n"0/1";\n"1/0";\n"0/1" -- "1/0";\n}\n'

    def test_dimacs(self, run):
        _, doc, _ = run(["generate", "sphere", "--n", "5"])
        code, out, _ = run(["export", "dimacs", "--k", "3"], stdin_text=doc)
        assert code == 0
        assert out.splitlines()[0] == "p cnf 30 55"

    def test_bad_input_exits_74(self, run):
        code, _, _ = run(["export", "dot"], stdin_text="{}")
        assert code == 74


# address-space limit for a CLI child that must fail fast: a cap set one
# step too high then dies in the child instead of building the oversize
# graph in the test process
CHILD_AS_BYTES = 1300 * 2**20


def _limit_child_memory(limit=CHILD_AS_BYTES):
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


class TestFlagHandling:
    def test_unknown_command(self, run):
        code, _, err = run(["frobnicate"])
        assert code == 64 and "invalid choice" in err

    def test_missing_required_flag(self, run):
        code, _, _ = run(["generate", "sphere"])
        assert code == 64

    def test_domain_error_maps_to_64(self, run):
        code, _, err = run(["generate", "kneser", "--n", "3", "--k", "2"])
        assert code == 64 and "n >= 2k" in err

    @pytest.mark.parametrize("argv", [
        ["generate", "kneser", "--n", "40", "--k", "20"],
        ["generate", "sphere", "--n", "15"],
        ["generate", "total-kneser", "--n", "15"],
        ["verify", "proper", "--r", "8"],
        ["color", "--r", "8"],
        ["generate", "farey", "--depth", "16", "--fins"],
        ["verify", "farey-parity", "--depth", "16"],
        ["verify", "lemma2", "--n", "15"],
    ])
    def test_sizes_past_the_caps_exit_64(self, cli_env, argv):
        result = subprocess.run(
            [sys.executable, "-m", "sphere_chroma.cli", *argv],
            capture_output=True, text=True, timeout=30, env=cli_env,
            preexec_fn=_limit_child_memory,
        )
        assert result.returncode == 64 and result.stdout == "" and "error" in result.stderr

    def test_exact_help_names_the_default_mode(self, run):
        code, out, _ = run(["chi", "--help"])
        assert code == 0 and "the default mode" in out
        doc = to_json(Graph(["a", "b"], [(0, 1)]))
        assert run(["chi"], doc) == run(["chi", "--exact"], doc) == (0, '{"chi":2}\n', "")

    def test_threads_is_an_unknown_flag(self, run):
        code, out, err = run(["--threads", "1", "verify", "petersen"])
        assert code == 64 and out == "" and "error" in err

    def test_timing_goes_to_stderr_only(self, run):
        _, plain_out, plain_err = run(["verify", "petersen"])
        _, timed_out, timed_err = run(["--timing", "verify", "petersen"])
        assert timed_out == plain_out
        assert "elapsed:" in timed_err and "elapsed:" not in plain_err

    def test_repeat_invocations_identical(self, run):
        a = run(["generate", "glued", "--r", "3"])
        b = run(["generate", "glued", "--r", "3"])
        assert a == b


# every documented command, "#" marking a size; sizes stay small so that
# each drawn call is cheap (the cap tests above cover the large ones).
# The commands that read a graph from stdin are drawn half the time.
STDIN_TEMPLATES = [
    "chi --exact --budget #",
    "chi --bounds --input -",
    "chi",
    "export dot --input -",
    "export dimacs --k #",
]
OTHER_TEMPLATES = [
    "generate kneser --n # --k #",
    "generate total-kneser --n #",
    "generate sphere --n #",
    "generate glued --r # --with-cut-spheres",
    "generate farey --depth # --fins",
    "color --r # --with-cut-spheres",
    "verify lemma2 --n #",
    "verify petersen",
    "verify proper --r # --with-cut-spheres",
    "verify farey-parity --depth #",
    "count --r # --rank-mode paper",
    "count --r # --rank-mode computed",
]
SIZES = st.integers(min_value=-2, max_value=5).map(str)
# no digits or slashes: a random token is never a large size or a path
# outside the working directory
TOKENS = st.one_of(
    SIZES,
    st.sampled_from([
        "--timing", "--exact", "--bounds", "--budget", "--input", "-", "--fins",
        "--with-cut-spheres", "--n", "--k", "--r", "--depth", "--rank-mode",
        "--help", "sphere", "chi", "verify", "",
    ]),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz-=_.", max_size=8),
)
DOCUMENTED_EXITS = {0, 2, 3, 64, 74, 141}


@st.composite
def fuzz_argv(draw):
    """A documented command line, then up to three token edits."""
    template = draw(st.sampled_from(STDIN_TEMPLATES) | st.sampled_from(OTHER_TEMPLATES))
    argv = [draw(SIZES) if w == "#" else w for w in template.split()]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(min_value=0, max_value=len(argv)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            argv.insert(at, draw(TOKENS))
        elif at < len(argv):
            if edit == "delete":
                del argv[at]
            else:
                argv[at] = draw(TOKENS)
    return argv


@st.composite
def fuzz_stdin(draw):
    """Random bytes, or a graph document of at most 12 vertices, maybe mangled."""
    kind = draw(st.sampled_from(["bytes", "graph", "mangled"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    doc = to_json(Graph([f"v{i}" for i in range(n)], edges)).encode()
    if kind == "mangled":
        at = draw(st.integers(min_value=0, max_value=len(doc) - 1))
        doc = doc[:at] + draw(st.binary(max_size=3)) + doc[at + 1:]
    return doc


def run_in_process(argv, data):
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    with mock.patch("sys.stdin", stdin), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(fuzz_argv(), fuzz_stdin())
    @example(["chi", "--exact"], b"\xff\xfe{")
    @example(["chi", "--exact", "--budget", "0"], to_json(
        Graph(list("abcde"), [(i, (i + 1) % 5) for i in range(5)])).encode())
    @example(["export", "dot"], b"")
    @example(["verify", "farey-parity", "--depth", "-1"], b"")
    def test_exit_codes_documented_and_no_traceback(self, argv, data):
        code, _, err = run_in_process(argv, data)
        assert code in DOCUMENTED_EXITS, (argv, code, err)
        assert "Traceback" not in err

    def test_undecodable_input_exits_74(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_bytes(b"\xff\xfe{")
        for argv, data in ((["chi"], path.read_bytes()), (["chi", "--input", str(path)], b"")):
            code, out, err = run_in_process(argv, data)
            assert code == 74 and out == "" and "cannot read input" in err


# the CLI as a separate process, started the way a shell would start it
CLI = f"{shlex.quote(sys.executable)} -m sphere_chroma.cli"


@pytest.fixture
def cli_env():
    src = str(Path(sphere_chroma.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


# address space for the depth-14 Farey calls below: they need about 43 MB
# (generate --fins) and 33 MB (verify) from neighbour lists, against about
# 195 MB for both when every vertex had a bit row spanning the whole ball
FAREY_AS_BYTES = 100 * 2**20


class TestFareyMemory:
    def _run_limited(self, cli_env, argv):
        return subprocess.run(
            [sys.executable, "-m", "sphere_chroma.cli", *argv],
            capture_output=True, text=True, timeout=60, env=cli_env,
            preexec_fn=lambda: _limit_child_memory(FAREY_AS_BYTES),
        )

    def test_generate_depth_14_fins_fits(self, cli_env):
        result = self._run_limited(cli_env, ["generate", "farey", "--depth", "14", "--fins"])
        assert result.returncode == 0 and result.stderr == ""
        doc = json.loads(result.stdout)
        ball_edges = 2**15 - 1
        assert len(doc["vertex_labels"]) == 2**14 + 1 + ball_edges
        assert len(doc["edges"]) == 3 * ball_edges

    def test_verify_parity_depth_14_fits(self, cli_env):
        result = self._run_limited(cli_env, ["verify", "farey-parity", "--depth", "14"])
        assert result.returncode == 0 and result.stderr == ""
        assert json.loads(result.stdout)["ok"] is True


class TestInstalledScript:
    def test_shell_pipe(self, cli_env):
        result = subprocess.run(
            f"{CLI} generate sphere --n 5 | {CLI} chi --exact",
            shell=True, capture_output=True, text=True, timeout=60, env=cli_env,
        )
        assert result.returncode == 0
        assert result.stdout == '{"chi":3}\n'

    def test_verify_exit_code(self, cli_env):
        result = subprocess.run(
            [sys.executable, "-m", "sphere_chroma.cli", "verify", "lemma2", "--n", "7"],
            capture_output=True, text=True, timeout=60, env=cli_env,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["ok"] is True

    def test_truncated_pipe_dies_quietly(self, cli_env):
        # depth 12 emits far more than a pipe buffer holds, so the writer
        # is guaranteed to see the reader gone
        result = subprocess.run(
            f'{CLI} generate farey --depth 12 | head -c 1 >/dev/null;'
            ' echo "${PIPESTATUS[0]}"',
            shell=True, capture_output=True, text=True, timeout=60,
            executable="/bin/bash", env=cli_env,
        )
        assert result.stdout.strip() == "141"
        assert result.stderr == ""

    def test_truncated_pipe_dies_quietly_unbuffered(self, cli_env):
        # unbuffered stdout writes straight to the pipe, where a write can
        # stop short once the reader is gone; that must still end in 141
        result = subprocess.run(
            f'{CLI} generate farey --depth 12 | head -c 1 >/dev/null;'
            ' echo "${PIPESTATUS[0]}"',
            shell=True, capture_output=True, text=True, timeout=60,
            executable="/bin/bash", env={**cli_env, "PYTHONUNBUFFERED": "1"},
        )
        assert result.stdout.strip() == "141"
        assert result.stderr == ""
