"""Benchmark the sphere-chroma CLI on seeded workloads.

    python3 bench/run.py --workload exact-search --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1

One closed-loop client runs the CLI as subprocesses, one at a time.  The
seed fixes a vertex permutation of every generated input graph and the
call order of every pass.  With ``--trace 0`` the last stdout line holds
the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it
holds the per-layer metrics of a traced run.  Each run also writes
``BENCH_<workload>_seed<seed>_trace<t>.json`` under ``--out``; compare two
such directories with ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import harness
import layers
import stats

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORK = harness.ROOT / ".bench_work"


def run_workload(wl: harness.Workload, seed: int, seconds: float, trace: bool, out_dir: Path):
    work = WORK / f"run-{wl.name}"
    shutil.rmtree(work, ignore_errors=True)
    client = harness.Client(work)
    try:
        return measure(client, wl, seed, seconds, trace, out_dir)
    finally:
        client.close()


def measure(client: harness.Client, wl: harness.Workload, seed: int, seconds: float, trace: bool,
            out_dir: Path):
    meta = {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "commit": harness.git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }
    setup = harness.set_up(client, wl, seed)
    failures = list(setup.failures)
    attempted = setup.attempted

    tracer = layers.Tracer() if trace else None
    untraced = layers.NullTracer()
    rng = random.Random(seed)
    runs = []  # (traced, harness.Pass)
    t0 = time.perf_counter()
    # a traced run alternates traced and untraced passes to measure the overhead
    while len(runs) < (2 if trace else 1) or time.perf_counter() - t0 < seconds:
        traced = trace and len(runs) % 2 == 0
        runs.append((traced, harness.run_pass(client, wl, setup, rng,
                                              tracer if traced else untraced, len(runs))))
    calls = [r for _, ps in runs for r in ps.results]
    attempted += len(calls)
    failures += [f"{r.name}: {r.failure}" for r in calls if r.failure]
    plain = [ps for traced, ps in runs if not traced]
    per_pass = {
        "pass_s": [ps.wall_s for ps in plain],
        "slowest_call_s": [max(r.wall_s for r in ps.results) for ps in plain],
        "cpu_s": [sum(r.cpu_s for r in ps.results) for ps in plain],
        "peak_rss_mb": [max(r.rss_mb for r in ps.results) for ps in plain],
        "chi_gap": [sum(r.gap for r in ps.results) for ps in plain],
        "ref_s": [ref for ps in plain for ref in ps.refs],
    }
    per_call: dict[str, list] = {}
    for ps in plain:
        for r in ps.results:
            per_call.setdefault(r.name, []).append(r.wall_s)
    medians = {k: statistics.median(v) for k, v in per_pass.items()}
    # times in reference units: the run's medians over the mean reference time
    ref_mean = statistics.mean(per_pass["ref_s"])
    for key in ("pass", "slowest_call", "cpu"):
        medians[f"{key}_ref"] = medians[f"{key}_s"] / ref_mean
    setup_raw_s = statistics.median(setup.times)

    derived = {k: medians[k] for k in ("pass_s", "slowest_call_s", "cpu_s", "ref_s", "chi_gap")}
    derived["setup_raw_s"] = setup_raw_s
    derived["passes"] = len(plain)
    derived["rss_floor_mb"] = client.rss_floor_mb()
    if trace:
        probe_metrics, probe_failures, checks = layers.probe(tracer, client, seed)
        attempted += checks
        failures += probe_failures
        traced_pass = statistics.median(ps.wall_s for traced, ps in runs if traced)
        metrics = dict(probe_metrics)
        metrics["trace.pass_s"] = traced_pass
        metrics["trace.spans"] = len(tracer.spans)
        derived["trace_overhead_s"] = traced_pass - medians["pass_s"]
        derived["self_times_s"] = tracer.self_times()
        (out_dir / f"TRACE_{wl.name}_seed{seed}.json").write_text(json.dumps(
            {"meta": meta, "spans": tracer.spans, "self_times_s": derived["self_times_s"]}))
    else:
        # each set-up over the reference loop timed around it, in seconds at
        # the nominal reference time, so the VM's drift cancels
        metrics = {"setup_s": harness.REF_NOMINAL_S * statistics.median(
            t / statistics.mean(refs) for t, refs in zip(setup.times, setup.refs))}
        for key in ("pass_ref", "slowest_call_ref", "cpu_ref", "peak_rss_mb"):
            metrics[key] = medians[key]
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if set(metrics) != expected:
        raise SystemExit(f"metric set differs from BENCHMARK.json: {sorted(set(metrics) ^ expected)}")
    derived["failed_frac"] = len(failures) / attempted
    meta["loadavg_after"] = os.getloadavg()
    meta["bench_maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "meta": meta,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        "derived": derived,
        "samples": {
            "setup_s": setup.times,
            "setup_refs_s": setup.refs,
            "passes": [
                {"traced": traced, "refs_s": ps.refs, "calls": [r.as_dict() for r in ps.results]}
                for traced, ps in runs
            ],
        },
    }
    (out_dir / f"BENCH_{wl.name}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1))
    report(result, setup.times, per_pass, medians, per_call)
    return result


def report(result, setup_times, per_pass, medians, per_call) -> None:
    meta, d = result["meta"], result["derived"]
    print(f"== {meta['workload']}  seed {meta['seed']}  trace {meta['trace']}  "
          f"commit {meta['commit'][:12]}  python {meta['python']}  nproc {meta['nproc']}  "
          f"load {meta['loadavg_before'][0]:.2f} -> {meta['loadavg_after'][0]:.2f}")
    print(f"  {'setup (raw)':16s} {stats.describe(setup_times, 's')}")
    if meta["trace"]:
        selfs = sorted(d["self_times_s"].items(), key=lambda kv: -kv[1])
        print("  self time by span (top 15):")
        for name, s in selfs[:15]:
            print(f"    {name:36s} {s:9.4f} s")
        print(f"  tracing overhead: traced pass - untraced pass = {d['trace_overhead_s']:+.4f} s")
    for key, unit in (("pass_s", "s"), ("slowest_call_s", "s"), ("cpu_s", "s"), ("ref_s", "s"),
                      ("peak_rss_mb", "MB")):
        print(f"  {key:16s} {stats.describe(per_pass[key], unit)}")
    if medians["peak_rss_mb"] <= d["rss_floor_mb"]:
        print(f"  NOTE peak_rss_mb is at the launcher's own peak ({d['rss_floor_mb']:.1f} MB): "
              "the calls' memory does not show")
    for key in ("pass_ref", "slowest_call_ref", "cpu_ref"):
        print(f"  {key:16s} {medians[key]:.4f} ref (median over the mean ref_s)")
    walls = [w for ws in per_call.values() for w in ws]
    print(f"  {'call latency':16s} {stats.describe(walls, 's')}")
    for name, ws in sorted(per_call.items()):
        print(f"    {name:24s} {stats.describe(ws, 's')}")
    print(f"  {'chi_gap':16s} {d['chi_gap']:g} (upper - lower over budgeted calls, median per pass)")
    print(f"  {'failed_frac':16s} {d['failed_frac']:.4f} ({result['failed']}/{result['attempted']})")
    for f in result["failures"][:10]:
        print(f"    FAIL {f}")
    for name, m in result["metrics"].items():
        print(f"  metric {name} = {m['value']:.6g} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*harness.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=WORK / "results",
                    help="directory for BENCH_*.json and TRACE_*.json")
    args = ap.parse_args()
    # on SIGTERM, unwind so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (harness.SRC_PKG / "cli.py").is_file():
        print(f"bench: no package source at {harness.SRC_PKG}", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [
        run_workload(harness.WORKLOADS[n], args.seed, args.seconds, bool(args.trace), args.out)
        for n in names
    ]
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['meta']['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
