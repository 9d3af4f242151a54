"""Compare two sets of benchmark results, metric by metric.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds ``BENCH_*.json`` files written by ``bench/run.py``
(one per workload, seed and trace setting).  For every workload and
metric it prints each side's median and quartiles, the pairs the change
won, and a verdict from ``stats.verdict``: better, worse, unchanged or
unresolved.  Runs are paired by seed when both sides ran the same seeds,
otherwise in seed order.  End-to-end metrics use the bounds in
BENCHMARK.json; per-layer metrics have none.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import stats

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict:
    """{(workload, trace): {seed: metrics}} from the BENCH_*.json files."""
    out: dict = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        doc = json.loads(path.read_text())
        meta = doc["meta"]
        metrics = {k: v["value"] for k, v in doc["metrics"].items()}
        out.setdefault((meta["workload"], meta["trace"]), {})[meta["seed"]] = metrics
    return out


def pair(a: dict, b: dict) -> list:
    common = sorted(set(a) & set(b))
    if common:
        return [(a[s], b[s]) for s in common]
    return list(zip((a[s] for s in sorted(a)), (b[s] for s in sorted(b))))


def _fmt(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args()
    spec = json.loads(SPEC_PATH.read_text())
    rules = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("compare: each directory needs BENCH_*.json files", file=sys.stderr)
        return 2
    print(f"{'workload':16s} {'metric':36s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>6s}  verdict")
    for key in sorted(set(parent) & set(change)):
        a, b = parent[key], change[key]
        pairs = pair(a, b)
        names = sorted(set().union(*a.values()) & set().union(*b.values()))
        for name in names:
            better, bound = rules.get(name, ("lower", None))
            xs = [m[name] for m in a.values() if name in m]
            ys = [m[name] for m in b.values() if name in m]
            ps = [(p[name], q[name]) for p, q in pairs if name in p and name in q]
            sign = 1 if better == "lower" else -1
            wins = sum(1 for x, y in ps if sign * (y - x) < 0)
            qa, qb = stats.quartiles(xs), stats.quartiles(ys)
            v = stats.verdict(xs, ys, better, bound, ps)
            print(f"{key[0]:16s} {name:36s} {_fmt(qa):>34s} {_fmt(qb):>34s} "
                  f"{wins:>3d}/{len(ps):<3d} {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
