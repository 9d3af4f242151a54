"""Seeded relabelings of generated graphs.

    python3 bench/inputs.py SOURCE DEST_DIR --seed S --name NAME --variants K [--check]

Writes DEST_DIR/NAME.<v>.json for v < K, each a relabeling of the graph
document SOURCE by a vertex permutation drawn from (seed, name, v), so
isomorphic inputs keep their answers while the program sees another
vertex order per seed and variant.  With ``--check`` it instead verifies
that every file is exactly that relabeling and exits 1 if not.

It runs as its own process so the benchmark process stays small: a
child's peak RSS counts the memory of the process that forked it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path


def variant_path(dest_dir, name: str, variant: int) -> Path:
    return Path(dest_dir) / f"{name}.{variant}.json"


def permute_graph_text(text: str, seed: int, name: str, variant: int = 0) -> str:
    """Relabel a graph document by a vertex permutation drawn from (seed, name, variant).

    Labels keep their strings; only their positions move.  Edges are
    re-sorted so the result is again in the CLI's canonical form.
    """
    doc = json.loads(text)
    labels = doc["vertex_labels"]
    n = len(labels)
    perm = list(range(n))
    random.Random(f"{seed}/{name}/{variant}").shuffle(perm)
    new_labels = [""] * n
    for v, label in enumerate(labels):
        new_labels[perm[v]] = label
    edges = []
    for i, j in doc["edges"]:
        a, b = perm[i], perm[j]
        edges.append([a, b] if a < b else [b, a])
    edges.sort()
    out = {"format": doc["format"], "vertex_labels": new_labels, "edges": edges}
    return json.dumps(out, separators=(",", ":")) + "\n"


def relabeling_error(source: str, permuted: str) -> str | None:
    """None when ``permuted`` is an isomorphic relabeling of ``source``.

    Labels are unique in every generated graph, so the label set fixes the
    vertex map, and the edge sets must agree as sets of label pairs.
    """
    a, b = json.loads(source), json.loads(permuted)
    la, lb = a["vertex_labels"], b["vertex_labels"]
    if len(set(la)) != len(la) or sorted(la) != sorted(lb):
        return "label sets differ"
    ea = {frozenset((la[i], la[j])) for i, j in a["edges"]}
    eb = {frozenset((lb[i], lb[j])) for i, j in b["edges"]}
    if len(ea) != len(a["edges"]) or ea != eb:
        return "edge sets differ under the label map"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("source")
    ap.add_argument("dest_dir")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--name", required=True)
    ap.add_argument("--variants", type=int, required=True)
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()
    source = Path(args.source).read_text(encoding="utf-8")
    for v in range(args.variants):
        path = variant_path(args.dest_dir, args.name, v)
        expected = permute_graph_text(source, args.seed, args.name, v)
        if not args.check:
            path.write_text(expected, encoding="utf-8")
            continue
        permuted = path.read_text(encoding="utf-8")
        err = relabeling_error(source, permuted)
        if err is None and permuted != expected:
            err = "not the relabeling this seed, name and variant draw"
        if err:
            print(f"{path.name}: {err}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
