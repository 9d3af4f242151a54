"""Sphere graphs of holed 3-spheres, modeled combinatorially.

An essential sphere in a 3-sphere with n open balls removed is determined
up to isotopy by how it partitions the n boundary spheres, with both
sides holding at least 2 of them; two isotopy classes admit disjoint
representatives exactly when the partitions are nested.  So the sphere
graph here is the graph on two-block partitions of {1..n} with both
blocks of size >= 2, with edges between nested pairs.  For n = 5 this
is the Petersen graph, via 2-subset <-> (2, 3)-partition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .graphcore import Coloring, Graph, _bits
from .kneser import (
    TwoBlockPartition,
    kg,
    remove_singleton_partitions,
    spherelike_partitions,
    total_kneser,
    _partition_graph,
)

__all__ = [
    "SphereKneserReport",
    "PetersenIsoReport",
    "sphere_graph_holed",
    "verify_lemma_sphere_kneser",
    "verify_petersen_isomorphism",
    "load_reference_three_coloring",
    "reference_coloring_on",
]

def sphere_graph_holed(n: int) -> Graph:
    """Sphere graph of the n-holed 3-sphere (empty for n < 4)."""
    parts = spherelike_partitions(n)
    return _partition_graph(parts, n)


@dataclass(frozen=True)
class SphereKneserReport:
    """Comparison of the sphere graph against the pruned total Kneser graph."""

    n: int
    ok: bool
    label_lists_equal: bool
    missing_edges: tuple  # in the pruned Kneser graph but not the sphere graph
    extra_edges: tuple    # in the sphere graph but not the pruned Kneser graph

    def __bool__(self) -> bool:
        return self.ok


def verify_lemma_sphere_kneser(n: int) -> SphereKneserReport:
    """Check sphere_graph_holed(n) == total_kneser(n) minus singleton partitions.

    Both sides build their edges with ``kneser._partition_graph``; they
    differ only in how they reach the vertex list (spherelike partitions
    directly, or all partitions with the singletons removed afterwards).
    The engine independent of it is the pair-by-pair nesting test
    ``pairwise_partition_graph`` in ``tests/oracles.py``, which
    ``tests/test_kneser.py`` compares against.  ``kneser.all_partitions``
    caps n at ``MAX_GROUND_SET``.  The report carries the symmetric
    difference of the edge sets (as label pairs) when they differ.
    """
    lhs = sphere_graph_holed(n)
    rhs = remove_singleton_partitions(total_kneser(n))
    labels_equal = lhs.labels == rhs.labels
    if labels_equal:
        names = lhs.labels
        missing_pairs, extra_pairs = [], []
        for i, (x, y) in enumerate(zip(lhs.adj, rhs.adj)):
            if x != y:
                missing_pairs += [(names[i], names[j]) for j in _bits((y & ~x) >> (i + 1), i + 1)]
                extra_pairs += [(names[i], names[j]) for j in _bits((x & ~y) >> (i + 1), i + 1)]
        missing = tuple(sorted(missing_pairs))
        extra = tuple(sorted(extra_pairs))
    else:
        lhs_named = {(lhs.labels[i], lhs.labels[j]) for i, j in lhs.sorted_edges}
        rhs_named = {(rhs.labels[i], rhs.labels[j]) for i, j in rhs.sorted_edges}
        missing = tuple(sorted(rhs_named - lhs_named))
        extra = tuple(sorted(lhs_named - rhs_named))
    ok = labels_equal and not missing and not extra
    return SphereKneserReport(n, ok, labels_equal, missing, extra)


@dataclass(frozen=True)
class PetersenIsoReport:
    ok: bool
    witness_edge: tuple[str, str] | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_petersen_isomorphism() -> PetersenIsoReport:
    """Check that 2-subset -> (2-subset | complement) maps kg(5, 2) onto
    sphere_graph_holed(5) edge for edge; on failure ``witness_edge`` is a
    pair of partition labels, whichever side the edge is missing from."""
    small = kg(5, 2)
    big = sphere_graph_holed(5)
    image = {}
    for v, label in enumerate(small.labels):
        members = [int(x) for x in label.split()]
        image[v] = TwoBlockPartition.from_block(5, members).label
    index_of = {label: i for i, label in enumerate(big.labels)}
    if sorted(image.values()) != sorted(big.labels):
        return PetersenIsoReport(False, None, "vertex map is not a bijection")
    big_edges = set(big.sorted_edges)
    mapped = set()
    for i, j in small.sorted_edges:
        a, b = index_of[image[i]], index_of[image[j]]
        e = (a, b) if a < b else (b, a)
        mapped.add(e)
        if e not in big_edges:
            return PetersenIsoReport(
                False, (image[i], image[j]), "edge of kg(5,2) has no nested image"
            )
    for e in big_edges - mapped:
        return PetersenIsoReport(
            False,
            (big.labels[e[0]], big.labels[e[1]]),
            "sphere-graph edge not hit by any kg(5,2) edge",
        )
    return PetersenIsoReport(True)


def load_reference_three_coloring() -> list[dict]:
    """The transcribed 3-coloring of the 5-holed sphere graph, as shipped.

    Returns the raw (partition label, color name) records.  Nothing here
    checks properness; callers validate against the graph.
    """
    text = resources.files("sphere_chroma.data").joinpath(
        "petersen_three_coloring.json"
    ).read_text()
    records = json.loads(text)
    if not isinstance(records, list):
        raise ValueError("reference coloring data is not a list")
    for rec in records:
        if set(rec) != {"partition", "color"}:
            raise ValueError(f"bad reference coloring record: {rec!r}")
    return records


def reference_coloring_on(g: Graph) -> Coloring:
    """Reference coloring on g as a tuple of color ids by vertex index, the
    ids in order of first appearance in the records.  A record naming a
    label g lacks, or a vertex of g that no record colors, is a ValueError."""
    records = load_reference_three_coloring()
    index_of = {label: i for i, label in enumerate(g.labels)}
    ids: dict[str, int] = {}
    colors: list[int | None] = [None] * g.n
    for rec in records:
        label, color = rec["partition"], rec["color"]
        if label not in index_of:
            raise ValueError(f"reference coloring names unknown vertex {label!r}")
        colors[index_of[label]] = ids.setdefault(color, len(ids))
    if None in colors:
        v = colors.index(None)
        raise ValueError(f"reference coloring leaves vertex {v} ({g.labels[v]!r}) uncolored")
    return Coloring(colors)
