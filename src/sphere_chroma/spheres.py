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
from collections import namedtuple

from .graphbase import Coloring, Graph, _bits
from .kneser import (
    TwoBlockPartition,
    all_partitions,
    kg,
    spherelike_partitions,
    _partition_rows,
    _without_singletons,
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
    return Graph.from_rows(*_sphere_rows(n))


def _sphere_rows(n: int):
    """sphere_graph_holed(n)'s labels (a list) and rows (one at a time)."""
    parts = spherelike_partitions(n)
    return [p.label for p in parts], _partition_rows(parts, n)


def _row_diff(names, lhs_rows, rhs_rows):
    """(missing, extra): the edges of the rhs rows that the lhs rows lack,
    and of the lhs rows that the rhs rows lack, each as sorted label pairs
    (names[i], names[j]), i < j.  The rows are read in step, as they come.
    """
    missing, extra = [], []
    for i, (x, y) in enumerate(zip(lhs_rows, rhs_rows, strict=True)):
        if x != y:
            missing += [(names[i], names[j]) for j in _bits((y & ~x) >> (i + 1), i + 1)]
            extra += [(names[i], names[j]) for j in _bits((x & ~y) >> (i + 1), i + 1)]
    return tuple(sorted(missing)), tuple(sorted(extra))


# The reports are named tuples rather than dataclasses: the same field
# names, repr and immutability, without importing dataclasses (and
# inspect) on every call of the command line.


class SphereKneserReport(namedtuple(
        "SphereKneserReport", "n ok label_lists_equal missing_edges extra_edges")):
    """Comparison of the sphere graph against the pruned total Kneser graph.

    ``missing_edges`` are in the pruned Kneser graph but not the sphere
    graph, ``extra_edges`` in the sphere graph but not the pruned Kneser
    graph.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


def verify_lemma_sphere_kneser(n: int) -> SphereKneserReport:
    """Check sphere_graph_holed(n) == total_kneser(n) minus singleton partitions.

    Both sides stream rows from ``kneser._partition_rows``, compared row
    by row as they come by ``_row_diff``; they differ only in how they
    reach the vertex list (spherelike partitions directly, or all
    partitions with the singletons removed afterwards).  The engine independent of it is the
    pair-by-pair nesting test ``pairwise_partition_graph`` in
    ``tests/oracles.py``, which ``tests/test_kneser.py`` compares against.
    ``kneser.all_partitions`` caps n at ``MAX_GROUND_SET``.  The report
    carries the symmetric difference of the edge sets (as label pairs)
    when they differ, from the two graphs when the label lists differ.
    """
    names, lhs_rows = _sphere_rows(n)
    every = all_partitions(n)
    rhs_names, rhs_rows = _without_singletons([p.label for p in every], _partition_rows(every, n))
    labels_equal = names == rhs_names
    if labels_equal:
        missing, extra = _row_diff(names, lhs_rows, rhs_rows)
    else:
        lhs, rhs = Graph.from_rows(names, lhs_rows), Graph.from_rows(rhs_names, rhs_rows)
        lhs_named = {(lhs.labels[i], lhs.labels[j]) for i, j in lhs.sorted_edges}
        rhs_named = {(rhs.labels[i], rhs.labels[j]) for i, j in rhs.sorted_edges}
        missing = tuple(sorted(rhs_named - lhs_named))
        extra = tuple(sorted(lhs_named - rhs_named))
    ok = labels_equal and not missing and not extra
    return SphereKneserReport(n, ok, labels_equal, missing, extra)


class PetersenIsoReport(namedtuple(
        "PetersenIsoReport", "ok witness_edge reason", defaults=(None, ""))):
    """Outcome of the Petersen check; ``witness_edge`` is a pair of labels."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


def verify_petersen_isomorphism() -> PetersenIsoReport:
    """Check that 2-subset -> (2-subset | complement) maps kg(5, 2) onto
    sphere_graph_holed(5) edge for edge.

    kg(5, 2)'s rows are carried into the sphere graph's vertex order and
    compared with its rows by ``_row_diff``.  An edge of kg(5, 2) with no
    nested image is reported before a sphere-graph edge that no kg(5, 2)
    edge hits; ``witness_edge`` is the least such edge, as a pair of
    partition labels in ``_row_diff``'s sorted order.
    """
    small = kg(5, 2)
    big = sphere_graph_holed(5)
    image = [TwoBlockPartition.from_block(5, map(int, x.split())).label for x in small.labels]
    if sorted(image) != sorted(big.labels):
        return PetersenIsoReport(False, None, "vertex map is not a bijection")
    # the kg(5, 2) vertex at each sphere-graph vertex, and its row in that order
    at = [image.index(x) for x in big.labels]
    carried = (sum(1 << b for b, u in enumerate(at) if small.adj[v] >> u & 1) for v in at)
    missing, extra = _row_diff(big.labels, big.adj, carried)
    if missing:
        return PetersenIsoReport(False, missing[0], "edge of kg(5,2) has no nested image")
    if extra:
        return PetersenIsoReport(False, extra[0], "sphere-graph edge not hit by any kg(5,2) edge")
    return PetersenIsoReport(True)


def load_reference_three_coloring() -> list[dict]:
    """The transcribed 3-coloring of the 5-holed sphere graph, as shipped.

    Returns the raw (partition label, color name) records.  Nothing here
    checks properness; callers validate against the graph.
    """
    from importlib import resources  # here: no other call needs it
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
