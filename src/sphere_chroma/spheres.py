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
from functools import partial

from .graphbase import Coloring, Graph, _bits, _mask_of
from .kneser import (
    TwoBlockPartition, _check_ground_set, _kept_rows, _labels, _partition_graph, _positions, kg,
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

# `verify lemma2` compares mask-space rows and holds no graph, so its cap
# is its own, the ground set of `verify proper --r 8`: CLI calls take
# 0.39 s of CPU at 16.1 MB peak RSS at n = 15, and 0.99 s at 17.3 MB at
# n = 16 (median of 7 and 9 calls, 2-vCPU VM, Python 3.11.7)
MAX_LEMMA_N = 16


def sphere_graph_holed(n: int) -> Graph:
    """Sphere graph of the n-holed 3-sphere (empty for n < 4)."""
    _check_ground_set(n)
    return _partition_graph(_positions(n, True), n)


def _one_element_splits(n: int) -> set[int]:
    """The positions of TK_n's splits with a one-element block: the split
    of each element from the rest, made by ``TwoBlockPartition``, not
    picked out by popcount as ``kneser._positions`` picks S_n's vertices
    (n splits, one when n = 2)."""
    return {TwoBlockPartition.from_block(n, [e]).mask >> 1 for e in range(1, n + 1)}


def _row_diff(pairs, names):
    """(missing, extra): the edges of the rhs rows that the lhs rows lack,
    and of the lhs rows that the rhs rows lack, each as sorted label pairs,
    the lower bit first.  ``pairs`` gives (lhs, rhs) rows as they come,
    the row at index h that of the vertex at bit position h, and each row
    holds that vertex's edges to higher positions; ``names()`` gives the
    label at each bit position, and runs only when rows differ.
    """
    missing, extra = [], []
    for h, (x, y) in enumerate(pairs):
        if x != y:
            missing += [(h, j) for j in _bits((y & ~x) >> (h + 1), h + 1)]
            extra += [(h, j) for j in _bits((x & ~y) >> (h + 1), h + 1)]
    if not (missing or extra):
        return (), ()
    label = names()
    named = lambda pairs: tuple(sorted((label[i], label[j]) for i, j in pairs))
    return named(missing), named(extra)


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

    One walk, ``kneser._kept_rows`` over every position, gives TK_n's
    row at each split in mask space.  Each side's row there is that row
    under the side's keep mask at a split on its vertex list, and 0 off
    it; ``_row_diff`` compares the two as they come.  The S_n side's list
    is the positions whose blocks both have 2 or more elements
    (``kneser._positions``, by popcount); the TK_n side's is every
    position but ``_one_element_splits``, made from the one-element
    blocks themselves.  So the vertex lists come by two routes, and the
    edges of both sides from the one walk, which ``verify lemma2`` checks
    against no other engine.  The tests do: the pair-by-pair nesting test
    ``pairwise_partition_graph`` in ``tests/oracles.py`` for n <= 9, the
    closed-form degree of every row on both sides for n <= 14 and of a
    seeded sample of S_n's rows at n = 15 and 16, and
    ``covercolor._nested_rows``, which builds S_n's rows by another
    route, on every row for n <= 12, and at n = 14 on every row's
    same-class part and a seeded sample of whole rows.  n is capped at
    ``MAX_LEMMA_N``.  A row holds a vertex's edges to the higher
    positions on its side, so the row diff is the symmetric difference
    of the two edge sets, which the report carries as label pairs,
    whether or not the vertex lists differ; labels are built only when
    the edges differ.
    """
    if not 2 <= n <= MAX_LEMMA_N:
        raise ValueError(f"need 2 <= n <= {MAX_LEMMA_N}, got n={n}")
    every = range(2 ** (n - 1) - 1)
    positions = _positions(n, True)
    single = _one_element_splits(n)
    rhs_positions = [h for h in every if h not in single]
    # one flag byte per position marks the S_n side's list
    on = bytearray(len(every))
    for h in positions:
        on[h] = 1
    lhs, rhs = _mask_of(positions), _mask_of(rhs_positions)
    pairs = ((row & lhs if on[h] else 0, 0 if h in single else row & rhs)
             for h, row in enumerate(_kept_rows(every, n)))
    missing, extra = _row_diff(pairs, partial(_labels, n, every))
    labels_equal = positions == rhs_positions
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
    missing, extra = _row_diff(zip(big.adj, carried, strict=True), lambda: big.labels)
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
