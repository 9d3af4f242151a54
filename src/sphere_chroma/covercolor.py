"""Coloring sphere vertices by homology classes of their double-cover lifts.

The model: the connect sum of r >= 2 copies of S^1 x S^2 is built from a
2r-holed 3-sphere by gluing boundary sphere 2i-1 to boundary sphere 2i
(i = 1..r); the glued spheres g_1..g_r generate H_2 with Z/2 coefficients.
Every essential sphere in the holed piece survives as a vertex of the
glued sphere graph, keeping its partition description and its nested-pair
adjacency, and its class is the mod-2 sum of g_{ceil(j/2)} over one block.

A connected double cover corresponds to a nonzero phi in GF(2)^r: take
two sheets (copies of the holed sphere) and glue the sheet-s copy of
boundary 2i-1 to the sheet-(s xor phi_i) copy of boundary 2i.  The cover
then has 2r glued spheres G_{i,s}, s the sheet of the copy of 2i-1, and
its H_2 is spanned by them modulo one relation per sheet (the boundary of
each sheet bounds).  A sphere vertex lifts once per sheet; the color f_a
assigns to each cover the set of the two lift classes.  Two disjoint
spheres must get different colors; this module verifies that on every
edge and counts the color space the construction draws from.

Two facts keep the computation small.  First, the lift classes of a
batch of vertices in one cover come from a few operations on one int
that holds their block masks, one 32-bit field per vertex; the fields
of one batch are packed into its vertices' colors before the next batch
is computed.  For the pair of boundaries
(2i-1, 2i) with bits a, b of a mask, the sheet-0 lift has a xor b at
G_{i,0} when phi_i = 0, and a, b at G_{i,0}, G_{i,1} when phi_i = 1; the
sheet-1 lift is the same with G_{i,0} and G_{i,1} swapped (the deck
transformation).  ``GF2Quotient.canonical`` subtracts each echelon row
whose pivot a vector holds, in row order, and that is one masked shift
and one product per row for all fields at once; lo and hi then come from
one subtraction with a guard bit above each class.  Second, the covering
map sends G_{i,s} to g_i and every relation to zero, so both lift classes
of a vertex project to the vertex's own class.  Once that is checked for
every vertex and cover, two adjacent vertices in different classes have
disjoint lift sets in every cover, and only edges inside one class need
their colors compared.

Those edges need no row of the glued graph.  A vertex's class is the
parity of its block in each pair {2i-1, 2i}, so a nested split of the
same class differs from it by whole pairs: it is the vertex's block
with a union of the pairs outside it added, or one of the pairs inside
it taken away (``_nested_rows``).  Nor does the edge count: a k|n-k
split meets 2^k - k + 2^(n-k) - (n-k) - 4 others, the splits that cut
a block of 2..k-1 boundaries from its k or of 2..n-k-1 from its n-k.
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple
from itertools import chain

# the counting bound, re-exported here; `count` imports its module alone
from .counting import CountReport, count_colors
from .graphbase import Graph, _bits, _checked_rows
from .kneser import TwoBlockPartition, _partition_rows, _sphere_partitions

__all__ = [
    "CutSystemModel",
    "DoubleCover",
    "GF2Quotient",
    "ProperColoringReport",
    "ColorTable",
    "CountReport",
    "glued_sphere_graph",
    "homology_class",
    "enumerate_double_covers",
    "sheet_relation",
    "cover_h2",
    "lift_classes",
    "color_table",
    "sheet_swap",
    "class_label",
    "verify_coloring_proper",
    "homology_only_violations",
    "count_colors",
    "used_color_count",
]

# r <= 8 is the limit the packed colors set: a cover's two lift classes,
# 2r bits each, fill one 32-bit field at r = 8 (see _FIELD_BITS).
# `verify proper` runs to it: 0.2-0.35 s and 23.0 MB at r = 7, 1.2-1.6 s
# and 67.8 MB at r = 8 (CPU time and peak RSS of CLI calls, 2-vCPU VM,
# Python 3.11.7), half of it the 34 MB of packed colors
MAX_R_ENUMERATE = 8
# `color` and `generate glued` write every vertex's colors or every edge,
# 55.8 MB and 26.6 MB of JSON at r = 7; S_16, the glued model at r = 8,
# has 20.9 million edges, so their output caps them at r = 7
MAX_R_WRITTEN = 7


# The models and records are named tuples rather than dataclasses: the
# same field names, repr, hashing and immutability, without importing
# dataclasses (and inspect) on every call of the command line.  The
# models check their fields in ``__new__``.


class CutSystemModel(namedtuple("CutSystemModel", "r")):
    """Cut system with r glued spheres; boundary label pairing (2i-1, 2i)."""

    __slots__ = ()

    def __new__(cls, r: int):
        if not 2 <= r <= MAX_R_ENUMERATE:
            raise ValueError(f"r must be in 2..{MAX_R_ENUMERATE}, got {r}")
        return tuple.__new__(cls, (r,))

    @property
    def n_boundary(self) -> int:
        return 2 * self.r


class DoubleCover(namedtuple("DoubleCover", "r phi")):
    """Connected double cover, indexed by nonzero phi in GF(2)^r."""

    __slots__ = ()

    def __new__(cls, r: int, phi: tuple[int, ...]):
        if len(phi) != r:
            raise ValueError(f"phi has length {len(phi)}, expected {r}")
        if any(x not in (0, 1) for x in phi):
            raise ValueError(f"phi entries must be 0 or 1, got {phi}")
        if not any(phi):
            raise ValueError("phi = 0 gives the disconnected (trivial) cover")
        return tuple.__new__(cls, (r, phi))

    @property
    def bitstring(self) -> str:
        return "".join(map(str, self.phi))


def enumerate_double_covers(r: int) -> list[DoubleCover]:
    """All 2^r - 1 connected double covers, ascending by phi as a binary
    number with phi_1 the most significant bit."""
    if not 1 <= r <= MAX_R_ENUMERATE:
        raise ValueError(f"r must be in 1..{MAX_R_ENUMERATE}, got {r}")
    return [
        DoubleCover(r, tuple(m >> (r - i) & 1 for i in range(1, r + 1)))
        for m in range(1, 1 << r)
    ]


def _gen(i: int, s: int) -> int:
    # generator index of G_{i,s} in the cover basis, i is 1-based
    return 2 * (i - 1) + s


def _hom_label(bits: int, r: int) -> str:
    """Human-readable form of a class over g_1..g_r, "g1+g3" style."""
    if not bits:
        return "0"
    return "+".join(f"g{i + 1}" for i in range(r) if bits >> i & 1)


def class_label(bits: int, r: int) -> str:
    """Human-readable form of a cover class bitmask, "G1,0+G2,1" style."""
    if not bits:
        return "0"
    names = []
    for idx in range(2 * r):
        if bits >> idx & 1:
            names.append(f"G{idx // 2 + 1},{idx % 2}")
    return "+".join(names)


def _gf2_rref(vectors, dim: int) -> tuple[int, ...]:
    # reduced row echelon form over GF(2); rows keep mutually exclusive pivots
    rows: list[int] = []
    for v in vectors:
        if v >> dim:
            raise ValueError("relation out of range for declared dimension")
        for row in rows:
            if v & (row & -row):
                v ^= row
        if v:
            pivot = v & -v
            rows = [row ^ v if row & pivot else row for row in rows]
            rows.append(v)
    rows.sort(key=lambda row: row & -row)
    return tuple(rows)


class GF2Quotient(namedtuple("GF2Quotient", "dim rows")):
    """GF(2) space on 2r generators modulo a list of relations."""

    __slots__ = ()

    @classmethod
    def from_relations(cls, dim: int, relations) -> "GF2Quotient":
        return cls(dim, _gf2_rref(relations, dim))

    @property
    def rank(self) -> int:
        return self.dim - len(self.rows)

    def canonical(self, bits: int) -> int:
        """Canonical coset representative: reduce by the echelon rows."""
        for row in self.rows:
            if bits & (row & -row):
                bits ^= row
        return bits


def _boundary_lifts(model: CutSystemModel, cover: DoubleCover, s: int) -> list[int]:
    # raw class of the sheet-s lift of each one-boundary block {j}, index j - 1:
    # the sheet-s copy of boundary 2i-1 is glued into G_{i,s}, that of
    # boundary 2i into G_{i, s xor phi_i}
    out = []
    for i in range(1, model.r + 1):
        out.append(1 << _gen(i, s))
        out.append(1 << _gen(i, s ^ cover.phi[i - 1]))
    return out


def sheet_relation(model: CutSystemModel, cover: DoubleCover, s: int) -> int:
    """Boundary relation of sheet s: the xor of its 2r boundary lifts,
    sum over i of G_{i,s} + G_{i, s xor phi_i}."""
    bits = 0
    for b in _boundary_lifts(model, cover, s):
        bits ^= b
    return bits


def cover_h2(model: CutSystemModel, cover: DoubleCover) -> GF2Quotient:
    """H_2 of the double cover: 2r glued-sphere generators, one relation
    per sheet (the two relations coincide, so the rank is always 2r - 1)."""
    if cover.r != model.r:
        raise ValueError(f"cover has r={cover.r}, model has r={model.r}")
    rel = (sheet_relation(model, cover, 0), sheet_relation(model, cover, 1))
    return GF2Quotient.from_relations(2 * model.r, rel)


def homology_class(model: CutSystemModel, p: TwoBlockPartition) -> int:
    """Class of the glued image of sphere p: sum of g_{ceil(j/2)} over a block,
    as bits over g_1..g_r (bit i - 1 for g_i).

    The complementary block gives the same class (the full sum hits every
    g_i twice), and the class is zero exactly when every pair (2i-1, 2i)
    sits inside one block, i.e. when the image separates.
    """
    if p.n != model.n_boundary:
        raise ValueError(f"partition is over {p.n} labels, model has {model.n_boundary}")
    bits = 0
    for j in p.block_a:
        bits ^= 1 << ((j - 1) // 2)
    return bits


def _span_table(basis: list[int]) -> list[int]:
    """table[m] = xor of basis[j] over the set bits j of m, for every m."""
    table = [0]
    for b in basis:
        table += [x ^ b for x in table]
    return table


def lift_classes(
    model: CutSystemModel,
    cover: DoubleCover,
    p: TwoBlockPartition,
    quotient: GF2Quotient | None = None,
) -> frozenset:
    """Set of the (1 or 2) canonical classes of the two lifts of p in the cover.

    This is the per-vertex reference that ``color_table``'s word-parallel
    fields are tested against; no CLI path runs it.
    """
    if quotient is None:
        quotient = cover_h2(model, cover)
    out = []
    for s in (0, 1):
        bits = 0
        for j, b in enumerate(_boundary_lifts(model, cover, s)):
            if p.mask >> j & 1:
                bits ^= b
        out.append(quotient.canonical(bits))
    return frozenset(out)


def sheet_swap(bits: int, r: int) -> int:
    """Deck transformation on a raw class: swap G_{i,0} with G_{i,1}.

    Runs on no CLI path; it stays public for the test property it pins,
    that the deck transformation carries one sheet's lift onto the other's.
    """
    out = 0
    for i in range(r):
        pair = bits >> (2 * i) & 3
        out |= ((pair >> 1) | ((pair & 1) << 1)) << (2 * i)
    return out


def glued_sphere_graph(model: CutSystemModel, include_cut_spheres: bool = False) -> Graph:
    """Sphere vertices of the glued manifold with nested-pair adjacency.

    Vertices and edges agree with sphere_graph_holed(2r): gluing keeps
    every vertex and every disjointness.  With ``include_cut_spheres`` the
    r cut spheres are appended as vertices g1..gr, adjacent to every
    partition vertex and to each other (all disjoint by construction).
    """
    return Graph.from_rows(*_glued_rows(model, include_cut_spheres))


def _glued_rows(model: CutSystemModel, include_cut_spheres: bool = False):
    """glued_sphere_graph's labels (a list) and rows (one at a time):
    S_{2r}'s rows, each cut sphere adjacent to every vertex."""
    parts, _, labels = _vertices(model, include_cut_spheres)
    base, n = len(parts), len(labels)
    full = (1 << n) - 1
    cuts = full ^ (1 << base) - 1
    rows = (row | cuts for row in _partition_rows(parts, model.n_boundary))
    return labels, _checked_rows(chain(rows, (full ^ 1 << v for v in range(base, n))), n)


def _vertices(model: CutSystemModel, include_cut_spheres: bool):
    """The model's sphere partitions, and the block masks and labels of
    the glued model's vertices: the cut sphere g_i is the one-boundary
    block {2i-1}.  Raises ``ValueError`` for r > 8, whose colors do not
    fit a field."""
    if 4 * model.r > _FIELD_BITS:
        raise ValueError(
            f"color_table packs 4r bits per cover into {_FIELD_BITS}, so r <= 8; got r={model.r}")
    parts = _sphere_partitions(model.n_boundary)
    masks, labels = [p.mask for p in parts], [p.label for p in parts]
    if include_cut_spheres:
        masks += [1 << (2 * i - 2) for i in range(1, model.r + 1)]
        labels += [f"g{i}" for i in range(1, model.r + 1)]
    return parts, masks, labels


def _nested_rows(masks, n: int, steps, vertices):
    """The row of each vertex in ``vertices``, one at a time, among the
    vertices whose blocks over the n boundaries are ``masks``.

    With a the vertex's block, its neighbours are the splits with a block
    a ^ u, for u a nonempty union of ``steps`` that lies outside a or one
    that lies inside a; a block and its complement name one split.  With
    every boundary as a step that is every neighbour; with the pairs
    {2i-1, 2i}, every neighbour in the vertex's own class.
    """
    full = (1 << n) - 1
    index = array("i", [-1]) * (full + 1)
    for v, m in enumerate(masks):
        index[m] = index[m ^ full] = v
    for a in (masks[v] for v in vertices):
        hits = (index[a ^ u] for side in (~a, a)
                for u in _span_table([s for s in steps if s & side == s])[1:])
        yield sum(1 << w for w in hits if w >= 0)


# A packed color holds one field per cover: the vertex's lo and hi lift
# classes, 2r bits each, so 4r <= _FIELD_BITS bounds r at 8.  The fields
# are items of an array('I'), a C unsigned int, 32 bits wide on the
# platforms Python supports.
_FIELD_BITS = 32


def _every_field(count: int) -> int:
    """1 at bit 0 of each of ``count`` fields: a product with it copies a
    field-sized constant into every field."""
    return ((1 << _FIELD_BITS * count) - 1) // ((1 << _FIELD_BITS) - 1)


class ColorTable(namedtuple("ColorTable", "r covers labels hom keys")):
    """The color f of every vertex of the glued model, in graph vertex order.

    ``hom[v]`` is the mod-2 class of v as bits over g_1..g_r.  ``keys[v]``
    packs f(v): one 32-bit field per cover, the first cover in the most
    significant field, holding ``lo << width | hi`` for the two lift
    classes lo <= hi.  Equal keys are equal colors.  ``covers`` are the
    ``DoubleCover`` objects in canonical order, ``labels`` the vertex
    labels.
    """

    __slots__ = ()

    @property
    def width(self) -> int:
        return 2 * self.r

    def fields(self, v: int) -> array:
        """The fields ``lo << width | hi`` of f(v), in canonical cover order."""
        out = array("I", self.keys[v].to_bytes(_FIELD_BITS // 8 * len(self.covers), "big"))
        if sys.byteorder == "little":
            out.byteswap()
        return out

    def classes(self, field: int) -> tuple[int, ...]:
        """The distinct lift classes of one field, ascending."""
        w = self.width
        lo, hi = field >> w, field & ((1 << w) - 1)
        return (lo,) if lo == hi else (lo, hi)

    def entries(self, v: int) -> tuple[frozenset, ...]:
        """f(v) as one set of (1 or 2) lift classes per cover, in canonical
        cover order."""
        return tuple(frozenset(self.classes(f)) for f in self.fields(v))


def color_table(model: CutSystemModel, include_cut_spheres: bool = False) -> ColorTable:
    """Homology classes and colors of every vertex of glued_sphere_graph.

    Each vertex is a block mask over the 2r boundaries; the cut sphere g_i
    is the one-boundary block {2i-1}.  The masks of a batch of vertices
    are packed into one int, one 32-bit field per vertex, and each cover
    computes the two lift classes of every vertex of the batch with a
    few masked shifts of it (see the module docstring).  Raises
    ``ValueError`` for r > 8, whose classes do not fit a field.
    """
    return _color_table(model, *_vertices(model, include_cut_spheres)[1:])


# Vertices per batch of _color_table.  A batch's fields, 4 bytes per cover
# and vertex, live only until they are packed into its keys, so the table
# peaks at its keys plus one batch: 0.5 MB at r = 7 and 1 MB at r = 8,
# against keys of 4.4 MB and 34 MB.  Shorter batches lower neither peak
# by much, and each adds a pass of every cover's shifts: 256 took
# color_table at r = 8 from 0.52 to 0.68 s (2-vCPU VM, Python 3.11.7).
_BATCH = 1024


def _color_table(model: CutSystemModel, masks: list[int], labels: list[str]) -> ColorTable:
    """color_table of the vertices with block masks ``masks``."""
    r = model.r
    covers = enumerate_double_covers(r)
    hom_of = _span_table([1 << (j // 2) for j in range(model.n_boundary)])
    # per cover: bit 2(i-1) set where phi_i = 1, and the echelon rows of
    # its H_2 with their pivots
    plans = [
        (sum(1 << 2 * i for i in range(r) if cover.phi[i]),
         [(row, (row & -row).bit_length() - 1) for row in cover_h2(model, cover).rows])
        for cover in covers
    ]
    keys = []
    for start in range(0, len(masks), _BATCH):
        keys += _batch_keys(r, masks[start:start + _BATCH], plans)
    return ColorTable(r, tuple(covers), tuple(labels), tuple(hom_of[m] for m in masks), tuple(keys))


def _batch_keys(r: int, masks: list[int], plans) -> list[int]:
    """The keys of the vertices with block masks ``masks``: every cover's
    fields for all of them at once, then read out one vertex at a time."""
    n, w = len(masks), 2 * r
    ones = _every_field(n)
    packed = int.from_bytes(array("I", masks), sys.byteorder)
    # bit 2(i-1) of a field of pair_sums: the bits of 2i-1 and 2i summed
    pair_sums = packed ^ packed >> 1
    pair_low = sum(1 << 2 * i for i in range(r)) * ones
    fields = array("I")
    for phi_bits, rows in plans:
        # bit 2(i-1) of each field set where phi_i = 1
        twisted = phi_bits * ones
        # phi_i = 0: both copies glue into G_{i,s}; phi_i = 1: sheet 0 keeps
        # the pair as it is, sheet 1 swaps it
        summed = pair_sums & (pair_low ^ twisted)
        sheet0 = summed | packed & (twisted | twisted << 1)
        sheet1 = summed << 1 | packed >> 1 & twisted | (packed & twisted) << 1
        for row, pivot in rows:
            sheet0 ^= (sheet0 >> pivot & ones) * row
            sheet1 ^= (sheet1 >> pivot & ones) * row
        # 1 in the fields where sheet1 >= sheet0: there the guard bit w
        # above sheet1's class survives the subtraction
        ordered = ((sheet1 | ones << w) - sheet0) >> w & ones
        swap = (sheet0 ^ sheet1) & (ones - ordered) * ((1 << w) - 1)
        pair = (sheet0 ^ swap) << w | sheet1 ^ swap
        fields.frombytes(pair.to_bytes(_FIELD_BITS // 8 * n, sys.byteorder))
    if sys.byteorder == "little":
        fields.byteswap()
    by_vertex = memoryview(fields)
    return [int.from_bytes(by_vertex[v::n], "big") for v in range(n)]


class ProperColoringReport(namedtuple(
        "ProperColoringReport",
        "r vertices edges violations homologous_pairs ok projection_failures",
        defaults=((),))):
    """Outcome of ``verify_coloring_proper``; ``projection_failures`` are
    the labels of the vertices whose lifts miss their class."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        doc = {
            "r": self.r,
            "vertices": self.vertices,
            "edges": self.edges,
            "violations": [list(v) for v in self.violations],
            "homologous_pairs": [
                {"a": a, "b": b, "witness_phi": w} for a, b, w in self.homologous_pairs
            ],
        }
        if self.projection_failures:
            doc["projection_failures"] = list(self.projection_failures)
        doc["ok"] = self.ok
        return doc


def verify_coloring_proper(
    model: CutSystemModel, include_cut_spheres: bool = False
) -> ProperColoringReport:
    """Check that f gives different colors to every adjacent (disjoint) pair.

    First every vertex is checked once per cover: both lift classes must
    project to the vertex's own class.  Then only edges inside one class
    are compared; for each the report records a violation when the colors
    are equal, else the first cover (in canonical order) whose lift sets
    split the pair.  A vertex failing the projection check is reported
    and compared with all of its neighbours.  No row of S_{2r} is built:
    a vertex's neighbours in its own class come from ``_nested_rows`` with
    the pairs as steps, a failed vertex's from every boundary, and the
    edge count from each vertex's degree.
    """
    if model.r < 3:
        raise ValueError(
            "verify_coloring_proper needs r >= 3; r = 2 is handled by the farey module"
        )
    masks, labels = _vertices(model, include_cut_spheres)[1:]
    table = _color_table(model, masks, labels)
    labels, hom, keys = table.labels, table.hom, table.keys
    witness = [c.bitstring for c in table.covers]
    covers = len(table.covers)
    w = table.width
    # covering projection G_{i,s} -> g_i on a packed key: bit 2(i-1) of each
    # class (lo and hi of each cover field) becomes the xor of the class's
    # bits 2(i-1) and 2i-1
    ones = _every_field(covers)
    even = (4**w - 1) // 3 * ones
    spread = _span_table([1 << (2 * i) for i in range(model.r)])
    every_field = (1 << w | 1) * ones
    bad = [v for v, key in enumerate(keys) if (key ^ key >> 1) & even != spread[hom[v]] * every_field]
    n = model.n_boundary
    # a failed vertex is compared with every neighbour: its row has every
    # boundary as a step, and it joins the rows of those neighbours
    extra = dict(zip(bad, _nested_rows(masks, n, [1 << j for j in range(n)], bad)))
    for v in bad:
        for i in _bits(extra[v]):
            extra[i] = extra.get(i, 0) | 1 << v
    violations = []
    homologous = []
    for i, row in enumerate(_nested_rows(masks, n, _pairs(n), range(len(masks)))):
        for j in _bits((row | extra.get(i, 0)) >> (i + 1), i + 1):
            diff = keys[i] ^ keys[j]
            if not diff:
                violations.append((labels[i], labels[j]))
            elif hom[i] == hom[j]:
                t = covers - 1 - (diff.bit_length() - 1) // _FIELD_BITS
                homologous.append((labels[i], labels[j], witness[t]))
    # degrees from the module docstring's count, which reads V - 1 for g_i,
    # a 1|n-1 split that meets all V sphere partitions: so the r cut
    # spheres add r to every vertex's degree
    cut = model.r if include_cut_spheres else 0
    degrees = sum(2**k + 2 ** (n - k) - n - 4 + cut for k in map(int.bit_count, masks))
    return ProperColoringReport(
        model.r,
        len(labels),
        degrees // 2,
        tuple(violations),
        tuple(homologous),
        not violations and not bad,
        tuple(labels[v] for v in bad),
    )


def _pairs(n: int) -> list[int]:
    """The boundary pairs {2i-1, 2i} of n boundaries, as masks."""
    return [3 << j for j in range(0, n, 2)]


def homology_only_violations(model: CutSystemModel) -> list[tuple[str, str, str]]:
    """Negative control: color by homology class alone, ignoring covers.

    Returns the adjacent pairs that collide, with the shared class; for
    r >= 3 this list is nonempty, which is what forces the covers into
    the construction.  Runs on no CLI path; it stays public as acceptance
    criterion 5's negative control.
    """
    masks, labels = _vertices(model, False)[1:]
    hom = _color_table(model, masks, labels).hom
    rows = _nested_rows(masks, model.n_boundary, _pairs(model.n_boundary), range(len(masks)))
    return [(labels[i], labels[j], _hom_label(hom[i], model.r))
            for i, row in enumerate(rows) for j in _bits(row >> (i + 1), i + 1)]


def used_color_count(model: CutSystemModel) -> int:
    """Number of distinct f values over the sphere vertices.

    Runs on no CLI path; it stays public for the cover coloring's color
    count, which ROADMAP items 5 and 6 set against the lower bounds.
    """
    return len(set(color_table(model).keys))
