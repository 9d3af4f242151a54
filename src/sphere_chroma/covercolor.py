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

Two facts keep the computation small.  First, a lift class is linear in
the block mask: the raw class of a lift is the xor of the lifts of the
one-boundary blocks in it, and ``GF2Quotient.canonical`` is a linear
projection (it subtracts the echelon rows a vector's pivots select).  So
per cover and sheet the 2r one-boundary lifts are reduced once, and the
class of every block is read from the table of their xors.  Second, the
covering map sends G_{i,s} to g_i and every relation to zero, so both
lift classes of a vertex project to the vertex's own class.  Once that
is checked for every vertex and cover, two adjacent vertices in
different classes have disjoint lift sets in every cover, and only
edges inside one class need their colors compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphcore import Graph, _bits, _class_masks
from .kneser import MAX_GROUND_SET, TwoBlockPartition, spherelike_partitions
from .spheres import sphere_graph_holed

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

# the 2r-holed sphere must fit kneser's ground-set cap (r = 7 at 14);
# `color --r 8` also passes 1 GB of memory (CHANGES.md)
MAX_R_ENUMERATE = MAX_GROUND_SET // 2


@dataclass(frozen=True)
class CutSystemModel:
    """Cut system with r glued spheres; boundary label pairing (2i-1, 2i)."""

    r: int

    def __post_init__(self):
        if not 2 <= self.r <= MAX_R_ENUMERATE:
            raise ValueError(f"r must be in 2..{MAX_R_ENUMERATE}, got {self.r}")

    @property
    def n_boundary(self) -> int:
        return 2 * self.r


@dataclass(frozen=True)
class DoubleCover:
    """Connected double cover, indexed by nonzero phi in GF(2)^r."""

    r: int
    phi: tuple[int, ...]

    def __post_init__(self):
        if len(self.phi) != self.r:
            raise ValueError(f"phi has length {len(self.phi)}, expected {self.r}")
        if any(x not in (0, 1) for x in self.phi):
            raise ValueError(f"phi entries must be 0 or 1, got {self.phi}")
        if not any(self.phi):
            raise ValueError("phi = 0 gives the disconnected (trivial) cover")

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


@dataclass(frozen=True)
class GF2Quotient:
    """GF(2) space on 2r generators modulo a list of relations."""

    dim: int
    rows: tuple[int, ...]

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

    This is the per-vertex reference that ``color_table``'s span-table
    reads are tested against; no CLI path runs it.
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
    """Deck transformation on a raw class: swap G_{i,0} with G_{i,1}."""
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
    g = sphere_graph_holed(model.n_boundary)
    if not include_cut_spheres:
        return g
    base, n = g.n, g.n + model.r
    cuts = ((1 << n) - 1) ^ ((1 << base) - 1)
    rows = [row | cuts for row in g.adj]
    rows += [((1 << n) - 1) ^ (1 << v) for v in range(base, n)]
    return Graph.from_rows(list(g.labels) + [f"g{i}" for i in range(1, model.r + 1)], rows)


@dataclass(frozen=True)
class ColorTable:
    """The color f of every vertex of the glued model, in graph vertex order.

    ``hom[v]`` is the mod-2 class of v as bits over g_1..g_r.  ``keys[v]``
    packs f(v): one field of 2 * width bits per cover, the first cover in
    the most significant field, holding the two lift classes lo <= hi
    (lo in the upper half).  Equal keys are equal colors.
    """

    r: int
    covers: tuple[DoubleCover, ...]
    labels: tuple[str, ...]
    hom: tuple[int, ...]
    keys: tuple[int, ...]

    @property
    def width(self) -> int:
        return 2 * self.r

    def entries(self, v: int) -> tuple[frozenset, ...]:
        """f(v) as one set of (1 or 2) lift classes per cover, in canonical
        cover order."""
        w = self.width
        field = (1 << w) - 1
        key = self.keys[v]
        out = []
        for t in range(len(self.covers) - 1, -1, -1):
            pair = key >> (2 * w * t)
            out.append(frozenset((pair >> w & field, pair & field)))
        return tuple(out)


def color_table(model: CutSystemModel, include_cut_spheres: bool = False) -> ColorTable:
    """Homology classes and colors of every vertex of glued_sphere_graph.

    Each vertex is a block mask over the 2r boundaries; the cut sphere g_i
    is the one-boundary block {2i-1}.  Per cover and sheet the 2r
    one-boundary lifts are reduced once and every block's class is read
    from their span table (the reduction is linear).
    """
    covers = enumerate_double_covers(model.r)
    parts = spherelike_partitions(model.n_boundary)
    labels = [p.label for p in parts]
    masks = [p.mask for p in parts]
    if include_cut_spheres:
        labels += [f"g{i}" for i in range(1, model.r + 1)]
        masks += [1 << (2 * i - 2) for i in range(1, model.r + 1)]
    hom_of = _span_table([1 << (j // 2) for j in range(model.n_boundary)])
    w = 2 * model.r
    keys = [0] * len(masks)
    for cover in covers:
        q = cover_h2(model, cover)
        sheet0, sheet1 = (
            _span_table([q.canonical(b) for b in _boundary_lifts(model, cover, s)])
            for s in (0, 1)
        )
        keys = [
            key << 2 * w | (a << w | b if a <= b else b << w | a)
            for key, a, b in zip(keys, map(sheet0.__getitem__, masks), map(sheet1.__getitem__, masks))
        ]
    return ColorTable(
        model.r, tuple(covers), tuple(labels), tuple(hom_of[m] for m in masks), tuple(keys)
    )


@dataclass(frozen=True)
class ProperColoringReport:
    r: int
    vertices: int
    edges: int
    violations: tuple
    homologous_pairs: tuple
    ok: bool
    projection_failures: tuple = ()  # labels of vertices whose lifts miss their class

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
    and compared with all of its neighbours.
    """
    if model.r < 3:
        raise ValueError(
            "verify_coloring_proper needs r >= 3; r = 2 is handled by the farey module"
        )
    g = glued_sphere_graph(model, include_cut_spheres)
    table = color_table(model, include_cut_spheres)
    if g.labels != table.labels:
        raise RuntimeError("color table and glued graph list different vertices")
    labels, hom, keys = table.labels, table.hom, table.keys
    covers = len(table.covers)
    w = table.width
    # covering projection G_{i,s} -> g_i on a packed key: bit 2(i-1) of each
    # class field becomes the xor of the field's bits 2(i-1) and 2i-1
    even = (4 ** (covers * w) - 1) // 3
    spread = _span_table([1 << (2 * i) for i in range(model.r)])
    every_field = sum(1 << f * w for f in range(2 * covers))
    bad = [v for v in range(g.n) if (keys[v] ^ keys[v] >> 1) & even != spread[hom[v]] * every_field]
    bad_mask = sum(1 << v for v in bad)
    same_class = _class_masks(hom)
    violations = []
    homologous = []
    for i, row in enumerate(g.adj):
        if not bad_mask >> i & 1:
            row &= same_class[hom[i]] | bad_mask
        for j in _bits(row >> (i + 1), i + 1):
            diff = keys[i] ^ keys[j]
            if not diff:
                violations.append((labels[i], labels[j]))
            elif hom[i] == hom[j]:
                t = covers - 1 - (diff.bit_length() - 1) // (2 * w)
                homologous.append((labels[i], labels[j], table.covers[t].bitstring))
    return ProperColoringReport(
        model.r,
        g.n,
        g.m,
        tuple(violations),
        tuple(homologous),
        not violations and not bad,
        tuple(labels[v] for v in bad),
    )


def homology_only_violations(model: CutSystemModel) -> list[tuple[str, str, str]]:
    """Negative control: color by homology class alone, ignoring covers.

    Returns the adjacent pairs that collide, with the shared class; for
    r >= 3 this list is nonempty, which is what forces the covers into
    the construction.
    """
    g = glued_sphere_graph(model)
    table = color_table(model)
    same_class = _class_masks(table.hom)
    out = []
    for i, row in enumerate(g.adj):
        name = _hom_label(table.hom[i], model.r)
        for j in _bits((row & same_class[table.hom[i]]) >> (i + 1), i + 1):
            out.append((table.labels[i], table.labels[j], name))
    return out


@dataclass(frozen=True)
class CountReport:
    r: int
    rank_mode: str
    t: int
    m: int
    per_cover: int
    x: int
    log2_f: float
    bound_9r2r: int
    ok: bool
    note: str


def count_colors(r: int, rank_mode: str) -> CountReport:
    """Size of the color space: t = 2^r - 1 covers, per cover the sets of
    size 1 or 2 drawn from 2^m classes, f ranging over x^t functions.

    rank_mode "paper" takes the declared per-cover rank m = 4r - 2 and
    checks log2 |F| <= 9 r 2^r; rank_mode "computed" takes m = 2r - 1,
    the rank cover_h2 actually produces.  The modes disagree; the note
    field says so.  A failed bound is reported as ok False in either
    mode (the CLI prints "ok":false and exits 2); it holds for r = 2..16.
    """
    if not 2 <= r <= 16:
        raise ValueError(f"r must be in 2..16, got {r}")
    if rank_mode not in ("paper", "computed"):
        raise ValueError(f"rank_mode must be 'paper' or 'computed', got {rank_mode!r}")
    t = 2**r - 1
    m = 4 * r - 2 if rank_mode == "paper" else 2 * r - 1
    per_cover = 2**m + math.comb(2**m, 2)
    x = t * per_cover
    log2_f = t * math.log2(x)
    bound = 9 * r * 2**r
    ok = log2_f <= bound
    note = (
        f"rank modes disagree: paper mode uses m=4r-2={4 * r - 2}, "
        f"computed cover homology gives m=2r-1={2 * r - 1}"
    )
    return CountReport(r, rank_mode, t, m, per_cover, x, log2_f, bound, ok, note)


def used_color_count(model: CutSystemModel) -> int:
    """Number of distinct f values over the sphere vertices."""
    return len(set(color_table(model).keys))
