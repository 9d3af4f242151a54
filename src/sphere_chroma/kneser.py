"""Kneser graphs and their two-block-partition ("total") variant.

kg(n, k) has the k-subsets of {1..n} as vertices, joined when disjoint.
total_kneser(n) has the unordered partitions of {1..n} into two nonempty
blocks as vertices, joined when one block of one partition is contained
in a block of the other.  Partitions are canonicalized so that block_a
is the block containing element 1; bitmasks carry the blocks (bit e-1
set when element e is in block_a).

Partition graphs are built row by row, without testing pairs.  For
canonical masks a and c (both odd) with complements ~a and ~c, the four
containments of ``nested`` read:

- a <= c: c is a superset of a;
- a <= ~c: never, since element 1 is in a and not in ~c;
- ~a <= c: c is a superset of ~a | 1 (c is odd);
- ~a <= ~c: c is a subset of a, and contains element 1.

So the neighbours of a are the supersets of a, the proper subsets of a
that contain element 1, and the supersets of ~a | 1, the full set
excluded.  The families are disjoint: a common member of the first two
would be a itself, of the first and third the full set, and no subset
of a contains ~a.  Over positions h = c >> 1, with F = 2^(n-1) - 1 the
full set and A = a >> 1, they are Sup(A), Sub(A) and Sup(F ^ A): bit
indicators that n - 1 shift-or steps grow from one bit, so a row costs
O(n) big-int steps, where a pair scan tests every other vertex.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, compress

from .graphcore import Graph

__all__ = [
    "TwoBlockPartition",
    "kg",
    "nested",
    "total_kneser",
    "remove_singleton_partitions",
    "all_partitions",
    "spherelike_partitions",
]

# Caps on what a CLI call may build (CHANGES.md): `generate total-kneser
# --n 14` takes 1.4 s at 109 MB peak RSS, n = 15 4.0 s and 321 MB for
# 91 MB of JSON (in-process); `generate kneser --n 3500 --k 1`, the
# densest kg at the cap, 6.0 s at 628 MB, mostly kg's own edge list.
MAX_GROUND_SET = 14
MAX_KG_VERTICES = 3500


# mask digits ("0"/"1", element 1 first) to 0/1 flags for each block
_IN_BLOCK_A = bytes.maketrans(b"01", b"\x00\x01")
_IN_BLOCK_B = bytes.maketrans(b"01", b"\x01\x00")


@functools.cache
def _element_names(n: int) -> tuple[str, ...]:
    """Digit string of each element of {1..n}, element e at index e - 1."""
    return tuple(map(str, range(1, n + 1)))


@dataclass(frozen=True)
class TwoBlockPartition:
    """Unordered partition of {1..n} into two nonempty blocks.

    Canonical form: ``mask`` is the bitmask of the block containing
    element 1, so ``mask`` is odd and never the full set.
    """

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"ground set must have at least 2 elements, got n={self.n}")
        full = (1 << self.n) - 1
        m = self.mask
        if not 0 < m < full:
            raise ValueError("both blocks must be nonempty")
        if m & ~full:
            raise ValueError(f"mask {m:#x} out of range for n={self.n}")
        if not m & 1:
            object.__setattr__(self, "mask", m ^ full)

    @classmethod
    def from_block(cls, n: int, members) -> TwoBlockPartition:
        m = 0
        for e in members:
            if not 1 <= e <= n:
                raise ValueError(f"element {e} out of range 1..{n}")
            if m >> (e - 1) & 1:
                raise ValueError(f"repeated element {e}")
            m |= 1 << (e - 1)
        return cls(n, m)

    @classmethod
    def from_label(cls, text: str) -> TwoBlockPartition:
        """Parse "1 2|3 4 5" form; the two sides must partition 1..n."""
        left, sep, right = text.partition("|")
        if not sep:
            raise ValueError(f"partition label {text!r} has no '|'")
        try:
            a = [int(x) for x in left.split()]
            b = [int(x) for x in right.split()]
        except ValueError:
            raise ValueError(f"partition label {text!r} has non-integer entries") from None
        n = len(a) + len(b)
        if sorted(a + b) != list(range(1, n + 1)):
            raise ValueError(f"label {text!r} does not partition 1..{n}")
        if not a or not b:
            raise ValueError(f"label {text!r} has an empty block")
        return cls.from_block(n, a)

    @property
    def block_a(self) -> tuple[int, ...]:
        return tuple(e for e in range(1, self.n + 1) if self.mask >> (e - 1) & 1)

    @property
    def block_b(self) -> tuple[int, ...]:
        return tuple(e for e in range(1, self.n + 1) if not self.mask >> (e - 1) & 1)

    @property
    def min_block_size(self) -> int:
        c = self.mask.bit_count()
        return min(c, self.n - c)

    @property
    def label(self) -> str:
        """"1 2|3 4 5" form: block_a, then block_b, each ascending."""
        names = _element_names(self.n)
        digits = f"{self.mask:0{self.n}b}".encode()[::-1]  # element 1 first
        a = " ".join(compress(names, digits.translate(_IN_BLOCK_A)))
        b = " ".join(compress(names, digits.translate(_IN_BLOCK_B)))
        return f"{a}|{b}"

    def __str__(self):
        return self.label


def nested(p: TwoBlockPartition, q: TwoBlockPartition) -> bool:
    """True when a block of p is contained in a block of q.

    The condition is symmetric: a block containment one way forces the
    complementary containment the other way.  nested(p, p) is True.
    """
    if p.n != q.n:
        raise ValueError(f"mismatched ground sets: n={p.n} vs n={q.n}")
    full = (1 << p.n) - 1
    a, c = p.mask, q.mask
    b, d = a ^ full, c ^ full
    return not (a & ~c) or not (a & ~d) or not (b & ~c) or not (b & ~d)


def kg(n: int, k: int) -> Graph:
    """Kneser graph on k-subsets of {1..n}; labels are sorted member lists."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if n < 2 * k:
        raise ValueError(f"kg requires n >= 2k, got n={n}, k={k}")
    if math.comb(n, k) > MAX_KG_VERTICES:
        raise ValueError(
            f"refusing kg({n}, {k}): C({n}, {k}) = {math.comb(n, k)} vertices "
            f"exceeds {MAX_KG_VERTICES}"
        )
    subsets = list(combinations(range(1, n + 1), k))
    labels = [" ".join(map(str, s)) for s in subsets]
    masks = [sum(1 << (e - 1) for e in s) for s in subsets]
    edges = [
        (i, j)
        for i in range(len(masks))
        for j in range(i + 1, len(masks))
        if not masks[i] & masks[j]
    ]
    return Graph(labels, edges)


def all_partitions(n: int) -> list[TwoBlockPartition]:
    """All 2^(n-1) - 1 canonical partitions, ascending by block_a mask."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > MAX_GROUND_SET:
        raise ValueError(f"refusing n={n} > {MAX_GROUND_SET} (vertex count 2^(n-1) - 1)")
    full = (1 << n) - 1
    return [TwoBlockPartition(n, m) for m in range(1, full, 2)]


def spherelike_partitions(n: int) -> list[TwoBlockPartition]:
    """The canonical partitions with both blocks of size at least 2."""
    return [p for p in all_partitions(n) if p.min_block_size >= 2]


def _partition_graph(parts: list[TwoBlockPartition], n: int) -> Graph:
    """Nested-pair graph on ``parts``, strictly ascending by mask, as bit rows.

    A row is the module docstring's three families less bits A and F,
    with each position not in ``parts`` then deleted, highest first, as
    in ``remove_singleton_partitions``, so that bit v is vertex v.
    """
    pos = [p.mask >> 1 for p in parts]
    if any(x >= y for x, y in zip(pos, pos[1:])):
        raise ValueError("partitions must be strictly ascending by mask")
    full = (1 << (n - 1)) - 1
    keep = set(pos)
    lows = [(1 << h) - 1 for h in range(full - 1, -1, -1) if h not in keep]
    steps = [1 << i for i in range(n - 1)]
    rows = []
    for h in pos:
        sup = sub = 1 << h
        sup_out = 1 << (full ^ h)
        for s in steps:
            if h & s:
                sub |= sub >> s
                sup_out |= sup_out << s
            else:
                sup |= sup << s
        row = (sup | sub | sup_out) & ~(1 << h | 1 << full)
        for low in lows:
            row = row & low | row >> 1 & ~low
        rows.append(row)
    return Graph.from_rows([p.label for p in parts], rows)


def total_kneser(n: int) -> Graph:
    """Graph on all two-block partitions of {1..n}, edges between nested pairs."""
    parts = all_partitions(n)
    return _partition_graph(parts, n)


def remove_singleton_partitions(g: Graph) -> Graph:
    """g without the partition vertices that have a one-element block.

    Each such vertex v is deleted where it stands, highest index first,
    so the indices still to visit do not move.  Its label and row go, and
    every other row loses bit v: with ``low = (1 << v) - 1`` the bits
    below v stay (``row & low``) and the bits above it move down one
    (``row >> 1 & ~low``).  The remaining vertices keep their order.
    """
    labels = list(g.labels)
    rows = list(g.adj)
    for v in range(len(labels) - 1, -1, -1):
        if TwoBlockPartition.from_label(labels[v]).min_block_size < 2:
            del labels[v], rows[v]
            low = (1 << v) - 1
            rows = [row & low | row >> 1 & ~low for row in rows]
    return Graph.from_rows(labels, rows)
