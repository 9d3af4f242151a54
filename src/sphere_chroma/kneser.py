"""Kneser graphs and their two-block-partition ("total") variant.

kg(n, k) has the k-subsets of {1..n} as vertices, joined when disjoint.
total_kneser(n) has the unordered partitions of {1..n} into two nonempty
blocks as vertices, joined when one block of one partition is contained
in a block of the other.  Partitions are canonicalized so that block_a
is the block containing element 1; bitmasks carry the blocks (bit e-1
set when element e is in block_a).

Both graphs are built row by row, without testing pairs.  The row of
a k-subset S in kg is every vertex that holds none of S's elements: the
complement of the OR of one membership mask per element of S, which
clears S's own bit too.  For the partition graphs, with canonical masks
a and c (both odd) and complements ~a and ~c, the four containments of
``nested`` read:

- a <= c: c is a superset of a;
- a <= ~c: never, since element 1 is in a and not in ~c;
- ~a <= c: c is a superset of ~a | 1 (c is odd);
- ~a <= ~c: c is a subset of a, and contains element 1.

So the neighbours of a are the supersets of a, the proper subsets of a
that contain element 1, and the supersets of ~a | 1, the full set
excluded.  The families are disjoint: a common member of the first two
would be a itself, of the first and third the full set, and no subset
of a contains ~a.  Over positions h = c >> 1 (the split whose block
holding element 1 has mask 2h + 1), with F = 2^(n-1) - 1 the full set
and A = a >> 1, they are Sup(A), Sub(A) and Sup(F ^ A): bit indicators
that n - 1 shift-or steps grow from one bit (``_mask_rows``), so a row
costs O(n) big-int steps, where a pair scan tests every other vertex.

The rows stay in mask space: bit h of a row stands for the split at
position h, whichever vertices a graph keeps.  A graph's vertex list is
a list of positions, and its keep mask has their bits; each row is the
three families AND-ed with the keep mask, less its own bit, and no
column is deleted.  ``generate sphere`` and ``generate total-kneser``
take the rows so (``_kept_rows``), and the writer picks each edge's
index from a table indexed by position.  ``verify lemma2`` walks TK_n's
rows once, every position kept, and ANDs each with the keep mask of
each of its two sides; it names positions by their labels only when the
sides differ.  The one compaction to vertex indices, by
``graphbase._drop_columns``, is ``_partition_rows``, for the builders
of a ``Graph``: ``_partition_graph`` (behind ``total_kneser`` and
``spheres.sphere_graph_holed``) and ``covercolor._glued_rows``.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from itertools import combinations, compress

from .graphbase import Graph, _class_masks, _drop_columns, _mask_of

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
# --n 14` takes 0.4 s of CPU at 18.0 MB peak RSS, n = 15 1.2 s and 21 MB
# for 91 MB of JSON (in-process, written piece by piece).  The kg cap is set
# by output size, not memory: `generate kneser --n 3500 --k 1`, the
# densest kg at the cap, writes 69.6 MB of JSON in 0.4 s at 18.6 MB peak
# RSS (2-vCPU VM, Python 3.11.7).
MAX_GROUND_SET = 14
MAX_KG_VERTICES = 3500


# A named tuple rather than a dataclass: the same field names, repr,
# hashing and immutability, without importing dataclasses (and inspect)
# on every call of the command line.  ``__new__`` checks the fields.
class TwoBlockPartition(namedtuple("TwoBlockPartition", "n mask")):
    """Unordered partition of {1..n} into two nonempty blocks.

    Canonical form: ``mask`` is the bitmask of the block containing
    element 1, so ``mask`` is odd and never the full set.
    """

    __slots__ = ()

    def __new__(cls, n: int, mask: int):
        if n < 2:
            raise ValueError(f"ground set must have at least 2 elements, got n={n}")
        full = (1 << n) - 1
        if not 0 < mask < full:
            raise ValueError("both blocks must be nonempty")
        if mask & ~full:
            raise ValueError(f"mask {mask:#x} out of range for n={n}")
        return tuple.__new__(cls, (n, mask if mask & 1 else mask ^ full))

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
        return f"{' '.join(map(str, self.block_a))}|{' '.join(map(str, self.block_b))}"

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
    """Kneser graph on k-subsets of {1..n}; labels are sorted member lists.

    Built from membership masks, as the module docstring says.
    """
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
    # member[e]: the vertices that hold element e, OR-ed from the vertices
    # holding it at each of the k places of their subsets
    member: dict = {}
    for j in range(k):
        for e, mask in _class_masks([s[j] for s in subsets]).items():
            member[e] = member.get(e, 0) | mask
    full = (1 << len(subsets)) - 1
    rows = (full ^ functools.reduce(int.__or__, map(member.get, s)) for s in subsets)
    return Graph.from_rows([" ".join(map(str, s)) for s in subsets], rows)


def _check_ground_set(n: int) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > MAX_GROUND_SET:
        raise ValueError(f"refusing n={n} > {MAX_GROUND_SET} (vertex count 2^(n-1) - 1)")


def all_partitions(n: int) -> list[TwoBlockPartition]:
    """All 2^(n-1) - 1 canonical partitions, ascending by block_a mask."""
    _check_ground_set(n)
    return [TwoBlockPartition(n, 2 * h + 1) for h in _positions(n, False)]


def spherelike_partitions(n: int) -> list[TwoBlockPartition]:
    """The canonical partitions with both blocks of size at least 2."""
    _check_ground_set(n)
    return [TwoBlockPartition(n, 2 * h + 1) for h in _positions(n, True)]


def _positions(n: int, spherelike: bool) -> list[int]:
    """The positions of all 2^(n-1) - 1 splits of {1..n}, ascending, or
    of those whose blocks both have at least 2 elements: block a, of
    popcount 2..n-2.  Not capped: the lemma and the cover code list them
    for n = 16."""
    every = range(2 ** (n - 1) - 1)
    if not spherelike:
        return list(every)
    return [h for h in every if 1 < (2 * h + 1).bit_count() < n - 1]


def _labels(n: int, positions) -> list[str]:
    """The label of the split at each of ``positions``: both blocks'
    digit strings are built for every position, one element at a time
    (element e joins block a at the positions with bit e - 2 set)."""
    a, b = ["1"], [""]
    for e in map(str, range(2, n + 1)):
        a += [f"{x} {e}" for x in a]
        b = [f"{x} {e}" if x else e for x in b] + b
    return [f"{a[h]}|{b[h]}" for h in positions]


def _mask_rows(positions, keep: int, n: int):
    """The mask-space row of each of ``positions``, one at a time: the
    module docstring's three families, each grown from one bit by one
    shift-or step per element, AND-ed with ``keep``, less the row's own
    bit."""
    full = (1 << (n - 1)) - 1
    steps = [1 << i for i in range(n - 1)]
    for h in positions:
        sup = sub = 1 << h
        sup_out = 1 << (full ^ h)
        for s in steps:
            if h & s:
                sub |= sub >> s
                sup_out |= sup_out << s
            else:
                sup |= sup << s
        yield (sup | sub | sup_out) & keep & ~(1 << h)


def _kept_rows(positions, n: int):
    """The mask-space rows of ``positions`` (ascending, a list or a range)
    under their own keep mask, one at a time: the rows of the graph on
    those splits."""
    return _mask_rows(positions, _mask_of(positions), n)


def _partition_rows(positions: list[int], n: int):
    """Rows of the nested-pair graph on the splits at ``positions``,
    strictly ascending (checked at the call), one at a time: the
    ``_kept_rows``, compacted to vertex indices by ``_drop_columns``.
    This is the one compaction; the streams that ``generate`` writes and
    ``verify lemma2`` compares stay in mask space.  Each row is checked
    once, where it is used: by ``Graph.from_rows``, or by the writer."""
    if any(x >= y for x, y in zip(positions, positions[1:])):
        raise ValueError("partitions must be strictly ascending by mask")
    keep = set(positions)
    # the rows have no bit above the last position
    gone = [h for h in range(positions[-1] if positions else -1, -1, -1) if h not in keep]
    return _drop_columns(_kept_rows(positions, n), gone)


def _partition_graph(positions: list[int], n: int) -> Graph:
    """Nested-pair graph on the splits at ``positions``: their labels and
    ``_partition_rows``, as a Graph.  The one builder of the partition
    graphs."""
    return Graph.from_rows(_labels(n, positions), _partition_rows(positions, n))


def _split_rows(n: int, spherelike: bool):
    """The labels of S_n's vertices when ``spherelike``, else of TK_n's
    (a list), their mask-space rows (one at a time) and their positions
    (a list): what ``generate sphere`` and ``generate total-kneser`` write.
    Capped at ``MAX_GROUND_SET``."""
    _check_ground_set(n)
    positions = _positions(n, spherelike)
    return _labels(n, positions), _kept_rows(positions, n), positions


def total_kneser(n: int) -> Graph:
    """Graph on all two-block partitions of {1..n}, edges between nested pairs."""
    _check_ground_set(n)
    return _partition_graph(_positions(n, False), n)


def remove_singleton_partitions(g: Graph) -> Graph:
    """g without the partition vertices that have a one-element block, in
    one pass over the rows; the others keep their order, and a kept row
    loses the dropped vertices' bits."""
    kept = [TwoBlockPartition.from_label(x).min_block_size >= 2 for x in g.labels]
    gone = [v for v in range(len(kept) - 1, -1, -1) if not kept[v]]
    return Graph.from_rows(compress(g.labels, kept), _drop_columns(compress(g.adj, kept), gone))
