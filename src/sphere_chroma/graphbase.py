"""Labeled graphs as adjacency bit rows, colorings, and the graph JSON writer.

Vertices are indices into a label list; edges are unordered index pairs.
Adjacency is kept as dense bit rows (one int per vertex).  This is the
part of the graph layer that every command needs: the graph builders
(``kneser``, ``spheres``, ``covercolor``, ``farey``) and the writer of
``generate`` import this module alone.  ``graphcore`` adds the searches,
the exporters and the reader, and re-exports every name here.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from itertools import compress

__all__ = [
    "Graph",
    "Coloring",
    "GRAPH_FORMAT",
    "complete_graph",
    "validate_coloring",
    "to_json",
    "to_json_rows",
]

GRAPH_FORMAT = "sphere-chroma-graph-v1"


class Graph:
    """Immutable undirected graph; the label list fixes the vertex order.

    The labels and the adjacency bit rows are all it stores: bit j of
    ``adj[i]`` is set when i and j are adjacent.  ``sorted_edges`` lists
    the edges afresh from the rows on each call.
    """

    __slots__ = ("labels", "adj")

    def __init__(self, labels, edges=()):
        labels = _checked_labels(labels)
        n = len(labels)
        adj = [0] * n
        for e in edges:
            i, j = e
            if not (type(i) is int and type(j) is int):
                raise ValueError(f"edge {e!r} has non-integer endpoints")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge {e!r} out of range for {n} vertices")
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) is not allowed")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.labels = labels
        self.adj = tuple(adj)

    @classmethod
    def from_rows(cls, labels, rows) -> "Graph":
        """Graph from adjacency bit rows built by trusted code.

        The rows must be symmetric; that is the builder's invariant and is
        not re-checked here.  Row count, range and the diagonal are.
        """
        g = cls.__new__(cls)
        g.labels = _checked_labels(labels)
        n = len(g.labels)
        g.adj = tuple(_checked_rows(rows, n))
        if len(g.adj) != n:
            raise ValueError(f"{len(g.adj)} adjacency rows for {n} vertices")
        return g

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    @property
    def sorted_edges(self) -> list[tuple[int, int]]:
        """Edges (i, j) with i < j, ascending; read off the rows in order."""
        return [(i, j) for i in range(self.n) for j in self.higher_neighbors(i)]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.adj[v])

    def higher_neighbors(self, v: int) -> list[int]:
        """The neighbours j > v, ascending."""
        return _bits(self.adj[v] >> (v + 1), v + 1)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and self.adj == other.adj

    def __hash__(self):
        return hash((self.labels, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _checked_labels(labels) -> tuple[str, ...]:
    labels = tuple(labels)
    for x in labels:
        if not isinstance(x, str):
            raise ValueError(f"vertex label {x!r} is not a string")
    return labels


def _checked_rows(rows, n: int):
    """Bit rows on n vertices, each checked for range and self-loop as yielded."""
    for v, row in enumerate(rows):
        if row < 0 or row >> n or row >> v & 1:
            raise ValueError(f"adjacency row {v} is out of range or has a self-loop")
        yield row


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _class_masks(keys) -> dict:
    """Mask of the vertices v with ``keys[v] == k``, per distinct k."""
    members: dict = {}
    for v, k in enumerate(keys):
        members.setdefault(k, []).append(v)
    return {k: _mask_of(vs) for k, vs in members.items()}


def _mask_of(members) -> int:
    """The bits at ``members`` (ascending), made once from a flag byte per
    bit of their span, not an OR per member."""
    if not members:
        return 0
    flags = bytearray(members[-1] - members[0] + 1)
    for v in members:
        flags[v - members[0]] = 1
    # the flags, last member first, read as binary digits
    return int(flags[::-1].translate(_DIGITS), 2) << members[0]


def _bits(mask: int, base: int = 0) -> list[int]:
    """Positions of the set bits of mask, ascending, each plus base."""
    return list(_pick(mask, range(base, base + mask.bit_length())))


def _pick(mask: int, items, base: int = 0):
    """items[base + p] for each set bit p of mask, ascending p; a list or
    an iterator."""
    width = mask.bit_length()
    if mask.bit_count() * 16 < width:
        # sparse: peel the top bit, which shrinks the int as it goes
        out = []
        while mask:
            top = mask.bit_length() - 1
            out.append(items[base + top])
            mask ^= 1 << top
        out.reverse()
        return out
    # dense: one pass over the binary digits at C speed
    digits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
    return compress(items[base:base + width], digits)


def _drop_columns(rows, gone):
    """Each of rows less its bits at ``gone``, highest first so the rest do
    not move: bit v goes by ``row & low | row >> 1 & ~low``, low = 2^v - 1.

    Four full-width steps per column and row, so only the builders of a
    ``Graph`` run it: the one compaction of the partition graphs'
    mask-space rows (``kneser._partition_rows``), singleton removal on a
    built graph, and the peeling of universal vertices."""
    lows = [(1 << v) - 1 for v in gone]
    for row in rows:
        for low in lows:
            row = row & low | row >> 1 & ~low
        yield row


def complete_graph(n: int) -> Graph:
    """K_n on labels v0..v{n-1}: each row is every vertex but its own.

    Runs on no CLI path; it stays public as the K_n that the clique bound,
    DSATUR and peeling tests and acceptance criterion 9 build.
    """
    full = (1 << n) - 1
    return Graph.from_rows([f"v{i}" for i in range(n)], (full ^ 1 << v for v in range(n)))


class Coloring:
    """Color ids by vertex index: ``colors[v]`` is the color of vertex v.

    Built from a sequence of ints (not a mapping), one per vertex of the
    graph it colors; ``validate_coloring`` rejects a coloring of another
    length.  ``size`` is the number of distinct colors actually used.
    """

    __slots__ = ("colors",)

    def __init__(self, colors):
        if not isinstance(colors, Sequence):
            raise TypeError(f"coloring needs a sequence, got {type(colors).__name__}")
        colors = tuple(colors)
        for v, c in enumerate(colors):
            # type() rather than isinstance, so bool is refused as in from_json
            if type(c) is not int:
                raise ValueError(f"color {c!r} of vertex {v} is not an int")
        self.colors = colors

    @property
    def size(self) -> int:
        return len(set(self.colors))

    def __eq__(self, other):
        if not isinstance(other, Coloring):
            return NotImplemented
        return self.colors == other.colors

    def __repr__(self):
        return f"Coloring({self.colors!r})"


def validate_coloring(g: Graph, coloring: Coloring):
    """Return None if proper, else the lexicographically least violating edge.

    The coloring must have one color per vertex of g; a coloring of any
    other length is a ValueError naming both counts.
    """
    colors = coloring.colors
    if len(colors) != g.n:
        raise ValueError(f"coloring has {len(colors)} colors for a graph of {g.n} vertices")
    # a row's hits inside its own color class above the diagonal are the
    # violating edges, the lowest hit the least one
    class_mask = _class_masks(colors)
    for i, row in enumerate(g.adj):
        hit = (row & class_mask[colors[i]]) >> (i + 1)
        if hit:
            return (i, i + (hit & -hit).bit_length())
    return None


# the one layout graph JSON is written in, and the only one graphcore's
# reader reads in pieces: _HEAD, the labels, _EDGES, the edges, then "]}"
_HEAD = f'{{"format":"{GRAPH_FORMAT}","vertex_labels":'
_EDGES = ',"edges":['


def _json_pieces(labels, upper, positions=None):
    """Canonical graph JSON as a stream of strings, from labels and, per
    vertex i, either the list of its ascending neighbours j > i or its
    adjacency bit row, whose bits above i are its edges.

    A row's bits may stand at ``positions``, vertex j's bit at
    ``positions[j]`` (ascending), as the partition graphs' mask-space rows
    have them; by default vertex j's bit is bit j.  Joined, the strings
    are the bytes of compact ``json.dumps`` with a sorted edge list.  The
    edges are written row by row from a table of "j]" tails indexed by bit
    position: a list's entries index it, and a bit row's tails are picked
    off it by ``_pick`` with no list of neighbours in between.  So a
    caller can write each string, or each run of them, as it forms.  A
    bit row with a bit at no vertex's position, or at its own, is a
    ValueError, raised before its edges are written.
    """
    tail = [f"{j}]" for j in range(len(labels))]
    if positions is None:
        positions = range(len(labels))
        off = -1 << len(labels)
    else:
        off = ~_mask_of(positions)
        if positions:
            tail, index = [""] * (positions[-1] + 1), tail
            for h, t in zip(positions, index):
                tail[h] = t
    yield _HEAD + json.dumps(labels, separators=(",", ":")) + _EDGES
    sep = ""
    for i, (h, row) in enumerate(zip(positions, upper, strict=True)):
        if type(row) is int:
            if row & off or row >> h & 1:
                raise ValueError(f"row {i} has a bit at no vertex's position or at its own")
            tails = _pick(row >> h + 1, tail, h + 1)
        else:
            tails = map(tail.__getitem__, row)
        edges = f",[{i},".join(tails)
        if edges:
            yield f"{sep}[{i}," + edges
            sep = ","
    yield "]}"


def to_json(g: Graph) -> str:
    """Canonical one-line JSON of g, edges sorted (see ``_json_pieces``)."""
    return to_json_rows(g.labels, g.adj)


def to_json_rows(labels, upper) -> str:
    """Canonical graph JSON from labels and, per vertex, its ascending
    higher neighbours or its adjacency bit row: the joined
    ``_json_pieces``."""
    return "".join(_json_pieces(labels, upper))
