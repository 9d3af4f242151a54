"""Exact graph coloring over small labeled graphs.

Vertices are indices into a label list; edges are unordered index pairs.
Adjacency is kept as dense bit rows (one int per vertex).  The exact
engine is a branch-and-bound over color classes in DSATUR order with the
first branched vertex pinned to color 0.  Its state is a handful of
vertex masks: the uncolored vertices, one "has a neighbour of color c"
mask per color, and a saturation counter sliced into bit planes, so a
node costs a few big-int operations per color and per plane, not one
step per neighbour.  Each node saves a snapshot of the masks it changes
and backtracking restores it.  When a node budget runs out the engine
reports an explicit undecided outcome instead of guessing.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress

__all__ = [
    "Graph",
    "Coloring",
    "ChiCertificate",
    "ChiUndecided",
    "InfeasibilityEvidence",
    "SchemaError",
    "GRAPH_FORMAT",
    "complete_graph",
    "validate_coloring",
    "greedy_dsatur",
    "clique_lower_bound",
    "chromatic_number_exact",
    "export_dimacs_kcolor",
    "export_dot",
    "to_json",
    "to_json_rows",
    "from_json",
]

GRAPH_FORMAT = "sphere-chroma-graph-v1"


class SchemaError(ValueError):
    """Raised when graph JSON is malformed or violates the schema."""


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
        g.adj = tuple(rows)
        n = len(g.labels)
        if len(g.adj) != n:
            raise ValueError(f"{len(g.adj)} adjacency rows for {n} vertices")
        for v, row in enumerate(g.adj):
            if row < 0 or row >> n or row >> v & 1:
                raise ValueError(f"adjacency row {v} is out of range or has a self-loop")
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
        return [(i, j) for i, row in enumerate(self.adj) for j in _bits(row >> (i + 1), i + 1)]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.adj[v])

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


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _flags_to_row(flags: bytearray) -> int:
    """Bit row from one 0/1 byte per vertex (vertex 0 first, at least one byte)."""
    return int(flags[::-1].translate(_DIGITS), 2)


def _class_masks(keys) -> dict:
    """Mask of the vertices v with ``keys[v] == k``, per distinct k; each made
    once from a flag byte per vertex of its span, not an OR per vertex."""
    members: dict = {}
    for v, k in enumerate(keys):
        members.setdefault(k, []).append(v)
    masks = {}
    for k, vs in members.items():
        flags = bytearray(vs[-1] - vs[0] + 1)
        for v in vs:
            flags[v - vs[0]] = 1
        masks[k] = _flags_to_row(flags) << vs[0]
    return masks


def _bits(mask: int, base: int = 0) -> list[int]:
    """Positions of the set bits of mask, ascending, each plus base."""
    width = mask.bit_length()
    if mask.bit_count() * 16 < width:
        # sparse: peel the top bit, which shrinks the int as it goes
        out = []
        while mask:
            top = mask.bit_length() - 1
            out.append(base + top)
            mask ^= 1 << top
        out.reverse()
        return out
    # dense: one pass over the binary digits at C speed
    digits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
    return list(compress(range(base, base + width), digits))


def complete_graph(n: int) -> Graph:
    labels = [f"v{i}" for i in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(labels, edges)


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


@dataclass(frozen=True)
class InfeasibilityEvidence:
    """Record that a full search ruled out a smaller palette.

    ``nodes_explored`` counts the nodes of the last refutation, the one
    for ``colors_ruled_out`` colors; ``refutation_nodes`` has one count
    per refuted palette size, from the clique bound up, so its last entry
    is ``nodes_explored``.
    """

    colors_ruled_out: int
    nodes_explored: int
    refutation_nodes: tuple[int, ...]


@dataclass(frozen=True)
class ChiCertificate:
    chi: int
    witness: Coloring
    clique_bound: int
    infeasibility: InfeasibilityEvidence | None = None


@dataclass(frozen=True)
class ChiUndecided:
    """Budget ran out: chi lies in [lower, upper], witness achieves upper.

    ``nodes_explored`` counts every node the call spent; ``refutation_nodes``
    has one count per palette size refuted before the budget ran out, from
    the clique bound up to ``lower - 1``.
    """

    lower: int
    upper: int
    witness: Coloring
    nodes_explored: int
    refutation_nodes: tuple[int, ...]


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


def greedy_dsatur(g: Graph) -> Coloring:
    """Greedy coloring in saturation order; ties broken by least vertex index.

    ``buckets[s]`` masks the uncolored vertices that see exactly s distinct
    neighbour colors, so the next vertex is the lowest bit of the highest
    nonempty bucket.  ``seen[c]`` masks the vertices with a neighbour of
    color c; coloring a vertex c lifts only its neighbours outside
    ``seen[c]``, one bucket at a time.  With c colors that is O(V * c)
    big-int operations and no per-vertex scan.
    """
    n = g.n
    adj = g.adj
    color = [-1] * n
    uncolored = (1 << n) - 1
    buckets = [uncolored]
    seen: list[int] = []
    top = 0
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        b = buckets[top]
        low = b & -b
        buckets[top] = b ^ low
        uncolored ^= low
        best = low.bit_length() - 1
        c = 0
        while c < len(seen) and seen[c] & low:
            c += 1
        if c == len(seen):
            seen.append(0)
        color[best] = c
        row = adj[best]
        grow = row & uncolored & ~seen[c]
        seen[c] |= row
        if not grow:
            continue
        if top + 1 == len(buckets):
            buckets.append(0)
        # top down, so a vertex lifted into bucket s + 1 is not lifted again
        for s in range(top, -1, -1):
            moved = buckets[s] & grow
            if moved:
                buckets[s] ^= moved
                buckets[s + 1] |= moved
                grow ^= moved
                if not grow:
                    break
        if buckets[top + 1]:
            top += 1
    return _canonical_coloring(color)


def _canonical_coloring(color: list[int]) -> Coloring:
    # dense ids 0..size-1, in order of first appearance by vertex index
    remap: dict[int, int] = {}
    return Coloring([remap.setdefault(c, len(remap)) for c in color])


def _degree_classes(adj) -> list[int]:
    """One vertex mask per distinct degree, highest degree first."""
    by_degree = _class_masks([row.bit_count() for row in adj])
    return [by_degree[d] for d in sorted(by_degree, reverse=True)]


def clique_lower_bound(g: Graph) -> int:
    """Size of a clique found by a deterministic greedy pass (0 on no vertices).

    From each seed vertex, repeatedly add the candidate of highest degree,
    ties broken by least index.  The vertices are grouped into one mask
    per distinct degree, highest first, so each pick is the lowest bit of
    the first class that meets the candidates: at most one AND per
    distinct degree, not one step per candidate.
    """
    n = g.n
    if n == 0:
        return 0
    adj = g.adj
    classes = _degree_classes(adj)
    best = 1
    for cand in adj:
        size = 1
        while cand:
            for cls in classes:
                hit = cand & cls
                if hit:
                    break
            size += 1
            cand &= adj[(hit & -hit).bit_length() - 1]
        if size > best:
            best = size
    return best


def _k_colorable(adj, classes, n, k, node_cap):
    """Backtracking search for a proper k-coloring.

    Returns (status, coloring or None, nodes) with status "sat", "unsat"
    or "budget".  Vertices are picked in saturation order (ties: the first
    of ``classes``, the degree classes of ``_degree_classes``, then least
    index); at each node the usable colors are those already in use plus
    at most one fresh color, so the first vertex always takes color 0 and
    color classes are explored in canonical order.

    The state is a few big-int masks: ``uncolored``; ``seen[c]``, the
    vertices with a neighbour colored c; and a bit-sliced saturation
    counter, where plane p holds bit p of each vertex's count of distinct
    neighbour colors.  Coloring v with c adds one, by ripple carry, to
    each uncolored neighbour of v outside ``seen[c]``.  The select walks
    the planes from the top to find the uncolored vertices of highest
    count; a count of k leaves some vertex no color, a dead node.  Each
    frame saves (c, old seen[c], planes, uncolored) before it assigns,
    and undo restores that snapshot, so neither the assignment nor the
    undo loops over neighbours.
    """
    if n == 0:
        return "sat", [], 0
    if k <= 0:
        return "unsat", None, 0
    top = k.bit_length() - 1
    planes = [0] * (top + 1)
    seen = [0] * k
    uncolored = (1 << n) - 1
    nodes = 0
    # with every count 0 the pick is the lowest vertex of highest degree
    first = classes[0] & -classes[0]
    # frame: [vertex, its bit, next color to try, color limit,
    #         max_used before assigning, snapshot or None]
    frames = [[first.bit_length() - 1, first, 0, 1, 0, None]]
    while frames:
        fr = frames[-1]
        v, vbit, c, limit, max_used, snap = fr
        if snap is not None:
            seen[snap[0]] = snap[1]
            planes = snap[2]
            uncolored = snap[3]
        while c < limit and seen[c] & vbit:
            c += 1
        if c == limit:
            frames.pop()
            continue
        fr[2] = c + 1
        nodes += 1
        if node_cap is not None and nodes > node_cap:
            return "budget", None, nodes - 1
        row = adj[v]
        old = seen[c]
        fr[5] = (c, old, planes, uncolored)
        uncolored ^= vbit
        carry = row & uncolored & ~old
        seen[c] = old | row
        if carry:
            # a fresh list, so the snapshot keeps the old planes
            planes = planes[:]
            for p in range(top + 1):
                t = planes[p] & carry
                planes[p] ^= carry
                carry = t
                if not carry:
                    break
        if c == max_used:
            max_used += 1
        if not uncolored:
            color = [0] * n
            for f in frames:
                color[f[0]] = f[2] - 1
            return "sat", color, nodes
        best, count = uncolored, 0
        for p in range(top, -1, -1):
            t = best & planes[p]
            if t:
                best = t
                count |= 1 << p
        if count == k:
            continue
        for cls in classes:
            hit = best & cls
            if hit:
                break
        low = hit & -hit
        frames.append([low.bit_length() - 1, low, 0, min(max_used + 1, k), max_used, None])
    return "unsat", None, nodes


def chromatic_number_exact(g: Graph, budget: int | None = None):
    """Exact chromatic number with certificate, or ChiUndecided on budget.

    Tries k = clique bound, clique bound + 1, ... until a k-coloring is
    found; each completed failed search exhausts the whole (symmetry
    reduced) space for that k, so the result is exact.  ``budget`` caps
    the total number of branch nodes across the call; a negative budget
    is a ValueError.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be a non-negative node count, got {budget}")
    n = g.n
    if n == 0:
        return ChiCertificate(0, Coloring(()), 0, None)
    ub_col = greedy_dsatur(g)
    ub = ub_col.size
    lb = clique_lower_bound(g)
    if lb == ub:
        return ChiCertificate(ub, ub_col, lb, None)
    classes = _degree_classes(g.adj)
    spent = 0
    refutations: list[int] = []
    for k in range(lb, ub):
        cap = None if budget is None else budget - spent
        status, col, nodes = _k_colorable(g.adj, classes, n, k, cap)
        spent += nodes
        if status == "sat":
            evidence = None
            if k > lb:
                evidence = InfeasibilityEvidence(k - 1, refutations[-1], tuple(refutations))
            return ChiCertificate(k, _canonical_coloring(col), lb, evidence)
        if status == "budget":
            return ChiUndecided(k, ub, ub_col, spent, tuple(refutations))
        refutations.append(nodes)
    return ChiCertificate(
        ub, ub_col, lb, InfeasibilityEvidence(ub - 1, refutations[-1], tuple(refutations))
    )


def export_dimacs_kcolor(g: Graph, k: int) -> str:
    """DIMACS CNF for "g has a proper k-coloring".

    Variable v*k + c + 1 means "vertex v gets color c".  One at-least-one
    clause per vertex and one conflict clause per edge per color; no
    at-most-one clauses, so satisfying assignments may set several colors
    on a vertex and any one of them can be picked.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    n = g.n
    edges = g.sorted_edges
    lines = [f"p cnf {n * k} {n + len(edges) * k}"]
    for v in range(n):
        lines.append(" ".join(str(v * k + c + 1) for c in range(k)) + " 0")
    for i, j in edges:
        for c in range(k):
            lines.append(f"-{i * k + c + 1} -{j * k + c + 1} 0")
    return "\n".join(lines) + "\n"


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: Graph, coloring: Coloring | None = None) -> str:
    """Undirected DOT text; vertices in list order, edges in sorted index order."""
    if coloring is not None:
        bad = validate_coloring(g, coloring)
        if bad is not None:
            raise ValueError(f"coloring is not proper: edge {bad} is monochromatic")
    lines = ["graph G {"]
    for v in range(g.n):
        q = _dot_quote(g.labels[v])
        if coloring is None:
            lines.append(f"{q};")
        else:
            lines.append(f"{q} [color={coloring.colors[v]}];")
    for i, j in g.sorted_edges:
        lines.append(f"{_dot_quote(g.labels[i])} -- {_dot_quote(g.labels[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: Graph) -> str:
    """Canonical one-line JSON of g, edges sorted (see ``to_json_rows``)."""
    return to_json_rows(g.labels, (_bits(row >> (i + 1), i + 1) for i, row in enumerate(g.adj)))


def to_json_rows(labels, upper) -> str:
    """Canonical graph JSON from labels and, per vertex i, the ascending
    neighbours j > i: the bytes of compact ``json.dumps`` with a sorted edge
    list, written row by row from a table of "j]" tails."""
    tail = [f"{j}]" for j in range(len(labels))]
    edges = [
        f"[{i}," + f",[{i},".join(map(tail.__getitem__, row))
        for i, row in enumerate(upper)
        if row
    ]
    text = json.dumps(labels, separators=(",", ":"))
    return f'{{"format":"{GRAPH_FORMAT}","vertex_labels":{text},"edges":[{",".join(edges)}]}}'


def from_json(text: str) -> Graph:
    """Parse graph JSON, with field and position diagnostics on bad input."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(
            f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise SchemaError("top level is not an object")
    fmt = doc.get("format")
    if fmt != GRAPH_FORMAT:
        raise SchemaError(f"field 'format': expected {GRAPH_FORMAT!r}, got {fmt!r}")
    labels = doc.get("vertex_labels")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SchemaError("field 'vertex_labels': expected a list of strings")
    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise SchemaError("field 'edges': expected a list of [i, j] pairs")
    n = len(labels)
    adj = [0] * n
    for idx, e in enumerate(edges):
        # json.loads yields exact types, so type() tests suffice and reject bool
        if not (type(e) is list and len(e) == 2 and type(e[0]) is int and type(e[1]) is int):
            raise SchemaError(f"field 'edges'[{idx}]: expected a pair of ints, got {e!r}")
        i, j = e
        if i == j:
            raise SchemaError(f"field 'edges'[{idx}]: self-loop [{i},{j}]")
        if not i < j:
            raise SchemaError(f"field 'edges'[{idx}]: endpoints must satisfy i < j, got [{i},{j}]")
        if not (0 <= i and j < n):
            raise SchemaError(f"field 'edges'[{idx}]: [{i},{j}] out of range for {n} vertices")
        if adj[i] >> j & 1:
            raise SchemaError(f"field 'edges'[{idx}]: duplicate edge [{i},{j}]")
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph.from_rows(labels, adj)
