"""Exact graph coloring over small labeled graphs.

The graphs, colorings and the JSON writer live in ``graphbase``; this
module re-exports them and adds DSATUR, the clique bound, the exact
search, the DOT and DIMACS exporters and the graph JSON reader.  The
exact engine is a branch-and-bound over color classes in DSATUR order
with the first branched vertex pinned to color 0.  Its state is a
handful of vertex masks: the uncolored vertices, one "has a neighbour of
color c" mask per color, and a saturation counter sliced into bit
planes, so a node costs a few big-int operations per color and per
plane, not one step per neighbour; DSATUR keeps its saturations in the
same masks and planes.  The search holds planes 0-3 in four local
variables and planes 4 and up, which only palettes of 16 or more colors
need, in a list that is copied only when a carry reaches it.  A node
that descends pushes its parent's vertex, row, masks, planes and
color-loop position as one tuple, and backtracking pops it; a dead node
pushes nothing.  Universal vertices are peeled off before the
search, each with a color of its own, so the node budget and the
reported node counts are those of the peeled search.  When a node
budget runs out the engine reports an explicit undecided outcome instead
of guessing.
"""

from __future__ import annotations

import io
import json
import os
import stat
from collections import Counter, namedtuple
from functools import partial
from itertools import compress

# the public names of the base are re-exported, so each stays a graphcore
# name; of its private helpers, only those this module runs are imported
from .graphbase import (
    GRAPH_FORMAT,
    Coloring,
    Graph,
    complete_graph,
    to_json,
    to_json_rows,
    validate_coloring,
    _EDGES,
    _HEAD,
    _bits,
    _class_masks,
    _drop_columns,
    _pick,
)

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


class SchemaError(ValueError):
    """Raised when graph JSON is malformed or violates the schema."""


# The result records are named tuples rather than dataclasses: the same
# field names, immutability, equality and repr, without importing
# dataclasses (and inspect) on every call of the command line.


class InfeasibilityEvidence(namedtuple(
        "InfeasibilityEvidence", "colors_ruled_out nodes_explored refutation_nodes")):
    """Record that a full search ruled out a smaller palette.

    ``nodes_explored`` counts the nodes of the last refutation, the one
    for ``colors_ruled_out`` colors; ``refutation_nodes`` has one count
    per refuted palette size, from the clique bound up, so its last entry
    is ``nodes_explored``.  The counts are nodes of the peeled search
    (see ``chromatic_number_exact``).
    """

    __slots__ = ()


class ChiCertificate(namedtuple(
        "ChiCertificate", "chi witness clique_bound infeasibility", defaults=(None,))):
    """chi colors suffice (witness) and, unless chi is the clique bound,
    chi - 1 do not (infeasibility)."""

    __slots__ = ()


class ChiUndecided(namedtuple(
        "ChiUndecided", "lower upper witness nodes_explored refutation_nodes")):
    """Budget ran out: chi lies in [lower, upper], witness achieves upper.

    ``nodes_explored`` counts every node the call spent; ``refutation_nodes``
    has one count per palette size refuted before the budget ran out, from
    the clique bound up to ``lower - 1``.
    """

    __slots__ = ()


def greedy_dsatur(g: Graph) -> Coloring:
    """Greedy coloring in saturation order; ties broken by least vertex index.

    The saturations are kept as in ``_k_colorable``: plane p holds bit p
    of each uncolored vertex's count of distinct neighbour colors, so the
    next vertex is the lowest of those left after walking the planes from
    the top.  ``seen[c]`` masks the vertices with a neighbour of color c;
    coloring a vertex c adds one, by ripple carry, to its uncolored
    neighbours outside ``seen[c]``.  The walk also reads off the picked
    vertex's count; when it equals the number of colors in use, each of
    them is on a neighbour, so the vertex takes a fresh color with no
    first-fit scan of ``seen``.  With c colors a pick costs O(log c)
    big-int operations, plus one per used color it scans past, and there
    is no per-vertex scan.
    """
    n = g.n
    adj = g.adj
    color = [-1] * n
    uncolored = (1 << n) - 1
    planes: list[int] = []
    seen: list[int] = []
    for _ in range(n):
        best, count = uncolored, 0
        for plane in reversed(planes):
            count += count
            t = best & plane
            if t:
                best = t
                count += 1
        low = best & -best
        uncolored ^= low
        v = low.bit_length() - 1
        c = len(seen)
        if count < c:
            # some used color is on no neighbour: the first such one
            c = 0
            while seen[c] & low:
                c += 1
        else:
            seen.append(0)
        color[v] = c
        row = adj[v]
        carry = row & uncolored & ~seen[c]
        seen[c] |= row
        p = 0
        while carry:
            if p == len(planes):
                planes.append(0)
            t = planes[p] & carry
            planes[p] ^= carry
            carry = t
            p += 1
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
    return _clique_bound(g.adj, g.n)


def _clique_bound(adj, stop: int) -> int:
    """``clique_lower_bound`` on the rows adj, given an upper bound ``stop``
    on every clique's size (such as a proper coloring's size): the seeds
    stop as soon as one of them reaches it, which leaves the result as is."""
    if not adj:
        return 0
    classes = _degree_classes(adj)
    best = 1
    for cand in adj:
        if best >= stop:
            break
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
    neighbour colors.  Planes 0-3 are the locals p0..p3; planes 4 and up
    are the list ``high``, which exists only when k >= 16 (a count below
    16 has no higher bit).  Coloring v with c adds one to each uncolored
    neighbour of v outside ``seen[c]``: the carry ripples through p0..p3
    as nested tests and reaches ``high`` only past plane 3.  The select
    walks the planes from the top (``high``, then p3 down to p0) to find
    the uncolored vertices of highest count; a count of k leaves some
    vertex no color, a dead node.

    The current vertex's color loop runs on local variables.  Trying a
    color builds the child's uncolored mask, its planes q0..q3 with the
    ripple (a copy of ``high`` only when the carry reaches it), and its
    select, and changes nothing else, so a dead child needs no undo.  A
    live child sets ``seen[c]``, the only state changed in place, pushes
    one tuple (vertex, its bit, its row, next color, color limit,
    max_used, p0..p3, high, uncolored, old ``seen[c]``) and becomes the
    current vertex; its color limit changes only when it opened a fresh
    color.  When its colors run out, popping the tuple puts back
    ``seen[c]`` and resumes the parent's loop.  Neither the assignment
    nor the undo loops over neighbours.
    """
    if n == 0:
        return "sat", [], 0
    if k <= 0:
        return "unsat", None, 0
    # planes 0-3 of the saturation counter are locals; planes 4 and up
    # (bit p of the count is 1 << p) exist only from k = 16 on, in a list
    p0 = p1 = p2 = p3 = 0
    high = [0] * (k.bit_length() - 4) if k >= 16 else None
    # with no budget the one compare below still runs: no search reaches
    # 2 ** 64 nodes (half a million years at a million nodes a second)
    cap = 1 << 64 if node_cap is None else node_cap
    seen = [0] * k
    uncolored = (1 << n) - 1
    nodes = 0
    # with every count 0 the pick is the lowest vertex of highest degree
    vbit = classes[0] & -classes[0]
    v = vbit.bit_length() - 1
    row = adj[v]
    c, limit, max_used = 0, 1, 0
    stack = []
    while True:
        while c < limit and seen[c] & vbit:
            c += 1
        if c == limit:
            if not stack:
                return "unsat", None, nodes
            v, vbit, row, c, limit, max_used, p0, p1, p2, p3, high, uncolored, old = stack.pop()
            seen[c - 1] = old
            continue
        nodes += 1
        if nodes > cap:
            return "budget", None, nodes - 1
        rest = uncolored ^ vbit
        if not rest:
            color = [0] * n
            for f in stack:
                color[f[0]] = f[3] - 1
            color[v] = c
            return "sat", color, nodes
        old = seen[c]
        carry = row & rest & ~old
        q0 = p0
        q1 = p1
        q2 = p2
        q3 = p3
        qhigh = high
        if carry:
            q0 = p0 ^ carry
            carry &= p0
            if carry:
                q1 = p1 ^ carry
                carry &= p1
                if carry:
                    q2 = p2 ^ carry
                    carry &= p2
                    if carry:
                        q3 = p3 ^ carry
                        carry &= p3
                        if carry:
                            # a fresh list, so this vertex's next color starts from high
                            qhigh = high[:]
                            for p, plane in enumerate(high):
                                qhigh[p] = plane ^ carry
                                carry &= plane
                                if not carry:
                                    break
        best, count = rest, 0
        if qhigh is not None:
            for plane in reversed(qhigh):
                count += count
                t = best & plane
                if t:
                    best = t
                    count += 1
            count <<= 4
        t = best & q3
        if t:
            best = t
            count |= 8
        t = best & q2
        if t:
            best = t
            count |= 4
        t = best & q1
        if t:
            best = t
            count |= 2
        t = best & q0
        if t:
            best = t
            count |= 1
        if count == k:
            c += 1
            continue
        seen[c] = old | row
        for cls in classes:
            hit = best & cls
            if hit:
                break
        stack.append((v, vbit, row, c + 1, limit, max_used, p0, p1, p2, p3, high, uncolored, old))
        if c == max_used:
            max_used += 1
            limit = max_used + 1 if max_used < k else k
        vbit = hit & -hit
        v = vbit.bit_length() - 1
        row = adj[v]
        c = 0
        p0 = q0
        p1 = q1
        p2 = q2
        p3 = q3
        high = qhigh
        uncolored = rest


def _peel_universal(adj):
    """(rest, universal, rows): the vertices adjacent to all others are
    ``universal``; ``rows`` are the adjacency rows of the ``rest``, in
    order and renumbered 0.., with the universal columns dropped."""
    full = (1 << len(adj)) - 1
    keep = [row | 1 << v != full for v, row in enumerate(adj)]
    rest = list(compress(range(len(adj)), keep))
    universal = [v for v, kept in enumerate(keep) if not kept]
    return rest, universal, list(_drop_columns(compress(adj, keep), universal[::-1]))


def _check_budget(budget: int | None) -> None:
    """Refuse a negative node budget (None means no budget)."""
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be a non-negative node count, got {budget}")


def chromatic_number_exact(g: Graph, budget: int | None = None):
    """Exact chromatic number with certificate, or ChiUndecided on budget.

    Tries k = clique bound, clique bound + 1, ... until a k-coloring is
    found; each completed failed search exhausts the whole (symmetry
    reduced) space for that k, so the result is exact.  Both bounds come
    from the whole graph.  The search runs on the peeled graph: the u
    universal vertices (adjacent to every other vertex) each need a color
    of their own, so they are removed and the rest is searched with k - u
    colors, then each removed vertex gets one of the last u colors.  For
    the total Kneser graph TK_n the n singleton splits are universal, so
    its search is that of the sphere graph S_n.  ``budget`` caps the total
    number of branch nodes of the peeled search across the call, and the
    node counts of the result count those nodes; a negative budget is a
    ValueError.
    """
    _check_budget(budget)
    n = g.n
    ub_col = greedy_dsatur(g)
    ub = ub_col.size
    lb = _clique_bound(g.adj, ub)
    if lb == ub:
        return ChiCertificate(ub, ub_col, lb, None)
    rest, universal, rows = _peel_universal(g.adj)
    u = len(universal)
    classes = _degree_classes(rows)
    spent = 0
    refutations: list[int] = []
    for k in range(lb, ub):
        cap = None if budget is None else budget - spent
        status, col, nodes = _k_colorable(rows, classes, len(rest), k - u, cap)
        spent += nodes
        if status == "sat":
            color = [0] * n
            for v, c in zip(rest, col):
                color[v] = c
            for i, v in enumerate(universal):
                color[v] = k - u + i
            evidence = None
            if k > lb:
                evidence = InfeasibilityEvidence(k - 1, refutations[-1], tuple(refutations))
            return ChiCertificate(k, _canonical_coloring(color), lb, evidence)
        if status == "budget":
            return ChiUndecided(k, ub, ub_col, spent, tuple(refutations))
        refutations.append(nodes)
    return ChiCertificate(
        ub, ub_col, lb, InfeasibilityEvidence(ub - 1, refutations[-1], tuple(refutations))
    )


def _check_palette(k: int) -> None:
    """Refuse a palette of fewer than one color."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


def export_dimacs_kcolor(g: Graph, k: int) -> str:
    """DIMACS CNF for "g has a proper k-coloring".

    Variable v*k + c + 1 means "vertex v gets color c".  One at-least-one
    clause per vertex and one conflict clause per edge per color; no
    at-most-one clauses, so satisfying assignments may set several colors
    on a vertex and any one of them can be picked.
    """
    _check_palette(k)
    return "".join(_dimacs_lines(g, k))


# colors per piece of a clause group, so that a piece's size does not
# grow with k
_DIMACS_BLOCK = 4096


def _dimacs_lines(g: Graph, k: int):
    """``export_dimacs_kcolor`` in pieces read off the rows: each vertex's
    at-least-one clause and each edge's k conflict clauses in blocks of
    ``_DIMACS_BLOCK`` colors.  The first block is made once, each later
    one where it is written, so that no list of blocks grows with k."""
    n = g.n
    yield f"p cnf {n * k} {n + g.m * k}\n"
    block = lambda start: range(start, min(start + _DIMACS_BLOCK, k + 1))
    first = block(1)
    later = range(_DIMACS_BLOCK + 1, k + 1, _DIMACS_BLOCK)
    for v in range(n):
        yield "".join([f"{v * k + c} " for c in first])
        for start in later:
            yield "".join([f"{v * k + c} " for c in block(start)])
        yield "0\n"
    for i, row in enumerate(g.adj):
        for j in _bits(row >> i + 1, i + 1):
            yield "".join([f"-{i * k + c} -{j * k + c} 0\n" for c in first])
            for start in later:
                yield "".join([f"-{i * k + c} -{j * k + c} 0\n" for c in block(start)])


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: Graph, coloring: Coloring | None = None) -> str:
    """Undirected DOT text; vertices in list order, edges in sorted index order.

    DOT names a node by its label, so a label that two vertices share or
    that UTF-8 cannot encode is a ValueError naming it, as is a coloring
    that is not proper.
    """
    return "".join(_dot_lines(g, coloring))


def _dot_lines(g: Graph, coloring: Coloring | None = None):
    """``export_dot`` by lines read off the rows, a row's edges as one; the
    checks run at the call, before any line is formed."""
    if coloring is not None:
        bad = validate_coloring(g, coloring)
        if bad is not None:
            raise ValueError(f"coloring is not proper: edge {bad} is monochromatic")
    repeated = [x for x, count in Counter(g.labels).items() if count > 1]
    if repeated:
        raise ValueError(f"vertex label {repeated[0]!r} names more than one vertex")
    for x in g.labels:
        try:
            x.encode()
        except UnicodeEncodeError:
            # a lone surrogate: valid in JSON text, but it has no UTF-8 bytes
            raise ValueError(f"vertex label {x!r} cannot be encoded as UTF-8") from None
    names = [_dot_quote(x) for x in g.labels]

    def lines():
        yield "graph G {\n"
        for v, q in enumerate(names):
            yield f"{q};\n" if coloring is None else f"{q} [color={coloring.colors[v]}];\n"
        for i, row in enumerate(g.adj):
            q = names[i]
            yield "".join([f"{q} -- {t};\n" for t in _pick(row >> i + 1, names, i + 1)])
        yield "}\n"

    return lines()


# A regular file is read in chunks of about 64 KB.  The edges array is
# read in pieces of about 4 KB: an edge takes at least 6 characters, so a
# piece holds fewer lists than the garbage collector's young-generation
# threshold (700), and reading S_12 triggers one collection where 64 KB
# pieces triggered about 280 young and 26 older ones.
_READ_CHUNK = 1 << 16
_READ_PIECE = 1 << 12

_skip_ws = json.decoder.WHITESPACE.match
_decode_value = json.JSONDecoder().raw_decode


def _add_edges(rows, edges, first: int):
    """OR each [i, j] of edges into the bit rows, checking each edge.

    This is the checker that names a fault; it runs only in the second
    run of ``_edges_in_pieces`` and in ``_checked_graph`` on the
    whole-document path.  Each edge is checked for shape, self-loop,
    i < j, range and duplicate, in that order; edges[k] is element
    first + k of the document's list.  Returns the message of the first
    bad edge, or None.
    """
    n = len(rows)
    for idx, e in enumerate(edges, first):
        # json.loads yields exact types, so type() tests suffice and reject bool
        if not (type(e) is list and len(e) == 2 and type(e[0]) is int and type(e[1]) is int):
            return f"field 'edges'[{idx}]: expected a pair of ints, got {e!r}"
        i, j = e
        if i == j:
            return f"field 'edges'[{idx}]: self-loop [{i},{j}]"
        if not i < j:
            return f"field 'edges'[{idx}]: endpoints must satisfy i < j, got [{i},{j}]"
        if not (0 <= i and j < n):
            return f"field 'edges'[{idx}]: [{i},{j}] out of range for {n} vertices"
        row = rows[i]
        bit = 1 << j
        if row & bit:
            return f"field 'edges'[{idx}]: duplicate edge [{i},{j}]"
        rows[i] = row | bit
        rows[j] |= 1 << i
    return None


def _or_edges(rows, pow2, edges) -> bool:
    """OR each [i, j] of edges into the bit rows with no per-edge check but
    i < j; False when an edge breaks the loop (see ``_edges_in_pieces``).
    The bits come from the table pow2 of ``1 << k``, or are shifted afresh
    when pow2 is None."""
    try:
        if pow2 is None:
            for i, j in edges:
                if i >= j:
                    return False
                # rows[j] is read first, so j >= n fails before 1 << j is built
                rows[j] |= 1 << i
                rows[i] |= 1 << j
        else:
            for i, j in edges:
                if i >= j:
                    return False
                rows[i] |= pow2[j]
                rows[j] |= pow2[i]
    except (TypeError, ValueError, IndexError):
        return False
    return True


def _read_on(kept: str, more):
    """(kept and the text after it, more): ``more()`` returns the next
    chunk of a streamed document, "" at its end, and is replaced by None
    there.  Chunks are read until more text has come than was kept, so
    text that spans many chunks is scanned a few times in all, not once
    per chunk."""
    parts = [kept]
    got = 0
    while got <= len(kept):
        chunk = more()
        if not chunk:
            return "".join(parts), None
        parts.append(chunk)
        got += len(chunk)
    return "".join(parts), more


def _edges_in_pieces(text: str, a: int, n: int, more=None, size=0, check=False):
    """(rows, first edge fault or None, text, end) for the edges array
    whose elements start at ``text[a]``, read one piece at a time; ``end``
    is the index past the array in the text returned, None after a fault.

    A piece runs from an element to the "]" of the first "],[" at least
    ``_READ_PIECE`` characters on, and must parse as a complete array;
    the last piece is decoded up to the array's close.  A streamed
    document (see ``_read_in_pieces``) drops the text before the piece
    and reads on until its text holds that cut or the document's end, so
    it is cut as the whole text.

    The fast run ORs each piece into the rows by ``_or_edges``, whose
    loop tests only i < j and takes the bits from a table of ``1 << k``,
    k < n.  The table holds about n²/14 bytes, so it is built only when
    that is no more than the document's size (``size``, or the length of
    text); a sparse document on many vertices (the finned Farey ball)
    shifts each bit instead.  The loop may skip the checks because two
    screens on the piece's text pass first: no "-" (so no negative
    number) and no "e" (so no true, false or exponent float, and bool is
    the one non-int a list index accepts).  Every other bad element stops
    the loop: a non-pair fails to unpack, a float, string, list or null
    fails to compare, index or shift, and j >= n indexes past the table
    or the rows.  A duplicate ORs in no new bit, so after the last piece
    the rows must hold two bits per edge.  When a screen, the loop or
    that count fails, the rows are None, but every piece is still
    parsed, so a later syntax error still wins.  With ``check`` the
    per-edge checker ``_add_edges`` takes the place of the OR, and the
    run stops at its first fault.
    """
    rows = [0] * n
    pow2 = None if check or n * n // 14 > max(size, len(text)) else [1 << k for k in range(n)]
    count = 0
    while True:
        cut = text.find("],[", a + _READ_PIECE)
        if cut < 0 and more:
            text, more = _read_on(text[a:], more)
            a = 0
            continue
        if cut < 0:
            edges, end = _decode_value("[" + text[a:])
            stop = a + end - 2  # the array's close
        else:
            stop = cut + 1
            edges = json.loads(f"[{text[a:stop]}]")
        if check:
            fault = _add_edges(rows, edges, count)
            if fault is not None:
                return rows, fault, text, None
        elif rows is not None and not (text.find("-", a, stop) < 0 and text.find("e", a, stop) < 0
                                       and _or_edges(rows, pow2, edges)):
            rows = None
        count += len(edges)
        if cut < 0:
            break
        a = cut + 2
    if rows is not None and sum(map(int.bit_count, rows)) != 2 * count:
        rows = None
    return rows, None, text, stop + 1


def _read_in_pieces(text: str, more=None, size=0, check=False):
    """(members other than edges, rows, first edge fault) of a graph
    document in the layout ``_json_pieces`` writes, its edges array read
    by ``_edges_in_pieces`` (rows None: run again with ``check``); None
    for any other text, or a chunk that does not decode.

    The layout is ``_HEAD``, the labels, ``_EDGES``, the edges, "]}" and
    only whitespace.  A streamed document is text, then each chunk
    ``more()`` returns until it returns "" (see ``_read_on``), and
    ``size`` is its size; it is read until ``_EDGES`` appears, so the
    labels are decoded once.
    """
    try:
        while more and _EDGES not in text:
            text, more = _read_on(text, more)
        if not text.startswith(_HEAD):
            return None
        labels, idx = _decode_value(text, len(_HEAD))
        # only the count of the labels is needed here; _checked_graph
        # checks them before it looks at the edges
        if not (isinstance(labels, list) and text.startswith(_EDGES, idx)):
            return None
        rows, fault, text, idx = _edges_in_pieces(
            text, idx + len(_EDGES), len(labels), more, size, check)
        if fault is None and (not text.startswith("}", idx)
                              or _skip_ws(text, idx + 1).end() != len(text)):
            return None
    except (ValueError, RecursionError):
        # a syntax error, an int too long to convert, nesting too deep, or
        # a chunk that does not decode: the whole-text reader reports it
        return None
    return {"format": GRAPH_FORMAT, "vertex_labels": labels}, rows, fault


def from_json(text: str) -> Graph:
    """Parse graph JSON, with field and position diagnostics on bad input.

    A document in the layout this package writes (``_HEAD``, the labels,
    ``_EDGES``, the edges, "]}" and trailing whitespace; any compact
    ``json.dumps`` of the same keys in the same order has it too) has its
    ``edges`` array read in pieces of about 4 KB: each is cut at a "],["
    between two elements, parsed by the json module and ORed into the
    bit rows unchecked before the next is read, so the edge list is never
    held as Python objects whole.  Only when that fast run meets a fault
    (see ``_edges_in_pieces``) does the piece loop run once more, with
    the per-edge checker ``_add_edges``.

    Any other text goes whole to ``json.loads`` (``_from_whole``): another
    layout, a JSON syntax error, labels that are not a list, or a piece
    that does not parse as a complete array (a "],[" nested in an element
    or inside a string).  So ``json.loads`` produces every syntax
    diagnostic.  A document with the default separators or an indent has
    no "],[" to cut at, so pieces would hold its whole edge list as one.

    Both ways name a fault with the one per-edge checker, and report the
    same fault for a document with several: a syntax error, then the top
    level, the format, the labels, the edges field, then the first bad
    edge.  Every fault is a SchemaError; an int past Python's digit limit,
    or nesting too deep to parse, keeps the json module's message.
    """
    parsed = _read_in_pieces(text)
    if parsed is not None and parsed[1] is None:
        parsed = _read_in_pieces(text, check=True)
    return _from_whole(text) if parsed is None else _checked_graph(*parsed)


def _from_whole(text: str) -> Graph:
    """The Graph of text by one ``json.loads``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:
        # an int past Python's digit limit, or nesting too deep: the json
        # module's message stands
        raise SchemaError(str(e)) from None
    return _checked_graph(doc, None, None)


def _from_file(fh) -> Graph:
    """``from_json`` of the text of fh from where it stands, decoded as
    strict UTF-8 whatever fh was opened with (stdin takes the locale's).

    A regular file is fed to the piece reader in chunks of
    ``_READ_CHUNK`` characters, holding only the text not yet parsed;
    the table rule takes its size from ``os.fstat``.  On an edge fault
    it is rewound to where the read began for the checker's run; where
    the reader gives up, it is rewound and ``_from_whole`` reads it, so
    every diagnostic and decode error is that of one whole read.  Any
    other stream (a pipe, or one with no file descriptor) cannot be
    read twice, and is read whole.
    """
    if isinstance(fh, io.TextIOWrapper):
        fh.reconfigure(encoding="utf-8")
    try:
        info = os.fstat(fh.fileno())
    except (OSError, ValueError):
        info = None
    if info is None or not stat.S_ISREG(info.st_mode):
        return from_json(fh.read())
    start = fh.tell()
    parsed = _read_in_pieces("", partial(fh.read, _READ_CHUNK), info.st_size)
    if parsed is not None and parsed[1] is None:
        fh.seek(start)
        parsed = _read_in_pieces("", partial(fh.read, _READ_CHUNK), info.st_size, check=True)
    if parsed is None:
        fh.seek(start)
        return _from_whole(fh.read())
    return _checked_graph(*parsed)


def _checked_graph(doc, rows, fault) -> Graph:
    """The Graph of a parsed document, with its rows and first edge fault
    when the piece reader read them (rows None when it did not)."""
    if not isinstance(doc, dict):
        raise SchemaError("top level is not an object")
    fmt = doc.get("format")
    if fmt != GRAPH_FORMAT:
        raise SchemaError(f"field 'format': expected {GRAPH_FORMAT!r}, got {fmt!r}")
    labels = doc.get("vertex_labels")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SchemaError("field 'vertex_labels': expected a list of strings")
    if rows is None:
        edges = doc.get("edges")
        if not isinstance(edges, list):
            raise SchemaError("field 'edges': expected a list of [i, j] pairs")
        rows = [0] * len(labels)
        fault = _add_edges(rows, edges, 0)
    if fault is not None:
        raise SchemaError(fault)
    return Graph.from_rows(labels, rows)
