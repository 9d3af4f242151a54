"""Farey graph balls, fins, and their 3-coloring by coordinate parity.

The r = 2 sphere graph is the Farey graph with a fin added across each
edge.  Balls are grown from the seed edge 0/1 -- 1/0 by repeated mediant
insertion: each round subdivides every frontier edge (p/q, r/s) with the
mediant (p+r)/(q+s), joined to both ends.  Every edge of the result
satisfies |ps - qr| = 1, so adjacent vertices differ in parity class
(p mod 2, q mod 2) and the three classes color every ball properly.
Fins are degree-2 vertices whose neighbors are adjacent, so they take
the one class their neighbors leave free.

``farey_lists`` gives a ball as neighbour lists, O(V + E) in memory:
for each vertex, its higher-indexed neighbours in ascending order.  A
mediant is numbered after both of its parents and fins are numbered in
sorted-edge order, so every list is built by appends and needs no sort.
``generate farey`` writes its JSON from these lists, and ``verify
farey-parity`` checks them with ``parity_classes`` and
``parity_violation``: every ball edge for |ps - qr| = 1 and two classes,
every fin edge for two classes.  ``farey_ball`` and ``add_fins`` build a
``Graph`` from the same lists; its bit rows span to the last vertex, so
V^2 bits in all, and only the exact chi (``chi_farey_ball``, and ``chi``
on a Farey document) still needs one.

Every finite ball here is 3-chromatic.  That does not settle the
chromatic number of the full Farey graph; planarity gives only an upper
bound of 4, and this module reports measured values without extrapolating.
"""

from __future__ import annotations

from .graphcore import Coloring, Graph, _bits, chromatic_number_exact

__all__ = [
    "farey_lists",
    "farey_ball",
    "add_fins",
    "parity_coloring",
    "parity_classes",
    "parity_violation",
    "chi_farey_ball",
    "PARITY_CLASS_IDS",
]

# From neighbour lists, `generate farey --depth 13/14/15 --fins` takes
# 0.14/0.24/0.35 s at 28/38/60 MB peak RSS and `verify farey-parity` at
# the same depths 0.17/0.20/0.35 s at 23/29/42 MB (median of 3, 2-vCPU VM,
# Python 3.11).  The cap stays because the exact chi still builds a Graph:
# `chi --exact --input` on the finned depth-15 document takes 4.5 s at
# 602 MB and `chi_farey_ball(15, True)` 3.9 s at 585 MB.  Depth 16, not
# run, doubles V again; the Graph-based `generate farey --fins` grew from
# 191 to 685 MB between depths 14 and 15 (CHANGES.md).
MAX_DEPTH = 15

# fixed ids for the three parity classes of reduced fractions
PARITY_CLASS_IDS = {(0, 1): 0, (1, 0): 1, (1, 1): 2}


def farey_lists(
    depth: int, fins: bool = False
) -> tuple[list[tuple[int, int]], list[str], list[list[int]]]:
    """(fractions, labels, upper) of the depth-ball, optionally with fins.

    ``fractions[v]`` is the (p, q) of ball vertex v, ``labels`` names
    every vertex (fins last), and ``upper[v]`` lists v's higher-indexed
    neighbours in ascending order.  Each list is built by appends alone:
    a mediant is numbered after both of its parents, and the fins are
    numbered in sorted-edge order (see ``_append_fins``).
    """
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in 0..{MAX_DEPTH}, got {depth}")
    fractions: list[tuple[int, int]] = [(0, 1), (1, 0)]
    upper: list[list[int]] = [[1], []]
    frontier = [(0, 1)]
    for _ in range(depth):
        next_frontier = []
        for i, j in frontier:
            p, q = fractions[i]
            r, s = fractions[j]
            k = len(fractions)
            fractions.append((p + r, q + s))
            upper.append([])
            upper[i].append(k)
            upper[j].append(k)
            next_frontier.append((i, k))
            next_frontier.append((j, k))
        frontier = next_frontier
    labels = [f"{p}/{q}" for p, q in fractions]
    if fins:
        _append_fins(labels, upper)
    return fractions, labels, upper


def _append_fins(labels: list[str], upper: list[list[int]]) -> None:
    """Add one fin per edge (i, j), i < j, adjacent to both ends, in place.

    Fins are numbered in sorted-edge order, so each fin exceeds every
    index already in a list and the appends keep the lists ascending.
    """
    for i, end in enumerate([len(row) for row in upper]):
        for j in upper[i][:end]:
            k = len(labels)
            labels.append(f"fin({labels[i]},{labels[j]})")
            upper[i].append(k)
            upper[j].append(k)
            upper.append([])


def _graph(labels, upper) -> Graph:
    return Graph(labels, ((i, j) for i, row in enumerate(upper) for j in row))


def farey_ball(depth: int) -> Graph:
    """Ball of the Farey graph: seed edge (0/1, 1/0) plus ``depth`` rounds
    of mediant subdivision.  2^depth + 1 vertices, 2^(depth+1) - 1 edges."""
    _, labels, upper = farey_lists(depth)
    return _graph(labels, upper)


def _is_fin(label: str) -> bool:
    return label.startswith("fin(")


def add_fins(g: Graph) -> Graph:
    """One new vertex per existing edge, adjacent to both of its ends."""
    for label in g.labels:
        if _is_fin(label):
            raise ValueError(f"graph already has fins ({label!r}); cannot fin twice")
    labels = list(g.labels)
    upper = [_bits(row >> (i + 1), i + 1) for i, row in enumerate(g.adj)]
    _append_fins(labels, upper)
    return _graph(labels, upper)


def _parse_fraction(label: str) -> tuple[int, int]:
    try:
        p, q = label.split("/")
        return int(p), int(q)
    except ValueError:
        raise ValueError(f"label {label!r} is not a p/q fraction") from None


def parity_coloring(g: Graph) -> Coloring:
    """3-coloring: Farey vertices by (p mod 2, q mod 2), fins by elimination."""
    colors: list[int | None] = [None] * g.n
    fins = []
    for v, label in enumerate(g.labels):
        if _is_fin(label):
            fins.append(v)
            continue
        p, q = _parse_fraction(label)
        cls = (p % 2, q % 2)
        if cls == (0, 0):
            raise ValueError(f"label {label!r} is not a reduced fraction")
        colors[v] = PARITY_CLASS_IDS[cls]
    for v in fins:
        used = {colors[u] for u in g.neighbors(v)}
        colors[v] = min(set(PARITY_CLASS_IDS.values()) - used)
    return Coloring(colors)


def _unimodular(a: tuple[int, int], b: tuple[int, int]) -> bool:
    (p, q), (r, s) = a, b
    return abs(p * s - q * r) == 1


def parity_classes(fractions, upper) -> list[int]:
    """Parity class id of every vertex of ``farey_lists`` output.

    Ball vertex v (v < len(fractions)) takes the class of its fraction; a
    fin takes the least class that its ball neighbours leave free.
    """
    classes = []
    for p, q in fractions:
        cls = PARITY_CLASS_IDS.get((p % 2, q % 2))
        if cls is None:
            raise ValueError(f"fraction {p}/{q} is not reduced")
        classes.append(cls)
    n_ball = len(fractions)
    used = [0] * (len(upper) - n_ball)
    for i in range(n_ball):
        for j in upper[i]:
            if j >= n_ball:
                used[j - n_ball] |= 1 << classes[i]
    for k, mask in enumerate(used, n_ball):
        if mask == 0b111:
            raise ValueError(f"fin {k} has neighbours in all three classes")
        free = ~mask
        classes.append((free & -free).bit_length() - 1)
    return classes


def parity_violation(fractions, upper, classes) -> tuple[int, int] | None:
    """Least edge (i, j), in sorted-edge order, that fails the parity check.

    Every edge must join two classes; an edge between ball vertices
    (both below len(fractions)) must also join fractions p/q and r/s
    with |ps - qr| = 1.  None when every edge passes.
    """
    n_ball = len(fractions)
    for i, row in enumerate(upper):
        for j in row:
            if classes[i] == classes[j] or (
                j < n_ball and not _unimodular(fractions[i], fractions[j])
            ):
                return (i, j)
    return None


def chi_farey_ball(depth: int, fins: bool = False):
    """Exact chromatic number of the depth-ball, optionally with fins.

    Depths are capped by ``farey_lists`` alone: on the finned depth-15
    ball (98,304 vertices) the clique bound and DSATUR meet at 3, and the
    call takes 3.9 s at 585 MB peak RSS (2-vCPU VM, Python 3.11).
    """
    _, labels, upper = farey_lists(depth, fins)
    return chromatic_number_exact(_graph(labels, upper))
