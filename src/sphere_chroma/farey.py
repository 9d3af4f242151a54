"""Farey graph balls, fins, and their 3-coloring by coordinate parity.

The r = 2 sphere graph is the Farey graph with a fin added across each
edge.  Balls are grown from the seed edge 0/1 -- 1/0 by repeated mediant
insertion: each round subdivides every frontier edge (p/q, r/s) with the
mediant (p+r)/(q+s), joined to both ends.  Every edge of the result
satisfies |ps - qr| = 1, so adjacent vertices differ in parity class
(p mod 2, q mod 2) and the three classes color every ball properly.
Fins are degree-2 vertices whose neighbors are adjacent, so they take
the one class their neighbors leave free.

Every finite ball here is 3-chromatic.  That does not settle the
chromatic number of the full Farey graph; planarity gives only an upper
bound of 4, and this module reports measured values without extrapolating.
"""

from __future__ import annotations

from .graphcore import Coloring, Graph, chromatic_number_exact

__all__ = [
    "farey_ball",
    "add_fins",
    "parity_coloring",
    "chi_farey_ball",
    "PARITY_CLASS_IDS",
]

# `generate farey --depth 15 --fins` peaks at 691 MB; depth 16 with fins
# passes 1.3 GB, since every row spans to the last vertex (CHANGES.md)
MAX_DEPTH = 15

# fixed ids for the three parity classes of reduced fractions
PARITY_CLASS_IDS = {(0, 1): 0, (1, 0): 1, (1, 1): 2}


def farey_ball(depth: int) -> Graph:
    """Ball of the Farey graph: seed edge (0/1, 1/0) plus ``depth`` rounds
    of mediant subdivision.  2^depth + 1 vertices, 2^(depth+1) - 1 edges."""
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in 0..{MAX_DEPTH}, got {depth}")
    verts: list[tuple[int, int]] = [(0, 1), (1, 0)]
    edges: list[tuple[int, int]] = [(0, 1)]
    frontier = [(0, 1)]
    for _ in range(depth):
        next_frontier = []
        for i, j in frontier:
            p, q = verts[i]
            r, s = verts[j]
            k = len(verts)
            verts.append((p + r, q + s))
            edges.append((i, k))
            edges.append((j, k))
            next_frontier.append((i, k))
            next_frontier.append((j, k))
        frontier = next_frontier
    return Graph([f"{p}/{q}" for p, q in verts], edges)


def _is_fin(label: str) -> bool:
    return label.startswith("fin(")


def add_fins(g: Graph) -> Graph:
    """One new vertex per existing edge, adjacent to both of its ends."""
    for label in g.labels:
        if _is_fin(label):
            raise ValueError(f"graph already has fins ({label!r}); cannot fin twice")
    labels = list(g.labels)
    base = g.sorted_edges
    edges = list(base)
    for i, j in base:
        k = len(labels)
        labels.append(f"fin({g.labels[i]},{g.labels[j]})")
        edges.append((i, k))
        edges.append((j, k))
    return Graph(labels, edges)


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


def chi_farey_ball(depth: int, fins: bool = False):
    """Exact chromatic number of the depth-ball, optionally with fins.

    Depths are capped by ``farey_ball`` alone: on the finned depth-15 ball
    (98,304 vertices) the clique bound and DSATUR meet at 3, and the call
    takes 7.7 s at 687 MB peak RSS (2-vCPU VM, Python 3.11).
    """
    g = farey_ball(depth)
    if fins:
        g = add_fins(g)
    return chromatic_number_exact(g)
