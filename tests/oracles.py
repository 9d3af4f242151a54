"""Direct algorithms the package no longer runs, kept as test oracles.

The partition graph tests every pair of vertices with ``nested``; a
partition label joins the block_a and block_b element tuples; a Farey
ball and its fins come from an edge list grown by mediant insertion;
graph JSON is one ``json.dumps`` of the document with its edge list; an
induced subgraph is rebuilt from the kept ends of the edge list; lift
classes sum the boundary copies of one block and reduce the sum; the
properness report compares the full per-cover color tables on every
edge; a coloring is validated by walking the edges in sorted order;
DSATUR and the greedy clique bound scan every vertex, or every
candidate, at each step; the exact k-coloring search scans every vertex
for its select and keeps a per-vertex saturation list with a trail of
the neighbours each assignment touched.  Tests check the package
against these on small sizes.
"""

import json
from itertools import combinations

from sphere_chroma.covercolor import (
    ProperColoringReport,
    cover_h2,
    enumerate_double_covers,
    homology_class,
)
from sphere_chroma.graphcore import GRAPH_FORMAT, Coloring, Graph, _canonical_coloring
from sphere_chroma.kneser import nested, spherelike_partitions


def pairwise_partition_graph(parts):
    """Nested-pair graph by testing all V^2 / 2 pairs."""
    edges = [
        (i, j)
        for (i, p), (j, q) in combinations(enumerate(parts), 2)
        if nested(p, q)
    ]
    return Graph([p.label for p in parts], edges)


def partition_label(p):
    """"1 2|3 4 5" label from the block_a and block_b element tuples."""
    return "{}|{}".format(" ".join(map(str, p.block_a)), " ".join(map(str, p.block_b)))


def graph_json(g):
    """Canonical graph JSON from one json.dumps of the whole document."""
    doc = {
        "format": GRAPH_FORMAT,
        "vertex_labels": list(g.labels),
        "edges": g.sorted_edges,
    }
    return json.dumps(doc, separators=(",", ":"))


def farey_ball(depth):
    """Farey ball as a Graph built from an edge list grown by mediant insertion."""
    verts = [(0, 1), (1, 0)]
    edges = [(0, 1)]
    frontier = [(0, 1)]
    for _ in range(depth):
        next_frontier = []
        for i, j in frontier:
            (p, q), (r, s) = verts[i], verts[j]
            k = len(verts)
            verts.append((p + r, q + s))
            edges += [(i, k), (j, k)]
            next_frontier += [(i, k), (j, k)]
        frontier = next_frontier
    return Graph([f"{p}/{q}" for p, q in verts], edges)


def add_fins(g):
    """g plus one fin per edge of its sorted edge list, joined to both ends."""
    labels = list(g.labels)
    edges = g.sorted_edges
    for i, j in g.sorted_edges:
        k = len(labels)
        labels.append(f"fin({g.labels[i]},{g.labels[j]})")
        edges += [(i, k), (j, k)]
    return Graph(labels, edges)


def induced_subgraph(g, keep):
    """Subgraph on the vertex indices in keep, in that order, from g's edge list."""
    pos = {v: i for i, v in enumerate(keep)}
    edges = [(pos[i], pos[j]) for i, j in g.sorted_edges if i in pos and j in pos]
    return Graph([g.labels[v] for v in keep], edges)


def sheet_lift_bits(model, cover, p, s):
    """Raw class of the sheet-s lift of p: sheet-s copies of the block_a boundaries."""
    bits = 0
    for j in p.block_a:
        i = (j + 1) // 2
        sheet = s if j % 2 else s ^ cover.phi[i - 1]
        bits ^= 1 << (2 * (i - 1) + sheet)
    return bits


def color_tables(model, include_cut_spheres):
    """(covers, labels, hom, tables): one frozenset of lift classes per cover."""
    covers = enumerate_double_covers(model.r)
    quotients = [cover_h2(model, cover) for cover in covers]
    labels, hom, tables = [], [], []
    for p in spherelike_partitions(model.n_boundary):
        labels.append(p.label)
        hom.append(homology_class(model, p))
        tables.append(tuple(
            frozenset(q.canonical(sheet_lift_bits(model, cover, p, s)) for s in (0, 1))
            for cover, q in zip(covers, quotients)
        ))
    if include_cut_spheres:
        for i in range(1, model.r + 1):
            labels.append(f"g{i}")
            hom.append(1 << (i - 1))
            tables.append(tuple(
                frozenset(q.canonical(1 << (2 * (i - 1) + s)) for s in (0, 1))
                for q in quotients
            ))
    return covers, labels, hom, tables


def glued_graph(model, include_cut_spheres):
    """Pairwise sphere graph of the 2r-holed sphere, cut spheres appended."""
    g = pairwise_partition_graph(spherelike_partitions(model.n_boundary))
    if not include_cut_spheres:
        return g
    n = g.n + model.r
    cut_edges = [(u, v) for v in range(g.n, n) for u in range(v)]
    labels = list(g.labels) + [f"g{i}" for i in range(1, model.r + 1)]
    return Graph(labels, g.sorted_edges + cut_edges)


def exhaustive_proper_report(model, include_cut_spheres=False):
    """Properness report by comparing the color tables on every edge."""
    g = glued_graph(model, include_cut_spheres)
    covers, labels, hom, tables = color_tables(model, include_cut_spheres)
    assert list(g.labels) == labels
    violations = []
    homologous = []
    for i, j in g.sorted_edges:
        if tables[i] == tables[j]:
            violations.append((labels[i], labels[j]))
            continue
        if hom[i] == hom[j]:
            witness = next(
                covers[t].bitstring
                for t in range(len(covers))
                if tables[i][t] != tables[j][t]
            )
            homologous.append((labels[i], labels[j], witness))
    return ProperColoringReport(
        model.r, g.n, g.m, tuple(violations), tuple(homologous), not violations
    )


def edge_walk_violation(g, coloring):
    """Least monochromatic edge (i, j) in sorted edge order, or None."""
    a = coloring.colors
    for i, j in g.sorted_edges:
        if a[i] == a[j]:
            return (i, j)
    return None


def greedy_dsatur(g: Graph) -> Coloring:
    """Greedy coloring in saturation order; ties broken by least vertex index."""
    n = g.n
    color = [-1] * n
    sat = [0] * n  # bitmask of colors seen on neighbors
    for _ in range(n):
        best, best_sat = -1, -1
        for v in range(n):
            if color[v] < 0:
                s = sat[v].bit_count()
                if s > best_sat:
                    best, best_sat = v, s
        c = 0
        while sat[best] >> c & 1:
            c += 1
        color[best] = c
        bit = 1 << c
        for u in g.neighbors(best):
            if color[u] < 0:
                sat[u] |= bit
    return _canonical_coloring(color)


def clique_lower_bound(g: Graph) -> int:
    """Size of a clique found by a deterministic greedy pass (0 on no vertices)."""
    n = g.n
    if n == 0:
        return 0
    deg = [g.degree(v) for v in range(n)]
    best = 1
    for seed in range(n):
        size = 1
        cand = g.adj[seed]
        while cand:
            pick, key = -1, None
            m = cand
            while m:
                low = m & -m
                u = low.bit_length() - 1
                m ^= low
                k = (deg[u], -u)
                if key is None or k > key:
                    pick, key = u, k
            size += 1
            cand &= g.adj[pick]
        if size > best:
            best = size
    return best


def _k_colorable(adj, nbrs, deg, n, k, node_cap):
    """Backtracking search for a proper k-coloring.

    Returns (status, coloring or None, nodes) with status "sat", "unsat"
    or "budget".  Vertices are picked in saturation order (ties: degree,
    then least index); at each node the usable colors are those already in
    use plus at most one fresh color, so the first vertex always takes
    color 0 and color classes are explored in canonical order.
    """
    if n == 0:
        return "sat", [], 0
    if k <= 0:
        return "unsat", None, 0
    full = (1 << k) - 1
    color = [-1] * n
    sat = [0] * n
    nodes = 0
    max_used = 0

    def select():
        # (vertex, dead). dead means some uncolored vertex has no color left.
        v, bs, bd = -1, -1, -1
        for u in range(n):
            if color[u] < 0:
                s = sat[u]
                if s == full:
                    return u, True
                sc = s.bit_count()
                # ascending scan keeps the least index on full ties
                if sc > bs or (sc == bs and deg[u] > bd):
                    v, bs, bd = u, sc, deg[u]
        return v, False

    v0, _ = select()
    # frame: [vertex, untried candidate mask, max_used before assigning, trail]
    frames = [[v0, (1 << min(max_used + 1, k)) - 1 & ~sat[v0], max_used, None]]
    while frames:
        fr = frames[-1]
        v, trail = fr[0], fr[3]
        if trail is not None:
            bit = 1 << color[v]
            for u in trail:
                sat[u] ^= bit
            color[v] = -1
            max_used = fr[2]
            fr[3] = None
        cand = fr[1]
        if not cand:
            frames.pop()
            continue
        low = cand & -cand
        c = low.bit_length() - 1
        fr[1] = cand ^ low
        nodes += 1
        if node_cap is not None and nodes > node_cap:
            return "budget", None, nodes - 1
        color[v] = c
        bit = 1 << c
        trail = []
        for u in nbrs[v]:
            if color[u] < 0 and not sat[u] & bit:
                sat[u] |= bit
                trail.append(u)
        fr[3] = trail
        if c + 1 > max_used:
            max_used = c + 1
        nxt, dead = select()
        if dead:
            continue
        if nxt < 0:
            return "sat", color[:], nodes
        frames.append([nxt, (1 << min(max_used + 1, k)) - 1 & ~sat[nxt], max_used, None])
    return "unsat", None, nodes
