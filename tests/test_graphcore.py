import hashlib
import json
import os
import random
import sys
import tracemalloc
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from sphere_chroma import graphcore
from sphere_chroma.farey import add_fins, farey_ball
from sphere_chroma.graphcore import (
    ChiCertificate,
    ChiUndecided,
    Coloring,
    GRAPH_FORMAT,
    Graph,
    SchemaError,
    chromatic_number_exact,
    clique_lower_bound,
    complete_graph,
    export_dimacs_kcolor,
    export_dot,
    from_json,
    greedy_dsatur,
    to_json,
    validate_coloring,
    _class_masks,
    _clique_bound,
    _degree_classes,
    _k_colorable,
)
from sphere_chroma.kneser import kg, total_kneser
from sphere_chroma.spheres import sphere_graph_holed


def cycle(n):
    return Graph([f"c{i}" for i in range(n)], [(i, (i + 1) % n) for i in range(n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph([f"v{i}" for i in range(10)], outer + inner + spokes)


class TestGraph:
    def test_edge_normalization(self):
        g = Graph(["a", "b", "c"], [(2, 0), (0, 1)])
        assert g.sorted_edges == [(0, 1), (0, 2)]
        assert g.n == 3 and g.m == 2

    def test_duplicate_edges_collapse(self):
        g = Graph(["a", "b"], [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(["a", "b"], [(1, 1)])

    def test_bool_endpoints_rejected(self):
        # from_json refuses [false,true]; the constructor agrees
        with pytest.raises(ValueError, match="non-integer"):
            Graph(["a", "b"], [(False, True)])

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(["a", "b"], [(0, 2)])

    def test_non_string_label_rejected(self):
        with pytest.raises(ValueError, match="not a string"):
            Graph(["a", 3])

    def test_degrees_and_neighbors(self):
        g = cycle(4)
        assert [g.degree(v) for v in range(4)] == [2, 2, 2, 2]
        assert g.neighbors(0) == [1, 3]

    def test_equality_and_hash(self):
        assert cycle(5) == cycle(5)
        assert cycle(5) != cycle(6)
        assert hash(cycle(5)) == hash(cycle(5))
        assert cycle(3) != cycle(3).adj

    def test_complete_graph(self):
        g = complete_graph(4)
        assert g.n == 4 and g.m == 6
        assert g.labels == ("v0", "v1", "v2", "v3")

    @pytest.mark.parametrize("n", range(10))
    def test_complete_graph_rows_match_the_pair_list(self, n):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert complete_graph(n) == Graph([f"v{i}" for i in range(n)], pairs)


class TestColoring:
    def test_stores_tuple_and_refuses_mapping(self):
        assert Coloring([0, 1, 0]).colors == (0, 1, 0)
        assert Coloring([0, 1, 0]) == Coloring((0, 1, 0))
        assert Coloring([0, 1, 0]) != (0, 1, 0)
        assert repr(Coloring([0, 1, 0])) == "Coloring((0, 1, 0))"
        with pytest.raises(TypeError, match="sequence"):
            Coloring({0: 0, 1: 1, 2: 0})

    def test_size_counts_distinct_colors(self):
        assert Coloring([0, 5, 5, 0]).size == 2

    def test_non_int_entries_rejected(self):
        with pytest.raises(ValueError):
            Coloring([0, "red"])

    def test_bool_colors_rejected(self):
        with pytest.raises(ValueError, match="not an int"):
            Coloring([True, False])

    def test_validate_proper(self):
        g = cycle(4)
        assert validate_coloring(g, Coloring([0, 1, 0, 1])) is None

    def test_validate_returns_least_violating_edge(self):
        g = complete_graph(3)
        assert validate_coloring(g, Coloring([0, 0, 0])) == (0, 1)
        assert validate_coloring(g, Coloring([0, 1, 1])) == (1, 2)

    def test_validate_partial_assignment_raises(self):
        # a coloring shorter than the graph leaves its last vertices uncolored
        with pytest.raises(ValueError, match="2 colors .* 3 vertices"):
            validate_coloring(cycle(3), Coloring([0, 1]))

    def test_validate_unknown_vertex_raises(self):
        # a coloring longer than the graph colors a vertex outside it
        with pytest.raises(ValueError, match="4 colors .* 3 vertices"):
            validate_coloring(cycle(3), Coloring([0, 1, 2, 0]))


class TestGreedyDsatur:
    def test_empty_graph(self):
        c = greedy_dsatur(Graph([]))
        assert c.colors == () and c.size == 0

    def test_cycle_odd(self):
        g = cycle(5)
        c = greedy_dsatur(g)
        assert validate_coloring(g, c) is None
        assert c.size == 3

    def test_bipartite_exact(self):
        g = cycle(6)
        c = greedy_dsatur(g)
        assert validate_coloring(g, c) is None
        assert c.size == 2

    def test_petersen_three_colors(self):
        g = petersen()
        c = greedy_dsatur(g)
        assert validate_coloring(g, c) is None
        assert c.size == 3

    def test_canonical_color_ids(self):
        # colors are renumbered by first appearance, so vertex 0 gets 0
        c = greedy_dsatur(complete_graph(3))
        assert c.colors == (0, 1, 2)

    def test_deterministic(self):
        g = petersen()
        assert greedy_dsatur(g) == greedy_dsatur(g)


class TestCliqueLowerBound:
    def test_empty(self):
        assert clique_lower_bound(Graph([])) == 0

    def test_edgeless(self):
        assert clique_lower_bound(Graph(["a", "b"])) == 1

    def test_complete(self):
        assert clique_lower_bound(complete_graph(5)) == 5

    def test_cycle(self):
        assert clique_lower_bound(cycle(5)) == 2

    def test_is_a_lower_bound_for_petersen(self):
        assert clique_lower_bound(petersen()) == 2


class TestChromaticNumberExact:
    def test_empty_graph(self):
        cert = chromatic_number_exact(Graph([]))
        assert cert.chi == 0 and cert.witness.colors == ()

    def test_single_vertex(self):
        assert chromatic_number_exact(Graph(["a"])).chi == 1

    def test_edgeless(self):
        assert chromatic_number_exact(Graph(["a", "b", "c"])).chi == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_complete(self, n):
        cert = chromatic_number_exact(complete_graph(n))
        assert cert.chi == n
        assert cert.clique_bound == n
        assert cert.infeasibility is None  # bounds met, no search needed

    @pytest.mark.parametrize("n,chi", [(4, 2), (5, 3), (6, 2), (7, 3)])
    def test_cycles(self, n, chi):
        g = cycle(n)
        cert = chromatic_number_exact(g)
        assert cert.chi == chi
        assert validate_coloring(g, cert.witness) is None
        assert cert.witness.size == chi

    def test_petersen(self):
        cert = chromatic_number_exact(petersen())
        assert cert.chi == 3

    def test_infeasibility_evidence_present_when_searched(self):
        # C5: clique bound 2, chi 3, so 2-colorability was refuted
        cert = chromatic_number_exact(cycle(5))
        assert isinstance(cert, ChiCertificate)
        assert cert.clique_bound == 2
        assert cert.infeasibility is not None
        assert cert.infeasibility.colors_ruled_out == 2
        assert cert.infeasibility.nodes_explored > 0

    def test_budget_exhaustion_reports_bounds(self):
        result = chromatic_number_exact(petersen(), budget=1)
        assert isinstance(result, ChiUndecided)
        assert result.lower <= 3 <= result.upper
        assert validate_coloring(petersen(), result.witness) is None
        assert result.witness.size == result.upper
        assert result.nodes_explored >= 1
        # the budget ran out inside the first palette size tried
        assert result.lower == clique_lower_bound(petersen())
        assert result.refutation_nodes == ()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="-1"):
            chromatic_number_exact(petersen(), budget=-1)

    def test_budget_large_enough_still_exact(self):
        assert chromatic_number_exact(cycle(5), budget=10_000).chi == 3

    def test_one_refutation_count_per_k(self):
        g = sphere_graph_holed(8)
        cert = chromatic_number_exact(g)
        ev = cert.infeasibility
        assert (cert.chi, cert.clique_bound) == (9, 5)
        assert len(ev.refutation_nodes) == cert.chi - cert.clique_bound
        assert ev.refutation_nodes[-1] == ev.nodes_explored == 3853
        # the refutations of k = 5..8 are every node the search spends
        # before it reaches k = 9: one node fewer leaves k = 8 open
        spent = sum(ev.refutation_nodes)
        reached = chromatic_number_exact(g, budget=spent)
        assert (reached.lower, reached.nodes_explored) == (9, spent)
        assert chromatic_number_exact(g, budget=spent - 1).lower == 8

    def test_undecided_keeps_one_refutation_count_per_k(self):
        result = chromatic_number_exact(sphere_graph_holed(9), budget=50_000)
        assert isinstance(result, ChiUndecided)
        assert (result.lower, result.upper, result.nodes_explored) == (10, 18, 50_000)
        # k = 6..9 refuted, then k = 10 ran out of budget
        assert result.refutation_nodes == (9, 22, 84, 1178)

    @pytest.mark.parametrize("n, k, nodes, pushes", [(7, 6, 379, 313), (8, 8, 3853, 3326)])
    def test_dead_nodes_push_no_frame(self, n, k, nodes, pushes):
        # a node that leaves some uncolored vertex no color pushes no child
        # frame; without that shortcut the child is pushed only to find no
        # color, which keeps the node count and adds one push per dead node.
        # A push is a call of the frame stack's append, the search's only
        # append, counted by a profile hook on the search's own frame.
        code = _k_colorable.__code__
        calls = []

        def hook(frame, event, arg):
            if event == "c_call" and frame.f_code is code and arg.__name__ == "append":
                calls.append(arg)

        g = sphere_graph_holed(n)
        classes = _degree_classes(g.adj)
        sys.setprofile(hook)
        try:
            status, _, explored = _k_colorable(g.adj, classes, g.n, k, None)
        finally:
            sys.setprofile(None)
        assert (status, explored, len(calls)) == ("unsat", nodes, pushes)

    def test_deterministic(self):
        a = chromatic_number_exact(petersen())
        b = chromatic_number_exact(petersen())
        assert a.chi == b.chi and a.witness == b.witness


ORACLE_GRAPHS = [
    *[pytest.param(partial(sphere_graph_holed, n), id=f"S{n}") for n in range(5, 11)],
    *[pytest.param(partial(total_kneser, n), id=f"TK{n}") for n in range(5, 10)],
    pytest.param(partial(kg, 10, 4), id="kg(10,4)"),
    pytest.param(lambda: add_fins(farey_ball(9)), id="farey9-fins"),
]


@st.composite
def varied_graphs(draw, max_n=40):
    """Random graphs of any density, or threshold graphs with many distinct
    degrees, with isolated vertices mixed into a drawn vertex order."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if draw(st.booleans()):
        p = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.8, 1.0]))
        edges = [e for e in pairs if rng.random() < p]
    else:
        # i ~ j when i + j >= n: about n / 2 distinct degrees
        edges = [(i, j) for i, j in pairs if i + j >= n]
    order = list(range(n + draw(st.integers(min_value=0, max_value=5))))
    rng.shuffle(order)
    return Graph([f"v{v}" for v in range(len(order))], [(order[i], order[j]) for i, j in edges])


def clique_and_fans(size, fans):
    """K_size and, for each entry f of fans, one more vertex joined to
    the first f vertices of the clique."""
    edges = [(i, j) for i in range(size) for j in range(i + 1, size)]
    edges += [(size + t, j) for t, f in enumerate(fans) for j in range(f)]
    return Graph([f"v{v}" for v in range(size + len(fans))], edges)


def join_universal(g, positions):
    """g joined to one universal vertex at each of ``positions`` of the new
    vertex order; g's vertices keep their relative order."""
    n = g.n + len(positions)
    old = [v for v in range(n) if v not in positions]
    edges = [(old[i], old[j]) for i, j in g.sorted_edges]
    edges += [(u, v) for u in positions for v in range(n) if v != u]
    return Graph([f"v{v}" for v in range(n)], edges)


def planted_universal(g, u, rnd):
    """g joined to u universal vertices at random positions, and those positions."""
    positions = set(rnd.sample(range(g.n + u), u))
    return join_universal(g, positions), positions


def refutations(cert):
    return None if cert.infeasibility is None else cert.infeasibility.refutation_nodes


class TestUniversalPeeling:
    """The exact search removes the universal vertices, searches the rest
    with k - u colors and gives each removed vertex a color of its own."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(varied_graphs(max_n=16), st.integers(min_value=0, max_value=4), st.randoms())
    @example(Graph([]), 2, random.Random(0))
    def test_join_adds_one_color_per_universal_vertex(self, g, u, rnd):
        joined, _ = planted_universal(g, u, rnd)
        base, cert = chromatic_number_exact(g), chromatic_number_exact(joined)
        assert cert.chi == base.chi + u
        assert validate_coloring(joined, cert.witness) is None
        assert cert.witness.size == cert.chi
        # the bounds shift by u too, so the same palettes are refuted
        assert cert.clique_bound == base.clique_bound + u
        assert refutations(cert) == refutations(base)

    @pytest.mark.parametrize("n", range(5, 9))
    def test_total_kneser_searches_as_the_sphere_graph(self, n):
        tk, s = chromatic_number_exact(total_kneser(n)), chromatic_number_exact(sphere_graph_holed(n))
        assert tk.chi == s.chi + n
        assert refutations(tk) == refutations(s)

    def test_budgeted_tk9_counts_the_peeled_nodes(self):
        result = chromatic_number_exact(total_kneser(9), budget=50_000)
        assert isinstance(result, ChiUndecided)
        assert (result.lower, result.upper, result.nodes_explored) == (19, 27, 50_000)
        # S_9's counts for k = 6..9, as k = 15..18 with the 9 singletons
        assert result.refutation_nodes == (9, 22, 84, 1178)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(varied_graphs(max_n=16), st.integers(min_value=0, max_value=4), st.randoms())
    @example(Graph([]), 3, random.Random(0))
    @example(cycle(5), 2, random.Random(1))
    def test_peeled_rows_are_the_induced_subgraph(self, g, u, rnd):
        joined, positions = planted_universal(g, u, rnd)
        rest, universal, rows = graphcore._peel_universal(joined.adj)
        everyone = (1 << joined.n) - 1
        assert positions <= set(universal) and sorted(rest + universal) == list(range(joined.n))
        assert all(joined.adj[v] | 1 << v == everyone for v in universal)
        assert all(joined.adj[v] | 1 << v != everyone for v in rest)
        assert tuple(rows) == oracles.induced_subgraph(joined, rest).adj

    def test_complete_graph_returns_before_peeling(self, monkeypatch):
        def unreachable(adj):
            raise AssertionError("peeled a graph whose bounds already meet")

        monkeypatch.setattr(graphcore, "_peel_universal", unreachable)
        cert = chromatic_number_exact(complete_graph(6))
        assert (cert.chi, cert.clique_bound, cert.infeasibility) == (6, 6, None)
        assert cert.witness == greedy_dsatur(complete_graph(6))


class TestSelectionMatchesScan:
    """The bit-plane DSATUR pick and the degree-class clique pick choose the
    same vertex at every step as the per-vertex scans in oracles.  The
    clique seeds stopped at the DSATUR size find the same clique size:
    no clique outgrows a proper coloring."""

    @pytest.mark.parametrize("build", ORACLE_GRAPHS)
    def test_fixed_graphs(self, build):
        g = build()
        assert greedy_dsatur(g) == oracles.greedy_dsatur(g)
        clique = oracles.clique_lower_bound(g)
        assert clique_lower_bound(g) == clique
        assert _clique_bound(g.adj, greedy_dsatur(g).size) == clique

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(varied_graphs())
    @example(Graph([]))
    @example(Graph(["a", "b", "c"]))
    @example(complete_graph(6))
    def test_random_graphs(self, g):
        assert greedy_dsatur(g) == oracles.greedy_dsatur(g)
        clique = oracles.clique_lower_bound(g)
        assert clique_lower_bound(g) == clique
        assert _clique_bound(g.adj, greedy_dsatur(g).size) == clique


def search_both(g, k, cap):
    """(bitset kernel, per-vertex scan oracle) results for one k."""
    n = g.n
    nbrs = [g.neighbors(v) for v in range(n)]
    deg = [g.degree(v) for v in range(n)]
    got = _k_colorable(g.adj, _degree_classes(g.adj), n, k, cap)
    want = oracles._k_colorable(g.adj, nbrs, deg, n, k, cap)
    return got, want


SEARCH_GRAPHS = [
    pytest.param(petersen, id="petersen"),
    *[pytest.param(partial(sphere_graph_holed, n), id=f"S{n}") for n in range(5, 9)],
    *[pytest.param(partial(total_kneser, n), id=f"TK{n}") for n in range(5, 9)],
    pytest.param(partial(kg, 10, 4), id="kg(10,4)"),
]


class TestSearchMatchesScan:
    """The bitset k-coloring search returns the same (status, coloring,
    nodes) as the per-vertex scan in oracles: the same search tree."""

    @pytest.mark.parametrize("build", SEARCH_GRAPHS)
    def test_every_k_between_the_bounds(self, build):
        g = build()
        for k in range(clique_lower_bound(g), greedy_dsatur(g).size + 1):
            got, want = search_both(g, k, None)
            assert got == want, k

    @pytest.mark.parametrize("build", [
        pytest.param(partial(sphere_graph_holed, 9), id="S9"),
        pytest.param(partial(total_kneser, 9), id="TK9"),
    ])
    def test_budgeted_on_n9(self, build):
        g = build()
        for k in range(clique_lower_bound(g), greedy_dsatur(g).size + 1):
            got, want = search_both(g, k, 5_000)
            assert got == want, k

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        varied_graphs(max_n=14),
        st.integers(min_value=0, max_value=20),
        st.one_of(st.none(), st.just(1), st.integers(min_value=0, max_value=40)),
    )
    @example(Graph([]), 0, None)
    @example(Graph([]), 3, 0)
    @example(complete_graph(6), 5, None)
    @example(complete_graph(6), 6, None)
    @example(complete_graph(6), 6, 3)
    # counts of 16 and up, which the search keeps past its four local planes
    @example(complete_graph(18), 17, None)
    @example(complete_graph(18), 17, 12)
    @example(complete_graph(18), 18, None)
    @example(complete_graph(18), 18, 17)
    # counts of 32 and up, which carry through two list planes; the two
    # fan vertices make the select tell a count of 32 from a lower one
    @example(clique_and_fans(33, (20, 10)), 32, None)
    @example(clique_and_fans(33, (20, 10)), 33, None)
    def test_random_graphs(self, g, k, cap):
        got, want = search_both(g, k, cap)
        assert got == want


class TestDimacsExport:
    def test_triangle_two_colors_golden(self):
        g = complete_graph(3)
        text = export_dimacs_kcolor(g, 2)
        assert text == (
            "p cnf 6 9\n"
            "1 2 0\n"
            "3 4 0\n"
            "5 6 0\n"
            "-1 -3 0\n"
            "-2 -4 0\n"
            "-1 -5 0\n"
            "-2 -6 0\n"
            "-3 -5 0\n"
            "-4 -6 0\n"
        )

    def test_header_counts(self):
        g = cycle(5)
        text = export_dimacs_kcolor(g, 3)
        assert text.splitlines()[0] == f"p cnf {5 * 3} {5 + 5 * 3}"

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            export_dimacs_kcolor(cycle(3), 0)

    def test_trailing_newline(self):
        assert export_dimacs_kcolor(Graph(["a"]), 1).endswith("\n")

    def test_matches_the_edge_list_text(self):
        # the rows give the text that the sorted edge list gives, also for
        # palettes of one block of colors, one more, and two more
        for g, k in [(sphere_graph_holed(8), 3), *((complete_graph(3), k) for k in (4096, 4097, 8193))]:
            lines = [f"p cnf {g.n * k} {g.n + g.m * k}"]
            lines += [" ".join(str(v * k + c + 1) for c in range(k)) + " 0" for v in range(g.n)]
            lines += [f"-{i * k + c + 1} -{j * k + c + 1} 0" for i, j in g.sorted_edges for c in range(k)]
            assert export_dimacs_kcolor(g, k) == "\n".join(lines) + "\n", k


class TestDotExport:
    def test_plain_golden(self):
        g = Graph(["a", "b"], [(0, 1)])
        assert export_dot(g) == 'graph G {\n"a";\n"b";\n"a" -- "b";\n}\n'

    def test_colored_golden(self):
        g = Graph(["a", "b"], [(0, 1)])
        text = export_dot(g, Coloring([0, 1]))
        assert text == 'graph G {\n"a" [color=0];\n"b" [color=1];\n"a" -- "b";\n}\n'

    def test_quote_escaping(self):
        g = Graph(['say "hi"'])
        assert '"say \\"hi\\"";' in export_dot(g)

    def test_improper_coloring_rejected(self):
        g = Graph(["a", "b"], [(0, 1)])
        with pytest.raises(ValueError, match="not proper"):
            export_dot(g, Coloring([0, 0]))

    def test_repeated_label_rejected(self):
        # DOT names a node by its label: two "a" vertices would be one node
        g = Graph(["b", "a", "c", "a", "b"], [(1, 3)])
        with pytest.raises(ValueError, match="label 'b' names more than one vertex"):
            export_dot(g)
        # the line stream refuses at the call, before its first line
        with pytest.raises(ValueError, match="label 'b'"):
            graphcore._dot_lines(g)

    def test_matches_the_edge_list_text(self):
        g = sphere_graph_holed(7)
        coloring = greedy_dsatur(g)
        q = [f'"{x}"' for x in g.labels]
        lines = ["graph G {", *(f"{q[v]} [color={coloring.colors[v]}];" for v in range(g.n))]
        lines += [f"{q[i]} -- {q[j]};" for i, j in g.sorted_edges]
        assert export_dot(g, coloring) == "\n".join(lines + ["}"]) + "\n"

    def test_edges_in_sorted_order(self):
        g = cycle(4)
        lines = export_dot(g).splitlines()
        assert lines[5:9] == ['"c0" -- "c1";', '"c0" -- "c3";', '"c1" -- "c2";', '"c2" -- "c3";']


class TestJsonFormat:
    def test_golden_document(self):
        g = Graph(["a", "b", "c"], [(1, 0), (2, 1)])
        assert to_json(g) == (
            '{"format":"sphere-chroma-graph-v1",'
            '"vertex_labels":["a","b","c"],'
            '"edges":[[0,1],[1,2]]}'
        )

    def test_round_trip_identity(self):
        g = petersen()
        text = to_json(g)
        assert to_json(from_json(text)) == text
        assert from_json(text) == g

    def test_benchmark_sizes_match_pin_and_dumped_document(self):
        # bench/pins.json is only read here: the pin is the sha256 of
        # `generate sphere --n 12` stdout, recorded from the json.dumps writer
        pins = json.loads((Path(__file__).resolve().parent.parent / "bench" / "pins.json").read_text())
        text = to_json(sphere_graph_holed(12)) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == pins["generate-sphere-12"]
        tk = total_kneser(12)
        assert to_json(tk) == oracles.graph_json(tk)

    def test_invalid_json_reports_position(self):
        with pytest.raises(SchemaError, match="line 1 column"):
            from_json("{nope")

    def test_top_level_must_be_object(self):
        with pytest.raises(SchemaError, match="object"):
            from_json("[1,2]")

    def test_wrong_format_tag(self):
        doc = {"format": "other", "vertex_labels": [], "edges": []}
        with pytest.raises(SchemaError, match="format"):
            from_json(json.dumps(doc))

    def test_missing_field(self):
        doc = {"format": "sphere-chroma-graph-v1", "edges": []}
        with pytest.raises(SchemaError, match="vertex_labels"):
            from_json(json.dumps(doc))

    def test_non_string_label(self):
        doc = {"format": "sphere-chroma-graph-v1", "vertex_labels": [1], "edges": []}
        with pytest.raises(SchemaError):
            from_json(json.dumps(doc))

    def test_edge_pair_shape(self):
        base = {"format": "sphere-chroma-graph-v1", "vertex_labels": ["a", "b"]}
        for bad in ([[0]], [[0, 1, 2]], [0], [[0, "x"]], [[True, 1]]):
            with pytest.raises(SchemaError, match=r"'edges'\[0\]: expected a pair of ints"):
                from_json(json.dumps({**base, "edges": bad}))

    def test_edge_order_and_loops_rejected(self):
        base = {"format": "sphere-chroma-graph-v1", "vertex_labels": ["a", "b"]}
        for bad, message in (
            ([[1, 0]], r"'edges'\[0\]: endpoints must satisfy i < j, got \[1,0\]"),
            ([[0, 0]], r"'edges'\[0\]: self-loop \[0,0\]"),
            ([[0, 1], [0, 1]], r"'edges'\[1\]: duplicate edge \[0,1\]"),
            ([[0, 5]], r"'edges'\[0\]: \[0,5\] out of range for 2 vertices"),
            ([[-1, 1]], r"'edges'\[0\]: \[-1,1\] out of range for 2 vertices"),
        ):
            with pytest.raises(SchemaError, match=message):
                from_json(json.dumps({**base, "edges": bad}))

    @pytest.mark.parametrize("text", [
        '{"format":"sphere-chroma-graph-v1","vertex_labels":["a","b"],'
        f'"edges":[[0,{"9" * 5000}]]}}',
        "[" * 100_000,
        '{"format":"sphere-chroma-graph-v1","vertex_labels":["a"],"edges":' + "[" * 100_000,
    ], ids=["over-long-int", "deep-nesting", "deep-edges"])
    def test_json_module_limits_raise_schema_error(self, text):
        # the json module's own error, with its text, as a SchemaError
        with pytest.raises((ValueError, RecursionError)) as raw:
            json.loads(text)
        with pytest.raises(SchemaError) as caught:
            from_json(text)
        assert str(caught.value) == str(raw.value)


# edge-array elements as text: valid pairs are drawn separately; these
# break the shape, order, range or uniqueness checks, or put "],[" inside
# an element or a string, so a piece cut there does not parse
ODD_ELEMENTS = [
    "[1,0]", "[0,0]", "[9,9]", "[9,0]", "[1,-1]", "[0,9]", "[-1,1]", "[0]", "[0,1,2]",
    "[[0],[1]]", '["],[",1]', '"],["', "true", "[true,1]", "1.5", "[0,1.0]", "[0,1e0]",
    "1" + "0" * 30, "9" * 5000, "[0,1]", "[ 0 , 1 ]", "null", "{}",
    # what the unchecked loop leaves to its screens ("-", "e") or to a
    # failed unpack, compare, index or shift
    "NaN", "[0,NaN]", "[Infinity,1]", "[-0,1]", "[0,-0]", "[false,1]", "[0,1E0]",
    '["0","1"]', '"01"', "[0,1" + "0" * 30 + "]",
]
# raw text dropped into the document at a drawn position
JUNK = ["x", ",", "]", "[", "}", "{", '"', " ", "\n", "],[", "0"]


@st.composite
def graph_documents(draw):
    """Graph JSON text near the canonical form: odd elements at any
    position (so at a piece boundary once pieces are a few characters),
    members in any order or repeated, whitespace separators, injected
    junk and trailing text."""
    n = draw(st.integers(min_value=0, max_value=6))
    pairs = [f"[{i},{j}]" for i in range(n) for j in range(i + 1, n)]
    element = st.one_of(st.sampled_from(pairs), st.sampled_from(ODD_ELEMENTS)) if pairs \
        else st.sampled_from(ODD_ELEMENTS)
    elements = draw(st.lists(element, max_size=8))
    comma, colon = draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,\n", " :")]))
    labels = [f"v{i}" for i in range(n)]
    members = [
        ("format", json.dumps(GRAPH_FORMAT)),
        ("vertex_labels", json.dumps(labels)),
        ("edges", "[" + comma.join(elements) + "]"),
    ]
    # a repeated key with another value: json.loads keeps the last
    repeats = [("format", '"other"'), ("vertex_labels", json.dumps(labels + ["w"])),
               ("edges", "[[0,1]]")]
    # each kind of damage in about one document of four
    sometimes = st.integers(min_value=0, max_value=3).map(lambda k: k == 0)
    if draw(sometimes):
        members = draw(st.permutations(members))
    if draw(sometimes):
        at = draw(st.integers(min_value=0, max_value=len(members)))
        members.insert(at, draw(st.sampled_from(repeats)))
    text = "{" + comma.join(f'"{key}"{colon}{value}' for key, value in members) + "}"
    if draw(sometimes):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        text = text[:at] + draw(st.sampled_from(JUNK)) + text[at:]
    if draw(sometimes):
        text += draw(st.sampled_from(["\n", " x", "]", "{}"]))
    return text


def read_outcome(reader, text):
    """The Graph a reader returns, or the type and text of what it raises."""
    try:
        return reader(text)
    except SchemaError as e:
        return type(e), str(e)


class TestJsonPieces:
    """from_json reads the edge array in pieces and must agree with one
    json.loads of the whole document (``oracles.graph_from_json``)."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(graph_documents(), st.integers(min_value=1, max_value=8))
    @example('{"format":"sphere-chroma-graph-v1","vertex_labels":["a","b"],"edges":[[0,1],[[0],[1]]]}', 3)
    @example('{"format":"sphere-chroma-graph-v1","vertex_labels":["a","b"],"edges":[[0,1],["],[",1]]}', 1)
    @example('{"format":"sphere-chroma-graph-v1","edges":[[0,1]],"vertex_labels":["a","b"]}', 1)
    @example('{"format":"sphere-chroma-graph-v1","vertex_labels":["a","b"],"edges":[],"edges":[[0,1]]}', 1)
    @example('{"format":"sphere-chroma-graph-v1","vertex_labels":["a","b"],"edges":[[0,1],[0,1]]}x', 1)
    @example('{"format":"sphere-chroma-graph-v1","vertex_labels":["a","b"],"edges":[[0,0],[0,1}', 1)
    def test_pieces_match_whole_document_reader(self, text, piece):
        with mock.patch.object(graphcore, "_READ_PIECE", piece):
            got = read_outcome(from_json, text)
        assert got == read_outcome(oracles.graph_from_json, text)

    @pytest.mark.parametrize("element", ODD_ELEMENTS)
    @pytest.mark.parametrize("piece", [1, 1 << 12])
    @pytest.mark.parametrize("n", [3, 200])
    def test_each_odd_element_matches_whole_document_reader(self, element, piece, n):
        # after a valid edge, so the unchecked loop has ORed a bit first;
        # 3 vertices take the table of 1 << k, 200 with two edges shift
        text = ('{"format":"sphere-chroma-graph-v1",'
                f'"vertex_labels":{json.dumps([f"v{i}" for i in range(n)])},'
                f'"edges":[[0,2],{element}]}}')
        with mock.patch.object(graphcore, "_READ_PIECE", piece), \
                mock.patch.object(graphcore, "_or_edges", wraps=graphcore._or_edges) as loop:
            got = read_outcome(from_json, text)
        assert got == read_outcome(oracles.graph_from_json, text)
        assert all((call.args[1] is None) == (n == 200) for call in loop.call_args_list)

    @pytest.mark.parametrize("piece", [1, 1 << 12])
    def test_duplicate_edge_named_within_and_across_pieces(self, piece):
        # one piece holds all three edges; pieces of 1 character hold one
        # edge each, so the repeat is in another piece than the first
        text = ('{"format":"sphere-chroma-graph-v1","vertex_labels":["a","b","c"],'
                '"edges":[[0,1],[1,2],[0,1]]}')
        # the fast run marks the fault with no rows; the second run, with
        # the checker, names it and stops at the piece that holds it
        with mock.patch.object(graphcore, "_READ_PIECE", piece):
            _, rows, fault = graphcore._read_in_pieces(text)
            with mock.patch.object(graphcore, "_add_edges", wraps=graphcore._add_edges) as checker, \
                    pytest.raises(SchemaError) as caught:
                from_json(text)
        assert rows is None and fault is None
        assert str(caught.value) == "field 'edges'[2]: duplicate edge [0,1]"
        assert [call.args[2] for call in checker.call_args_list] == ([0] if piece > 1 else [0, 1, 2])

    @pytest.mark.parametrize("build, shifted", [
        (lambda: sphere_graph_holed(8), False),
        (lambda: add_fins(farey_ball(9)), True),  # 1,536 vertices, 3,069 edges
    ])
    def test_written_documents_skip_the_checker(self, build, shifted):
        # the per-edge checker only names a fault; a sound document never
        # reaches it, so a silent fall back to it fails here
        g = build()
        with mock.patch.object(graphcore, "_add_edges", side_effect=AssertionError("checker ran")), \
                mock.patch.object(graphcore, "_or_edges", wraps=graphcore._or_edges) as loop:
            assert from_json(to_json(g)) == g
        assert loop.call_args_list and all(
            (call.args[1] is None) == shifted for call in loop.call_args_list)

    def test_written_documents_are_read_in_pieces(self):
        text = to_json(sphere_graph_holed(8))
        with mock.patch.object(graphcore, "_READ_PIECE", 64):
            doc, rows, fault = graphcore._read_in_pieces(text)
        assert fault is None and Graph.from_rows(doc["vertex_labels"], rows) == from_json(text)

    def test_reader_holds_no_edge_list(self):
        # one json.loads of this 2.6 MB document peaks over 30 MB of traced
        # allocation, most of it the 235,092 two-int lists
        text = to_json(sphere_graph_holed(12))
        tracemalloc.start()
        try:
            g = from_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m == 235092
        assert peak < 8 * 2**20


def streamed_outcome(path, text, chunk):
    """read_outcome of ``_from_file`` on text written to path, read in
    chunks of ``chunk`` characters."""
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8") as fh, mock.patch.object(graphcore, "_READ_CHUNK", chunk):
        return read_outcome(graphcore._from_file, fh)


class ChunkReadsOnly:
    """A text file whose read() refuses no size, or one past the chunk,
    and which cannot be rewound: what the chunked read may not do."""

    def __init__(self, fh):
        self.fh = fh

    def fileno(self):
        return self.fh.fileno()

    def tell(self):
        return self.fh.tell()

    def read(self, size=-1):
        if size is None or size < 0 or size > graphcore._READ_CHUNK:
            raise AssertionError(f"read({size}) is not a chunk")
        return self.fh.read(size)

    def seek(self, *args):
        raise AssertionError("the chunked read gave up")


class ChunkReadsAndRewinds(ChunkReadsOnly):
    """A ChunkReadsOnly that may be rewound to where the read began, as
    the second run of the piece loop is; it counts the rewinds."""

    def __init__(self, fh):
        super().__init__(fh)
        self.start = fh.tell()
        self.rewinds = 0

    def seek(self, *args):
        if args != (self.start,):
            raise AssertionError(f"seek{args} is not a rewind to the start")
        self.rewinds += 1
        return self.fh.seek(*args)


class TestStreamedRead:
    """``_from_file`` feeds a regular file to the piece reader in chunks
    and must agree with ``from_json`` of the file's whole text."""

    @pytest.mark.parametrize("chunk", [1, 7])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(text=graph_documents())
    def test_documents_match_whole_text_reader(self, tmp_path_factory, chunk, text):
        path = tmp_path_factory.getbasetemp() / f"streamed-{chunk}.json"
        assert streamed_outcome(path, text, chunk) == read_outcome(from_json, text)

    @pytest.mark.parametrize("element", ODD_ELEMENTS)
    @pytest.mark.parametrize("chunk", [1, 7])
    def test_each_odd_element_matches_whole_text_reader(self, tmp_path, element, chunk):
        text = ('{"format":"sphere-chroma-graph-v1","vertex_labels":["a","b","c"],'
                f'"edges":[[0,2],{element}]}}')
        assert streamed_outcome(tmp_path / "g.json", text, chunk) == read_outcome(from_json, text)

    @pytest.mark.parametrize("text", [
        "\ufeff" + to_json(cycle(4)),
        '{ "format" : "sphere-chroma-graph-v1" ,\n "vertex_labels" : [ "a" , "b" ] ,'
        ' "edges" : [ [ 0 , 1 ] ] }\n',
        '{"edges":[[0,1]],"format":"sphere-chroma-graph-v1","vertex_labels":["a","b"]}',
        # a key that ends in "edges" opens an array before the labels
        '{"format":"sphere-chroma-graph-v1","x\\"edges":[[1],[2]],"vertex_labels":["a","b"],'
        '"edges":[[0,1]]}',
        to_json(cycle(5))[:-1] + ',"x":[[0,1],[2,3]]}',
        to_json(cycle(5)) + "\n \n",
        to_json(cycle(5)) + "\n x",
    ], ids=["bom", "spaced", "edges-first", "edges-in-a-key", "member-after-edges",
            "trailing-space", "trailing-text"])
    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_odd_layouts_match_whole_text_reader(self, tmp_path, text, chunk):
        assert streamed_outcome(tmp_path / "g.json", text, chunk) == read_outcome(from_json, text)

    @pytest.mark.parametrize("at", ["label", "end"])
    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_undecodable_byte_raises_the_whole_read_error(self, tmp_path, at, chunk):
        data = to_json(sphere_graph_holed(8)).encode()
        data = data.replace(b'"vertex_labels":["', b'"vertex_labels":["\xff', 1) if at == "label" \
            else data[:-2] + b"\xff]}"
        path = tmp_path / "g.json"
        path.write_bytes(data)
        with open(path, encoding="utf-8") as fh, pytest.raises(UnicodeDecodeError) as whole:
            fh.read()
        with open(path, encoding="utf-8") as fh, pytest.raises(UnicodeDecodeError) as streamed, \
                mock.patch.object(graphcore, "_READ_CHUNK", chunk):
            graphcore._from_file(fh)
        assert str(streamed.value) == str(whole.value)

    @pytest.mark.parametrize("chunk", [1 << 10, 1 << 16])
    def test_written_document_is_read_in_chunks_only(self, tmp_path, chunk):
        # S_8 is about 18 KB: one chunk, or 18 of 1 KB
        g = sphere_graph_holed(8)
        path = tmp_path / "s8.json"
        path.write_text(to_json(g) + "\n")
        with open(path, encoding="utf-8") as fh, mock.patch.object(graphcore, "_READ_CHUNK", chunk):
            assert graphcore._from_file(ChunkReadsOnly(fh)) == g

    @pytest.mark.parametrize("at", ["first", "last"])
    @pytest.mark.parametrize("n", [8, 11])
    def test_edge_fault_is_named_in_chunks(self, tmp_path, n, at):
        # a repeated edge in the first or the last piece: the fast run and
        # the checker's run each read the file in chunks, with one rewind
        # between them, and name the repeat as from_json does
        g = sphere_graph_holed(n)
        edges = g.sorted_edges
        text = to_json(g)
        if at == "first":
            first = "[%d,%d]" % edges[0]
            text = text.replace(first, f"{first},{first}", 1)
            expected = "field 'edges'[1]: duplicate edge [%d,%d]" % edges[0]
        else:
            text = text[:-2] + ",[%d,%d]]}" % edges[-1]
            expected = f"field 'edges'[{len(edges)}]: duplicate edge [%d,%d]" % edges[-1]
        path = tmp_path / "g.json"
        path.write_text(text + "\n")
        with open(path, encoding="utf-8") as fh, pytest.raises(SchemaError) as caught:
            wrapped = ChunkReadsAndRewinds(fh)
            graphcore._from_file(wrapped)
        assert wrapped.rewinds == 1
        with pytest.raises(SchemaError) as whole:
            from_json(text)
        assert str(caught.value) == str(whole.value) == expected

    def test_holds_only_the_unparsed_tail(self, tmp_path):
        # S_11 is 755 KB; read in 4 KB chunks, the text held at once stays
        # a few chunks long, and the table rule still takes the file's size
        g = sphere_graph_holed(11)
        path = tmp_path / "s11.json"
        path.write_text(to_json(g))
        held = []

        def read_on(kept, more):
            text, more = real(kept, more)
            held.append(len(text))
            return text, more

        real = graphcore._read_on
        with open(path, encoding="utf-8") as fh, mock.patch.object(graphcore, "_READ_CHUNK", 1 << 12), \
                mock.patch.object(graphcore, "_read_on", read_on), \
                mock.patch.object(graphcore, "_or_edges", wraps=graphcore._or_edges) as loop:
            assert graphcore._from_file(fh) == g
        assert len(held) > 100 and max(held) < 40_000 < g.n * g.n // 14
        assert all(call.args[1] is not None for call in loop.call_args_list)

    def test_reads_on_past_a_chunk_that_ends_the_object(self, tmp_path):
        # the first chunk ends at the closing brace and the text after it
        # is still unread: the reader must read on to see it
        obj = '{"x\\"edges":[1]}'
        text = obj + " x"
        assert streamed_outcome(tmp_path / "g.json", text, len(obj)) == read_outcome(from_json, text)

    def test_reads_grow_and_each_member_is_decoded_once(self, tmp_path):
        # 7-character chunks of S_8's 18 KB: each read at least doubles the
        # text kept; the format is matched as text, and the labels are
        # decoded once, not once per chunk
        g = sphere_graph_holed(8)
        path = tmp_path / "s8.json"
        path.write_text(to_json(g))
        with open(path, encoding="utf-8") as fh, mock.patch.object(graphcore, "_READ_CHUNK", 7), \
                mock.patch.object(graphcore, "_read_on", wraps=graphcore._read_on) as read_on, \
                mock.patch.object(graphcore, "_decode_value", wraps=graphcore._decode_value) as decode:
            assert graphcore._from_file(fh) == g
        assert read_on.call_count < 40
        assert [call.args[0][call.args[1]] for call in decode.call_args_list if len(call.args) == 2] \
            == ["["]

    def test_benchmark_form_is_read_in_pieces(self, tmp_path):
        # the form of every benchmark --input document: a relabeled S_9 as
        # compact json.dumps with the keys in written order, then "\n"; a
        # silent fall back to the whole read fails here
        g = sphere_graph_holed(9)
        perm = list(range(g.n))
        random.Random(9).shuffle(perm)
        labels = [""] * g.n
        for v, label in enumerate(g.labels):
            labels[perm[v]] = label
        edges = sorted(sorted([perm[i], perm[j]]) for i, j in g.sorted_edges)
        text = json.dumps({"format": GRAPH_FORMAT, "vertex_labels": labels, "edges": edges},
                          separators=(",", ":")) + "\n"
        path = tmp_path / "s9.json"
        path.write_text(text)
        with open(path, encoding="utf-8") as fh, \
                mock.patch.object(graphcore, "_from_whole", side_effect=AssertionError("read whole")), \
                mock.patch.object(graphcore, "_or_edges", wraps=graphcore._or_edges) as loop:
            got = graphcore._from_file(fh)
        assert len(loop.call_args_list) > 1
        assert got == oracles.graph_from_json(text)

    def test_pipe_is_read_whole(self, tmp_path):
        # a pipe cannot be rewound, so it is read at once
        text = to_json(sphere_graph_holed(6))
        r, w = os.pipe()
        with open(w, "w", encoding="utf-8") as out:
            out.write(text)
        with open(r, encoding="utf-8") as fh, \
                mock.patch.object(graphcore, "_read_in_pieces", wraps=graphcore._read_in_pieces) as reader:
            g = graphcore._from_file(fh)
        assert g == from_json(text)
        assert [call.args for call in reader.call_args_list] == [(text,)]


def graphs(max_n=9):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
        return Graph([f"v{i}" for i in range(n)], edges)

    return build()


@st.composite
def labeled_graphs(draw):
    """Graphs of 0..30 vertices with any text as labels, from empty to complete."""
    n = draw(st.integers(min_value=0, max_value=30))
    labels = draw(st.lists(st.text(max_size=4), min_size=n, max_size=n))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.9, 1.0]))
    rnd = draw(st.randoms(use_true_random=False))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < density]
    return Graph(labels, edges)


class TestProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(graphs())
    def test_bound_sandwich(self, g):
        lb = clique_lower_bound(g)
        greedy = greedy_dsatur(g)
        assert validate_coloring(g, greedy) is None or g.n == 0
        cert = chromatic_number_exact(g)
        assert lb <= cert.chi <= greedy.size
        if g.n:
            assert cert.chi <= max(g.degree(v) for v in range(g.n)) + 1

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(graphs())
    def test_witness_is_proper_and_tight(self, g):
        cert = chromatic_number_exact(g)
        if g.n:
            assert validate_coloring(g, cert.witness) is None
        assert cert.witness.size == cert.chi

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(graphs(max_n=8), st.data())
    def test_induced_subgraph_monotone(self, g, data):
        keep = data.draw(st.sets(st.integers(min_value=0, max_value=max(g.n - 1, 0)),
                                 max_size=g.n))
        if g.n == 0:
            keep = set()
        h = oracles.induced_subgraph(g, sorted(keep))
        assert chromatic_number_exact(h).chi <= chromatic_number_exact(g).chi

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(graphs(max_n=12), st.data())
    def test_validate_matches_edge_walk(self, g, data):
        # arbitrary colorings, mostly improper with so few colors
        colors = data.draw(st.lists(st.integers(min_value=-1, max_value=3),
                                    min_size=g.n, max_size=g.n))
        c = Coloring(colors)
        assert validate_coloring(g, c) == oracles.edge_walk_violation(g, c)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(labeled_graphs())
    @example(Graph([]))
    @example(Graph(["a", "b", "c"]))
    @example(complete_graph(12))
    @example(Graph(['"q"', "back\\slash", "é", "雪", "\n", "\x00"],
                   [(i, 5) for i in range(5)]))
    def test_rows_match_dumped_document(self, g):
        # dense and sparse rows, rows reaching the last vertex, escaped labels
        assert to_json(g) == oracles.graph_json(g)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.integers(min_value=-3, max_value=3), max_size=60))
    def test_class_masks_match_or_per_vertex(self, keys):
        expected: dict[int, int] = {}
        for v, k in enumerate(keys):
            expected[k] = expected.get(k, 0) | 1 << v
        assert _class_masks(keys) == expected

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(graphs())
    def test_json_round_trip(self, g):
        assert from_json(to_json(g)) == g
        assert to_json(from_json(to_json(g))) == to_json(g)
