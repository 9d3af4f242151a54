import hashlib
import json
import random
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from sphere_chroma import graphcore
from sphere_chroma.farey import add_fins, farey_ball
from sphere_chroma.graphcore import (
    ChiCertificate,
    ChiUndecided,
    Coloring,
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

    def test_complete_graph(self):
        g = complete_graph(4)
        assert g.n == 4 and g.m == 6
        assert g.labels == ("v0", "v1", "v2", "v3")


class TestColoring:
    def test_stores_tuple_and_refuses_mapping(self):
        assert Coloring([0, 1, 0]).colors == (0, 1, 0)
        assert Coloring([0, 1, 0]) == Coloring((0, 1, 0))
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
    def test_dead_nodes_push_no_frame(self, monkeypatch, n, k, nodes, pushes):
        # a node that leaves some uncolored vertex no color pushes no child
        # frame; without that shortcut the child is pushed only to find no
        # color, which keeps the node count and adds one push per dead node.
        # Every push after the first frame takes its color limit from min().
        calls = []

        def counting_min(*args):
            calls.append(args)
            return min(*args)

        monkeypatch.setattr(graphcore, "min", counting_min, raising=False)
        g = sphere_graph_holed(n)
        status, _, explored = _k_colorable(g.adj, _degree_classes(g.adj), g.n, k, None)
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


class TestSelectionMatchesScan:
    """The bucketed DSATUR pick and the degree-class clique pick choose the
    same vertex at every step as the per-vertex scans in oracles."""

    @pytest.mark.parametrize("build", ORACLE_GRAPHS)
    def test_fixed_graphs(self, build):
        g = build()
        assert greedy_dsatur(g) == oracles.greedy_dsatur(g)
        assert clique_lower_bound(g) == oracles.clique_lower_bound(g)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(varied_graphs())
    @example(Graph([]))
    @example(Graph(["a", "b", "c"]))
    @example(complete_graph(6))
    def test_random_graphs(self, g):
        assert greedy_dsatur(g) == oracles.greedy_dsatur(g)
        assert clique_lower_bound(g) == oracles.clique_lower_bound(g)


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
        st.integers(min_value=0, max_value=6),
        st.one_of(st.none(), st.just(1), st.integers(min_value=0, max_value=40)),
    )
    @example(Graph([]), 0, None)
    @example(Graph([]), 3, 0)
    @example(complete_graph(6), 5, None)
    @example(complete_graph(6), 6, None)
    @example(complete_graph(6), 6, 3)
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
