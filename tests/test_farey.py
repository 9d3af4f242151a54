from math import gcd

import pytest

import oracles
from sphere_chroma.farey import (
    MAX_DEPTH,
    PARITY_CLASS_IDS,
    add_fins,
    chi_farey_ball,
    farey_ball,
    farey_lists,
    parity_classes,
    parity_coloring,
    parity_violation,
)
from sphere_chroma.graphcore import Coloring, Graph, to_json_rows, validate_coloring


class TestFareyBall:
    @pytest.mark.parametrize("depth", range(0, 13))
    def test_closed_form_sizes(self, depth):
        g = farey_ball(depth)
        assert g.n == 2**depth + 1
        assert g.m == 2 ** (depth + 1) - 1

    def test_depth_zero_is_single_edge(self):
        g = farey_ball(0)
        assert g.labels == ("0/1", "1/0")
        assert g.sorted_edges == [(0, 1)]

    def test_depth_two_vertices(self):
        assert set(farey_ball(2).labels) == {"0/1", "1/0", "1/1", "1/2", "2/1"}

    def test_all_fractions_reduced(self):
        for label in farey_ball(8).labels:
            p, q = label.split("/")
            assert gcd(int(p), int(q)) == 1

    def test_unimodular_edges(self):
        # adjacent p/q, r/s always satisfy |ps - qr| = 1
        g = farey_ball(7)
        fracs = [tuple(map(int, label.split("/"))) for label in g.labels]
        for i, j in g.sorted_edges:
            (p, q), (r, s) = fracs[i], fracs[j]
            assert abs(p * s - q * r) == 1

    def test_depth_bounds(self):
        with pytest.raises(ValueError):
            farey_ball(-1)
        with pytest.raises(ValueError):
            farey_ball(MAX_DEPTH + 1)

    def test_deterministic(self):
        assert farey_ball(5) == farey_ball(5)


class TestFins:
    def test_one_fin_per_edge(self):
        g = farey_ball(3)
        finned = add_fins(g)
        assert finned.n == g.n + g.m
        assert finned.m == 3 * g.m

    def test_fin_labels_name_their_edge(self):
        finned = add_fins(farey_ball(0))
        assert finned.labels[2] == "fin(0/1,1/0)"
        assert finned.sorted_edges == [(0, 1), (0, 2), (1, 2)]

    def test_cannot_fin_twice(self):
        with pytest.raises(ValueError, match="fin twice"):
            add_fins(add_fins(farey_ball(1)))

    def test_fins_create_triangles(self):
        g = farey_ball(2)
        finned = add_fins(g)
        edges = set(finned.sorted_edges)
        for v in range(g.n, finned.n):
            a, b = finned.neighbors(v)
            assert (a, b) in edges


class TestNeighbourLists:
    @pytest.mark.parametrize("fins", [False, True], ids=["plain", "fins"])
    @pytest.mark.parametrize("depth", range(0, 13))
    def test_writer_matches_dumped_graph(self, depth, fins):
        _, labels, upper = farey_lists(depth, fins)
        g = add_fins(farey_ball(depth)) if fins else farey_ball(depth)
        assert to_json_rows(labels, upper) == oracles.graph_json(g)

    @pytest.mark.parametrize("depth", range(0, 11))
    def test_graphs_match_edge_list_builder(self, depth):
        ball = oracles.farey_ball(depth)
        assert farey_ball(depth) == ball
        assert add_fins(farey_ball(depth)) == oracles.add_fins(ball)

    @pytest.mark.parametrize("depth", [0, 1, 5, 12])
    def test_lists_ascending_above_their_vertex(self, depth):
        fractions, labels, upper = farey_lists(depth, fins=True)
        assert len(fractions) == 2**depth + 1
        assert len(labels) == len(upper) == len(fractions) + 2 ** (depth + 1) - 1
        for i, row in enumerate(upper):
            assert all(a < b for a, b in zip([i] + row, row))

    def test_depth_bounds(self):
        for depth in (-1, MAX_DEPTH + 1):
            with pytest.raises(ValueError, match=f"0..{MAX_DEPTH}"):
                farey_lists(depth, fins=True)


def _fin_ends(upper, n_ball, fin):
    return [i for i in range(n_ball) if fin in upper[i]]


class TestListParityCheck:
    @pytest.mark.parametrize("depth", range(0, 13))
    def test_finned_balls_pass(self, depth):
        fractions, _, upper = farey_lists(depth, fins=True)
        classes = parity_classes(fractions, upper)
        assert parity_violation(fractions, upper, classes) is None
        assert set(classes) <= set(PARITY_CLASS_IDS.values())

    @pytest.mark.parametrize("depth", range(0, 9))
    def test_classes_match_graph_coloring(self, depth):
        fractions, _, upper = farey_lists(depth, fins=True)
        finned = add_fins(farey_ball(depth))
        assert tuple(parity_classes(fractions, upper)) == parity_coloring(finned).colors

    def test_fin_given_an_endpoint_class_is_reported(self):
        fractions, _, upper = farey_lists(8, fins=True)
        classes = parity_classes(fractions, upper)
        n_ball = len(fractions)
        for fin in range(n_ball, len(upper), 97):
            a, b = _fin_ends(upper, n_ball, fin)
            for end in (a, b):
                bad = classes[:fin] + [classes[end]] + classes[fin + 1:]
                assert parity_violation(fractions, upper, bad) == (end, fin)

    def test_rewired_edge_is_reported(self):
        # 0/1 -- 3/2 joins two classes but has |ps - qr| = 3
        fractions, _, upper = farey_lists(6)
        far = fractions.index((3, 2))
        assert far not in upper[0]
        rewired = [list(row) for row in upper]
        rewired[0] = sorted(rewired[0][:-1] + [far])
        classes = parity_classes(fractions, rewired)
        assert classes[0] != classes[far]
        assert parity_violation(fractions, rewired, classes) == (0, far)

    def test_monochromatic_ball_edge_is_reported(self):
        fractions, _, upper = farey_lists(4, fins=True)
        classes = parity_classes(fractions, upper)
        one = fractions.index((1, 1))
        classes[one] = classes[0]
        assert parity_violation(fractions, upper, classes) == (0, one)

    def test_unreduced_fraction_rejected(self):
        with pytest.raises(ValueError, match="reduced"):
            parity_classes([(2, 4)], [[]])

    def test_fin_without_a_free_class_rejected(self):
        # a fin joined to 0/1, 1/0 and 1/1 sees all three classes
        fractions = [(0, 1), (1, 0), (1, 1)]
        with pytest.raises(ValueError, match="all three classes"):
            parity_classes(fractions, [[3], [3], [3], []])


class TestParityColoring:
    def test_class_ids_fixed(self):
        assert PARITY_CLASS_IDS == {(0, 1): 0, (1, 0): 1, (1, 1): 2}

    @pytest.mark.parametrize("depth", range(0, 9))
    def test_proper_on_plain_balls(self, depth):
        g = farey_ball(depth)
        assert validate_coloring(g, parity_coloring(g)) is None

    @pytest.mark.parametrize("depth", range(0, 9))
    def test_proper_on_finned_balls(self, depth):
        g = add_fins(farey_ball(depth))
        c = parity_coloring(g)
        assert validate_coloring(g, c) is None
        assert c.size == 3

    def test_recolored_fin_is_the_violation(self):
        ball = farey_ball(8)
        g = add_fins(ball)
        base = parity_coloring(g).colors
        for fin in range(ball.n, g.n, 97):
            u = g.neighbors(fin)[0]
            c = Coloring(base[:fin] + (base[u],) + base[fin + 1:])
            assert validate_coloring(g, c) == oracles.edge_walk_violation(g, c) == (u, fin)

    def test_parity_assignment_values(self):
        g = farey_ball(1)  # 0/1, 1/0, 1/1
        c = parity_coloring(g)
        assert c.colors == (0, 1, 2)

    def test_three_classes_exhausted_at_depth_two(self):
        assert parity_coloring(farey_ball(2)).size == 3

    def test_unreduced_label_rejected(self):
        with pytest.raises(ValueError, match="reduced"):
            parity_coloring(Graph(["2/4"]))

    def test_non_fraction_label_rejected(self):
        with pytest.raises(ValueError, match="fraction"):
            parity_coloring(Graph(["stray"]))


class TestChi:
    def test_depth_zero_plain(self):
        assert chi_farey_ball(0).chi == 2

    def test_depth_zero_finned_is_triangle(self):
        assert chi_farey_ball(0, fins=True).chi == 3

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_finned_balls_three_chromatic(self, depth):
        cert = chi_farey_ball(depth, fins=True)
        assert cert.chi == 3
        assert cert.clique_bound == 3  # a fin triangle meets the bound

    def test_plain_deep_ball(self):
        assert chi_farey_ball(10).chi == 3

    def test_depth_capped(self):
        # no cap beyond the ball's own: depth 11 and up are in range
        assert chi_farey_ball(11, fins=True).chi == 3
        with pytest.raises(ValueError, match=f"0..{MAX_DEPTH}"):
            chi_farey_ball(MAX_DEPTH + 1)
