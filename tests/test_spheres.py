import pytest

from sphere_chroma import spheres
from sphere_chroma.graphcore import Graph, chromatic_number_exact, validate_coloring
from sphere_chroma.kneser import MAX_GROUND_SET, remove_singleton_partitions, total_kneser
from sphere_chroma.spheres import (
    load_reference_three_coloring,
    reference_coloring_on,
    sphere_graph_holed,
    verify_lemma_sphere_kneser,
    verify_petersen_isomorphism,
)


class TestSphereGraph:
    def test_five_holes_is_three_regular(self):
        g = sphere_graph_holed(5)
        assert g.n == 10 and g.m == 15
        assert all(g.degree(v) == 3 for v in range(g.n))

    @pytest.mark.parametrize("n,vertices", [(4, 3), (5, 10), (6, 25), (7, 56), (8, 119)])
    def test_vertex_counts(self, n, vertices):
        assert sphere_graph_holed(n).n == vertices

    def test_labels_have_no_singleton_blocks(self):
        for label in sphere_graph_holed(6).labels:
            a, b = label.split("|")
            assert len(a.split()) >= 2 and len(b.split()) >= 2


def with_edge_toggled(g, edge):
    return Graph(g.labels, set(g.sorted_edges) ^ {edge})


class TestSphereKneserLemma:
    @pytest.mark.parametrize("n", [*range(3, 10), 12, 13])
    def test_holds(self, n):
        report = verify_lemma_sphere_kneser(n)
        assert report.ok
        assert bool(report)
        assert report.label_lists_equal
        assert report.missing_edges == () and report.extra_edges == ()

    def test_two_routes_agree_directly(self):
        # same comparison the verifier makes, spelled out
        for n in (5, 6, 7):
            direct = sphere_graph_holed(n)
            via_removal = remove_singleton_partitions(total_kneser(n))
            assert direct.labels == via_removal.labels
            assert direct.sorted_edges == via_removal.sorted_edges

    def test_differences_named_from_the_rows(self, monkeypatch):
        # drop one sphere-graph edge and add one non-edge: the report names
        # each as a label pair
        g = sphere_graph_holed(6)
        present = set(g.sorted_edges)
        dropped = g.sorted_edges[3]
        added = next((i, j) for i in range(g.n) for j in range(i + 1, g.n) if (i, j) not in present)
        edges = [e for e in g.sorted_edges if e != dropped] + [added]
        monkeypatch.setattr(spheres, "sphere_graph_holed", lambda n: Graph(g.labels, edges))
        report = verify_lemma_sphere_kneser(6)
        assert not report.ok and report.label_lists_equal
        name = lambda e: (g.labels[e[0]], g.labels[e[1]])
        assert report.missing_edges == (name(dropped),)
        assert report.extra_edges == (name(added),)

    def test_label_mismatch_named_by_edge_sets(self, monkeypatch):
        # swap the labels of vertices 0 and 1 on the total-Kneser route: the
        # label lists differ, so the report compares label-pair edge sets
        real = spheres.remove_singleton_partitions

        def swapped(g):
            h = real(g)
            labels = list(h.labels)
            labels[0], labels[1] = labels[1], labels[0]
            return Graph.from_rows(labels, h.adj)

        monkeypatch.setattr(spheres, "remove_singleton_partitions", swapped)
        g = sphere_graph_holed(5)
        labels = list(g.labels)
        named = {(labels[i], labels[j]) for i, j in g.sorted_edges}
        labels[0], labels[1] = labels[1], labels[0]
        relabeled = {(labels[i], labels[j]) for i, j in g.sorted_edges}
        report = verify_lemma_sphere_kneser(5)
        assert not report.ok and not report.label_lists_equal
        assert report.missing_edges == tuple(sorted(relabeled - named))
        assert report.extra_edges == tuple(sorted(named - relabeled))
        assert report.missing_edges and report.extra_edges

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            verify_lemma_sphere_kneser(1)
        with pytest.raises(ValueError):
            verify_lemma_sphere_kneser(MAX_GROUND_SET + 1)


class TestPetersenIsomorphism:
    def test_passes(self):
        report = verify_petersen_isomorphism()
        assert report.ok and bool(report)
        assert report.witness_edge is None

    def test_corrupt_edge_detected(self, monkeypatch):
        g = sphere_graph_holed(5)
        i, j = g.sorted_edges[0]
        corrupted = with_edge_toggled(g, (i, j))
        monkeypatch.setattr(spheres, "sphere_graph_holed", lambda n: corrupted)
        report = verify_petersen_isomorphism()
        assert not report.ok
        assert report.reason == "edge of kg(5,2) has no nested image"
        # the witness is the dropped edge, named by its partition labels
        assert report.witness_edge == (g.labels[i], g.labels[j]) == ("1 2|3 4 5", "1 2 3|4 5")

    def test_added_edge_detected(self, monkeypatch):
        g = sphere_graph_holed(5)
        present = set(g.sorted_edges)
        absent = next(
            (i, j)
            for i in range(g.n)
            for j in range(i + 1, g.n)
            if (i, j) not in present
        )
        corrupted = with_edge_toggled(g, absent)
        monkeypatch.setattr(spheres, "sphere_graph_holed", lambda n: corrupted)
        report = verify_petersen_isomorphism()
        assert not report.ok
        assert "not hit" in report.reason

    def test_vertex_map_not_a_bijection(self, monkeypatch):
        # relabel one vertex as a singleton partition, which no 2-subset maps to
        g = sphere_graph_holed(5)
        labels = ["1 2 3 4|5", *g.labels[1:]]
        monkeypatch.setattr(spheres, "sphere_graph_holed", lambda n: Graph.from_rows(labels, g.adj))
        report = verify_petersen_isomorphism()
        assert not report.ok and report.witness_edge is None
        assert report.reason == "vertex map is not a bijection"


class TestReferenceColoring:
    def test_records_shape(self):
        records = load_reference_three_coloring()
        assert len(records) == 10
        labels = [r["partition"] for r in records]
        assert len(set(labels)) == 10
        colors = [r["color"] for r in records]
        assert set(colors) == {"blue", "yellow", "red"}
        assert sorted(colors.count(c) for c in set(colors)) == [3, 3, 4]

    def test_validates_on_sphere_graph(self):
        g = sphere_graph_holed(5)
        c = reference_coloring_on(g)
        assert validate_coloring(g, c) is None
        assert c.size == 3

    def test_matches_exact_chromatic_number(self):
        assert chromatic_number_exact(sphere_graph_holed(5)).chi == 3

    def test_pair_partitions_share_a_class(self):
        # the four partitions whose small block contains hole 1
        g = sphere_graph_holed(5)
        c = reference_coloring_on(g)
        idx = {label: i for i, label in enumerate(g.labels)}
        shades = {c.colors[idx[f"1 {x}|" + " ".join(
            str(y) for y in range(2, 6) if y != x)]] for x in range(2, 6)}
        assert len(shades) == 1

    def test_missing_record_rejected(self, monkeypatch):
        records = load_reference_three_coloring()
        monkeypatch.setattr(spheres, "load_reference_three_coloring", lambda: records[1:])
        with pytest.raises(ValueError, match="uncolored") as err:
            reference_coloring_on(sphere_graph_holed(5))
        assert repr(records[0]["partition"]) in str(err.value)

    def test_wrong_graph_rejected(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            reference_coloring_on(sphere_graph_holed(6))
