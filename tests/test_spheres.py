import random
from itertools import combinations

import pytest

import oracles
from sphere_chroma import kneser, spheres
from sphere_chroma.graphbase import _mask_of
from sphere_chroma.graphcore import Graph, chromatic_number_exact, validate_coloring
from sphere_chroma.kneser import (
    all_partitions, remove_singleton_partitions, total_kneser,
)
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

    def test_closed_form_counts(self):
        # the oracle shares no code with the row builder
        assert [oracles.sphere_graph_counts(n) for n in (5, 12, 14, 16)] == [
            (10, 15), (2_035, 235_092), (8_177, 2_252_341), (32_751, 20_900_922)]
        for n in range(4, 13):
            labels, rows, _ = kneser._split_rows(n, True)
            edges = sum(row.bit_count() for row in rows) // 2
            assert (len(labels), edges) == oracles.sphere_graph_counts(n), n

    @pytest.mark.parametrize("n", range(4, 15))
    def test_closed_form_degrees(self, n):
        # a k|n-k split has degree 2^k + 2^(n-k) - n - 4 in S_n and n more
        # in TK_n, a count that shares nothing with the row walk
        for spherelike in (False, True):
            _, rows, positions = kneser._split_rows(n, spherelike)
            degrees = [row.bit_count() for row in rows]
            assert degrees == [split_degree(n, h, spherelike) for h in positions], spherelike
        # the last pass is S_n's
        assert (len(positions), sum(degrees) // 2) == oracles.sphere_graph_counts(n)

    @pytest.mark.parametrize("n", [15, 16])
    def test_closed_form_degrees_sampled(self, n):
        # past the ground-set cap, a seeded sample of S_n's rows, which only
        # `verify lemma2` builds there
        positions = kneser._positions(n, True)
        sample = sorted(random.Random(n).sample(positions, 500))
        rows = kneser._mask_rows(sample, _mask_of(positions), n)
        assert [row.bit_count() for row in rows] == [split_degree(n, h, True) for h in sample]
        degrees = sum(split_degree(n, h, True) for h in positions)
        assert (len(positions), degrees // 2) == oracles.sphere_graph_counts(n)

    def test_labels_have_no_singleton_blocks(self):
        for label in sphere_graph_holed(6).labels:
            a, b = label.split("|")
            assert len(a.split()) >= 2 and len(b.split()) >= 2


def split_degree(n, h, spherelike):
    """Degree of the split at position h (block 2h + 1) in S_n, or in TK_n
    when not ``spherelike``, from its block sizes."""
    k = (2 * h + 1).bit_count()
    return 2**k + 2 ** (n - k) - 4 - (n if spherelike else 0)


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

    def test_differences_named_from_the_rows(self):
        # S_6's rows with one edge dropped and one non-edge added, paired
        # with S_6's own: the row diff names each as a label pair, the
        # lower bit first
        g = sphere_graph_holed(6)
        present = set(g.sorted_edges)
        dropped = g.sorted_edges[3]
        added = next((i, j) for i in range(g.n) for j in range(i + 1, g.n) if (i, j) not in present)
        corrupt = Graph(g.labels, [e for e in g.sorted_edges if e != dropped] + [added])
        missing, extra = spheres._row_diff(zip(corrupt.adj, g.adj, strict=True), g.labels)
        name = lambda e: (g.labels[e[0]], g.labels[e[1]])
        assert missing == (name(dropped),) and extra == (name(added),)
        assert spheres._row_diff(zip(g.adj, g.adj), g.labels) == ((), ())

    def test_walks_once(self, monkeypatch):
        # equal vertex lists settle the lemma: a passing run walks no row
        # and builds no label
        def refuse(*args):
            raise AssertionError("a passing lemma walks no row and builds no label")

        real, real_splits = spheres._kept_rows, spheres._one_element_splits
        monkeypatch.setattr(spheres, "_kept_rows", refuse)
        monkeypatch.setattr(spheres, "_labels", refuse)
        for n in range(2, spheres.MAX_LEMMA_N + 1):
            assert verify_lemma_sphere_kneser(n) == (n, True, True, (), ()), n
        monkeypatch.undo()
        # differing vertex lists: one walk of TK_n's rows, over every
        # position, feeds both sides
        walks = []

        def kept_rows(positions, n):
            walks.append(list(positions))
            return real(positions, n)

        monkeypatch.setattr(spheres, "_kept_rows", kept_rows)
        monkeypatch.setattr(spheres, "_one_element_splits", lambda n: real_splits(n) - {0})
        assert not verify_lemma_sphere_kneser(8).ok
        assert walks == [list(range(2**7 - 1))]

    def test_label_mismatch_named_by_edge_sets(self, monkeypatch):
        # on the total-Kneser side, keep the least one-element split
        # ("drop"), drop the greatest split with both blocks of size >= 2
        # ("add"), or both ("swap"): the vertex lists differ, so the report
        # compares label-pair edge sets with the pair-by-pair oracle's
        real = spheres._one_element_splits
        named = lambda g: {(g.labels[i], g.labels[j]) for i, j in g.sorted_edges}
        for n in range(4, 9):
            single = real(n)
            least = min(single)
            greatest = max(set(range(2 ** (n - 1) - 1)) - single)
            sphere = named(sphere_graph_holed(n))
            for change, patched in [("drop", single - {least}), ("add", single | {greatest}),
                                    ("swap", single - {least} | {greatest})]:
                monkeypatch.setattr(spheres, "_one_element_splits", lambda n: patched)
                kept = [p for h, p in enumerate(all_partitions(n)) if h not in patched]
                total = named(oracles.pairwise_partition_graph(kept))
                report = verify_lemma_sphere_kneser(n)
                assert not report.ok and not report.label_lists_equal, (n, change)
                assert report.missing_edges == tuple(sorted(total - sphere)), (n, change)
                assert report.extra_edges == tuple(sorted(sphere - total)), (n, change)
                # S_4 has no edges, so a vertex added beside it moves none
                assert report.missing_edges or report.extra_edges or (n, change) == (4, "add")

    @pytest.mark.parametrize("n", range(2, spheres.MAX_LEMMA_N + 1))
    def test_one_element_splits_are_the_rest(self, n):
        # the TK_n side's dropped splits, made from one-element blocks, are
        # exactly the positions the S_n side's popcounts leave out
        single = spheres._one_element_splits(n)
        assert len(single) == (1 if n == 2 else n)
        assert set(range(2 ** (n - 1) - 1)) - single == set(kneser._positions(n, True))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            verify_lemma_sphere_kneser(1)
        with pytest.raises(ValueError):
            verify_lemma_sphere_kneser(spheres.MAX_LEMMA_N + 1)


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

    def test_dropped_edge_outranks_an_added_one(self, monkeypatch):
        g = sphere_graph_holed(5)
        absent = next(e for e in combinations(range(g.n), 2) if e not in g.sorted_edges)
        dropped = [g.sorted_edges[-1], g.sorted_edges[7]]
        corrupted = Graph(g.labels, set(g.sorted_edges) ^ {absent, *dropped})
        monkeypatch.setattr(spheres, "sphere_graph_holed", lambda n: corrupted)
        report = verify_petersen_isomorphism()
        assert not report.ok
        assert report.reason == "edge of kg(5,2) has no nested image"
        # the least dropped edge as a sorted label pair
        assert report.witness_edge == min((g.labels[i], g.labels[j]) for i, j in dropped)

    def test_added_edges_give_the_least_not_hit_pair(self, monkeypatch):
        g = sphere_graph_holed(5)
        absent = [e for e in combinations(range(g.n), 2) if e not in g.sorted_edges]
        added = [absent[-1], absent[len(absent) // 2]]
        corrupted = Graph(g.labels, [*g.sorted_edges, *added])
        monkeypatch.setattr(spheres, "sphere_graph_holed", lambda n: corrupted)
        report = verify_petersen_isomorphism()
        assert not report.ok
        assert report.reason == "sphere-graph edge not hit by any kg(5,2) edge"
        assert report.witness_edge == min((g.labels[i], g.labels[j]) for i, j in added)

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
