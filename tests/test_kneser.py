from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from sphere_chroma import kneser
from sphere_chroma.graphcore import complete_graph
from sphere_chroma.kneser import (
    TwoBlockPartition,
    all_partitions,
    kg,
    nested,
    remove_singleton_partitions,
    spherelike_partitions,
    total_kneser,
)
from sphere_chroma.spheres import sphere_graph_holed


def shift_or_families(h, n):
    """Sup(A), Sub(A) and Sup(F ^ A) over positions, A = h, F the full
    set, each grown from one bit by one shift-or step per element."""
    full = 2 ** (n - 1) - 1
    sup = sub = 1 << h
    sup_out = 1 << (full ^ h)
    for s in (1 << i for i in range(n - 1)):
        if h & s:
            sub |= sub >> s
            sup_out |= sup_out << s
        else:
            sup |= sup << s
    return sup | sub | sup_out


class TestTwoBlockPartition:
    def test_complement_canonicalization(self):
        # the block containing 1 is always block_a
        p = TwoBlockPartition.from_block(4, [2, 3])
        q = TwoBlockPartition.from_block(4, [1, 4])
        assert p == q
        assert p.block_a == (1, 4)
        assert p.block_b == (2, 3)

    def test_label(self):
        p = TwoBlockPartition.from_block(5, [2, 4, 5])
        assert p.label == "1 3|2 4 5" == str(p)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_label_matches_block_tuples_for_every_mask(self, n):
        # every mask, canonical or not, including the two-digit elements 10..12
        labels = [TwoBlockPartition(n, m).label for m in range(1, (1 << n) - 1)]
        assert labels == [oracles.partition_label(TwoBlockPartition(n, m))
                          for m in range(1, (1 << n) - 1)]

    def test_from_label_round_trip(self):
        for text in ("1|2 3", "1 3|2 4 5", "1 2 3|4 5"):
            p = TwoBlockPartition.from_label(text)
            assert p.label == text

    def test_from_label_unsorted_input(self):
        assert TwoBlockPartition.from_label("3 1|2").label == "1 3|2"

    def test_min_block_size(self):
        assert TwoBlockPartition.from_label("1|2 3 4").min_block_size == 1
        assert TwoBlockPartition.from_label("1 2|3 4").min_block_size == 2

    def test_invalid_blocks(self):
        with pytest.raises(ValueError):
            TwoBlockPartition.from_block(3, [])
        with pytest.raises(ValueError):
            TwoBlockPartition.from_block(3, [1, 2, 3])
        with pytest.raises(ValueError):
            TwoBlockPartition.from_block(3, [5])

    def test_ground_set_too_small(self):
        with pytest.raises(ValueError):
            TwoBlockPartition(1, 1)

    def test_from_label_malformed(self):
        for text in ("1 2 3", "1 2|2 3", "1|3", "|1 2", "1 2||3"):
            with pytest.raises(ValueError):
                TwoBlockPartition.from_label(text)

    def test_hashable(self):
        assert len({TwoBlockPartition.from_label("1|2 3"),
                    TwoBlockPartition.from_block(3, [2, 3])}) == 1


def nested_by_sets(p, q):
    # direct containment reading of the definition, no bit tricks
    a, b = set(p.block_a), set(p.block_b)
    c, d = set(q.block_a), set(q.block_b)
    return a <= c or a <= d or b <= c or b <= d


class TestNested:
    def test_matches_set_containment_exhaustively(self):
        for n in range(3, 7):
            parts = all_partitions(n)
            for p, q in combinations(parts, 2):
                assert nested(p, q) == nested_by_sets(p, q), (p.label, q.label)

    def test_symmetric(self):
        parts = all_partitions(5)
        for p, q in combinations(parts, 2):
            assert nested(p, q) == nested(q, p)

    def test_reflexive(self):
        for p in all_partitions(4):
            assert nested(p, p)

    def test_ground_set_mismatch(self):
        p = TwoBlockPartition.from_label("1|2 3")
        q = TwoBlockPartition.from_label("1|2 3 4")
        with pytest.raises(ValueError):
            nested(p, q)

    def test_known_pairs(self):
        p = TwoBlockPartition.from_label("1 2|3 4 5")
        q = TwoBlockPartition.from_label("1 2 3|4 5")
        r = TwoBlockPartition.from_label("1 3|2 4 5")
        assert nested(p, q)  # {1,2} inside {1,2,3}
        assert not nested(p, r)  # blocks cross


class TestKneserGraphs:
    def test_kg52_is_petersen_shaped(self):
        g = kg(5, 2)
        assert g.n == 10 and g.m == 15
        assert all(g.degree(v) == 3 for v in range(g.n))

    def test_kg_labels_lexicographic(self):
        assert kg(4, 2).labels == ("1 2", "1 3", "1 4", "2 3", "2 4", "3 4")

    def test_kg_n1_is_complete(self):
        g = kg(3, 1)
        assert g.sorted_edges == complete_graph(3).sorted_edges

    def test_kg_edges_are_disjoint_pairs(self):
        g = kg(6, 2)
        for i, j in g.sorted_edges:
            assert not set(g.labels[i].split()) & set(g.labels[j].split())
        # count: each 2-subset is disjoint from C(4,2) others
        assert g.m == 15 * 6 // 2

    @pytest.mark.parametrize("n", range(2, 13))
    def test_kg_matches_pairwise_disjointness(self, n):
        for k in range(1, n // 2 + 1):
            assert kg(n, k) == oracles.pairwise_kg(n, k), (n, k)

    def test_kg_refuses_huge_vertex_count(self):
        # C(40, 20) ~ 1.4e11 subsets: refused before any is listed
        with pytest.raises(ValueError, match="refusing"):
            kg(40, 20)

    def test_kg_cap_is_on_the_vertex_count(self, monkeypatch):
        monkeypatch.setattr(kneser, "MAX_KG_VERTICES", 10)
        assert kg(5, 2).n == 10
        with pytest.raises(ValueError, match="C\\(6, 2\\) = 15 vertices"):
            kg(6, 2)

    def test_kg_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            kg(3, 2)
        with pytest.raises(ValueError):
            kg(4, 0)


class TestPartitionFamilies:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
    def test_all_partitions_count(self, n):
        assert len(all_partitions(n)) == 2 ** (n - 1) - 1

    def test_all_partitions_refuses_huge_ground_set(self):
        for n in (15, 25):
            with pytest.raises(ValueError, match="refusing"):
                all_partitions(n)

    def test_all_partitions_distinct_and_canonical(self):
        parts = all_partitions(6)
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert 1 in p.block_a

    @pytest.mark.parametrize("n", [4, 5, 6, 8])
    def test_spherelike_count(self, n):
        # drop the n partitions with a singleton block
        assert len(spherelike_partitions(n)) == 2 ** (n - 1) - 1 - n

    def test_spherelike_min_block(self):
        assert all(p.min_block_size >= 2 for p in spherelike_partitions(7))

    def test_total_kneser_counts(self):
        g = total_kneser(5)
        assert g.n == 15
        h = total_kneser(4)
        by_sets = sum(
            nested_by_sets(p, q) for p, q in combinations(all_partitions(4), 2)
        )
        assert h.m == by_sets

    def test_remove_singletons_matches_spherelike(self):
        g = remove_singleton_partitions(total_kneser(6))
        assert list(g.labels) == [p.label for p in spherelike_partitions(6)]


class TestRowBuilder:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_sphere_graph_matches_pairwise_nested(self, n):
        assert sphere_graph_holed(n) == oracles.pairwise_partition_graph(spherelike_partitions(n))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_total_kneser_matches_pairwise_nested(self, n):
        assert total_kneser(n) == oracles.pairwise_partition_graph(all_partitions(n))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=8), st.data())
    def test_filtered_lists_match_pairwise_nested(self, n, data):
        # any ascending sub-list, so any set of positions gets deleted
        parts = all_partitions(n)
        keep = data.draw(st.lists(st.booleans(), min_size=len(parts), max_size=len(parts)))
        parts = [p for p, k in zip(parts, keep) if k]
        assert kneser._partition_graph([p.mask >> 1 for p in parts], n) == oracles.pairwise_partition_graph(parts)

    @pytest.mark.parametrize("order", ["descending", "repeated", "swapped"])
    def test_unsorted_list_refused(self, order):
        parts = spherelike_partitions(6)
        bad = {
            "descending": parts[::-1],
            "repeated": parts[:3] + parts[2:],
            "swapped": [parts[1], parts[0]] + parts[2:],
        }[order]
        with pytest.raises(ValueError, match="strictly ascending"):
            kneser._partition_graph([p.mask >> 1 for p in bad], 6)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_row_stream_is_the_graph_rows(self, n):
        # the walk's mask-space rows are the three families grown by single
        # shift-or steps, less the own bit, under the keep mask; compacted
        # to vertex indices they are the graph's rows
        for parts in (spherelike_partitions(n), all_partitions(n)):
            positions = [p.mask >> 1 for p in parts]
            keep = sum(1 << h for h in positions)
            expected = [shift_or_families(h, n) & keep & ~(1 << h) for h in positions]
            assert list(kneser._mask_rows(positions, keep, n)) == expected
            assert tuple(kneser._partition_rows(positions, n)) == kneser._partition_graph(positions, n).adj

    @pytest.mark.parametrize("stray", [0, 1, 2, 4])
    def test_writer_refuses_a_row_off_its_positions(self, stray):
        # vertices at positions 1 and 3: a bit at 0, 2 or 4 stands for no
        # vertex, and bit 1 is the first row's own
        from sphere_chroma.graphbase import _json_pieces
        clean = "".join(_json_pieces(["a", "b"], [1 << 3, 1 << 1], [1, 3]))
        assert clean.endswith('"edges":[[0,1]]}')
        with pytest.raises(ValueError, match="no vertex's position or at its own"):
            "".join(_json_pieces(["a", "b"], [1 << 3 | 1 << stray, 1 << 1], [1, 3]))

    def test_unsorted_list_refused_at_the_call(self):
        # the stream is not started: the order is checked before any row
        with pytest.raises(ValueError, match="strictly ascending"):
            kneser._partition_rows([p.mask >> 1 for p in spherelike_partitions(6)][::-1], 6)

    def test_streamed_rows_are_checked(self, monkeypatch):
        # a walked row with its own bit set is refused where the rows are
        # used: by Graph.from_rows, and by the writer of `generate`
        from sphere_chroma.graphbase import _json_pieces
        monkeypatch.setattr(kneser, "_mask_rows", lambda positions, keep, n: (1 << v for v, _ in enumerate(positions)))
        with pytest.raises(ValueError, match="self-loop"):
            kneser._partition_graph(list(range(7)), 4)
        labels, rows, positions = kneser._split_rows(4, False)
        with pytest.raises(ValueError, match="at its own"):
            "".join(_json_pieces(labels, rows, positions))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_remove_singletons_matches_pairwise_nested(self, n):
        pruned = remove_singleton_partitions(total_kneser(n))
        assert pruned == oracles.pairwise_partition_graph(spherelike_partitions(n))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_remove_singletons_matches_induced_subgraph(self, n):
        tk = total_kneser(n)
        keep = [v for v, p in enumerate(all_partitions(n)) if p.min_block_size >= 2]
        assert remove_singleton_partitions(tk) == oracles.induced_subgraph(tk, keep)
