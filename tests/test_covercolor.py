import math
import tracemalloc
from itertools import combinations

import pytest

import oracles
from sphere_chroma import covercolor
from sphere_chroma.covercolor import (
    CutSystemModel,
    DoubleCover,
    GF2Quotient,
    class_label,
    color_table,
    count_colors,
    cover_h2,
    enumerate_double_covers,
    glued_sphere_graph,
    homology_class,
    homology_only_violations,
    lift_classes,
    sheet_relation,
    sheet_swap,
    used_color_count,
    verify_coloring_proper,
)
from sphere_chroma.kneser import TwoBlockPartition, spherelike_partitions
from sphere_chroma.spheres import sphere_graph_holed


def to_list(bits, dim):
    return [bits >> i & 1 for i in range(dim)]


def reduce_mod_rows(vec, rows):
    """Fully reduce vec against the row space, list arithmetic only.

    Pivot of a row is its smallest set index; forward-eliminate the rows
    into echelon form, then clear every pivot position of vec.
    """
    basis = []
    for row in rows:
        row = row[:]
        for b in basis:
            p = b.index(1)
            if row[p]:
                row = [x ^ y for x, y in zip(row, b)]
        if any(row):
            basis.append(row)
    basis.sort(key=lambda b: b.index(1))
    vec = vec[:]
    for b in basis:
        p = b.index(1)
        if vec[p]:
            vec = [x ^ y for x, y in zip(vec, b)]
    return vec


class TestModelAndCovers:
    def test_model_boundary_count(self):
        assert CutSystemModel(3).n_boundary == 6

    def test_model_range(self):
        assert CutSystemModel(8).r == 8
        for r in (1, 9, 13):
            with pytest.raises(ValueError):
                CutSystemModel(r)

    def test_enumeration_order_r3(self):
        bitstrings = [c.bitstring for c in enumerate_double_covers(3)]
        assert bitstrings == ["001", "010", "011", "100", "101", "110", "111"]

    def test_enumeration_r1(self):
        assert [c.bitstring for c in enumerate_double_covers(1)] == ["1"]

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_enumeration_count(self, r):
        covers = enumerate_double_covers(r)
        assert len(covers) == 2**r - 1
        assert len({c.phi for c in covers}) == len(covers)

    def test_trivial_cover_rejected(self):
        with pytest.raises(ValueError):
            DoubleCover(2, (0, 0))

    def test_non_binary_entries_rejected(self):
        with pytest.raises(ValueError):
            DoubleCover(2, (1, 2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DoubleCover(3, (1, 0))


class TestGF2:
    def test_vector_str(self):
        assert covercolor._hom_label(0, 3) == "0"
        assert covercolor._hom_label(0b101, 3) == "g1+g3"

    def test_class_label(self):
        assert class_label(0, 3) == "0"
        assert class_label(0b1, 3) == "G1,0"
        assert class_label(0b10, 3) == "G1,1"
        assert class_label(0b0101, 3) == "G1,0+G2,0"

    def test_quotient_canonical_is_idempotent(self):
        model = CutSystemModel(3)
        cover = DoubleCover(3, (1, 1, 0))
        quot = cover_h2(model, cover)
        for bits in range(1 << (2 * model.r)):
            c = quot.canonical(bits)
            assert quot.canonical(c) == c

    def test_quotient_respects_relations(self):
        model = CutSystemModel(3)
        cover = DoubleCover(3, (1, 0, 1))
        quot = cover_h2(model, cover)
        r0 = sheet_relation(model, cover, 0)
        assert quot.canonical(r0) == 0
        assert quot.canonical(0b110011 ^ r0) == quot.canonical(0b110011)

    def test_canonical_matches_list_arithmetic_oracle(self):
        # same reductions done with plain 0/1 lists, no bit tricks
        for r in (2, 3):
            model = CutSystemModel(r)
            dim = 2 * r
            for cover in enumerate_double_covers(r):
                quot = cover_h2(model, cover)
                rows = [to_list(sheet_relation(model, cover, s), dim) for s in (0, 1)]
                for bits in range(1 << dim):
                    expect = reduce_mod_rows(to_list(bits, dim), rows)
                    got = to_list(quot.canonical(bits), dim)
                    assert got == expect, (r, cover.bitstring, bits)


class TestCoverHomology:
    def test_sheet_relations_coincide(self):
        for r in (2, 3, 4):
            model = CutSystemModel(r)
            for cover in enumerate_double_covers(r):
                assert sheet_relation(model, cover, 0) == sheet_relation(model, cover, 1)

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_rank_is_2r_minus_1_for_every_cover(self, r):
        model = CutSystemModel(r)
        for cover in enumerate_double_covers(r):
            assert cover_h2(model, cover).rank == 2 * r - 1

    @pytest.mark.parametrize("r", range(2, 8))
    def test_rank_matches_schreier_index_formula(self, r):
        # an index-2 subgroup of the free group F_r has rank 2(r - 1) + 1;
        # count it as E - V + 1 of the covering graph of the r-petal rose:
        # two sheets, and edge (i, s) joins sheet s to sheet s xor phi_i
        model = CutSystemModel(r)
        for cover in enumerate_double_covers(r):
            edges = [(s, s ^ cover.phi[i]) for i in range(r) for s in (0, 1)]
            assert any(a != b for a, b in edges)  # two sheets: connected iff joined
            assert len(edges) - 2 + 1 == 2 * (r - 1) + 1 == cover_h2(model, cover).rank

    def test_relation_content_worked_example(self):
        # r=2, phi=(1,0): cut 1 swaps sheets, cut 2 does not, so only the
        # two copies of G1 appear in the relation
        model = CutSystemModel(2)
        cover = DoubleCover(2, (1, 0))
        assert sheet_relation(model, cover, 0) == 0b0011


class TestHomologyClass:
    def test_paired_boundaries_cancel(self):
        model = CutSystemModel(3)
        p = TwoBlockPartition.from_label("1 2|3 4 5 6")
        assert homology_class(model, p) == 0

    def test_cross_pair(self):
        model = CutSystemModel(3)
        p = TwoBlockPartition.from_label("1 3|2 4 5 6")
        assert homology_class(model, p) == 0b011

    def test_complement_invariance(self):
        # both blocks of a partition give the same class: the total
        # boundary sum vanishes
        model = CutSystemModel(3)
        for p in spherelike_partitions(6):
            other = TwoBlockPartition.from_block(6, p.block_b)
            assert homology_class(model, p) == homology_class(model, other)


class TestLiftClasses:
    def test_set_size_one_or_two(self):
        model = CutSystemModel(3)
        for cover in enumerate_double_covers(3):
            quot = cover_h2(model, cover)
            for p in spherelike_partitions(6):
                assert len(lift_classes(model, cover, p, quot)) in (1, 2)

    def test_sheets_related_by_deck_swap(self):
        model = CutSystemModel(3)
        for cover in enumerate_double_covers(3):
            for p in spherelike_partitions(6):
                lift0 = oracles.sheet_lift_bits(model, cover, p, 0)
                lift1 = oracles.sheet_lift_bits(model, cover, p, 1)
                assert sheet_swap(lift0, model.r) == lift1

    def test_homologous_pair_collides_at_some_cover(self):
        model = CutSystemModel(3)
        p = TwoBlockPartition.from_label("1 3|2 4 5 6")
        q = TwoBlockPartition.from_label("1 3 5 6|2 4")
        cover = DoubleCover(3, (1, 0, 0))
        quot = cover_h2(model, cover)
        shared = {class_label(b, 3) for b in lift_classes(model, cover, p, quot)}
        assert shared == {"G1,1+G2,0", "G1,1+G2,1"}
        assert lift_classes(model, cover, p, quot) == lift_classes(model, cover, q, quot)

    def test_homologous_pair_split_by_another_cover(self):
        model = CutSystemModel(3)
        p = TwoBlockPartition.from_label("1 3|2 4 5 6")
        q = TwoBlockPartition.from_label("1 3 5 6|2 4")
        cover = DoubleCover(3, (0, 1, 1))
        quot = cover_h2(model, cover)
        lp = {class_label(b, 3) for b in lift_classes(model, cover, p, quot)}
        lq = {class_label(b, 3) for b in lift_classes(model, cover, q, quot)}
        assert lp == {"G1,0+G2,1+G3,0+G3,1", "G1,1+G2,1"}
        assert lq == {"G1,0+G2,1", "G1,1+G2,1+G3,0+G3,1"}

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_lift_classes_match_direct_block_sum(self, r):
        model = CutSystemModel(r)
        for cover in enumerate_double_covers(r):
            quot = cover_h2(model, cover)
            for p in spherelike_partitions(2 * r):
                direct = {quot.canonical(oracles.sheet_lift_bits(model, cover, p, s)) for s in (0, 1)}
                assert lift_classes(model, cover, p, quot) == direct, (cover.bitstring, p.label)

    def test_sphere_color_entry_count(self):
        model = CutSystemModel(3)
        table = color_table(model)
        v = table.labels.index("1 2 3|4 5 6")
        assert len(table.entries(v)) == 2**3 - 1


class TestColorTable:
    @pytest.mark.parametrize(
        "cuts, r", [(cuts, r) for cuts in (False, True) for r in (2, 3, 4, 5)] + [(False, 6)]
    )
    def test_entries_match_direct_block_sums(self, r, cuts):
        # every field of the word-parallel table against one reduced block
        # sum per vertex, cover and sheet
        model = CutSystemModel(r)
        covers, labels, hom, tables = oracles.color_tables(model, cuts)
        table = color_table(model, cuts)
        assert table.covers == tuple(covers)
        assert table.labels == tuple(labels)
        assert table.hom == tuple(hom)
        assert [table.entries(v) for v in range(len(labels))] == tables

    def test_fields_hold_lo_then_hi(self):
        model = CutSystemModel(4)
        table = color_table(model, True)
        w = table.width
        for v in range(len(table.labels)):
            fields = table.fields(v)
            assert len(fields) == len(table.covers)
            assert all(f >> w <= f & ((1 << w) - 1) for f in fields)
            assert int.from_bytes(b"".join(f.to_bytes(4, "big") for f in fields), "big") == table.keys[v]

    def test_refuses_r_past_the_field_width(self):
        # 4r bits of a cover's lo and hi must fit one 32-bit field; the
        # model's own cap is lower, so build the r = 9 model past it
        with pytest.raises(ValueError, match="r <= 8"):
            color_table(CutSystemModel(7)._replace(r=9))

    @pytest.mark.parametrize("cuts", [False, True])
    @pytest.mark.parametrize("r", range(3, 8))
    def test_vertex_order_matches_glued_graph(self, r, cuts):
        model = CutSystemModel(r)
        assert color_table(model, cuts).labels == glued_sphere_graph(model, cuts).labels

    def test_holds_its_fields_once(self):
        # the fields are computed a block of vertices at a time and each
        # block is dropped once packed into its keys, so the peak is the
        # table it returns plus one block: no second copy of every field
        model = CutSystemModel(7)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = color_table(model)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table.keys) == 8_177
        assert peak - base <= 1.3 * (held - base)

    def test_sphere_color_reads_the_same_classes(self):
        model = CutSystemModel(3)
        table = color_table(model)
        covers = enumerate_double_covers(3)
        for v, p in enumerate(spherelike_partitions(6)):
            assert tuple(lift_classes(model, c, p) for c in covers) == table.entries(v)


class TestGluedGraph:
    def test_matches_sphere_graph(self):
        model = CutSystemModel(3)
        assert glued_sphere_graph(model) == sphere_graph_holed(6)

    def test_cut_spheres_appended(self):
        model = CutSystemModel(3)
        g = glued_sphere_graph(model, include_cut_spheres=True)
        base = sphere_graph_holed(6)
        assert g.n == base.n + 3
        assert g.labels[-3:] == ("g1", "g2", "g3")
        for v in range(base.n, g.n):
            assert g.degree(v) == g.n - 1


class TestProperness:
    @pytest.mark.parametrize("r", [3, 4])
    def test_passes(self, r):
        report = verify_coloring_proper(CutSystemModel(r))
        assert report.ok and bool(report)
        assert report.violations == ()
        assert report.homologous_pairs

    def test_r2_redirected(self):
        with pytest.raises(ValueError, match="farey"):
            verify_coloring_proper(CutSystemModel(2))

    def test_with_cut_spheres(self):
        report = verify_coloring_proper(CutSystemModel(3), include_cut_spheres=True)
        assert report.ok

    def test_every_adjacent_homologous_pair_reported(self):
        model = CutSystemModel(3)
        report = verify_coloring_proper(model)
        g = glued_sphere_graph(model)
        parts = spherelike_partitions(6)
        hom = [homology_class(model, p) for p in parts]
        expected = {
            (parts[i].label, parts[j].label)
            for i, j in g.sorted_edges
            if hom[i] == hom[j]
        }
        assert {(e["a"], e["b"]) for e in report.to_json_dict()["homologous_pairs"]} == expected
        for entry in report.to_json_dict()["homologous_pairs"]:
            assert set(entry["witness_phi"]) <= {"0", "1"}

    def test_report_json_shape(self):
        doc = verify_coloring_proper(CutSystemModel(3)).to_json_dict()
        assert list(doc) == ["r", "vertices", "edges", "violations",
                             "homologous_pairs", "ok"]
        assert doc["r"] == 3 and doc["ok"] is True
        assert doc["vertices"] == 25 and doc["edges"] == 105

    @pytest.mark.parametrize("r", range(3, 8))
    def test_counts_match_closed_forms(self, r):
        report = verify_coloring_proper(CutSystemModel(r))
        assert (report.vertices, report.edges) == oracles.sphere_graph_counts(2 * r)

    @pytest.mark.parametrize("r", [3, 4, 5])
    @pytest.mark.parametrize("cuts", [False, True])
    def test_matches_exhaustive_table_scan(self, r, cuts):
        model = CutSystemModel(r)
        assert verify_coloring_proper(model, cuts) == oracles.exhaustive_proper_report(model, cuts)

    @pytest.mark.parametrize("corruption", ["copy-same-class", "flip-bit", "copy-other-class"])
    def test_corrupted_lift_table_is_caught(self, monkeypatch, corruption):
        model = CutSystemModel(3)
        clean = color_table(model)
        g = glued_sphere_graph(model)
        hom = clean.hom
        if corruption == "flip-bit":
            v = 7
            key = clean.keys[v] ^ 1
        else:
            want_same = corruption == "copy-same-class"
            v, u = next(
                (i, j) for i, j in g.sorted_edges if (hom[i] == hom[j]) == want_same
            )
            key = clean.keys[u]
        keys = list(clean.keys)
        keys[v] = key
        monkeypatch.setattr(
            covercolor, "_color_table",
            lambda *args: clean._replace(keys=tuple(keys)),
        )
        report = verify_coloring_proper(model)
        assert not report.ok
        if corruption == "copy-same-class":
            assert report.projection_failures == ()
            assert (clean.labels[v], clean.labels[u]) in report.violations
        else:
            assert report.projection_failures == (clean.labels[v],)
            assert report.to_json_dict()["projection_failures"] == [clean.labels[v]]
        if corruption == "copy-other-class":
            # the failed vertex is compared across classes too
            assert (clean.labels[v], clean.labels[u]) in report.violations

    def test_negative_control_fails(self):
        hits = homology_only_violations(CutSystemModel(3))
        assert hits
        assert ("1 3|2 4 5 6", "1 3 5 6|2 4", "g1+g2") in hits

    def test_colors_separate_all_non_homologous_neighbors(self):
        # non-homologous adjacent spheres must get different colors from
        # EVERY cover, not just one
        model = CutSystemModel(3)
        parts = spherelike_partitions(6)
        g = glued_sphere_graph(model)
        hom = [homology_class(model, p) for p in parts]
        table = color_table(model)
        for i, j in g.sorted_edges:
            if hom[i] != hom[j]:
                assert all(
                    a != b for a, b in zip(table.entries(i), table.entries(j))
                )


class TestCounting:
    def test_r3_paper_worked_values(self):
        rep = count_colors(3, "paper")
        assert rep.t == 7
        assert rep.m == 10
        assert rep.per_cover == 524_800
        assert rep.x == 3_673_600
        assert round(rep.log2_f, 3) == 152.661
        assert rep.bound_9r2r == 216
        assert rep.ok

    def test_r3_computed_mode(self):
        rep = count_colors(3, "computed")
        assert rep.m == 5
        assert rep.per_cover == 528
        assert rep.x == 3_696
        assert round(rep.log2_f, 3) == 82.962
        assert rep.ok

    def test_note_spells_out_disagreement(self):
        rep = count_colors(4, "paper")
        assert "4r-2=14" in rep.note and "2r-1=7" in rep.note

    @pytest.mark.parametrize("r", range(2, 17))
    def test_paper_bound_holds(self, r):
        rep = count_colors(r, "paper")
        assert rep.ok
        assert rep.log2_f <= 9 * r * 2**r

    def test_arithmetic_cross_check(self):
        # per_cover counts singletons plus unordered pairs of classes
        rep = count_colors(5, "paper")
        classes = 2**rep.m
        assert rep.per_cover == classes + classes * (classes - 1) // 2
        assert rep.x == rep.t * rep.per_cover
        assert rep.log2_f == pytest.approx(rep.t * math.log2(rep.x))

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            count_colors(1, "paper")
        with pytest.raises(ValueError):
            count_colors(17, "paper")
        with pytest.raises(ValueError):
            count_colors(3, "exact")

    def test_used_color_count(self):
        assert used_color_count(CutSystemModel(2)) == 3
        assert used_color_count(CutSystemModel(3)) == 22

    def test_used_color_count_capped(self):
        # the model's own cap (r <= 8) is the only one
        assert used_color_count(CutSystemModel(6)) == 1945
        with pytest.raises(ValueError):
            used_color_count(CutSystemModel(9))

    def test_used_color_count_r7(self):
        assert used_color_count(CutSystemModel(7)) == 7960

    def test_used_well_below_available(self):
        assert used_color_count(CutSystemModel(3)) < count_colors(3, "computed").x


@pytest.fixture(scope="class")
def table8():
    """color_table at r = 8, where a cover's lo and hi classes fill its
    32-bit field: built once for the tests of the class."""
    return color_table(CutSystemModel(8))


class TestFullFieldWidth:
    def test_fields_match_lift_classes(self, table8):
        # at 4r = 32 the guard bit of the lo/hi ordering is bit 16, and lo
        # reaches the field's top bit; a fixed sample of vertices against
        # the per-vertex reference, over all 255 covers
        model = CutSystemModel(8)
        covers = enumerate_double_covers(8)
        quotients = [cover_h2(model, c) for c in covers]
        assert table8.covers == tuple(covers) and len(covers) == 255
        assert len(table8.labels) == 32_751
        sample = [*range(0, len(table8.labels), 331), len(table8.labels) - 1]
        top_bit = False
        for v in sample:
            p = TwoBlockPartition.from_label(table8.labels[v])
            assert table8.hom[v] == homology_class(model, p)
            expect = tuple(lift_classes(model, c, p, q) for c, q in zip(covers, quotients))
            assert table8.entries(v) == expect, p.label
            top_bit = top_bit or any(f >> 31 for f in table8.fields(v))
        assert top_bit

    def test_used_color_count_r8(self, table8, monkeypatch):
        monkeypatch.setattr(covercolor, "color_table", lambda model: table8)
        assert used_color_count(CutSystemModel(8)) == 32_247
