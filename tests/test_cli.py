import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import sphere_chroma
from sphere_chroma import cli, counting, covercolor, farey, graphcore, kneser, spheres
from sphere_chroma.farey import MAX_DEPTH
from sphere_chroma.graphcore import (
    Graph, chromatic_number_exact, export_dimacs_kcolor, export_dot, from_json, to_json,
)
from sphere_chroma.spheres import SphereKneserReport


def bench_pin(name):
    """The benchmark's stdout sha256 for one call; bench/pins.json is only read."""
    pins = json.loads((Path(__file__).resolve().parent.parent / "bench" / "pins.json").read_text())
    return pins[name]


def s9_document(duplicate):
    """S_9's graph document, with edge 7 listed twice when duplicate."""
    doc = json.loads(to_json(spheres.sphere_graph_holed(9)))
    if duplicate:
        doc["edges"].append(doc["edges"][7])
    return json.dumps(doc, separators=(",", ":"))


@pytest.fixture
def run(capsys, monkeypatch):
    def invoke(argv, stdin_text=None):
        if stdin_text is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestGenerate:
    def test_sphere_graph_document(self, run):
        code, out, _ = run(["generate", "sphere", "--n", "5"])
        assert code == 0
        g = from_json(out)
        assert g.n == 10 and g.m == 15

    def test_kneser(self, run):
        code, out, _ = run(["generate", "kneser", "--n", "5", "--k", "2"])
        assert code == 0
        assert from_json(out).n == 10

    def test_total_kneser(self, run):
        code, out, _ = run(["generate", "total-kneser", "--n", "4"])
        assert code == 0
        assert from_json(out).n == 7

    def test_glued(self, run):
        code, out, _ = run(["generate", "glued", "--r", "3"])
        assert from_json(out).n == 25 and code == 0
        code, out, _ = run(["generate", "glued", "--r", "3", "--with-cut-spheres"])
        assert from_json(out).n == 28

    def test_farey_with_fins(self, run):
        code, out, _ = run(["generate", "farey", "--depth", "3", "--fins"])
        g = from_json(out)
        assert code == 0
        assert g.n == 9 + 15

    def test_single_line_output(self, run):
        _, out, _ = run(["generate", "farey", "--depth", "2"])
        assert out.count("\n") == 1 and out.endswith("\n")

    # every family at a size whose document spans several 64 KB pieces
    @pytest.mark.parametrize("argv, build", [
        (["kneser", "--n", "14", "--k", "3"], lambda: kneser.kg(14, 3)),
        (["total-kneser", "--n", "10"], lambda: kneser.total_kneser(10)),
        (["sphere", "--n", "12"], lambda: spheres.sphere_graph_holed(12)),
        (["glued", "--r", "5"],
         lambda: covercolor.glued_sphere_graph(covercolor.CutSystemModel(5))),
        (["glued", "--r", "5", "--with-cut-spheres"],
         lambda: covercolor.glued_sphere_graph(covercolor.CutSystemModel(5), True)),
        (["farey", "--depth", "13"], lambda: oracles.farey_ball(13)),
        (["farey", "--depth", "12", "--fins"], lambda: oracles.add_fins(oracles.farey_ball(12))),
    ], ids=lambda x: " ".join(x) if isinstance(x, list) else "")
    def test_stdout_is_the_dumped_document(self, run, argv, build):
        code, out, _ = run(["generate", *argv])
        expected = oracles.graph_json(build()) + "\n"
        assert len(expected) > 2 * 2**16
        assert (code, out) == (0, expected)

    @pytest.mark.parametrize("family", ["sphere", "total-kneser"])
    @pytest.mark.parametrize("n", range(4, 10))
    def test_stdout_is_the_pairwise_document(self, run, family, n):
        # the mask-space rows, written, against the pair-by-pair nesting test
        parts = (kneser.spherelike_partitions if family == "sphere" else kneser.all_partitions)(n)
        expected = oracles.graph_json(oracles.pairwise_partition_graph(parts)) + "\n"
        assert run(["generate", family, "--n", str(n)]) == (0, expected, "")

    def test_partition_streams_drop_no_columns(self, run, monkeypatch):
        # generate sphere, generate total-kneser and verify lemma2 write and
        # compare rows in mask space; none compacts a row
        def refuse(*args):
            raise AssertionError("a column was dropped")

        monkeypatch.setattr(kneser, "_drop_columns", refuse)
        for family, parts in (("sphere", kneser.spherelike_partitions(8)),
                              ("total-kneser", kneser.all_partitions(8))):
            expected = oracles.graph_json(oracles.pairwise_partition_graph(parts)) + "\n"
            assert run(["generate", family, "--n", "8"]) == (0, expected, "")
        assert run(["verify", "lemma2", "--n", "8"]) == (0, '{"lemma":"sphere-kneser","n":8,"ok":true}\n', "")

    def test_writer_writes_pieces_of_at_most_128_kb(self, monkeypatch):
        class Sink(io.StringIO):
            def write(self, text):
                sizes.append(len(text))
                return super().write(text)

        sizes = []
        sink = Sink()
        monkeypatch.setattr("sys.stdout", sink)
        g = spheres.sphere_graph_holed(12)
        assert cli._write_graph(g.labels, g.adj) == 0
        assert sink.getvalue() == to_json(g) + "\n"
        assert len(sizes) > 20 and max(sizes) <= 128 * 1024


class TestChi:
    def test_pipe_matches_in_process(self, run):
        _, doc, _ = run(["generate", "sphere", "--n", "5"])
        code, out, _ = run(["chi", "--exact"], stdin_text=doc)
        assert code == 0
        assert out == '{"chi":3}\n'
        assert json.loads(out)["chi"] == chromatic_number_exact(from_json(doc)).chi

    def test_input_file(self, run, tmp_path):
        _, doc, _ = run(["generate", "kneser", "--n", "5", "--k", "2"])
        path = tmp_path / "g.json"
        path.write_text(doc)
        code, out, _ = run(["chi", "--input", str(path)])
        assert code == 0 and json.loads(out) == {"chi": 3}

    def test_dash_reads_stdin(self, run):
        _, doc, _ = run(["generate", "farey", "--depth", "0"])
        code, out, _ = run(["chi", "--input", "-"], stdin_text=doc)
        assert code == 0 and json.loads(out) == {"chi": 2}

    def test_bounds_mode(self, run):
        _, doc, _ = run(["generate", "sphere", "--n", "6"])
        code, out, _ = run(["chi", "--bounds"], stdin_text=doc)
        assert code == 0
        parsed = json.loads(out)
        assert set(parsed) == {"lower", "upper"}
        assert parsed["lower"] <= 5 <= parsed["upper"]

    # DSATUR's color count and the clique bound on the benchmark's graphs,
    # in `generate` order: the benchmark checks only 1 <= lower <= upper,
    # so these pins are what catch a change of either count
    @pytest.mark.parametrize("argv, line", [
        (["sphere", "--n", "9"], '{"lower":6,"upper":18}\n'),
        (["total-kneser", "--n", "9"], '{"lower":15,"upper":27}\n'),
        (["sphere", "--n", "10"], '{"lower":7,"upper":27}\n'),
    ], ids=["sphere 9", "total-kneser 9", "sphere 10"])
    def test_bounds_pinned(self, run, argv, line):
        _, doc, _ = run(["generate", *argv])
        assert run(["chi", "--bounds"], stdin_text=doc) == (0, line, "")

    # the larger graphs in-process, with the two calls `chi --bounds` makes
    @pytest.mark.parametrize("build, lower, upper", [
        (lambda: spheres.sphere_graph_holed(12), 9, 42),
        (lambda: kneser.total_kneser(12), 21, 54),
        (lambda: farey.add_fins(farey.farey_ball(11)), 3, 3),
    ], ids=["sphere 12", "total-kneser 12", "farey 11 fins"])
    def test_bounds_pinned_in_process(self, build, lower, upper):
        g = build()
        colors = graphcore.greedy_dsatur(g).size
        assert (graphcore._clique_bound(g.adj, colors), colors) == (lower, upper)

    @pytest.mark.parametrize("duplicate", [False, True], ids=["sound", "duplicate-edge"])
    def test_stdin_file_reads_as_input_file(self, run, monkeypatch, tmp_path, duplicate):
        # a regular file on stdin goes to the chunked file reader, and the
        # call says what it says with the file named by --input
        path = tmp_path / "g.json"
        path.write_text(s9_document(duplicate))
        by_flag = run(["chi", "--bounds", "--input", str(path)])
        assert by_flag[0] == (74 if duplicate else 0)
        with open(path, encoding="utf-8") as fh, \
                mock.patch.object(graphcore, "_from_file", wraps=graphcore._from_file) as read:
            monkeypatch.setattr("sys.stdin", fh)
            assert run(["chi", "--bounds"]) == by_flag
            assert read.call_args.args == (fh,)

    def test_stdin_past_offset_zero_rewinds_to_its_start(self, run, cli_env, tmp_path):
        # the duplicate edge makes the chunked read give up; the whole
        # read that names it starts where stdin started, not at byte 0
        doc = s9_document(duplicate=True)
        path = tmp_path / "g.json"
        path.write_text("not a document" + doc)
        with open(path, "rb") as fh:
            fh.seek(len("not a document"))
            result = subprocess.run(
                [sys.executable, "-m", "sphere_chroma.cli", "chi", "--bounds"],
                stdin=fh, capture_output=True, text=True, timeout=60, env=cli_env,
            )
        expected = run(["chi", "--bounds"], stdin_text=doc)
        assert (result.returncode, result.stdout, result.stderr) == expected
        assert "duplicate" in result.stderr

    def test_budget_exhaustion_exits_3(self, run):
        _, doc, _ = run(["generate", "sphere", "--n", "8"])
        code, out, _ = run(["chi", "--exact", "--budget", "10"], stdin_text=doc)
        assert code == 3
        parsed = json.loads(out)
        assert parsed["undecided"] is True
        assert parsed["lower"] <= parsed["upper"]

    # the benchmark's slowest calls: the budget runs out while k = lower is open
    @pytest.mark.parametrize("family, line", [
        ("sphere", '{"lower":10,"upper":18,"undecided":true}\n'),
        ("total-kneser", '{"lower":19,"upper":27,"undecided":true}\n'),
    ], ids=["sphere", "total-kneser"])
    def test_budgeted_n9_interval(self, run, tmp_path, family, line):
        _, doc, _ = run(["generate", family, "--n", "9"])
        path = tmp_path / "g.json"
        path.write_text(doc)
        code, out, err = run(["chi", "--exact", "--budget", "50000", "--input", str(path)])
        assert (code, out, err) == (3, line, "")

    def test_negative_budget_exits_64(self, run):
        _, doc, _ = run(["generate", "sphere", "--n", "6"])
        code, out, err = run(["chi", "--exact", "--budget", "-5"], stdin_text=doc)
        assert code == 64 and out == "" and "budget" in err and "-5" in err
        code, out, _ = run(["chi", "--exact", "--budget", "0"], stdin_text=doc)
        assert code == 3 and json.loads(out)["undecided"] is True

    def test_bounds_refuses_budget(self, run):
        _, doc, _ = run(["generate", "sphere", "--n", "6"])
        for budget in ("100", "-5"):
            code, out, err = run(["chi", "--bounds", "--budget", budget], stdin_text=doc)
            assert code == 64 and out == "" and "--budget" in err

    @pytest.mark.parametrize("argv, library", [
        (["chi", "--budget", "-5"], lambda: chromatic_number_exact(Graph([]), -5)),
        (["chi", "--exact", "--budget", "-1"], lambda: chromatic_number_exact(Graph([]), -1)),
        (["export", "dimacs", "--k", "0"], lambda: export_dimacs_kcolor(Graph([]), 0)),
    ], ids=["chi", "chi-exact", "export-dimacs"])
    def test_bad_flag_exits_64_before_input_is_read(self, run, tmp_path, argv, library):
        # the input does not exist: the flag's message, not a read error
        with pytest.raises(ValueError) as caught:
            library()
        code, out, err = run(argv + ["--input", str(tmp_path / "absent.json")])
        assert (code, out, err) == (64, "", f"sphere-chroma: error: {caught.value}\n")

    def test_missing_file_exits_74(self, run, tmp_path):
        code, out, err = run(["chi", "--input", str(tmp_path / "absent.json")])
        assert code == 74 and out == "" and "cannot read" in err

    def test_garbage_stdin_exits_74(self, run):
        code, _, err = run(["chi"], stdin_text="not a graph")
        assert code == 74 and "not a graph document" in err

    def test_over_long_int_exits_74(self, run, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"format":"sphere-chroma-graph-v1","vertex_labels":["a","b"],'
                        f'"edges":[[0,{"9" * 5000}]]}}')
        code, out, err = run(["chi", "--input", str(path)])
        assert code == 74 and out == ""
        assert err.startswith("sphere-chroma: input is not a graph document: Exceeds the limit")

    @pytest.mark.parametrize("prefix", ["", '{"format":"sphere-chroma-graph-v1",'
                                            '"vertex_labels":["a"],"edges":'])
    def test_deep_nesting_exits_74(self, run, tmp_path, prefix):
        path = tmp_path / "g.json"
        path.write_text(prefix + "[" * 100_000)
        for argv, stdin_text in ((["chi", "--input", str(path)], None),
                                 (["chi"], path.read_text())):
            code, out, err = run(argv, stdin_text)
            assert code == 74 and out == "" and err.count("\n") == 1
            assert err.startswith("sphere-chroma: input is not a graph document: maximum recursion")


class TestVerify:
    def test_lemma2_golden_line(self, run):
        code, out, _ = run(["verify", "lemma2", "--n", "5"])
        assert code == 0
        assert out == '{"lemma":"sphere-kneser","n":5,"ok":true}\n'

    def test_lemma2_past_the_ground_set_cap(self, run):
        # the lemma has its own cap, above the one on the graphs it compares
        assert run(["verify", "lemma2", "--n", "15"]) == (
            0, '{"lemma":"sphere-kneser","n":15,"ok":true}\n', "")

    def test_lemma2_failure_exits_2(self, run, monkeypatch):
        monkeypatch.setattr(
            "sphere_chroma.spheres.verify_lemma_sphere_kneser",
            lambda n: SphereKneserReport(n, False, True, (("1 2|3 4", "1 3|2 4"),), ()),
        )
        code, out, _ = run(["verify", "lemma2", "--n", "4"])
        assert code == 2
        parsed = json.loads(out)
        assert parsed["ok"] is False and parsed["missing_edges"]

    def test_petersen(self, run):
        code, out, _ = run(["verify", "petersen"])
        assert code == 0 and json.loads(out) == {"check": "petersen", "ok": True}

    def test_petersen_failure_exits_2(self, run, monkeypatch):
        g = spheres.sphere_graph_holed(5)
        i, j = g.sorted_edges[0]
        toggled = Graph(g.labels, set(g.sorted_edges) ^ {(i, j)})
        monkeypatch.setattr(spheres, "sphere_graph_holed", lambda n: toggled)
        code, out, _ = run(["verify", "petersen"])
        assert code == 2
        parsed = json.loads(out)
        assert parsed["ok"] is False and parsed["reason"]
        # the dropped edge, named by its two partition labels
        assert parsed["witness_edge"] == [g.labels[i], g.labels[j]]

    @pytest.mark.parametrize("fault", ["dropped-and-added", "added"])
    def test_petersen_injected_faults_exit_2(self, run, monkeypatch, fault):
        g = spheres.sphere_graph_holed(5)
        absent = next(e for e in itertools.combinations(range(g.n), 2) if e not in g.sorted_edges)
        toggled = {absent} if fault == "added" else {absent, g.sorted_edges[3]}
        corrupted = Graph(g.labels, set(g.sorted_edges) ^ toggled)
        monkeypatch.setattr(spheres, "sphere_graph_holed", lambda n: corrupted)
        code, out, _ = run(["verify", "petersen"])
        parsed = json.loads(out)
        assert code == 2 and parsed["ok"] is False
        assert ("not hit" if fault == "added" else "no nested image") in parsed["reason"]
        assert len(parsed["witness_edge"]) == 2
        assert set(parsed["witness_edge"]) <= set(g.labels)

    @pytest.mark.parametrize("r", [2, 9])
    def test_proper_names_its_own_range(self, run, r):
        # r = 2 is left to the farey module, r = 9 is past the enumeration cap
        assert run(["verify", "proper", "--r", str(r)]) == (
            64, "", f"sphere-chroma: error: r must be in 3..8, got {r}\n")

    def test_proper(self, run):
        code, out, _ = run(["verify", "proper", "--r", "3"])
        assert code == 0
        parsed = json.loads(out)
        assert parsed["ok"] is True and parsed["violations"] == []

    @pytest.mark.parametrize("cut", [False, True], ids=["plain", "with-cut-spheres"])
    @pytest.mark.parametrize("r", [3, 4, 5, 6])
    def test_proper_writes_the_dumped_report_in_pieces(self, monkeypatch, r, cut):
        class Sink(io.StringIO):
            def write(self, text):
                sizes.append(len(text))
                return super().write(text)

        sizes = []
        sink = Sink()
        monkeypatch.setattr("sys.stdout", sink)
        assert cli.main(["verify", "proper", "--r", str(r)] + ["--with-cut-spheres"] * cut) == 0
        rep = covercolor.verify_coloring_proper(covercolor.CutSystemModel(r), cut)
        assert sink.getvalue() == json.dumps(rep.to_json_dict(), separators=(",", ":")) + "\n"
        # the r = 6 report is about 485 KB: several pieces, then the newline
        assert len(sizes) > 3 if r == 6 else True
        assert max(sizes) <= 128 * 1024

    @pytest.mark.parametrize("report", [
        covercolor.ProperColoringReport(
            3, 25, 40, (("1 2|3 4", "1 3|2 4"), ("a", "b")), (("c", "d", "011"), ("e", "f", "101")),
            False, ("x", "y")),
        covercolor.ProperColoringReport(
            4, 9, 9, (("\u00e9\"", "a\\b"), ('"homologous_pairs":[]', "x")), (("y", "z", "01"),),
            False),
        covercolor.ProperColoringReport(4, 9, 9, (), (), False, ("z",)),
        covercolor.ProperColoringReport(5, 0, 0, (), (), True),
    ], ids=["violations-pairs-failures", "escaped-labels", "failures-only", "empty"])
    def test_proper_report_with_faults_is_the_dumped_report(self, run, monkeypatch, report):
        monkeypatch.setattr(covercolor, "verify_coloring_proper", lambda model, cut: report)
        code, out, err = run(["verify", "proper", "--r", str(report.r)])
        expected = json.dumps(report.to_json_dict(), separators=(",", ":")) + "\n"
        assert (code, out, err) == (0 if report.ok else 2, expected, "")

    def test_farey_parity_flags_open_question(self, run):
        code, out, _ = run(["verify", "farey-parity", "--depth", "4"])
        assert code == 0
        parsed = json.loads(out)
        assert parsed["ok"] is True and parsed["chi"] == 3
        assert "not decided here" in parsed["open_question"]

    def test_farey_parity_improper_exits_2(self, run, monkeypatch):
        # give 1/1 the color of its neighbour 0/1: the check on the finned
        # ball must see the Farey edge between them
        real = farey.parity_classes

        def broken(fractions, upper):
            a = real(fractions, upper)
            a[fractions.index((1, 1))] = a[fractions.index((0, 1))]
            return a

        monkeypatch.setattr(farey, "parity_classes", broken)
        code, out, _ = run(["verify", "farey-parity", "--depth", "4"])
        assert code == 2 and json.loads(out)["ok"] is False

    def test_farey_12_fins_matches_benchmark_pin(self, run):
        code, out, err = run(["generate", "farey", "--depth", "12", "--fins"])
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == bench_pin("generate-farey-12-fins")

    def test_farey_parity_depth_capped(self, run):
        code, _, err = run(["verify", "farey-parity", "--depth", str(MAX_DEPTH + 1)])
        assert code == 64 and "depth" in err


class TestCount:
    def test_r3_paper_golden_line(self, run):
        code, out, _ = run(["count", "--r", "3", "--rank-mode", "paper"])
        assert code == 0
        assert out == (
            '{"t":7,"x":3673600,"log2_f":152.661,"bound_9r2r":216,"ok":true,'
            '"m":10,"rank_mode":"paper",'
            '"note":"rank modes disagree: paper mode uses m=4r-2=10, '
            'computed cover homology gives m=2r-1=5"}\n'
        )

    def test_computed_mode(self, run):
        code, out, _ = run(["count", "--r", "3", "--rank-mode", "computed"])
        assert code == 0
        parsed = json.loads(out)
        assert parsed["x"] == 3696 and parsed["m"] == 5

    def test_bad_mode_exits_64(self, run):
        code, _, _ = run(["count", "--r", "3", "--rank-mode", "guessed"])
        assert code == 64

    @pytest.mark.parametrize("mode", ["paper", "computed"])
    def test_failed_bound_exits_2(self, run, monkeypatch, mode):
        # the bound holds for every r the command takes, so fake a log2
        # that breaks it: both modes report it the same way
        fake = SimpleNamespace(comb=math.comb, log2=lambda x: 1e6)
        monkeypatch.setattr(counting, "math", fake)
        assert covercolor.count_colors(3, mode).ok is False
        code, out, _ = run(["count", "--r", "3", "--rank-mode", mode])
        assert code == 2 and '"ok":false' in out


class TestColor:
    def test_table_shape(self, run):
        code, out, _ = run(["color", "--r", "2"])
        assert code == 0
        parsed = json.loads(out)
        assert parsed["covers"] == ["01", "10", "11"]
        assert set(parsed["colors"]) == {"1 2|3 4", "1 3|2 4", "1 4|2 3"}
        for table in parsed["colors"].values():
            assert len(table) == 3
            assert all(len(entry) in (1, 2) for entry in table)

    @pytest.mark.parametrize("cut", [False, True], ids=["plain", "with-cut-spheres"])
    def test_writes_the_dumped_document_in_pieces(self, monkeypatch, cut):
        class Sink(io.StringIO):
            def write(self, text):
                sizes.append(len(text))
                return super().write(text)

        sizes = []
        sink = Sink()
        monkeypatch.setattr("sys.stdout", sink)
        assert cli.main(["color", "--r", "5"] + ["--with-cut-spheres"] * cut) == 0
        table = covercolor.color_table(covercolor.CutSystemModel(5), cut)
        colors = {
            label: [[covercolor.class_label(c, 5) for c in table.classes(f)]
                    for f in table.fields(v)]
            for v, label in enumerate(table.labels)
        }
        doc = {"r": 5, "with_cut_spheres": cut, "covers": [c.bitstring for c in table.covers],
               "colors": colors}
        assert sink.getvalue() == json.dumps(doc, separators=(",", ":")) + "\n"
        assert len(sizes) > 8 and max(sizes) <= 128 * 1024


class TestCoverPins:
    ARGV = {
        "proper-r6": "verify proper --r 6",
        "proper-r5-cut": "verify proper --r 5 --with-cut-spheres",
        "color-r5": "color --r 5",
    }

    @pytest.mark.parametrize("pin", ARGV)
    def test_matches_benchmark_pin(self, run, pin):
        code, out, err = run(self.ARGV[pin].split())
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == bench_pin(pin)

    # r = 7, which no benchmark call runs: the digest of the whole report,
    # homologous pairs included, so that a pair lost at this r fails
    R7_PINS = {
        "verify proper --r 7":
            "3833c5b732721f295b80394ca9f021010f5b2940a1b8709ff8133ba41b886679",
        "verify proper --r 7 --with-cut-spheres":
            "afd72963b8c3a5c8783258e2601784c89023e913385bc9bb60d09b370fe85152",
    }

    @pytest.mark.parametrize("argv", R7_PINS)
    def test_r7_pairs_match_their_digest(self, run, argv):
        code, out, err = run(argv.split())
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == self.R7_PINS[argv]


class TestExport:
    @pytest.mark.parametrize("fmt", [["dot"], ["dimacs", "--k", "4"]])
    def test_written_in_pieces_as_the_export_text(self, monkeypatch, tmp_path, fmt):
        class Sink(io.StringIO):
            def write(self, text):
                sizes.append(len(text))
                return super().write(text)

        sizes = []
        sink = Sink()
        g = spheres.sphere_graph_holed(10)
        path = tmp_path / "s10.json"
        path.write_text(to_json(g))
        monkeypatch.setattr("sys.stdout", sink)
        assert cli.main(["export", *fmt, "--input", str(path)]) == 0
        # the text ends in its own newline, and no second one is added
        assert sink.getvalue() == (export_dot(g) if fmt == ["dot"] else export_dimacs_kcolor(g, 4))
        assert len(sizes) > 4 and max(sizes) <= 128 * 1024

    def test_dot_refuses_a_repeated_label(self, run):
        doc = '{"format":"sphere-chroma-graph-v1","vertex_labels":["a","a"],"edges":[[0,1]]}'
        code, out, err = run(["export", "dot"], stdin_text=doc)
        assert (code, out) == (74, "")
        assert err == ("sphere-chroma: input cannot be written as DOT: "
                       "vertex label 'a' names more than one vertex\n")
        # chi and DIMACS index vertices by position, so they keep the two apart
        assert run(["chi"], doc) == (0, '{"chi":2}\n', "")
        code, out, _ = run(["export", "dimacs", "--k", "2"], stdin_text=doc)
        assert (code, out) == (0, "p cnf 4 4\n1 2 0\n3 4 0\n-1 -3 0\n-2 -4 0\n")

    def test_dot_refuses_a_label_utf8_cannot_encode(self, run):
        # a lone surrogate is valid JSON, and chi reads it; DOT writes the
        # label as text, so the export refuses it before any line
        doc = '{"format":"sphere-chroma-graph-v1","vertex_labels":["\\ud800","b"],"edges":[[0,1]]}'
        assert run(["chi"], doc) == (0, '{"chi":2}\n', "")
        assert run(["export", "dot"], doc) == (
            74, "", "sphere-chroma: input cannot be written as DOT: "
                    "vertex label '\\ud800' cannot be encoded as UTF-8\n")

    def test_dot(self, run):
        _, doc, _ = run(["generate", "farey", "--depth", "0"])
        code, out, _ = run(["export", "dot"], stdin_text=doc)
        assert code == 0
        assert out == 'graph G {\n"0/1";\n"1/0";\n"0/1" -- "1/0";\n}\n'

    def test_dimacs(self, run):
        _, doc, _ = run(["generate", "sphere", "--n", "5"])
        code, out, _ = run(["export", "dimacs", "--k", "3"], stdin_text=doc)
        assert code == 0
        assert out.splitlines()[0] == "p cnf 30 55"

    def test_bad_input_exits_74(self, run):
        code, _, _ = run(["export", "dot"], stdin_text="{}")
        assert code == 74

    def test_over_long_int_exits_74(self, run):
        doc = ('{"format":"sphere-chroma-graph-v1","vertex_labels":["a","b"],'
               f'"edges":[[{"1" * 5000},1]]}}')
        for fmt in (["dot"], ["dimacs", "--k", "2"]):
            code, out, err = run(["export", *fmt], stdin_text=doc)
            assert code == 74 and out == "" and "input is not a graph document" in err


# address-space limit for a CLI child that must fail fast: a cap set one
# step too high then dies in the child instead of building the oversize
# graph in the test process
CHILD_AS_BYTES = 1300 * 2**20


def _limit_child_memory(limit=CHILD_AS_BYTES):
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


class TestFlagHandling:
    def test_unknown_command(self, run):
        code, _, err = run(["frobnicate"])
        assert code == 64 and "invalid choice" in err

    def test_missing_required_flag(self, run):
        code, _, _ = run(["generate", "sphere"])
        assert code == 64

    def test_domain_error_maps_to_64(self, run):
        code, _, err = run(["generate", "kneser", "--n", "3", "--k", "2"])
        assert code == 64 and "n >= 2k" in err

    @pytest.mark.parametrize("argv", [
        ["generate", "kneser", "--n", "40", "--k", "20"],
        ["generate", "sphere", "--n", "15"],
        ["generate", "total-kneser", "--n", "15"],
        ["verify", "proper", "--r", "9"],
        ["color", "--r", "8"],
        ["generate", "glued", "--r", "8"],
        ["generate", "farey", "--depth", "16", "--fins"],
        ["verify", "farey-parity", "--depth", "16"],
        ["verify", "lemma2", "--n", "17"],
    ])
    def test_sizes_past_the_caps_exit_64(self, cli_env, argv):
        result = subprocess.run(
            [sys.executable, "-m", "sphere_chroma.cli", *argv],
            capture_output=True, text=True, timeout=30, env=cli_env,
            preexec_fn=_limit_child_memory,
        )
        assert result.returncode == 64 and result.stdout == "" and "error" in result.stderr
        assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")

    def test_exact_help_names_the_default_mode(self, run):
        code, out, _ = run(["chi", "--help"])
        assert code == 0 and "the default mode" in out
        doc = to_json(Graph(["a", "b"], [(0, 1)]))
        assert run(["chi"], doc) == run(["chi", "--exact"], doc) == (0, '{"chi":2}\n', "")

    def test_threads_is_an_unknown_flag(self, run):
        code, out, err = run(["--threads", "1", "verify", "petersen"])
        assert code == 64 and out == "" and "error" in err

    def test_timing_goes_to_stderr_only(self, run):
        _, plain_out, plain_err = run(["verify", "petersen"])
        _, timed_out, timed_err = run(["--timing", "verify", "petersen"])
        assert timed_out == plain_out
        assert "elapsed:" in timed_err and "elapsed:" not in plain_err

    def test_repeat_invocations_identical(self, run):
        a = run(["generate", "glued", "--r", "3"])
        b = run(["generate", "glued", "--r", "3"])
        assert a == b


def full_parser_outcome(capsys, argv):
    """(exit code, stdout, stderr) of the parser of every command on argv,
    exit None when it parses."""
    try:
        cli._build_parser().parse_args(argv)
        code = None
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBranchParser:
    """A call whose first word names a command fills that command's parser
    alone; help, usage and errors are still those of the parser of every
    command."""

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["-h", "chi"],
        ["generate", "--help"],
        ["generate", "sphere", "--help"],
        ["verify", "-h"],
        ["export", "dimacs", "--help"],
        ["--timing", "count", "--help"],
        ["frobnicate"],
        [],
        ["generate"],
        ["generate", "nonesuch", "--n", "5"],
        ["generate", "sphere"],
        ["generate", "sphere", "--n", "x"],
        ["chi", "--budget"],
        ["chi", "--exact", "--bounds"],
        ["count", "--r", "3", "--rank-mode", "bogus"],
        ["verify", "petersen", "--bogus"],
        ["--timing", "verify", "lemma2", "--n", "5", "extra"],
        # root errors after a named command
        ["chi", "--timing"],
        ["generate", "sphere", "--n", "5", "--bogus"],
        ["chi", "count"],
        ["--timing"],
        ["color", "--r"],
    ], ids=lambda argv: " ".join(argv) or "(none)")
    def test_help_and_errors_are_the_full_parsers(self, run, capsys, argv):
        code, out, err = full_parser_outcome(capsys, argv)
        assert code in (0, 64) and (out or err)
        assert run(argv) == (code, out, err)

    @pytest.mark.parametrize("argv, error", [
        (["verify", "petersen", "--bogus"], "unrecognized arguments: --bogus"),
        (["chi", "--timing"], "unrecognized arguments: --timing"),
        (["generate", "sphere", "--n", "5", "--bogus"], "unrecognized arguments: --bogus"),
        (["chi", "count"], "unrecognized arguments: count"),
        (["--timing"], "the following arguments are required: command"),
    ], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
    def test_root_errors_list_every_command(self, run, argv, error):
        code, out, err = run(argv)
        assert (code, out) == (64, "")
        # the usage line is the root's; its wrap follows the terminal width
        assert err.startswith("usage: sphere-chroma [-h] [--timing]")
        assert " {generate,chi,color,verify,count,export} ...\n" in err
        assert err.endswith(f"sphere-chroma: error: {error}\n")

    @pytest.mark.parametrize("argv, built, exit_code", [
        (["generate", "sphere", "--n", "5"], ["generate"], 0),
        (["--timing", "verify", "petersen"], ["verify"], 0),
        (["count", "--r", "3", "--rank-mode", "paper"], ["count"], 0),
        (["export", "dimacs", "--k", "2"], ["export"], 0),
        (["chi", "--bounds"], ["chi"], 0),
        # help and errors come from the one parser built
        (["chi", "--budget", "x"], ["chi"], 64),
        (["generate", "sphere", "--help"], ["generate"], 0),
        # no command named: every command's parser at once
        (["--help"], [None], 0),
        (["frobnicate"], [None], 64),
    ], ids=lambda x: " ".join(map(str, x)) if isinstance(x, list) else str(x))
    def test_builds_the_named_commands_parser(self, run, monkeypatch, argv, built, exit_code):
        calls = []
        build = cli._build_parser

        def recorded(command=None):
            calls.append(command)
            return build(command)

        monkeypatch.setattr(cli, "_build_parser", recorded)
        doc = to_json(Graph(["a", "b"], [(0, 1)]))
        code, _, _ = run(argv, doc)
        assert (calls, code) == (built, exit_code)

    @staticmethod
    def _commands(parser):
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return sub.choices

    def test_one_commands_parser_holds_no_other(self):
        parser = cli._build_parser("chi")
        assert parser.parse_args(["chi", "--bounds"]).bounds
        commands = self._commands(parser)
        assert list(commands) == list(cli._COMMANDS)
        for name, command in commands.items():
            options = [a.option_strings for a in command._actions]
            assert (options == [["-h", "--help"]]) == (name != "chi")

    def test_every_command_is_filled_when_none_is_named(self):
        for command in self._commands(cli._build_parser()).values():
            assert len(command._actions) > 1


# every documented command, "#" marking a size; sizes stay small so that
# each drawn call is cheap (the cap tests above cover the large ones).
# The commands that read a graph from stdin are drawn half the time.
STDIN_TEMPLATES = [
    "chi --exact --budget #",
    "chi --bounds --input -",
    "chi",
    "export dot --input -",
    "export dimacs --k #",
]
OTHER_TEMPLATES = [
    "generate kneser --n # --k #",
    "generate total-kneser --n #",
    "generate sphere --n #",
    "generate glued --r # --with-cut-spheres",
    "generate farey --depth # --fins",
    "color --r # --with-cut-spheres",
    "verify lemma2 --n #",
    "verify petersen",
    "verify proper --r # --with-cut-spheres",
    "verify farey-parity --depth #",
    "count --r # --rank-mode paper",
    "count --r # --rank-mode computed",
]
SIZES = st.integers(min_value=-2, max_value=5).map(str)
# no digits or slashes: a random token is never a large size or a path
# outside the working directory
TOKENS = st.one_of(
    SIZES,
    st.sampled_from([
        "--timing", "--exact", "--bounds", "--budget", "--input", "-", "--fins",
        "--with-cut-spheres", "--n", "--k", "--r", "--depth", "--rank-mode",
        "--help", "sphere", "chi", "verify", "",
    ]),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz-=_.", max_size=8),
)
DOCUMENTED_EXITS = {0, 2, 3, 64, 71, 74, 141}


@st.composite
def fuzz_argv(draw):
    """A documented command line, then up to three token edits."""
    template = draw(st.sampled_from(STDIN_TEMPLATES) | st.sampled_from(OTHER_TEMPLATES))
    argv = [draw(SIZES) if w == "#" else w for w in template.split()]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(min_value=0, max_value=len(argv)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            argv.insert(at, draw(TOKENS))
        elif at < len(argv):
            if edit == "delete":
                del argv[at]
            else:
                argv[at] = draw(TOKENS)
    return argv


@st.composite
def fuzz_stdin(draw):
    """Random bytes, or a graph document of at most 12 vertices, maybe mangled."""
    kind = draw(st.sampled_from(["bytes", "graph", "mangled"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    doc = to_json(Graph([f"v{i}" for i in range(n)], edges)).encode()
    if kind == "mangled":
        at = draw(st.integers(min_value=0, max_value=len(doc) - 1))
        doc = doc[:at] + draw(st.binary(max_size=3)) + doc[at + 1:]
    return doc


def run_in_process(argv, data):
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    with mock.patch("sys.stdin", stdin), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(fuzz_argv(), fuzz_stdin())
    @example(["chi", "--exact"], b"\xff\xfe{")
    @example(["chi", "--exact", "--budget", "0"], to_json(
        Graph(list("abcde"), [(i, (i + 1) % 5) for i in range(5)])).encode())
    @example(["export", "dot"], b"")
    @example(["verify", "farey-parity", "--depth", "-1"], b"")
    def test_exit_codes_documented_and_no_traceback(self, argv, data):
        code, _, err = run_in_process(argv, data)
        assert code in DOCUMENTED_EXITS, (argv, code, err)
        assert "Traceback" not in err

    def test_undecodable_input_exits_74(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_bytes(b"\xff\xfe{")
        for argv, data in ((["chi"], path.read_bytes()), (["chi", "--input", str(path)], b"")):
            code, out, err = run_in_process(argv, data)
            assert code == 74 and out == "" and "cannot read input" in err


# the CLI as a separate process, started the way a shell would start it
CLI = f"{shlex.quote(sys.executable)} -m sphere_chroma.cli"


@pytest.fixture
def cli_env():
    src = str(Path(sphere_chroma.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


# address space for the depth-14 Farey calls below: they need about 43 MB
# (generate --fins) and 33 MB (verify) from neighbour lists, against about
# 195 MB for both when every vertex had a bit row spanning the whole ball
FAREY_AS_BYTES = 100 * 2**20
# address space for a call that must run out of memory: start-up through
# `generate farey --depth 0 --fins` fits in 19 MB, and `generate farey
# --depth 14 --fins` needs 41 MB (least limits at which each exits 0)
OUT_OF_MEMORY_AS_BYTES = 30 * 2**20


def _run_limited(cli_env, argv, limit):
    return subprocess.run(
        [sys.executable, "-m", "sphere_chroma.cli", *argv],
        capture_output=True, text=True, timeout=60, env=cli_env,
        preexec_fn=lambda: _limit_child_memory(limit),
    )


# address space for `generate kneser --n 3500 --k 1`, the densest kg the
# cap allows: built from membership masks it peaks near 19 MB RSS, where
# listing its 6.1 million edges took about 630 MB
KG_CAP_AS_BYTES = 300 * 2**20


class TestKgMemory:
    def test_densest_kg_at_the_cap_fits(self, cli_env):
        result = subprocess.run(
            [sys.executable, "-m", "sphere_chroma.cli", "generate", "kneser", "--n", "3500", "--k", "1"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60, env=cli_env,
            preexec_fn=lambda: _limit_child_memory(KG_CAP_AS_BYTES),
        )
        assert result.returncode == 0 and result.stderr == ""


# address space for `export dimacs --k 10000000` and `--k 10000000000` on
# S_5: written in blocks of colors, each clause group takes a few hundred
# KB; formed as one string per vertex's at-least-one clause, or with a list
# of one range per block made first, the call ran out of memory under this
# limit before it wrote its header
DIMACS_AS_BYTES = 400 * 2**20


class TestDimacsMemory:
    def test_huge_palette_streams_to_a_closed_pipe(self, cli_env, tmp_path):
        path = tmp_path / "s5.json"
        path.write_text(to_json(spheres.sphere_graph_holed(5)))
        # about 4 GB and 4 TB of output: only ever run under the limit, read 64 KB
        for k, header in [("10000000", b"p cnf 100000000 150000010"),
                          ("10000000000", b"p cnf 100000000000 150000000010")]:
            proc = subprocess.Popen(
                [sys.executable, "-m", "sphere_chroma.cli", "export", "dimacs", "--k", k,
                 "--input", str(path)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env,
                preexec_fn=lambda: _limit_child_memory(DIMACS_AS_BYTES),
            )
            head = proc.stdout.read(1 << 16)
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait(timeout=60) == 141 and err == b"", k
            assert head.split(b"\n")[0] == header


class TestFareyMemory:
    def _run_limited(self, cli_env, argv, limit=FAREY_AS_BYTES):
        return _run_limited(cli_env, argv, limit)

    def test_out_of_memory_exits_71(self, cli_env):
        result = self._run_limited(cli_env, ["generate", "farey", "--depth", "14", "--fins"],
                                   OUT_OF_MEMORY_AS_BYTES)
        assert result.returncode == 71 and result.stdout == ""
        assert result.stderr == "sphere-chroma: out of memory\n"

    def test_generate_depth_14_fins_fits(self, cli_env):
        result = self._run_limited(cli_env, ["generate", "farey", "--depth", "14", "--fins"])
        assert result.returncode == 0 and result.stderr == ""
        doc = json.loads(result.stdout)
        ball_edges = 2**15 - 1
        assert len(doc["vertex_labels"]) == 2**14 + 1 + ball_edges
        assert len(doc["edges"]) == 3 * ball_edges

    def test_verify_parity_depth_14_fits(self, cli_env):
        result = self._run_limited(cli_env, ["verify", "farey-parity", "--depth", "14"])
        assert result.returncode == 0 and result.stderr == ""
        assert json.loads(result.stdout)["ok"] is True


# address space for the partition-graph calls below, between the least
# limits (found in steps of 1/8 MB) at which each exits 0 with the whole
# graph built and with its rows walked as they are built: `verify lemma2
# --n 13` needs 28.0 MB holding S_13 and TK_13 whole and 19.1 MB, the
# start-up floor, comparing their row streams; `generate sphere --n 13`
# needs 21.7 MB holding S_13 and 19.1 MB writing it row by row
LEMMA_AS_BYTES = 24 * 2**20
SPHERE_AS_BYTES = 20 * 2**20 + 2**19


class TestPartitionMemory:
    def test_lemma_13_holds_no_whole_graph(self, cli_env):
        result = _run_limited(cli_env, ["verify", "lemma2", "--n", "13"], LEMMA_AS_BYTES)
        assert (result.returncode, result.stdout, result.stderr) == (
            0, '{"lemma":"sphere-kneser","n":13,"ok":true}\n', "")

    def test_generate_sphere_13_holds_no_whole_graph(self, cli_env):
        result = _run_limited(cli_env, ["generate", "sphere", "--n", "13"], SPHERE_AS_BYTES)
        assert result.returncode == 0 and result.stderr == "" and result.stdout.endswith("]]}\n")
        # the labels only: decoding the whole edge list would take most of a second
        head = json.loads(result.stdout[:result.stdout.index(',"edges":')] + "}")
        assert head["vertex_labels"] == [p.label for p in kneser.spherelike_partitions(13)]


class TestCoverMemory:
    def test_verify_proper_r8_fits(self, cli_env):
        # r = 8 is the cap the 32-bit color fields set; the 18.8 MB report
        # is checked at its ends, whose counts are S_16's closed forms, and
        # pinned whole by its digest, as the r = 7 reports are.  Only r = 8
        # fills bit 31 of a color field, so only this pin sees a witness
        # cover picked from a wrong bit there.
        result = _run_limited(cli_env, ["verify", "proper", "--r", "8"], CHILD_AS_BYTES)
        vertices, edges = oracles.sphere_graph_counts(16)
        assert (vertices, edges) == (32_751, 20_900_922)
        assert result.returncode == 0 and result.stderr == ""
        assert result.stdout.startswith(
            f'{{"r":8,"vertices":{vertices},"edges":{edges},"violations":[],"homologous_pairs":[{{')
        assert result.stdout.endswith('}],"ok":true}\n')
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "aba72bc7e2b5e37641025bc38ec433eb4159c1cd0d3c99641bc82f728ec91615")


# runs the CLI as ``python -m sphere_chroma.cli`` does, then writes the
# exit code and every loaded module with its file to stderr as JSON
LOADED_MODULES_PROBE = """
import json, runpy, sys
sys.argv[0] = "sphere_chroma.cli"
code = None
try:
    runpy.run_module("sphere_chroma.cli", run_name="__main__", alter_sys=True)
except SystemExit as e:
    code = e.code
files = {name: getattr(m, "__file__", None) for name, m in sys.modules.items()}
sys.stderr.write(json.dumps({"exit": code, "modules": files}))
"""


class TestStartup:
    """A CLI call imports only the library modules its command runs."""

    def _loaded(self, cli_env, argv, *flags):
        result = subprocess.run(
            [sys.executable, *flags, "-c", LOADED_MODULES_PROBE, *argv],
            capture_output=True, text=True, timeout=60, env=cli_env,
        )
        report = json.loads(result.stderr)
        return result.stdout, report["exit"], report["modules"]

    def test_chi_loads_graphcore_and_graphbase(self, cli_env, tmp_path):
        path = tmp_path / "c5.json"
        path.write_text(to_json(Graph(list("abcde"), [(i, (i + 1) % 5) for i in range(5)])))
        out, code, modules = self._loaded(cli_env, ["chi", "--input", str(path)])
        assert (out, code) == ('{"chi":3}\n', 0)
        package = Path(sphere_chroma.__file__).parent
        assert Path(modules["sphere_chroma"]) == package / "__init__.py"
        assert Path(modules["sphere_chroma.graphcore"]) == package / "graphcore.py"
        # the CLI itself runs as __main__, as under python -m
        assert sorted(m for m in modules if m.startswith("sphere_chroma.")) == [
            "sphere_chroma.graphbase", "sphere_chroma.graphcore"]
        assert "dataclasses" not in modules

    @pytest.mark.parametrize("argv, names", [
        (["count", "--r", "3", "--rank-mode", "paper"], ["counting"]),
        (["generate", "sphere", "--n", "5"], ["graphbase", "kneser"]),
        (["verify", "proper", "--r", "3"], ["counting", "covercolor", "graphbase", "kneser"]),
        (["generate", "farey", "--depth", "2"], ["farey", "graphbase"]),
        (["verify", "farey-parity", "--depth", "12"], ["farey", "graphbase"]),
        # the exact chi of a shallow ball runs the search
        (["verify", "farey-parity", "--depth", "8"], ["farey", "graphbase", "graphcore"]),
    ], ids=" ".join)
    def test_command_loads_only_the_modules_it_runs(self, cli_env, argv, names):
        out, code, modules = self._loaded(cli_env, argv)
        assert code == 0 and json.loads(out)
        assert sorted(m for m in modules if m.startswith("sphere_chroma.")) == [
            f"sphere_chroma.{name}" for name in names]

    def test_verify_proper_loads_no_dataclasses(self, cli_env):
        out, code, modules = self._loaded(cli_env, ["verify", "proper", "--r", "3"])
        assert code == 0 and json.loads(out)["ok"] is True
        assert "sphere_chroma.covercolor" in modules
        assert "dataclasses" not in modules

    @pytest.mark.parametrize("argv", [
        ["verify", "lemma2", "--n", "5"],
        ["verify", "proper", "--r", "3"],
        ["generate", "sphere", "--n", "5"],
    ], ids=" ".join)
    def test_partition_calls_skip_importlib_resources(self, cli_env, argv):
        # run without site (-S), whose .pth files may import it anyway: only
        # the shipped reference coloring needs importlib.resources
        out, code, modules = self._loaded(cli_env, argv, "-S")
        assert code == 0 and json.loads(out)
        assert "sphere_chroma.kneser" in modules
        assert "importlib.resources" not in modules

    def test_generate_farey_loads_no_partition_modules(self, cli_env):
        out, code, modules = self._loaded(cli_env, ["generate", "farey", "--depth", "2"])
        assert code == 0 and json.loads(out)["vertex_labels"]
        for name in ("kneser", "spheres", "covercolor"):
            assert f"sphere_chroma.{name}" not in modules

    @pytest.mark.parametrize("name", sorted(
        p.stem for p in Path(sphere_chroma.__file__).parent.glob("*.py") if p.stem != "__init__"))
    def test_from_import_loads_what_the_module_imports(self, cli_env, name):
        # ``from sphere_chroma import name`` must import the module and what
        # it imports itself, as ``import sphere_chroma.name`` does, without
        # the package __getattr__'s walk through every library module
        probe = ("import sys; {}; print(sorted(m for m in sys.modules"
                 " if m.startswith('sphere_chroma.')))")
        found = [subprocess.run([sys.executable, "-c", probe.format(statement)],
                                capture_output=True, text=True, timeout=60, env=cli_env).stdout
                 for statement in (f"from sphere_chroma import {name}",
                                   f"import sphere_chroma.{name}")]
        assert found[0] == found[1] and f"'sphere_chroma.{name}'" in found[0]

    def test_submodule_names_import_no_library_module(self, cli_env):
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, sphere_chroma; print(hasattr(sphere_chroma, 'cli'),"
             " sorted(m for m in sys.modules if m.startswith('sphere_chroma')))"],
            capture_output=True, text=True, timeout=60, env=cli_env,
        )
        assert result.stdout == "False ['sphere_chroma']\n"


class TestInstalledScript:
    def test_shell_pipe(self, cli_env):
        result = subprocess.run(
            f"{CLI} generate sphere --n 5 | {CLI} chi --exact",
            shell=True, capture_output=True, text=True, timeout=60, env=cli_env,
        )
        assert result.returncode == 0
        assert result.stdout == '{"chi":3}\n'

    @pytest.mark.parametrize("fault", [False, True], ids=["sound", "duplicate-edge"])
    def test_input_dash_pipe_matches_input_file(self, cli_env, tmp_path, fault):
        # S_9's document spans two 64 KB chunks; read from a file in
        # chunks and from a pipe whole, it gives the same bytes out
        g = spheres.sphere_graph_holed(9)
        repeat = ",[%d,%d]" % g.sorted_edges[0] if fault else ""
        path = tmp_path / "s9.json"
        path.write_text(to_json(g)[:-2] + repeat + "]}\n")
        assert path.stat().st_size > 2**16
        results = [subprocess.run(command, shell=True, capture_output=True, text=True,
                                  timeout=60, env=cli_env)
                   for command in (f"{CLI} chi --bounds --input {shlex.quote(str(path))}",
                                   f"cat {shlex.quote(str(path))} | {CLI} chi --bounds --input -")]
        file_read, pipe_read = ((r.returncode, r.stdout, r.stderr) for r in results)
        assert file_read == pipe_read
        assert file_read[0] == (74 if fault else 0)

    @pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
    @pytest.mark.parametrize("label, edges, expected", [
        ("\u96ea".encode(), b"[[0,1]]", (0, '{"chi":2}\n', "")),
        ("\u96ea".encode(), b"[[0,1],[0,1]]", (
            74, "", "sphere-chroma: input is not a graph document: "
                    "field 'edges'[1]: duplicate edge [0,1]\n")),
        (b"\xff", b"[[0,1]]", (
            74, "", "sphere-chroma: cannot read input: 'utf-8' codec can't decode byte 0xff "
                    "in position 53: invalid start byte\n")),
    ], ids=["sound", "duplicate-edge", "not-utf-8"])
    def test_stdin_is_read_as_utf8(self, cli_env, tmp_path, encoding, label, edges, expected):
        # a label outside the stream encoding, or bytes that are not UTF-8:
        # --input, a file on stdin and a pipe all decode the document as
        # strict UTF-8
        path = tmp_path / "u.json"
        path.write_bytes(b'{"format":"sphere-chroma-graph-v1","vertex_labels":["' + label
                         + b'","b"],"edges":' + edges + b"}\n")
        quoted = shlex.quote(str(path))
        results = [subprocess.run(command, shell=True, capture_output=True, text=True, timeout=60,
                                  env={**cli_env, "PYTHONIOENCODING": encoding})
                   for command in (f"{CLI} chi --input {quoted}", f"{CLI} chi < {quoted}",
                                   f"cat {quoted} | {CLI} chi")]
        assert [(r.returncode, r.stdout, r.stderr) for r in results] == [expected] * 3

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("label, encoding, stderr", [
        ("\\ud800", "utf-8", "input cannot be written as DOT: "
                              "vertex label '\\ud800' cannot be encoded as UTF-8"),
        ("\u96ea", "latin-1", "cannot write output: 'latin-1' codec can't encode character "
                              "'\\u96ea' in position 11: ordinal not in range(256)"),
    ], ids=["surrogate", "outside-latin-1"])
    def test_dot_label_that_cannot_be_written_exits_74(self, cli_env, tmp_path, label, encoding,
                                                       stderr, unbuffered):
        # the label is read, but cannot be written: an output fault, not a
        # bad flag, with nothing on stdout
        path = tmp_path / "g.json"
        path.write_text('{"format":"sphere-chroma-graph-v1",'
                        f'"vertex_labels":["{label}","b"],"edges":[[0,1]]}}', encoding="utf-8")
        result = subprocess.run(
            f"{CLI} export dot --input {shlex.quote(str(path))}", shell=True, capture_output=True,
            text=True, timeout=60,
            env={**cli_env, "PYTHONIOENCODING": encoding, "PYTHONUNBUFFERED": unbuffered})
        assert (result.returncode, result.stdout, result.stderr) == (
            74, "", f"sphere-chroma: {stderr}\n")

    @pytest.mark.parametrize("command, code, stderr", [
        ("chi <&-", 74, "sphere-chroma: cannot read input: stdin is closed\n"),
        ("export dot <&-", 74, "sphere-chroma: cannot read input: stdin is closed\n"),
        ("generate sphere --n 5 >&-", 74, "sphere-chroma: cannot write output: stdout is closed\n"),
        # stderr closed: the diagnostics go, the exit code stays
        ("chi --input /nonexistent 2>&-", 74, ""),
        ("--timing count --r 3 --rank-mode paper 2>&-", 0, ""),
    ])
    def test_closed_standard_stream_exits(self, cli_env, command, code, stderr):
        result = subprocess.run(f"{CLI} {command}", shell=True, capture_output=True, text=True,
                                timeout=60, env=cli_env)
        assert (result.returncode, result.stderr) == (code, stderr)
        if command.startswith("--timing"):
            assert json.loads(result.stdout)["ok"] is True

    def test_verify_exit_code(self, cli_env):
        result = subprocess.run(
            [sys.executable, "-m", "sphere_chroma.cli", "verify", "lemma2", "--n", "7"],
            capture_output=True, text=True, timeout=60, env=cli_env,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["ok"] is True

    def _truncated_pipe(self, cli_env, command, unbuffered=""):
        """(exit code, stderr) of a CLI call whose reader leaves after one
        byte; PYTHONUNBUFFERED is set either way, so the caller's own
        setting does not leak in."""
        result = subprocess.run(
            f'{CLI} {command} | head -c 1 >/dev/null;'
            ' echo "${PIPESTATUS[0]}"',
            shell=True, capture_output=True, text=True, timeout=60,
            executable="/bin/bash", env={**cli_env, "PYTHONUNBUFFERED": unbuffered},
        )
        return result.stdout.strip(), result.stderr

    def test_truncated_pipe_dies_quietly(self, cli_env):
        # depth 12 emits far more than a pipe buffer holds, so the writer
        # is guaranteed to see the reader gone
        assert self._truncated_pipe(cli_env, "generate farey --depth 12") == ("141", "")

    def test_truncated_pipe_dies_quietly_unbuffered(self, cli_env):
        # unbuffered stdout writes straight to the pipe, where a write can
        # stop short once the reader is gone; that must still end in 141
        assert self._truncated_pipe(
            cli_env, "generate farey --depth 12", unbuffered="1") == ("141", "")

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_truncated_pipe_dies_quietly_in_many_writes(self, cli_env, unbuffered):
        # S_12 is 2.6 MB written in some 40 pieces, so a write after the
        # reader has gone meets the closed pipe
        assert self._truncated_pipe(cli_env, "generate sphere --n 12", unbuffered) == ("141", "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", [
        # one line, which a buffered stdout holds until it is flushed
        "count --r 3 --rank-mode paper",
        "generate sphere --n 12",
    ])
    def test_full_disk_exits_74(self, cli_env, command, unbuffered):
        result = subprocess.run(f"{CLI} {command} >/dev/full", shell=True, capture_output=True,
                                text=True, timeout=60,
                                env={**cli_env, "PYTHONUNBUFFERED": unbuffered})
        assert (result.returncode, result.stdout, result.stderr) == (
            74, "", "sphere-chroma: cannot write output: [Errno 28] No space left on device\n")
