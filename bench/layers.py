"""Traced run: spans around each public call the benchmark makes.

A span records name, start, end, parent span and pass id.  Spans stay in
memory and are written once, when the run ends.  Self time is a span's
duration minus the time its child spans cover.  The spans wrap calls
from the benchmark into the package; nothing inside ``src/`` is traced.

``probe`` runs every layer in-process through public functions, at the
sizes the workloads use and on the same seeded relabelings.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time

import harness
import inputs


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.pass_id = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        """Self seconds summed by span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[s["id"]]
        return out


class NullTracer:
    """Tracing off: same interface, records nothing."""

    pass_id = None

    def span(self, name: str):
        return contextlib.nullcontext()


def probe(tracer: Tracer, client: harness.Client, seed: int):
    """Time every layer once; returns (metrics {name: value}, failures, attempted)."""
    sys.path.insert(0, str(client.pkg_root))
    from sphere_chroma import cli, covercolor, farey, graphcore, kneser, spheres

    m: dict[str, float] = {}
    failures: list[str] = []
    checks = 0

    def timed(name, fn, *args, **kwargs):
        with tracer.span(name) as rec:
            out = fn(*args, **kwargs)
        m[name + "_s"] = rec["end"] - rec["start"]
        return out

    def expect(ok: bool, what: str):
        nonlocal checks
        checks += 1
        if not ok:
            failures.append(what)

    def seeded(g, name):
        # variant 0, the relabeling the workload's first pass reads
        with tracer.span("bench.seed_input"):
            return graphcore.from_json(inputs.permute_graph_text(graphcore.to_json(g), seed, name))

    with tracer.span("layers"):
        # cli: process start-up against the in-process command
        walls, mains = [], []
        for _ in range(3):
            with tracer.span("cli.startup"):
                res = client.run("probe-startup", harness.STARTUP_ARGV)
            walls.append(res.wall_s)
            expect(res.exit_code == 0, "count --r 3 exited non-zero")
            with tracer.span("cli.main") as rec, contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(list(harness.STARTUP_ARGV))
            mains.append(rec["end"] - rec["start"])
            expect(code == 0, "in-process cli.main(count) returned non-zero")
        m["cli.startup_s"] = statistics.median(walls)
        m["cli.main_s"] = statistics.median(mains)
        m["cli.outside_s"] = m["cli.startup_s"] - m["cli.main_s"]

        # kneser and spheres: the V^2 nesting scans at n = 12
        timed("kneser.partitions", kneser.all_partitions, 12)
        tk = timed("kneser.total_kneser", kneser.total_kneser, 12)
        pruned = timed("kneser.remove_singletons", kneser.remove_singleton_partitions, tk)
        timed("kneser.kg", kneser.kg, 10, 4)
        s12 = timed("spheres.sphere_graph", spheres.sphere_graph_holed, 12)
        lemma = timed("spheres.lemma", spheres.verify_lemma_sphere_kneser, 12)
        expect(lemma.ok, "lemma2 n=12 failed in-process")
        expect(pruned == s12, "pruned TK_12 differs from S_12")
        pair_tests = sum(g.n * (g.n - 1) // 2 for g in (tk, s12))
        m["kneser.pair_tests"] = pair_tests
        m["kneser.pair_tests_per_s"] = pair_tests / (
            m["kneser.total_kneser_s"] + m["spheres.sphere_graph_s"])

        # graphcore on the dense S_12 and the sparse finned Farey ball
        text = timed("graphcore.to_json", graphcore.to_json, s12)
        size = len(text.encode())
        m["graphcore.json_bytes"] = size
        m["graphcore.to_json_mb_per_s"] = size / 1e6 / m["graphcore.to_json_s"]
        back = timed("graphcore.from_json", graphcore.from_json, text)
        m["graphcore.from_json_mb_per_s"] = size / 1e6 / m["graphcore.from_json_s"]
        expect(back == s12, "S_12 JSON round trip changed the graph")
        dense = seeded(s12, "s12")
        sparse = seeded(farey.add_fins(farey.farey_ball(11)), "farey11-fins")
        for tag, g in (("s12", dense), ("farey", sparse)):
            edges = g.sorted_edges
            timed(f"graphcore.graph_init_{tag}", graphcore.Graph, g.labels, edges)
            m[f"graphcore.graph_init_{tag}_edges_per_s"] = len(edges) / m[f"graphcore.graph_init_{tag}_s"]
            col = timed(f"graphcore.dsatur_{tag}", graphcore.greedy_dsatur, g)
            m[f"graphcore.dsatur_{tag}_colors"] = col.size
            expect(graphcore.validate_coloring(g, col) is None, f"DSATUR coloring of {tag} is improper")
            m[f"graphcore.clique_{tag}_size"] = timed(f"graphcore.clique_{tag}", graphcore.clique_lower_bound, g)

        # graphcore exact search on the exact-search workload's instances
        decided = (
            ("s7", spheres.sphere_graph_holed(7), 7),
            ("tk7", kneser.total_kneser(7), 14),
            ("s8", spheres.sphere_graph_holed(8), 9),
            ("tk8", kneser.total_kneser(8), 17),
            ("kg10-4", kneser.kg(10, 4), 4),
        )
        refute = 0
        for name, g, chi in decided:
            cert = timed(f"graphcore.exact_{name}", graphcore.chromatic_number_exact, seeded(g, name))
            expect(getattr(cert, "chi", None) == chi, f"chi({name}) is not {chi}")
            if cert.infeasibility is not None:
                refute += cert.infeasibility.nodes_explored
        m["graphcore.refute_nodes"] = refute
        budget_nodes, budget_s, gap = 0, 0.0, 0
        for name, g, (lo, hi) in (("s9", spheres.sphere_graph_holed(9), (11, 12)),
                                  ("tk9", kneser.total_kneser(9), (20, 21))):
            res = timed(f"graphcore.exact_{name}_budget", graphcore.chromatic_number_exact,
                        seeded(g, name), 50000)
            budget_s += m[f"graphcore.exact_{name}_budget_s"]
            if isinstance(res, graphcore.ChiUndecided):
                budget_nodes += res.nodes_explored
                gap += res.upper - res.lower
                expect(res.lower <= hi and res.upper >= lo, f"budgeted {name} interval excludes chi")
            else:
                expect(lo <= res.chi <= hi, f"budgeted {name} decided chi outside [{lo}, {hi}]")
        m["graphcore.budget_nodes_per_s"] = budget_nodes / budget_s
        m["graphcore.budget_gap"] = gap

        # farey: the parity check path at depth 12, and exact chi at the depth cap
        ball = timed("farey.ball", farey.farey_ball, 12)
        finned = timed("farey.fins", farey.add_fins, ball)
        parity = timed("farey.parity", farey.parity_coloring, finned)
        bad = timed("graphcore.validate", graphcore.validate_coloring, finned, parity)
        expect(bad is None, "parity coloring of the finned depth-12 ball is improper")
        chi = timed("farey.chi", farey.chi_farey_ball, 10, True)
        expect(getattr(chi, "chi", None) == 3, "finned depth-10 Farey ball is not 3-chromatic")

        # covercolor at r = 6
        model = covercolor.CutSystemModel(6)
        glued = timed("covercolor.glued_graph", covercolor.glued_sphere_graph, model)
        rep = timed("covercolor.verify_proper", covercolor.verify_coloring_proper, model)
        expect(rep.ok, "verify proper r=6 found a violation")
        m["covercolor.table_scan_s"] = m["covercolor.verify_proper_s"] - m["covercolor.glued_graph_s"]
        covers = covercolor.enumerate_double_covers(6)
        quotients = [covercolor.cover_h2(model, c) for c in covers]
        parts = kneser.spherelike_partitions(12)
        with tracer.span("covercolor.lift_tables") as rec:
            for p in parts:
                for c, q in zip(covers, quotients):
                    covercolor.lift_classes(model, c, p, q)
        m["covercolor.lift_tables_s"] = rec["end"] - rec["start"]
        m["covercolor.lift_calls"] = len(parts) * len(covers)
        m["covercolor.edges_scanned"] = glued.m
        m["covercolor.homologous_pairs"] = len(rep.homologous_pairs)
        expect(len(rep.homologous_pairs) == 5336, "r=6 homologous pair count is not 5336")
    return m, failures, checks
