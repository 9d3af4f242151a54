"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Golden values were frozen from the exact engine on first computation and
cross-checked against the independent solver route where sizes allow.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import cdcl
from sphere_chroma import cli, spheres
from sphere_chroma.covercolor import (
    CutSystemModel,
    count_colors,
    cover_h2,
    enumerate_double_covers,
    glued_sphere_graph,
    homology_only_violations,
    verify_coloring_proper,
)
from sphere_chroma.farey import add_fins, chi_farey_ball, farey_ball, parity_coloring
from sphere_chroma.graphcore import (
    Coloring,
    Graph,
    chromatic_number_exact,
    complete_graph,
    export_dimacs_kcolor,
    from_json,
    greedy_dsatur,
    to_json,
    validate_coloring,
)
from sphere_chroma.kneser import kg, total_kneser
from sphere_chroma.spheres import (
    reference_coloring_on,
    sphere_graph_holed,
    verify_lemma_sphere_kneser,
    verify_petersen_isomorphism,
)

# frozen on first exact computation (2026-08-22); the engine must keep
# reproducing them
SPHERE_CHI = {5: 3, 6: 5, 7: 7, 8: 9}
TOTAL_KNESER_CHI = {5: 8, 6: 11, 7: 14, 8: 17}


def check(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def run_cli(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def cycle(n):
    return Graph([f"c{i}" for i in range(n)], [(i, (i + 1) % n) for i in range(n)])


def color_symmetry_breaking(n, k):
    """First-appearance canonicalization clauses for the coloring encoding.

    Any proper k-coloring can be relabeled so vertex 0 has color 0 and
    color c first appears after color c-1, so adding these preserves
    satisfiability while collapsing the k! color permutations.
    """
    out = [(1,)]
    for v in range(n):
        for c in range(1, k):
            out.append(tuple([-(v * k + c + 1)] + [u * k + c for u in range(v)]))
    return out


def solver_says_colorable(g, k, breaking=False):
    text = export_dimacs_kcolor(g, k)
    num_vars, clauses = cdcl.parse_dimacs(text)
    if breaking:
        clauses = clauses + color_symmetry_breaking(g.n, k)
    solver = cdcl.Solver(num_vars, clauses)
    if not solver.solve(conflict_cap=3_000_000):
        return False, None
    model = solver.model()
    coloring = Coloring(cdcl.decode_coloring(model, g.n, k))
    assert validate_coloring(g, coloring) is None, "solver model does not decode to a proper coloring"
    return True, coloring


def test_criterion_1_sphere_kneser_lemma():
    ok = all(verify_lemma_sphere_kneser(n).ok for n in range(3, 10))
    code, out, _ = run_cli(["verify", "lemma2", "--n", "5"])
    cli_ok = code == 0 and out == '{"lemma":"sphere-kneser","n":5,"ok":true}\n'
    check(1, ok and cli_ok,
          "sphere graph equals total Kneser minus singleton partitions for n=3..9, "
          "CLI emits the documented verdict line")


def test_criterion_2_petersen_reproduction(monkeypatch):
    g = sphere_graph_holed(5)
    shape_ok = g.n == 10 and g.m == 15 and all(g.degree(v) == 3 for v in range(10))
    iso_ok = verify_petersen_isomorphism().ok
    with monkeypatch.context() as m:
        dropped = Graph(g.labels, g.sorted_edges[1:])
        m.setattr(spheres, "sphere_graph_holed", lambda n: dropped)
        corrupted = verify_petersen_isomorphism()
    corrupt_ok = not corrupted.ok and corrupted.witness_edge is not None
    ref = reference_coloring_on(g)
    ref_ok = validate_coloring(g, ref) is None and ref.size == 3
    chi_ok = chromatic_number_exact(g).chi == 3
    dsatur_ok = greedy_dsatur(g).size == 3
    check(2, shape_ok and iso_ok and corrupt_ok and ref_ok and chi_ok and dsatur_ok,
          "10-vertex 3-regular sphere graph isomorphic to kg(5,2), transcribed "
          "3-coloring validates, exact chi = 3")


def test_criterion_3_kneser_chi_oracle():
    results = []
    for n, k in ((4, 2), (5, 2), (6, 2), (7, 2), (7, 3)):
        g = kg(n, k)
        chi = chromatic_number_exact(g).chi
        closed_form_ok = chi == n - 2 * k + 2
        # plain CNF to a conforming solver, both sides
        sat_model = cdcl.solve_dimacs(export_dimacs_kcolor(g, chi))
        sat_ok = sat_model is not None
        if sat_ok:
            coloring = Coloring(cdcl.decode_coloring(sat_model, g.n, chi))
            sat_ok = validate_coloring(g, coloring) is None
        unsat_ok = cdcl.solve_dimacs(export_dimacs_kcolor(g, chi - 1)) is None
        results.append(closed_form_ok and sat_ok and unsat_ok)
    check(3, all(results),
          "chi(kg(n,k)) = n - 2k + 2 on five instances; DIMACS export SAT at "
          "chi and UNSAT at chi-1 under the bundled CDCL solver")


def test_criterion_4_chi_growth():
    sphere = {n: chromatic_number_exact(sphere_graph_holed(n)).chi for n in range(5, 9)}
    kneser_total = {n: chromatic_number_exact(total_kneser(n)).chi for n in range(5, 9)}
    golden_ok = sphere == SPHERE_CHI and kneser_total == TOTAL_KNESER_CHI
    seq = [sphere[n] for n in range(5, 9)]
    monotone_ok = all(a <= b for a, b in zip(seq, seq[1:]))
    dominated_ok = all(sphere[n] <= kneser_total[n] for n in range(5, 9))
    check(4, golden_ok and monotone_ok and dominated_ok,
          f"exact chi(S) = {seq} nondecreasing for n=5..8, each at most "
          f"chi(KG) = {[kneser_total[n] for n in range(5, 9)]}; no budget fallback needed")


def test_criterion_5_coloring_properness():
    reports = {r: verify_coloring_proper(CutSystemModel(r)) for r in (3, 4, 5)}
    proper_ok = all(rep.ok and not rep.violations for rep in reports.values())
    witness_ok = all(
        rep.homologous_pairs and all(witness for _, _, witness in rep.homologous_pairs)
        for rep in reports.values()
    )
    cuts_ok = verify_coloring_proper(CutSystemModel(3), include_cut_spheres=True).ok
    control = homology_only_violations(CutSystemModel(3))
    control_ok = ("1 3|2 4 5 6", "1 3 5 6|2 4", "g1+g2") in control
    check(5, proper_ok and witness_ok and cuts_ok and control_ok,
          "cover colors proper for r=3,4,5 with a witness cover on every "
          "homologous adjacent pair; homology-only coloring collides on "
          "blocks {1,3} vs {1,3,5,6} (class g1+g2)")


def test_criterion_6_counting():
    bound_ok = all(count_colors(r, "paper").ok for r in range(2, 17))
    rep = count_colors(3, "paper")
    worked_ok = (
        rep.t == 7
        and rep.x == 3_673_600
        and round(rep.log2_f, 3) == 152.661
        and rep.bound_9r2r == 216
    )
    t_ok = all(count_colors(r, "paper").t == 2**r - 1 for r in range(2, 17))
    check(6, bound_ok and worked_ok and t_ok,
          "t = 2^r - 1 and log2|F| <= 9r2^r for r=2..16; r=3 worked values "
          "t=7, x=3673600, log2_f=152.661 <= 216 reproduced to 3 decimals")


def test_criterion_7_cover_homology():
    rank_ok = all(
        cover_h2(CutSystemModel(r), cover).rank == 2 * r - 1
        for r in range(2, 7)
        for cover in enumerate_double_covers(r)
    )
    note = count_colors(3, "paper").note
    surfaced_ok = "4r-2" in note and "2r-1" in note
    check(7, rank_ok and surfaced_ok,
          "rank(H2) = 2r-1 for all 2^r - 1 double covers, r <= 6; the gap to "
          "the declared 4r-2 is surfaced in the count report (informational)")


def test_criterion_8_farey_base_case():
    parity_ok = True
    chi_ok = True
    for depth in range(1, 9):
        finned = add_fins(farey_ball(depth))
        parity_ok &= validate_coloring(finned, parity_coloring(finned)) is None
        chi_ok &= chi_farey_ball(depth, fins=True).chi == 3
    forms_ok = all(
        farey_ball(d).n == 2**d + 1 and farey_ball(d).m == 2 ** (d + 1) - 1
        for d in range(0, 13)
    )
    code, out, _ = run_cli(["verify", "farey-parity", "--depth", "6"])
    flag_ok = code == 0 and "not decided here" in out and '"chi":3' in out
    check(8, parity_ok and chi_ok and forms_ok and flag_ok,
          "parity 3-coloring validates on finned balls, exact chi = 3 for "
          "depths 1..8, closed forms hold to depth 12; infinite-graph chi "
          "reported as an open question, never asserted")


def test_criterion_9_infrastructure():
    generated = [
        complete_graph(3), complete_graph(4), cycle(5), cycle(6),
        kg(4, 2), kg(5, 2), kg(6, 2), kg(7, 2), kg(7, 3),
        sphere_graph_holed(4), sphere_graph_holed(5), sphere_graph_holed(6),
        sphere_graph_holed(7), sphere_graph_holed(8),
        total_kneser(3), total_kneser(4), total_kneser(5), total_kneser(6),
        total_kneser(7), total_kneser(8),
        glued_sphere_graph(CutSystemModel(2)),
        glued_sphere_graph(CutSystemModel(2), True),
        glued_sphere_graph(CutSystemModel(3), True),
        glued_sphere_graph(CutSystemModel(4)),
        farey_ball(4), farey_ball(5), farey_ball(12),
        add_fins(farey_ball(3)), add_fins(farey_ball(8)),
    ]
    round_trip_ok = all(
        from_json(to_json(g)) == g and to_json(from_json(to_json(g))) == to_json(g)
        for g in generated
    )

    # solver agreement on every generated graph small enough to decide;
    # the UNSAT side adds first-appearance symmetry-breaking clauses
    equivalence_ok = True
    small = [g for g in generated if g.n <= 40]
    assert len(small) >= 20
    for g in small:
        chi = chromatic_number_exact(g).chi
        sat, _ = solver_says_colorable(g, chi)
        equivalence_ok &= sat
        if chi >= 2:
            sat_below, _ = solver_says_colorable(g, chi - 1, breaking=True)
            equivalence_ok &= not sat_below

    probes = [
        (["generate", "glued", "--r", "3"], None),
        (["count", "--r", "4", "--rank-mode", "paper"], None),
        (["verify", "farey-parity", "--depth", "6"], None),
        (["color", "--r", "2"], None),
    ]
    _, sphere_doc, _ = run_cli(["generate", "sphere", "--n", "6"])
    probes.append((["chi", "--exact"], sphere_doc))
    repeat_ok = True
    for argv, stdin_text in probes:
        first, second, third = (run_cli(argv, stdin_text) for _ in range(3))
        repeat_ok &= first == second == third

    check(9, round_trip_ok and equivalence_ok and repeat_ok,
          f"JSON round-trip identity on {len(generated)} generated graphs; "
          f"solver/exact-engine agreement on the {len(small)} graphs with at "
          "most 40 vertices; CLI output bit-identical across repeat invocations")
