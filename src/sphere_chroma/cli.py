"""Command-line surface: generate graphs, compute and verify colorings.

JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
2 verification failure, 3 chromatic number undecided within budget,
64 bad flags, 74 input could not be read or parsed, 141 when the
output pipe closes early.  Identical invocations produce
byte-identical output; --timing never changes stdout.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
import time

from . import covercolor, farey, graphcore, kneser, spheres

USAGE_EXIT = 64
VERIFY_FAIL_EXIT = 2
UNDECIDED_EXIT = 3
IO_EXIT = 74

FAREY_OPEN_QUESTION = (
    "every computed finite ball is 3-chromatic; the chromatic number of the "
    "infinite Farey graph is not decided here (planarity bounds it by 4)"
)


class _InputError(Exception):
    """Input file missing, unreadable, or not a graph document."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="sphere-chroma", description=__doc__.splitlines()[0])
    p.add_argument("--timing", action="store_true",
                   help="print elapsed wall time to stderr")
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a graph as JSON")
    gsub = gen.add_subparsers(dest="family", required=True)
    g = gsub.add_parser("kneser")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g = gsub.add_parser("total-kneser")
    g.add_argument("--n", type=int, required=True)
    g = gsub.add_parser("sphere")
    g.add_argument("--n", type=int, required=True)
    g = gsub.add_parser("glued")
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--with-cut-spheres", action="store_true")
    g = gsub.add_parser("farey")
    g.add_argument("--depth", type=int, required=True)
    g.add_argument("--fins", action="store_true")

    c = sub.add_parser("chi", help="chromatic number of a graph read from --input or stdin")
    c.add_argument("--input", default=None, metavar="PATH")
    mode = c.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=False)
    mode.add_argument("--bounds", action="store_true")
    c.add_argument("--budget", type=int, default=None, metavar="NODES")

    c = sub.add_parser("color", help="per-cover lift-class color table for the glued model")
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--with-cut-spheres", action="store_true")

    v = sub.add_parser("verify", help="run a built-in check")
    vsub = v.add_subparsers(dest="check", required=True)
    g = vsub.add_parser("lemma2")
    g.add_argument("--n", type=int, required=True)
    vsub.add_parser("petersen")
    g = vsub.add_parser("proper")
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--with-cut-spheres", action="store_true")
    g = vsub.add_parser("farey-parity")
    g.add_argument("--depth", type=int, required=True)

    c = sub.add_parser("count", help="size of the cover-color space")
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--rank-mode", choices=("paper", "computed"), required=True)

    e = sub.add_parser("export", help="emit DOT or DIMACS text for a graph")
    esub = e.add_subparsers(dest="fmt", required=True)
    g = esub.add_parser("dot")
    g.add_argument("--input", default=None, metavar="PATH")
    g = esub.add_parser("dimacs")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--input", default=None, metavar="PATH")
    return p


def _write(text: str) -> None:
    """Write text to stdout in full.

    Unbuffered stdout (python -u, PYTHONUNBUFFERED) hands text to a raw
    file, whose write may stop short when the reader has gone; writing
    the rest then raises BrokenPipeError instead of dropping it silently.
    """
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[raw.write(data):]


def _emit(doc: dict) -> None:
    _write(json.dumps(doc, separators=(",", ":")) + "\n")


def _read_graph(path: str | None) -> graphcore.Graph:
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise _InputError(f"cannot read input: {e}") from None
    try:
        return graphcore.from_json(text)
    except graphcore.SchemaError as e:
        raise _InputError(f"input is not a graph document: {e}") from None


def _cmd_generate(args) -> int:
    if args.family == "kneser":
        g = kneser.kg(args.n, args.k)
    elif args.family == "total-kneser":
        g = kneser.total_kneser(args.n)
    elif args.family == "sphere":
        g = spheres.sphere_graph_holed(args.n)
    elif args.family == "glued":
        g = covercolor.glued_sphere_graph(
            covercolor.CutSystemModel(args.r), args.with_cut_spheres
        )
    else:
        g = farey.farey_ball(args.depth)
        if args.fins:
            g = farey.add_fins(g)
    _write(graphcore.to_json(g) + "\n")
    return 0


def _cmd_chi(args) -> int:
    g = _read_graph(args.input)
    if args.bounds:
        _emit({
            "lower": graphcore.clique_lower_bound(g),
            "upper": graphcore.greedy_dsatur(g).size,
        })
        return 0
    result = graphcore.chromatic_number_exact(g, args.budget)
    if isinstance(result, graphcore.ChiUndecided):
        _emit({"lower": result.lower, "upper": result.upper, "undecided": True})
        return UNDECIDED_EXIT
    _emit({"chi": result.chi})
    return 0


def _cmd_color(args) -> int:
    model = covercolor.CutSystemModel(args.r)
    table = covercolor.color_table(model, args.with_cut_spheres)
    name = functools.cache(lambda bits: covercolor.class_label(bits, model.r))
    colors = {
        label: [[name(b) for b in sorted(entry)] for entry in table.entries(v)]
        for v, label in enumerate(table.labels)
    }
    _emit({
        "r": args.r,
        "with_cut_spheres": args.with_cut_spheres,
        "covers": [c.bitstring for c in table.covers],
        "colors": colors,
    })
    return 0


def _cmd_verify(args) -> int:
    if args.check == "lemma2":
        rep = spheres.verify_lemma_sphere_kneser(args.n)
        doc = {"lemma": "sphere-kneser", "n": args.n, "ok": rep.ok}
        if not rep.ok:
            doc["missing_edges"] = [list(e) for e in rep.missing_edges]
            doc["extra_edges"] = [list(e) for e in rep.extra_edges]
        _emit(doc)
        return 0 if rep.ok else VERIFY_FAIL_EXIT
    if args.check == "petersen":
        rep = spheres.verify_petersen_isomorphism()
        doc = {"check": "petersen", "ok": rep.ok}
        if not rep.ok:
            doc["witness_edge"] = list(rep.witness_edge or ())
            doc["reason"] = rep.reason
        _emit(doc)
        return 0 if rep.ok else VERIFY_FAIL_EXIT
    if args.check == "proper":
        rep = covercolor.verify_coloring_proper(
            covercolor.CutSystemModel(args.r), args.with_cut_spheres
        )
        _emit(rep.to_json_dict())
        return 0 if rep.ok else VERIFY_FAIL_EXIT
    # farey-parity: validate the parity coloring on the finned ball; the
    # ball is its induced subgraph on the same leading labels, so that one
    # check covers every ball edge too.  Exact chi only for small depths.
    depth = args.depth
    finned = farey.add_fins(farey.farey_ball(depth))
    ok = graphcore.validate_coloring(finned, farey.parity_coloring(finned)) is None
    doc = {"check": "farey-parity", "depth": depth, "ok": ok}
    if depth <= 8:
        result = graphcore.chromatic_number_exact(finned)
        doc["chi"] = result.chi
    doc["open_question"] = FAREY_OPEN_QUESTION
    _emit(doc)
    return 0 if ok else VERIFY_FAIL_EXIT


def _cmd_count(args) -> int:
    rep = covercolor.count_colors(args.r, args.rank_mode)
    _emit({
        "t": rep.t,
        "x": rep.x,
        "log2_f": round(rep.log2_f, 3),
        "bound_9r2r": rep.bound_9r2r,
        "ok": rep.ok,
        "m": rep.m,
        "rank_mode": rep.rank_mode,
        "note": rep.note,
    })
    return 0 if rep.ok else VERIFY_FAIL_EXIT


def _cmd_export(args) -> int:
    g = _read_graph(args.input)
    if args.fmt == "dot":
        _write(graphcore.export_dot(g))
    else:
        _write(graphcore.export_dimacs_kcolor(g, args.k))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else USAGE_EXIT
    t0 = time.monotonic()
    try:
        if args.command == "generate":
            code = _cmd_generate(args)
        elif args.command == "chi":
            code = _cmd_chi(args)
        elif args.command == "color":
            code = _cmd_color(args)
        elif args.command == "verify":
            code = _cmd_verify(args)
        elif args.command == "count":
            code = _cmd_count(args)
        else:
            code = _cmd_export(args)
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); die quietly like grep does.
        # stdout's fd must point somewhere writable or the interpreter's final
        # flush raises a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13
    except _InputError as e:
        sys.stderr.write(f"sphere-chroma: {e}\n")
        return IO_EXIT
    except ValueError as e:
        sys.stderr.write(f"sphere-chroma: error: {e}\n")
        return USAGE_EXIT
    if args.timing:
        sys.stderr.write(f"elapsed: {time.monotonic() - t0:.3f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
