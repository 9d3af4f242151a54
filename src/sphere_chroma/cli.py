"""Command-line surface: generate graphs, compute and verify colorings.

JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
2 verification failure, 3 chromatic number undecided within budget,
64 bad flags, 71 out of memory, 74 input could not be read or parsed
or stdout is closed or could not be written, 141 when the output pipe
closes early.  With stderr closed the diagnostics are dropped and the
exit code stays.
Identical invocations produce byte-identical output; --timing never
changes stdout.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
import time
from itertools import chain

USAGE_EXIT = 64
VERIFY_FAIL_EXIT = 2
UNDECIDED_EXIT = 3
OS_EXIT = 71
IO_EXIT = 74

FAREY_OPEN_QUESTION = (
    "every computed finite ball is 3-chromatic; the chromatic number of the "
    "infinite Farey graph is not decided here (planarity bounds it by 4)"
)


class _IOFault(Exception):
    """Input missing, unreadable or not a graph document, or stdout closed
    or not writable."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


# the commands and their help, in the order help lists them
_COMMANDS = {
    "generate": "emit a graph as JSON",
    "chi": "chromatic number of a graph read from --input or stdin",
    "color": "per-cover lift-class color table for the glued model",
    "verify": "run a built-in check",
    "count": "size of the cover-color space",
    "export": "emit DOT or DIMACS text for a graph",
}


def _build_parser(command: str | None = None) -> _Parser:
    """The parser of every command of ``_COMMANDS``, whose flags and
    subcommands are added to the named command's parser alone, or to
    every command's when command is None.

    The root's usage, help, choices and errors list every command, so
    they are the same bytes whichever command is filled."""
    p = _Parser(prog="sphere-chroma", description=__doc__.splitlines()[0])
    p.add_argument("--timing", action="store_true",
                   help="print elapsed wall time to stderr")
    sub = p.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, help=text) for name, text in _COMMANDS.items()}
    wanted = _COMMANDS if command is None else (command,)

    if "generate" in wanted:
        gsub = parsers["generate"].add_subparsers(dest="family", required=True)
        g = gsub.add_parser("kneser")
        g.add_argument("--n", type=int, required=True)
        g.add_argument("--k", type=int, required=True)
        g.set_defaults(run=_generate_kneser)
        g = gsub.add_parser("total-kneser")
        g.add_argument("--n", type=int, required=True)
        g.set_defaults(run=_generate_splits, spherelike=False)
        g = gsub.add_parser("sphere")
        g.add_argument("--n", type=int, required=True)
        g.set_defaults(run=_generate_splits, spherelike=True)
        g = gsub.add_parser("glued")
        g.add_argument("--r", type=int, required=True)
        g.add_argument("--with-cut-spheres", action="store_true")
        g.set_defaults(run=_generate_glued)
        g = gsub.add_parser("farey")
        g.add_argument("--depth", type=int, required=True)
        g.add_argument("--fins", action="store_true")
        g.set_defaults(run=_generate_farey)

    if "chi" in wanted:
        c = parsers["chi"]
        c.add_argument("--input", default=None, metavar="PATH")
        mode = c.add_mutually_exclusive_group()
        mode.add_argument("--exact", action="store_true",
                          help="exact search, the default mode; the flag only spells it out")
        mode.add_argument("--bounds", action="store_true")
        c.add_argument("--budget", type=int, default=None, metavar="NODES")
        c.set_defaults(run=_cmd_chi)

    if "color" in wanted:
        c = parsers["color"]
        c.add_argument("--r", type=int, required=True)
        c.add_argument("--with-cut-spheres", action="store_true")
        c.set_defaults(run=_cmd_color)

    if "verify" in wanted:
        vsub = parsers["verify"].add_subparsers(dest="check", required=True)
        g = vsub.add_parser("lemma2")
        g.add_argument("--n", type=int, required=True)
        g.set_defaults(run=_verify_lemma2)
        vsub.add_parser("petersen").set_defaults(run=_verify_petersen)
        g = vsub.add_parser("proper")
        g.add_argument("--r", type=int, required=True)
        g.add_argument("--with-cut-spheres", action="store_true")
        g.set_defaults(run=_verify_proper)
        g = vsub.add_parser("farey-parity")
        g.add_argument("--depth", type=int, required=True)
        g.set_defaults(run=_verify_farey_parity)

    if "count" in wanted:
        c = parsers["count"]
        c.add_argument("--r", type=int, required=True)
        c.add_argument("--rank-mode", choices=("paper", "computed"), required=True)
        c.set_defaults(run=_cmd_count)

    if "export" in wanted:
        esub = parsers["export"].add_subparsers(dest="fmt", required=True)
        g = esub.add_parser("dot")
        g.add_argument("--input", default=None, metavar="PATH")
        g.set_defaults(run=_cmd_export)
        g = esub.add_parser("dimacs")
        g.add_argument("--k", type=int, required=True)
        g.add_argument("--input", default=None, metavar="PATH")
        g.set_defaults(run=_cmd_export)
    return p


def _write(text: str) -> None:
    """Write text to stdout in full, and flush it.

    Unbuffered stdout (python -u, PYTHONUNBUFFERED) hands text to a raw
    file, whose write may stop short when the reader has gone; writing
    the rest then raises BrokenPipeError instead of dropping it silently.
    Buffered stdout is flushed, so that its write errors are raised here
    too and not at exit.  A write error other than a broken pipe (a full
    disk, or text stdout cannot encode) is an _IOFault.
    """
    out = sys.stdout
    if out is None:
        raise _IOFault("cannot write output: stdout is closed")
    try:
        raw = getattr(out, "buffer", None)
        if not isinstance(raw, io.RawIOBase):
            out.write(text)
            out.flush()
            return
        out.flush()
        data = memoryview(text.encode(out.encoding, out.errors))
        while data:
            data = data[raw.write(data):]
    except BrokenPipeError:
        raise
    except UnicodeEncodeError as e:
        # raised before any of text is written
        raise _IOFault(f"cannot write output: {e}") from None
    except OSError as e:
        _drop_stdout()
        raise _IOFault(f"cannot write output: {e}") from None


def _drop_stdout() -> None:
    """Point stdout's file descriptor at the null device, so that the
    interpreter's final flush of what a failed write left buffered does
    not fail a second time."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(doc: dict) -> None:
    _write(json.dumps(doc, separators=(",", ":")) + "\n")


def _read_graph(path: str | None):
    """The Graph of the document in the file at path, or on stdin when
    path is None or "-", read by ``graphcore._from_file``."""
    from . import graphcore
    try:
        if path is None or path == "-":
            if sys.stdin is None:
                raise _IOFault("cannot read input: stdin is closed")
            return graphcore._from_file(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return graphcore._from_file(fh)
    except (OSError, UnicodeDecodeError) as e:
        raise _IOFault(f"cannot read input: {e}") from None
    except graphcore.SchemaError as e:
        raise _IOFault(f"input is not a graph document: {e}") from None


# pieces of about 64 KB: even unbuffered stdout takes few writes
_WRITE_PIECE = 1 << 16


# each handler imports the library modules it runs, and no others: the
# graph builders import graphbase alone, and only the commands that read a
# graph (chi and export) import graphcore, its searches and its reader


def _write_pieces(parts, end="\n") -> int:
    """Write the strings parts, joined into pieces of at least
    ``_WRITE_PIECE`` characters but the last, and then end."""
    piece, size = [], 0
    for part in parts:
        piece.append(part)
        size += len(part)
        if size >= _WRITE_PIECE:
            _write("".join(piece))
            piece, size = [], 0
    _write("".join(piece))
    _write(end)
    return 0


def _write_graph(labels, upper, positions=None) -> int:
    """Write the graph JSON of labels and, per vertex, its higher
    neighbours or its bit row, whose bits are at ``positions``
    (``graphbase._json_pieces``)."""
    from .graphbase import _json_pieces
    return _write_pieces(_json_pieces(labels, upper, positions))


def _generate_kneser(args) -> int:
    from . import kneser
    g = kneser.kg(args.n, args.k)
    return _write_graph(g.labels, g.adj)


def _generate_splits(args) -> int:
    """`generate sphere` when ``args.spherelike``, else `generate total-kneser`."""
    from . import kneser
    return _write_graph(*kneser._split_rows(args.n, args.spherelike))


def _written_model(r: int, low: int, high: int):
    """The glued model, for r in the command's range low..high:
    2..``MAX_R_WRITTEN`` for `color` and `generate glued`, whose output
    size caps r, and 3..``MAX_R_ENUMERATE`` for `verify proper`, which
    leaves r = 2 to the farey module."""
    from . import covercolor
    if not low <= r <= high:
        raise ValueError(f"r must be in {low}..{high}, got {r}")
    return covercolor.CutSystemModel(r)


def _generate_glued(args) -> int:
    from . import covercolor
    return _write_graph(*covercolor._glued_rows(
        _written_model(args.r, 2, covercolor.MAX_R_WRITTEN), args.with_cut_spheres))


def _generate_farey(args) -> int:
    from . import farey
    _, labels, upper = farey.farey_lists(args.depth, args.fins)
    return _write_graph(labels, upper)


def _cmd_chi(args) -> int:
    from . import graphcore
    if args.bounds and args.budget is not None:
        raise ValueError("--budget limits only the exact search; drop it or --bounds")
    # flags are checked before the input is read
    graphcore._check_budget(args.budget)
    g = _read_graph(args.input)
    if args.bounds:
        # DSATUR first: no clique outgrows its coloring, so the clique
        # search stops once it reaches that size
        upper = graphcore.greedy_dsatur(g).size
        _emit({"lower": graphcore._clique_bound(g.adj, upper), "upper": upper})
        return 0
    result = graphcore.chromatic_number_exact(g, args.budget)
    if isinstance(result, graphcore.ChiUndecided):
        _emit({"lower": result.lower, "upper": result.upper, "undecided": True})
        return UNDECIDED_EXIT
    _emit({"chi": result.chi})
    return 0


def _cmd_color(args) -> int:
    from . import covercolor
    model = _written_model(args.r, 2, covercolor.MAX_R_WRITTEN)
    table = covercolor.color_table(model, args.with_cut_spheres)
    encode = json.JSONEncoder(separators=(",", ":")).encode

    @functools.cache
    def entry(field):
        # each distinct cover field is rendered to JSON text once
        return encode([covercolor.class_label(c, model.r) for c in table.classes(field)])

    head = encode({
        "r": args.r,
        "with_cut_spheres": args.with_cut_spheres,
        "covers": [c.bitstring for c in table.covers],
    })
    # the document is json.dumps of head's members then "colors", one
    # vertex's entry at a time, so it is never held whole
    lines = (f'{"," if v else ""}{encode(label)}:[{",".join(map(entry, table.fields(v)))}]'
             for v, label in enumerate(table.labels))
    return _write_pieces(chain([head[:-1] + ',"colors":{'], lines, ["}}"]))


def _verify_lemma2(args) -> int:
    from . import spheres
    rep = spheres.verify_lemma_sphere_kneser(args.n)
    doc = {"lemma": "sphere-kneser", "n": args.n, "ok": rep.ok}
    if not rep.ok:
        doc["missing_edges"] = [list(e) for e in rep.missing_edges]
        doc["extra_edges"] = [list(e) for e in rep.extra_edges]
    _emit(doc)
    return 0 if rep.ok else VERIFY_FAIL_EXIT


def _verify_petersen(args) -> int:
    from . import spheres
    rep = spheres.verify_petersen_isomorphism()
    doc = {"check": "petersen", "ok": rep.ok}
    if not rep.ok:
        doc["witness_edge"] = list(rep.witness_edge or ())
        doc["reason"] = rep.reason
    _emit(doc)
    return 0 if rep.ok else VERIFY_FAIL_EXIT


def _verify_proper(args) -> int:
    from . import covercolor
    rep = covercolor.verify_coloring_proper(
        _written_model(args.r, 3, covercolor.MAX_R_ENUMERATE), args.with_cut_spheres
    )
    # the document is json.dumps of rep.to_json_dict(), written one
    # homologous pair at a time so it is never held whole: the rest comes
    # from the report without its pairs, split where they go (a quote in a
    # string is escaped, so the key's text occurs once), and each pair's
    # strings are quoted as json.dumps quotes them
    rest = json.dumps(rep._replace(homologous_pairs=()).to_json_dict(), separators=(",", ":"))
    head, tail = rest.split('"homologous_pairs":[]')
    quote = json.encoder.encode_basestring_ascii
    pairs = (f'{"," if k else ""}{{"a":{quote(a)},"b":{quote(b)},"witness_phi":{quote(w)}}}'
             for k, (a, b, w) in enumerate(rep.homologous_pairs))
    _write_pieces(chain([head + '"homologous_pairs":['], pairs, ["]" + tail]))
    return 0 if rep.ok else VERIFY_FAIL_EXIT


def _verify_farey_parity(args) -> int:
    from . import farey
    # the parity check on the finned ball's neighbour lists covers every
    # ball edge too; a Graph, for exact chi, only at small depths
    depth = args.depth
    fractions, _, upper = farey.farey_lists(depth, fins=True)
    classes = farey.parity_classes(fractions, upper)
    ok = farey.parity_violation(fractions, upper, classes) is None
    doc = {"check": "farey-parity", "depth": depth, "ok": ok}
    if depth <= 8:
        doc["chi"] = farey.chi_farey_ball(depth, fins=True).chi
    doc["open_question"] = FAREY_OPEN_QUESTION
    _emit(doc)
    return 0 if ok else VERIFY_FAIL_EXIT


def _cmd_count(args) -> int:
    from . import counting
    rep = counting.count_colors(args.r, args.rank_mode)
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
    from . import graphcore
    if args.fmt == "dimacs":
        # flags are checked before the input is read
        graphcore._check_palette(args.k)
    g = _read_graph(args.input)
    try:
        lines = graphcore._dot_lines(g) if args.fmt == "dot" else graphcore._dimacs_lines(g, args.k)
    except ValueError as e:
        # a label that two vertices share (DOT would merge them into one
        # node) or that UTF-8 cannot encode
        raise _IOFault(f"input cannot be written as DOT: {e}") from None
    # the export text ends in its own newline
    return _write_pieces(lines, end="")


def _warn(line: str) -> None:
    """Write line to stderr, or drop it when stderr is closed."""
    try:
        sys.stderr.write(line + "\n")
    except (AttributeError, OSError):
        pass


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the first word that is not an option names the command (no option of
    # the root takes a value), and only its parser is filled; a word that
    # argparse reads as the command before it starts with "-", so it is
    # an invalid choice, and no unfilled command's parser ever parses
    command = next((a for a in argv if not a.startswith("-")), None)
    try:
        args = _build_parser(command if command in _COMMANDS else None).parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else USAGE_EXIT
    t0 = time.monotonic()
    try:
        code = args.run(args)
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); die quietly like grep does
        _drop_stdout()
        return 128 + 13
    except _IOFault as e:
        _warn(f"sphere-chroma: {e}")
        return IO_EXIT
    except ValueError as e:
        _warn(f"sphere-chroma: error: {e}")
        return USAGE_EXIT
    except MemoryError:
        _warn("sphere-chroma: out of memory")
        return OS_EXIT
    if args.timing:
        _warn(f"elapsed: {time.monotonic() - t0:.3f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
