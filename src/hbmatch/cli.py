"""Command-line front end and the text formats it speaks.

Instance format (DIMACS-style, 0-based indices, "c" comment lines
anywhere):

    p hbm <r> <nA> <nB> <m>
    e <a> <b1> ... <b_{r-1}>        (B-vertices ascending, m such lines)

Result documents are line-delimited key:value records in a fixed field
order, read back and checked by :mod:`hbmatch.certify`; trace documents
are one event per line.  Exit codes across all
commands: 0 matching/ok, 2 witness/violated, 1 error.

:func:`main` runs one command with the cyclic garbage collector paused:
no command makes reference cycles, so reference counts free all it
drops.  The parser hands its columns to the instance, and the kernel
checks those columns as they are.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, NoReturn, Sequence, TextIO

# parse_result is read as hbmatch.cli.parse_result by perfbench/run.py
from .certify import ParseError, check_result, parse_result, validate_instance
from .core import BipartiteHypergraph
from .engine import InternalSolverError, SolveResult, find_perfect_matching
from .instances import MODES, GeneratorSpec, default_private_degree, generate
from .oracles import check_haxell
from .params import parse_epsilon
from .signature import check_signature_step

__all__ = [
    "parse_instance",
    "serialize_instance",
    "format_result",
    "TraceWriter",
    "check_trace_lines",
    "main",
]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WITNESS = 2


# ----------------------------------------------------------------------
# instance format


_BLOCK = 4096  # edge lines converted at a time, which bounds the fields held


def parse_instance(text: str) -> BipartiteHypergraph:
    """Parse the instance format; line-numbered errors on malformed input.

    The parser checks the syntax: record types, the header (with r >= 2),
    the field count of each edge line and integer fields.  Each run of
    lines that start `e ` is converted a block at a time, column by
    column, into the A-column `edge_a` and r-1 B-columns; every other
    line is read on its own.  Lines are taken in file order, so the
    first syntax error in the file is raised.  The columns are handed to
    :meth:`BipartiteHypergraph.from_columns`, which builds `edge_bs` from
    them.  Every structural rule (ranges, B-vertex order, repeated edges)
    is checked once, by :func:`validate_instance` on those same columns,
    and its violation is reported at the line of the offending edge.
    """
    lines = text.splitlines()
    header: tuple[int, ...] | None = None
    width = -1  # fields of an edge line, "e" plus r vertices; set by the header
    edges_to_end = False  # every line after the header starts "e "
    edge_a: list[int] = []
    b_cols: list[list[int]] = []  # r-1 columns once the header is read
    i = 0
    while i < len(lines):
        line = lines[i]
        if width > 0 and line.startswith("e "):
            stop = len(lines) if edges_to_end else i + 1
            while stop < len(lines) and lines[stop].startswith("e "):
                stop += 1
            for lo in range(i, stop, _BLOCK):
                _take_edges(lines[lo : min(lo + _BLOCK, stop)], lo + 1, width, edge_a, b_cols)
            i = stop
            continue
        i += 1  # now the number of `line`, from 1
        fields = line.split()
        if not fields or fields[0].startswith("c"):
            continue
        tag = fields[0]
        if tag == "e":
            if header is None:
                raise ParseError(i, "edge before header")
            _take_edges([line], i, width, edge_a, b_cols)
            continue
        if tag != "p":
            raise ParseError(i, f"unknown record type {tag!r}")
        if header is not None:
            raise ParseError(i, "duplicate header")
        if len(fields) != 6 or fields[1] != "hbm":
            raise ParseError(i, "expected 'p hbm <r> <nA> <nB> <m>'")
        try:
            header = tuple(map(int, fields[2:]))
        except ValueError:
            raise ParseError(i, "non-integer header field") from None
        if min(header) < 0:
            raise ParseError(i, "negative header field")
        if header[0] < 2:
            raise ParseError(i, f"uniformity r={header[0]} must be >= 2")
        width = 1 + header[0]
        b_cols = [[] for _ in range(header[0] - 1)]
        # Each newline-"e " match starts a distinct line, and no line up to
        # here starts "e ", so one count shows that all later lines do.
        edges_to_end = text.count("\ne ") == len(lines) - i
    del lines  # not held through validation
    if header is None:
        raise ParseError(0, "missing header")
    r, na, nb, m = header
    if len(edge_a) != m:
        raise ParseError(0, f"header declares m={m} but found {len(edge_a)} edges")
    h = BipartiteHypergraph.from_columns(r, na, nb, edge_a, b_cols)
    del b_cols  # the instance holds them until validation, and no longer
    v = validate_instance(h)
    if v is not None:
        raise ParseError(0 if v.edge is None else _edge_line(text, v.edge), str(v))
    return h


def _take_edges(
    block: list[str], lineno: int, width: int, edge_a: list[int], b_cols: list[list[int]]
) -> None:
    """Append a block of edge lines, the first at `lineno`, to the columns.

    The block is joined and split once.  Each of its n lines starts with
    an "e" field and every other field must pass int(), so when there are
    width*n fields with an "e" at each multiple of `width`, and every
    other column converts, the "e" fields are the line starts and each
    line holds `width` fields.  Any other block is walked to its first
    bad line: a wrong field count, else a non-integer field.
    """
    n = len(block)
    fields = " ".join(block).split()
    if len(fields) == width * n and fields[::width].count("e") == n:
        try:
            a_col, *new_cols = [list(map(int, fields[k::width])) for k in range(1, width)]
        except ValueError:
            pass
        else:
            edge_a += a_col
            for col, new in zip(b_cols, new_cols):
                col += new
            return
    for lineno, line in enumerate(block, start=lineno):
        fields = line.split()
        if len(fields) != width:
            raise ParseError(lineno, f"expected {width - 1} vertex fields for r={width - 1}")
        try:
            list(map(int, fields[1:]))
        except ValueError:
            break
    raise ParseError(lineno, "non-integer vertex index")


def _edge_line(text: str, k: int) -> int:
    """The line number of the k-th edge line (from 0) of `text`."""
    numbered = enumerate(map(str.split, text.splitlines()), start=1)
    return [lineno for lineno, fields in numbered if fields[:1] == ["e"]][k]


def serialize_instance(h: BipartiteHypergraph, comments: Iterable[str] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p hbm {h.r} {h.a_count} {h.b_count} {h.m}")
    for a, bs in zip(h.edge_a, h.edge_bs):
        lines.append(f"e {a} " + " ".join(map(str, bs)))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# result documents


def format_result(result: SolveResult, epsilon: Fraction) -> str:
    lines = [f"status: {result.status}", f"epsilon: {epsilon}"]
    if result.matching is not None:
        ids = " ".join(str(i) for i in sorted(result.matching.edge_ids))
        lines.append(f"matching: {ids}".rstrip())
    else:
        assert result.witness is not None
        w = result.witness
        lines.append("S: " + " ".join(str(a) for a in sorted(w.s)))
        lines.append(
            ("hitting_set: " + " ".join(str(b) for b in sorted(w.hitting_set))).rstrip()
        )
        lines.append(f"bound: {w.bound}")
    s = result.stats
    lines.append(
        f"stats: iterations={s.iterations} max_layers={s.max_layers} "
        f"swaps={s.swaps} build_ops={s.build_ops}"
    )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# trace documents


class TraceWriter:
    """Writes each augmenting run's event lines, handed over as one
    string, to the trace document, each line ended by a newline."""

    def __init__(self, stream: TextIO):
        self.stream = stream

    def __call__(self, chunk: str) -> None:
        self.stream.write(chunk + "\n")


def check_trace_lines(lines: Iterable[str]) -> str | None:
    """Independent check of a trace: every augment_start is closed by an
    augment_end before the next run starts or the trace ends; per run,
    the signature vectors must strictly decrease lexicographically,
    carry the fixed sign pattern with coordinates non-decreasing in
    absolute value, and report zero unresolved floor boundaries; every
    signature line lies in a run and carries both fields.  An item may
    hold several lines joined by newlines, as a trace sink receives a
    run; lines are numbered across items.  Returns an error message or
    None."""
    prev: tuple[int, ...] | None = None
    opened = 0  # line of the open run's augment_start; 0 outside a run
    split = (line for item in lines for line in item.split("\n"))
    for lineno, raw in enumerate(split, start=1):
        fields = raw.split()
        if not fields:
            continue
        event = fields[0]
        kv = dict(f.split("=", 1) for f in fields[1:] if "=" in f)
        if event == "augment_start":
            if opened:
                return f"line {lineno}: augment_start inside the run opened at line {opened}"
            prev = None
            opened = lineno
        elif event == "signature":
            if not opened:
                return f"line {lineno}: signature outside an augmenting run"
            if "coords" not in kv or "unresolved" not in kv:
                return f"line {lineno}: signature without coords or unresolved field"
            try:
                coords = tuple(int(c) for c in kv["coords"].split(",") if c)
                unresolved = int(kv["unresolved"])
            except ValueError:
                return f"line {lineno}: non-integer coords or unresolved field"
            if unresolved != 0:
                return f"line {lineno}: unresolved floor boundary"
            v = check_signature_step(coords, prev)
            if v is not None:
                return f"line {lineno}: {v.detail}"
            prev = coords
        elif event == "augment_end":
            if not opened:
                return f"line {lineno}: augment_end outside an augmenting run"
            opened = 0
    if opened:
        return f"line {opened}: augment_start never closed by an augment_end"
    return None


# ----------------------------------------------------------------------
# commands


def _read_text(path: str) -> str:
    """A file's text; bytes that are not UTF-8 are a ParseError at their line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1, "not valid UTF-8") from None


def cmd_solve(args: argparse.Namespace) -> int:
    h = parse_instance(_read_text(args.input))
    epsilon = parse_epsilon(args.epsilon)
    trace_stream = open(args.trace, "w") if args.trace else None
    try:
        with trace_stream or contextlib.nullcontext():
            result = find_perfect_matching(
                h,
                epsilon,
                trace=TraceWriter(trace_stream) if trace_stream else None,
            )
        doc = format_result(result, epsilon)
        if args.output:
            Path(args.output).write_text(doc)
        else:
            sys.stdout.write(doc)
    except BaseException:  # a failed solve or result write leaves no trace document
        path = Path(args.trace) if args.trace else None
        if path and path.is_file() and not path.is_symlink():  # links and devices stay
            path.unlink()
        raise
    return EXIT_OK if result.matching is not None else EXIT_WITNESS


def cmd_verify(args: argparse.Namespace) -> int:
    h = parse_instance(_read_text(args.instance))
    v = check_result(h, _read_text(args.result))
    if v is not None:
        print(str(v), file=sys.stderr)
        return EXIT_ERROR
    print("ok")
    return EXIT_OK


def cmd_check_haxell(args: argparse.Namespace) -> int:
    h = parse_instance(_read_text(args.input))
    res = check_haxell(h, args.epsilon)
    if res.satisfied:
        print("SATISFIED")
        return EXIT_OK
    print(
        "VIOLATED S="
        + ",".join(str(a) for a in res.violator)  # type: ignore[union-attr]
        + f" tau={res.tau} bound={res.bound} hitting="
        + ",".join(str(b) for b in res.hitting_set)  # type: ignore[union-attr]
    )
    return EXIT_WITNESS


def cmd_gen(args: argparse.Namespace) -> int:
    epsilon = parse_epsilon(args.epsilon)
    d = args.d
    if d is None and args.mode == "guaranteed":
        d = default_private_degree(args.r, epsilon)
    spec = GeneratorSpec(
        mode=args.mode,
        r=args.r,
        a_count=args.na,
        b_count=args.nb,
        extra_edges=args.extra_edges,
        d=d,
        seed=args.seed,
    )
    h = generate(spec, epsilon)
    text = serialize_instance(h, comments=[f"generator: {spec.describe()}"])
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_check_trace(args: argparse.Namespace) -> int:
    try:
        err = check_trace_lines(_read_text(args.trace).splitlines())
    except ParseError as exc:  # reported like the checker's own line errors
        err = f"line {exc.line}: {exc.reason}"
    if err is not None:
        print(err, file=sys.stderr)
        return EXIT_ERROR
    print("ok")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse, but a usage error exits 1: exit 2 means a witness."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hbmatch",
        description="Perfect matchings in r-uniform bipartite hypergraphs, "
        "with violation certificates when the strengthened condition fails.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="find a perfect matching or a witness")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", required=True, help="rational, e.g. 1/2 or 0.25")
    p.add_argument("--output", help="result document path (default stdout)")
    p.add_argument("--trace", help="write trace events to this file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a result document against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--result", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check-haxell", help="exhaustive condition check (desk scale)")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", required=True, help="rational >= 0; 0 is the classic condition")
    p.set_defaults(func=cmd_check_haxell)

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--na", type=int, required=True)
    p.add_argument("--nb", type=int, required=True)
    p.add_argument("--extra-edges", type=int, default=0)
    p.add_argument(
        "--d", type=int, default=None,
        help="private degree (guaranteed mode); the condition holds only for d >= ceil(2r-2+eps)",
    )
    p.add_argument("--epsilon", default="1", help="sets the default private degree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check-trace", help="validate signature decrease in a trace")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_check_trace)

    return parser


_PARSER = build_parser()


def _join_negative_epsilon(argv: Sequence[str]) -> list[str]:
    """`argv` with each `--epsilon <value>` whose value looks like a
    negative number joined into `--epsilon=<value>`.  argparse reads a
    separate `-1/2` as an option, and would refuse it as a usage error
    before the epsilon rules could."""
    joined: list[str] = []
    for arg in argv:
        negative = len(arg) > 1 and arg[0] == "-" and arg[1] in "0123456789."
        if negative and joined and joined[-1] == "--epsilon":
            joined[-1] = f"--epsilon={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; its exit code.  The cyclic collector is paused
    while the command runs and its prior state restored after: a command
    makes no reference cycles, so its passes would free nothing."""
    args = _PARSER.parse_args(_join_negative_epsilon(sys.argv[1:] if argv is None else argv))
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (OSError, ValueError, InternalSolverError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
