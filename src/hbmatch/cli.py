"""Command-line front end and the text formats it speaks.

Instance format (DIMACS-style, 0-based indices, "c" comment lines
anywhere):

    p hbm <r> <nA> <nB> <m>
    e <a> <b1> ... <b_{r-1}>        (B-vertices ascending, m such lines)

Result documents are line-delimited key:value records in a fixed field
order; trace documents are one event per line.  Exit codes across all
commands: 0 matching/ok, 2 witness/violated, 1 error.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from .core import BipartiteHypergraph, PartialMatching, validate_instance, verify_matching
from .engine import InternalSolverError, SolveResult, find_perfect_matching
from .oracles import (
    InstanceTooLarge,
    WitnessCertificate,
    check_haxell,
    verify_witness,
)
from .instances import MODES, GeneratorSpec, default_private_degree, generate
from .params import parse_rational
from .signature import SignatureVector, check_signature_step

__all__ = [
    "ParseError",
    "parse_instance",
    "serialize_instance",
    "format_result",
    "parse_result",
    "TraceWriter",
    "check_trace_lines",
    "main",
]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WITNESS = 2


class ParseError(ValueError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"PARSE_ERROR: line {line}: {reason}")


# ----------------------------------------------------------------------
# instance format


def parse_instance(text: str) -> BipartiteHypergraph:
    """Parse the instance format; line-numbered errors on malformed input."""
    header: tuple[int, int, int, int] | None = None
    edges: list[tuple[int, tuple[int, ...]]] = []
    seen: set[tuple[int, tuple[int, ...]]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if header is not None:
                raise ParseError(lineno, "duplicate header")
            if len(fields) != 6 or fields[1] != "hbm":
                raise ParseError(lineno, "expected 'p hbm <r> <nA> <nB> <m>'")
            try:
                header = tuple(int(f) for f in fields[2:6])  # type: ignore[assignment]
            except ValueError:
                raise ParseError(lineno, "non-integer header field") from None
            if any(f < 0 for f in header):
                raise ParseError(lineno, "negative header field")
        elif fields[0] == "e":
            if header is None:
                raise ParseError(lineno, "edge before header")
            r = header[0]
            if len(fields) != 1 + r:
                raise ParseError(lineno, f"expected {r} vertex fields for r={r}")
            try:
                nums = [int(f) for f in fields[1:]]
            except ValueError:
                raise ParseError(lineno, "non-integer vertex index") from None
            a, bs = nums[0], tuple(nums[1:])
            if any(u >= v for u, v in zip(bs, bs[1:])):
                raise ParseError(lineno, "B-vertices must be strictly ascending")
            if (a, bs) in seen:
                raise ParseError(lineno, "duplicate edge")
            seen.add((a, bs))
            edges.append((a, bs))
        else:
            raise ParseError(lineno, f"unknown record type {fields[0]!r}")
    if header is None:
        raise ParseError(0, "missing header")
    r, na, nb, m = header
    if len(edges) != m:
        raise ParseError(0, f"header declares m={m} but found {len(edges)} edges")
    h = BipartiteHypergraph(r, na, nb, edges)
    v = validate_instance(h)
    if v is not None:
        raise ParseError(0, str(v))
    return h


def serialize_instance(h: BipartiteHypergraph, comments: Iterable[str] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p hbm {h.r} {h.a_count} {h.b_count} {h.m}")
    for e in h.edges:
        lines.append("e " + " ".join(str(v) for v in (e.a, *e.bs)))
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


def parse_result(text: str) -> dict:
    """Parse a result document into its key: value fields; each key once."""
    doc: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(lineno, "expected 'key: value'")
        key, _, value = line.partition(":")
        key = key.strip()
        if key in doc:
            raise ParseError(lineno, f"duplicate key {key!r}")
        doc[key] = value.strip()
    if "status" not in doc:
        raise ParseError(0, "result document missing status")
    return doc


def _parse_id_list(value: str) -> list[int]:
    return [int(f) for f in value.split()] if value else []


# ----------------------------------------------------------------------
# trace documents


class TraceWriter:
    """Serializes engine events one per line, fields in emission order."""

    def __init__(self, stream: TextIO):
        self.stream = stream

    def __call__(self, event: str, fields: dict) -> None:
        parts = [event] + [f"{k}={v}" for k, v in fields.items()]
        self.stream.write(" ".join(parts) + "\n")


_TRACE_RULE_MESSAGES = {
    "SIGNATURE_SIGN": "sign pattern broken at position {pos}",
    "SIGNATURE_NOT_MONOTONE": "|coords| not non-decreasing",
    "SIGNATURE_NOT_DECREASING": "signature did not decrease",
}


def check_trace_lines(lines: Iterable[str]) -> str | None:
    """Independent check of a trace: per augmenting run, the signature
    vectors must strictly decrease lexicographically, carry the fixed
    sign pattern with coordinates non-decreasing in absolute value, and
    report zero unresolved floor boundaries.  Returns an error message
    or None."""
    prev: SignatureVector | None = None
    in_run = False
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields:
            continue
        event = fields[0]
        kv = dict(f.split("=", 1) for f in fields[1:] if "=" in f)
        if event == "augment_start":
            prev = None
            in_run = True
        elif event == "signature" and in_run:
            coords = tuple(int(c) for c in kv.get("coords", "").split(",") if c)
            sig = SignatureVector(coords)
            if int(kv.get("unresolved", "0")) != 0:
                return f"line {lineno}: unresolved floor boundary"
            broken = check_signature_step(sig, prev)
            if broken is not None:
                code, pos = broken
                return f"line {lineno}: " + _TRACE_RULE_MESSAGES[code].format(pos=pos)
            prev = sig
        elif event == "augment_end":
            in_run = False
    return None


# ----------------------------------------------------------------------
# commands


def _read_instance(path: str) -> BipartiteHypergraph:
    return parse_instance(Path(path).read_text())


def cmd_solve(args: argparse.Namespace) -> int:
    h = _read_instance(args.input)
    epsilon = parse_rational(args.epsilon)
    trace_stream = open(args.trace, "w") if args.trace else None
    try:
        result = find_perfect_matching(
            h,
            epsilon,
            mu_override=parse_rational(args.mu_override) if args.mu_override else None,
            u_override=args.u_override,
            max_iterations=args.max_iters,
            trace=TraceWriter(trace_stream) if trace_stream else None,
            debug_invariants=args.debug_invariants,
        )
    finally:
        if trace_stream:
            trace_stream.close()
    doc = format_result(result, epsilon)
    if args.output:
        Path(args.output).write_text(doc)
    else:
        sys.stdout.write(doc)
    return EXIT_OK if result.matching is not None else EXIT_WITNESS


def cmd_verify(args: argparse.Namespace) -> int:
    h = _read_instance(args.instance)
    doc = parse_result(Path(args.result).read_text())
    status = doc["status"]
    if status == "perfect_matching":
        ids = _parse_id_list(doc.get("matching", ""))
        if any(not 0 <= i < h.m for i in ids):
            print("INDEX_OUT_OF_RANGE: matching edge id", file=sys.stderr)
            return EXIT_ERROR
        m = PartialMatching()
        try:
            for eid in ids:
                m.add(h, eid)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_ERROR
        v = verify_matching(h, m, require_perfect=True)
        if v is not None:
            print(str(v), file=sys.stderr)
            return EXIT_ERROR
    elif status == "witness":
        if "epsilon" not in doc:
            raise ParseError(0, "witness document missing epsilon")
        epsilon = parse_rational(doc["epsilon"])
        cert = WitnessCertificate.build(
            h.r,
            _parse_id_list(doc.get("S", "")),
            _parse_id_list(doc.get("hitting_set", "")),
            epsilon,
        )
        if "bound" in doc and parse_rational(doc["bound"]) != cert.bound:
            print("BOUND_MISMATCH: recorded bound differs", file=sys.stderr)
            return EXIT_ERROR
        v = verify_witness(h, cert)
        if v is not None:
            print(str(v), file=sys.stderr)
            return EXIT_ERROR
    else:
        print(f"unknown status {status!r}", file=sys.stderr)
        return EXIT_ERROR
    print("ok")
    return EXIT_OK


def cmd_check_haxell(args: argparse.Namespace) -> int:
    h = _read_instance(args.input)
    epsilon = parse_rational(args.epsilon)
    mode = "classic" if args.classic else "strengthened"
    res = check_haxell(h, epsilon, mode=mode, max_a=args.max_a)
    if res.satisfied:
        print("SATISFIED")
        return EXIT_OK
    print(
        "VIOLATED S="
        + ",".join(str(a) for a in res.violator)  # type: ignore[union-attr]
        + f" tau={res.tau} bound={res.bound}"
    )
    return EXIT_WITNESS


def cmd_gen(args: argparse.Namespace) -> int:
    d = args.d
    if d is None and args.mode == "guaranteed":
        d = default_private_degree(args.r, parse_rational(args.epsilon))
    spec = GeneratorSpec(
        mode=args.mode,
        r=args.r,
        a_count=args.na,
        b_count=args.nb,
        extra_edges=args.extra_edges,
        d=d,
        seed=args.seed,
    )
    h = generate(spec, parse_rational(args.epsilon))
    text = serialize_instance(h, comments=[f"generator: {spec.describe()}"])
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_check_trace(args: argparse.Namespace) -> int:
    err = check_trace_lines(Path(args.trace).read_text().splitlines())
    if err is not None:
        print(err, file=sys.stderr)
        return EXIT_ERROR
    print("ok")
    return EXIT_OK


def _parse_seed_range(text: str) -> list[int]:
    if ":" in text:
        lo, _, hi = text.partition(":")
        return list(range(int(lo), int(hi)))
    return [int(f) for f in text.split(",")]


def _parse_spec_line(lineno: int, line: str) -> GeneratorSpec:
    fields = line.split()
    for f in fields:
        if "=" not in f:
            raise ParseError(lineno, f"expected key=value, got {f!r}")
    kv = dict(f.split("=", 1) for f in fields)
    for key in ("mode", "na", "nb"):
        if key not in kv:
            raise ParseError(lineno, f"spec line lacks {key}=")
    return GeneratorSpec(
        mode=kv["mode"],
        r=int(kv.get("r", 3)),
        a_count=int(kv["na"]),
        b_count=int(kv["nb"]),
        extra_edges=int(kv.get("extra_edges", 0)),
        d=int(kv["d"]) if "d" in kv else None,
        seed=0,
    )


def cmd_bench(args: argparse.Namespace) -> int:
    """Solve a seeded batch; one stats row per (spec, seed), ordered."""
    epsilon = parse_rational(args.epsilon)
    specs = [
        _parse_spec_line(lineno, line)
        for lineno, line in enumerate(Path(args.spec_file).read_text().splitlines(), start=1)
        if line.strip() and not line.startswith("#")
    ]
    seeds = _parse_seed_range(args.seeds)
    for spec_idx, base in enumerate(specs):
        for seed in seeds:
            spec = GeneratorSpec(
                mode=base.mode,
                r=base.r,
                a_count=base.a_count,
                b_count=base.b_count,
                extra_edges=base.extra_edges,
                d=base.d,
                seed=seed,
            )
            h = generate(spec, epsilon)
            start = time.perf_counter()
            result = find_perfect_matching(h, epsilon)
            millis = (time.perf_counter() - start) * 1000.0
            status = "matching" if result.matching is not None else "witness"
            s = result.stats
            print(
                f"spec={spec_idx} seed={seed} status={status} "
                f"iterations={s.iterations} layers={s.max_layers} "
                f"swaps={s.swaps} build_ops={s.build_ops} millis={millis:.2f}"
            )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--mu-override", default=None, help="rational override for mu")
    p.add_argument("--u-override", type=int, default=None)
    p.add_argument("--debug-invariants", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a result document against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--result", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check-haxell", help="exhaustive condition check (desk scale)")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--classic", action="store_true", help="factor 2r-3 instead of 2r-3+eps")
    p.add_argument("--max-a", type=int, default=20)
    p.set_defaults(func=cmd_check_haxell)

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--na", type=int, required=True)
    p.add_argument("--nb", type=int, required=True)
    p.add_argument("--extra-edges", type=int, default=0)
    p.add_argument("--d", type=int, default=None, help="private degree (guaranteed mode)")
    p.add_argument("--epsilon", default="1", help="sets the default private degree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check-trace", help="validate signature decrease in a trace")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_check_trace)

    p = sub.add_parser("bench", help="solve a seeded batch and print stats rows")
    p.add_argument("--spec-file", required=True)
    p.add_argument("--seeds", required=True, help="range lo:hi or comma list")
    p.add_argument("--epsilon", default="1")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, InstanceTooLarge, InternalSolverError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
