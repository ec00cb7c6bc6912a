"""The checking kernel: every polynomial-time check a result must pass.

To trust an answer of the solver, this module is what must be read.
It holds instance validation, the matching check, the witness check,
the per-set factor of the strengthened condition, and the reader of
result documents.  `hbmatch verify` (through :func:`check_result`, which
takes a document as written), the solver's final matching check and its
witness extraction all call the checks defined here.  It imports only
the standard library, the data types of :mod:`hbmatch.core` and the
rationals of :mod:`hbmatch.params`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import lt
from typing import Collection, Iterable

from .core import BipartiteHypergraph, PartialMatching, Violation, incident_edges
from .params import parse_epsilon, parse_rational

__all__ = [
    "ParseError",
    "validate_instance",
    "verify_matching",
    "condition_factor",
    "WitnessCertificate",
    "verify_witness",
    "parse_result",
    "check_result",
]


class ParseError(ValueError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"PARSE_ERROR: line {line}: {reason}")


# ----------------------------------------------------------------------
# instances


def validate_instance(h: BipartiteHypergraph) -> Violation | None:
    """Check all structural invariants; return the first violation or None.

    Codes: INSTANCE_TYPE (not a :class:`BipartiteHypergraph` at all),
    COUNT_TYPE (r, nA or nB is not an int; a bool is not one),
    NON_UNIFORM_EDGE, NEGATIVE_VERTEX_COUNT, RAGGED_COLUMNS (`edge_bs`
    and `edge_a` differ in length), INDEX_OUT_OF_RANGE,
    DUPLICATE_B_VERTEX, UNSORTED_B_VERTICES, DUPLICATE_EDGE, VERTEX_TYPE
    (an edge's vertex ids do not compare with ints); the parser
    checks only syntax and leaves every one of these rules to this check,
    which reads the parser's own B-columns.  The incidence index lists
    every edge, so it is not rebuilt.  A violation of an edge carries its
    id.  The result is kept on the immutable instance, so the parser and
    the solver share one check.
    """
    v = _instance_type(h)
    if v is not None:
        return v
    if not h._validated:
        h._violation = _first_violation(h)
        h._validated = True
    return h._violation


def _instance_type(h: object) -> Violation | None:
    """INSTANCE_TYPE for anything that is not a :class:`BipartiteHypergraph`."""
    if isinstance(h, BipartiteHypergraph):
        return None
    return Violation("INSTANCE_TYPE", f"not a BipartiteHypergraph: {type(h).__name__}")


def _first_violation(h: BipartiteHypergraph) -> Violation | None:
    """Whole-column checks, no Python step per edge; only a dirty (or
    empty) instance is walked edge by edge, to name its first violation.
    `edge_bs` must have one tuple per entry of `edge_a`.  The B-columns
    are the ones :meth:`BipartiteHypergraph.from_columns` built `edge_bs`
    from, if it was given r-1 of length m, and are released here; else
    they are cut from `edge_bs`, once every tuple has r-1 vertices.
    Strictly ascending columns make every bs sorted and distinct, so the
    first and last columns bound the range, and a repeated edge repeats
    its bs.  Equal edges hash equal, so m distinct hashes prove m
    distinct edges (zip reuses its pair tuple); a collision costs a walk.
    A vertex id that cannot be compared (such as a str) raises TypeError
    in these checks, which also costs a walk.
    """
    cols, h._b_cols = h._b_cols, None
    r, na, nb = h.r, h.a_count, h.b_count
    if {type(r), type(na), type(nb)} != {int}:
        return Violation("COUNT_TYPE", f"r={r!r}, nA={na!r}, nB={nb!r} must be ints")
    if r < 2:
        return Violation("NON_UNIFORM_EDGE", f"uniformity r={r} must be >= 2")
    if min(na, nb) < 0:
        return Violation("NEGATIVE_VERTEX_COUNT", f"nA={na}, nB={nb} must be >= 0")
    width = r - 1
    edge_a, edge_bs, m = h.edge_a, h.edge_bs, len(h.edge_a)
    if len(edge_bs) != m:
        return Violation("RAGGED_COLUMNS", f"{m} A-vertices but {len(edge_bs)} B-tuples")
    if cols is None or len(cols) != width or set(map(len, cols)) != {m}:
        if set(map(len, edge_bs)) != {width}:
            return _walk_edges(h, width)
        cols = list(zip(*edge_bs))
    try:
        if not m or min(edge_a) < 0 or max(edge_a) >= na:
            return _walk_edges(h, width)
        ascending = all(all(map(lt, u, v)) for u, v in zip(cols, cols[1:]))
        if not ascending or min(cols[0]) < 0 or max(cols[-1]) >= nb:
            return _walk_edges(h, width)
        if len(set(edge_bs)) == m or len(set(map(hash, zip(edge_a, edge_bs)))) == m:
            return None
    except TypeError:
        pass
    return _walk_edges(h, width)


def _walk_edges(h: BipartiteHypergraph, width: int) -> Violation | None:
    """The first violation in edge order, each edge's checks in code order;
    VERTEX_TYPE for an edge whose checks raise TypeError."""
    na, nb = h.a_count, h.b_count
    seen: set[tuple[int, tuple[int, ...]]] = set()
    for eid, key in enumerate(zip(h.edge_a, h.edge_bs)):
        a, bs = key
        if len(bs) != width:
            return Violation(
                "NON_UNIFORM_EDGE",
                f"edge {eid} has {len(bs)} B-vertices, expected {width}",
                eid,
            )
        try:
            if not 0 <= a < na:
                return Violation("INDEX_OUT_OF_RANGE", f"edge {eid}: A-vertex {a}", eid)
            if min(bs) < 0 or max(bs) >= nb:
                b = next(b for b in bs if not 0 <= b < nb)
                return Violation("INDEX_OUT_OF_RANGE", f"edge {eid}: B-vertex {b}", eid)
            for u, v in zip(bs, bs[1:]):  # bs must ascend strictly
                if u == v:
                    return Violation("DUPLICATE_B_VERTEX", f"edge {eid}: B-vertex {u}", eid)
                if u > v:
                    return Violation("UNSORTED_B_VERTICES", f"edge {eid}: B-vertices {bs}", eid)
            if key in seen:
                return Violation("DUPLICATE_EDGE", f"edge {eid} repeats {key}", eid)
        except TypeError:
            return Violation(
                "VERTEX_TYPE", f"edge {eid}: vertex ids {key!r} do not compare with ints", eid
            )
        seen.add(key)
    return None


# ----------------------------------------------------------------------
# matchings


def verify_matching(
    h: BipartiteHypergraph, m: PartialMatching, require_perfect: bool = False
) -> Violation | None:
    """Re-check a live matching from scratch; None when clean.

    Refuses an `h` that is not an instance (INSTANCE_TYPE) and an `m`
    that is not a :class:`PartialMatching` (MATCHING_TYPE), runs
    :func:`_matching_violation` on the edges `m.a_of` names, and reports
    MAP_INCONSISTENT when `a_of` maps a vertex to another vertex's edge
    or `b_of` differs from the members' B-vertices.
    """
    v = _instance_type(h)
    if v is not None:
        return v
    if not isinstance(m, PartialMatching):
        return Violation("MATCHING_TYPE", f"not a PartialMatching: {type(m).__name__}")
    return _matching_violation(h, m.edge_ids, require_perfect, (m.a_of, m.b_of))


def _matching_violation(
    h: BipartiteHypergraph,
    edge_ids: Collection[int],
    require_perfect: bool,
    maps: tuple[dict[int, int], dict[int, int]] | None = None,
) -> Violation | None:
    """MEMBER_TYPE for an id that is not an int, INDEX_OUT_OF_RANGE for
    one that is not an edge of `h`, OVERLAP for the first pair of edges
    sharing a vertex (in id order), MAP_INCONSISTENT when `maps` is given
    and differs from the vertex maps of the edges, and UNMATCHED when
    `require_perfect` and some A-vertex is bare."""
    v = _member_type(edge_ids, "matching")
    if v is not None:
        return v
    ids = sorted(edge_ids)
    if ids and (ids[0] < 0 or ids[-1] >= h.m):
        bad = ids[0] if ids[0] < 0 else ids[-1]
        return Violation("INDEX_OUT_OF_RANGE", f"edge id {bad} in matching")
    a_seen: dict[int, int] = {}
    b_seen: dict[int, int] = {}
    edge_a, edge_bs = h.edge_a, h.edge_bs
    for eid in ids:
        a = edge_a[eid]
        if a in a_seen:
            return Violation("OVERLAP", f"edges {a_seen[a]} and {eid} share A-vertex {a}")
        a_seen[a] = eid
        for b in edge_bs[eid]:
            if b in b_seen:
                return Violation("OVERLAP", f"edges {b_seen[b]} and {eid} share B-vertex {b}")
            b_seen[b] = eid
    if maps is not None and (a_seen, b_seen) != maps:
        return Violation("MAP_INCONSISTENT", "vertex maps do not reflect the edge set")
    if require_perfect:
        for a in range(h.a_count):
            if a not in a_seen:
                return Violation("UNMATCHED", f"A-vertex {a}")
    return None


def _member_type(members: Collection, where: str) -> Violation | None:
    """MEMBER_TYPE for the first member that is not an int; a bool is not one."""
    if {int}.issuperset(map(type, members)):
        return None
    x = next(x for x in members if type(x) is not int)
    return Violation("MEMBER_TYPE", f"{x!r} in {where} is not an int")


# ----------------------------------------------------------------------
# witnesses


def condition_factor(r: int, epsilon: Fraction) -> Fraction:
    """The per-set factor 2r-3+epsilon of the strengthened condition."""
    return Fraction(2 * r - 3) + epsilon


@dataclass(frozen=True)
class WitnessCertificate:
    """A violating set S with an explicit hitting set for its edges.

    `hitting_set` meets every edge incident to `s`, and its size is at
    most `bound` = (2r-3+epsilon)(|s|-1); both facts are checkable in
    polynomial time by :func:`verify_witness`.
    """

    r: int
    s: frozenset[int]
    hitting_set: frozenset[int]
    epsilon: Fraction

    @classmethod
    def build(
        cls, r: int, s: Iterable[int], hitting_set: Iterable[int], epsilon: Fraction
    ) -> "WitnessCertificate":
        return cls(r, frozenset(s), frozenset(hitting_set), epsilon)

    @property
    def bound(self) -> Fraction:
        return condition_factor(self.r, self.epsilon) * (len(self.s) - 1)


def verify_witness(h: BipartiteHypergraph, cert: WitnessCertificate) -> Violation | None:
    """Polynomial-time check of a violation certificate.

    Refuses an `h` that is not an instance (INSTANCE_TYPE), a `cert`
    that is not a :class:`WitnessCertificate` (CERTIFICATE_TYPE) and an
    epsilon that is not an int or a Fraction (EPSILON_TYPE; a bool is
    not one), then confirms that the certificate's r is the instance's
    uniformity as an int, that S and the hitting set hold ints only,
    that the hitting set lies in B and meets every edge incident to S,
    and that its cardinality is at most the bound, in exact rational
    arithmetic.
    """
    v = _instance_type(h)
    if v is not None:
        return v
    if not isinstance(cert, WitnessCertificate):
        return Violation("CERTIFICATE_TYPE", f"not a WitnessCertificate: {type(cert).__name__}")
    if type(cert.epsilon) not in (int, Fraction):
        return Violation("EPSILON_TYPE", f"epsilon {cert.epsilon!r} is not an int or a Fraction")
    if type(cert.r) is not int or cert.r != h.r:
        return Violation("UNIFORMITY_MISMATCH", f"certificate r={cert.r}, instance r={h.r}")
    v = _member_type(cert.s, "S") or _member_type(cert.hitting_set, "hitting set")
    if v is not None:
        return v
    for a in cert.s:
        if not 0 <= a < h.a_count:
            return Violation("INDEX_OUT_OF_RANGE", f"A-vertex {a} in S")
    for b in cert.hitting_set:
        if not 0 <= b < h.b_count:
            return Violation("INDEX_OUT_OF_RANGE", f"B-vertex {b} in hitting set")
    for eid in sorted(incident_edges(h, cert.s)):
        if cert.hitting_set.isdisjoint(h.edge_bs[eid]):
            return Violation("UNHIT_EDGE", f"edge {eid} not hit")
    if len(cert.hitting_set) > cert.bound:
        return Violation(
            "SIZE_EXCEEDS_BOUND",
            f"|hitting_set|={len(cert.hitting_set)} > bound {cert.bound}",
        )
    return None


# ----------------------------------------------------------------------
# result documents


def _id_list(value: str) -> list[int]:
    try:
        return [int(f) for f in value.split()]
    except ValueError:
        raise ValueError(f"non-integer id in {value!r}") from None


# The fields each status gives a meaning to, with their readers.
_TYPED_FIELDS = {
    "perfect_matching": {"matching": _id_list},
    "witness": {
        "S": _id_list,
        "hitting_set": _id_list,
        "epsilon": parse_epsilon,
        "bound": parse_rational,
    },
}


def parse_result(text: str) -> dict:
    """Read a result document: `key: value` lines, each key once.

    Values stay text, except the fields the status gives a meaning to:
    id lists become lists of ints and a witness's `epsilon` and `bound`
    become Fractions.  A malformed field raises :class:`ParseError` at
    its line, as do an unknown status and a witness without epsilon;
    this is the one statement of the document's rules.  A `text` that
    is not a str is a ParseError at line 0 that names its type.
    """
    if not isinstance(text, str):
        raise ParseError(0, f"result document is not text: {type(text).__name__}")
    doc: dict = {}
    lines: dict[str, int] = {}
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
        lines[key] = lineno
    if "status" not in doc:
        raise ParseError(0, "result document missing status")
    fields = _TYPED_FIELDS.get(doc["status"])
    if fields is None:
        raise ParseError(lines["status"], f"unknown status {doc['status']!r}")
    if doc["status"] == "witness" and "epsilon" not in doc:
        raise ParseError(0, "witness document missing epsilon")
    for key, read in fields.items():
        if key in doc:
            try:
                doc[key] = read(doc[key])
            except ValueError as exc:
                raise ParseError(lines[key], str(exc)) from None
    return doc


def check_result(h: BipartiteHypergraph, text: str) -> Violation | None:
    """Check a result document, as written, against its instance.

    The instance must pass :func:`validate_instance`; the text is then
    read by :func:`parse_result`, which raises :class:`ParseError` on a
    malformed document.  A matching must use edges of the instance, be
    vertex-disjoint and cover A.  A witness must pass
    :func:`verify_witness`, and its recorded bound, if any, must be the
    one its S and epsilon give.
    """
    v = validate_instance(h)
    if v is not None:
        return v
    doc = parse_result(text)
    if doc["status"] == "perfect_matching":
        return _matching_violation(h, doc.get("matching", []), require_perfect=True)
    cert = WitnessCertificate.build(
        h.r, doc.get("S", []), doc.get("hitting_set", []), doc["epsilon"]
    )
    if "bound" in doc and doc["bound"] != cert.bound:
        return Violation("BOUND_MISMATCH", "recorded bound differs")
    return verify_witness(h, cert)
