"""Instance model for r-uniform bipartite hypergraphs.

Vertices are integers: A = {0..a_count-1} and B = {0..b_count-1} are
separate index spaces.  Every edge has exactly one A-vertex and r-1
distinct B-vertices.  Edge ids are positions in the edge list; index
order on vertices and edge-list order on edges are the canonical total
orders used for every tie-break in the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Edge",
    "BipartiteHypergraph",
    "PartialMatching",
    "Violation",
    "InstanceError",
    "MatchingError",
    "validate_instance",
    "incident_edges",
    "blocking_edges",
    "is_immediately_addable",
    "swap",
    "verify_matching",
]


@dataclass(frozen=True)
class Edge:
    """One hyperedge: A-vertex `a` plus the sorted tuple `bs` of B-vertices."""

    id: int
    a: int
    bs: tuple[int, ...]


@dataclass(frozen=True)
class Violation:
    """First failed structural check: machine-readable code plus detail."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


class InstanceError(ValueError):
    """An instance breaks a structural invariant; `code` is the Violation code."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


class MatchingError(ValueError):
    """A matching operation was called outside its preconditions."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


class BipartiteHypergraph:
    """An r-uniform bipartite hypergraph with its A-side incidence index.

    The structure is immutable after construction.  `a_edges[a]` lists
    the ids of the edges at A-vertex `a` in edge-id order; no B-side
    index is kept.  Construction accepts arbitrary (a, bs) pairs so that
    malformed input can be inspected by :func:`validate_instance`;
    B-vertex lists are stored sorted, and an edge whose A-vertex is out
    of range is left out of the index.
    """

    __slots__ = (
        "r", "a_count", "b_count", "edges", "a_edges", "_b_sets", "_validated", "_violation"
    )

    def __init__(
        self,
        r: int,
        a_count: int,
        b_count: int,
        edges: Iterable[tuple[int, Sequence[int]]] = (),
    ):
        self.r = r
        self.a_count = a_count
        self.b_count = b_count
        self.edges: list[Edge] = []
        self.a_edges: list[list[int]] = [[] for _ in range(a_count)]
        self._b_sets: tuple[frozenset[int], ...] | None = None
        self._validated = False
        self._violation: Violation | None = None
        for a, bs in edges:
            e = Edge(len(self.edges), a, tuple(sorted(bs)))
            self.edges.append(e)
            if 0 <= a < a_count:
                self.a_edges[a].append(e.id)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def b_sets(self) -> tuple[frozenset[int], ...]:
        """Per-edge B-vertex frozensets, built once (hot in the oracles)."""
        if self._b_sets is None:
            self._b_sets = tuple(frozenset(e.bs) for e in self.edges)
        return self._b_sets

    def edge(self, edge_id: int) -> Edge:
        return self.edges[edge_id]

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def __repr__(self) -> str:
        return (
            f"BipartiteHypergraph(r={self.r}, a_count={self.a_count}, "
            f"b_count={self.b_count}, m={self.m})"
        )


def validate_instance(h: BipartiteHypergraph) -> Violation | None:
    """Check all structural invariants; return the first violation or None.

    Codes: NON_UNIFORM_EDGE, INDEX_OUT_OF_RANGE, DUPLICATE_B_VERTEX,
    DUPLICATE_EDGE.  The incidence index is not rebuilt: it is derived
    from the immutable edge list at construction, so once every A-vertex
    is in range it lists every edge.  The result is kept on the
    immutable instance, so the parser and the solver share one check.
    """
    if not h._validated:
        h._violation = _first_violation(h)
        h._validated = True
    return h._violation


def _first_violation(h: BipartiteHypergraph) -> Violation | None:
    if h.r < 2:
        return Violation("NON_UNIFORM_EDGE", f"uniformity r={h.r} must be >= 2")
    seen: set[tuple[int, tuple[int, ...]]] = set()
    for e in h.edges:
        if len(e.bs) != h.r - 1:
            return Violation(
                "NON_UNIFORM_EDGE",
                f"edge {e.id} has {len(e.bs)} B-vertices, expected {h.r - 1}",
            )
        if not 0 <= e.a < h.a_count:
            return Violation("INDEX_OUT_OF_RANGE", f"edge {e.id}: A-vertex {e.a}")
        for b in e.bs:
            if not 0 <= b < h.b_count:
                return Violation("INDEX_OUT_OF_RANGE", f"edge {e.id}: B-vertex {b}")
        for u, v in zip(e.bs, e.bs[1:]):
            if u == v:
                return Violation("DUPLICATE_B_VERTEX", f"edge {e.id}: B-vertex {u}")
        key = (e.a, e.bs)
        if key in seen:
            return Violation("DUPLICATE_EDGE", f"edge {e.id} repeats {key}")
        seen.add(key)
    return None


def incident_edges(h: BipartiteHypergraph, s: Iterable[int]) -> set[int]:
    """All edge ids whose A-vertex lies in `s`.

    Every edge meets A in exactly one vertex, so this is the full set of
    edges incident to `s` on the A side.
    """
    out: set[int] = set()
    for a in s:
        out.update(h.a_edges[a])
    return out


class PartialMatching:
    """A mutable set of pairwise vertex-disjoint edges.

    `a_of` / `b_of` map each covered vertex to the id of the member edge
    covering it; they are maintained incrementally so blocking queries
    run in O(r).
    """

    __slots__ = ("edge_ids", "a_of", "b_of")

    def __init__(self) -> None:
        self.edge_ids: set[int] = set()
        self.a_of: dict[int, int] = {}
        self.b_of: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.edge_ids)

    def __contains__(self, edge_id: int) -> bool:
        return edge_id in self.edge_ids

    def matches_a(self, a: int) -> bool:
        return a in self.a_of

    def matched_a_vertices(self) -> set[int]:
        return set(self.a_of)

    def add(self, h: BipartiteHypergraph, edge_id: int) -> None:
        e = h.edges[edge_id]
        if edge_id in self.edge_ids:
            raise MatchingError("OVERLAP", f"edge {edge_id} already in matching")
        if e.a in self.a_of:
            raise MatchingError(
                "OVERLAP", f"A-vertex {e.a} already matched by edge {self.a_of[e.a]}"
            )
        for b in e.bs:
            if b in self.b_of:
                raise MatchingError(
                    "OVERLAP", f"B-vertex {b} already used by edge {self.b_of[b]}"
                )
        self.edge_ids.add(edge_id)
        self.a_of[e.a] = edge_id
        for b in e.bs:
            self.b_of[b] = edge_id

    def remove(self, h: BipartiteHypergraph, edge_id: int) -> None:
        if edge_id not in self.edge_ids:
            raise MatchingError("NOT_IN_MATCHING", f"edge {edge_id}")
        e = h.edges[edge_id]
        self.edge_ids.discard(edge_id)
        del self.a_of[e.a]
        for b in e.bs:
            del self.b_of[b]

    def copy(self) -> "PartialMatching":
        out = PartialMatching()
        out.edge_ids = set(self.edge_ids)
        out.a_of = dict(self.a_of)
        out.b_of = dict(self.b_of)
        return out


def blocking_edges(h: BipartiteHypergraph, m: PartialMatching, e: Edge | int) -> set[int]:
    """Matching edges sharing a B-vertex with `e`.

    An edge of M that meets `e` only in its A-vertex does not block it.
    The result has at most r-1 members since each B-vertex of `e` lies
    in at most one matching edge.
    """
    if isinstance(e, int):
        e = h.edges[e]
    return {m.b_of[b] for b in e.bs if b in m.b_of}


def is_immediately_addable(h: BipartiteHypergraph, m: PartialMatching, e: Edge | int) -> bool:
    """True iff `e` has no blocking edges under `m`."""
    if isinstance(e, int):
        e = h.edges[e]
    return m.b_of.keys().isdisjoint(e.bs)


def swap(h: BipartiteHypergraph, m: PartialMatching, f_out: int, e_in: int) -> PartialMatching:
    """Replace `f_out` by the immediately addable `e_in` for the same A-vertex.

    Mutates `m` in place and returns it.  The set of matched A-vertices
    is unchanged.
    """
    if f_out not in m.edge_ids:
        raise MatchingError("NOT_IN_MATCHING", f"edge {f_out}")
    if h.edges[f_out].a != h.edges[e_in].a:
        raise MatchingError(
            "A_VERTEX_MISMATCH",
            f"edge {f_out} matches {h.edges[f_out].a}, edge {e_in} is for {h.edges[e_in].a}",
        )
    blockers = blocking_edges(h, m, e_in)
    if blockers:
        raise MatchingError(
            "NOT_ADDABLE", f"edge {e_in} blocked by {sorted(blockers)}"
        )
    m.remove(h, f_out)
    m.add(h, e_in)
    return m


def verify_matching(
    h: BipartiteHypergraph, m: PartialMatching, require_perfect: bool = False
) -> Violation | None:
    """Re-check matching validity from scratch; None when clean.

    Reports OVERLAP for the first pair of member edges sharing a vertex,
    MAP_INCONSISTENT when the incremental maps disagree with the edge
    set, and UNMATCHED when `require_perfect` and some A-vertex is bare.
    """
    a_seen: dict[int, int] = {}
    b_seen: dict[int, int] = {}
    for eid in sorted(m.edge_ids):
        e = h.edges[eid]
        if e.a in a_seen:
            return Violation("OVERLAP", f"edges {a_seen[e.a]} and {eid} share A-vertex {e.a}")
        a_seen[e.a] = eid
        for b in e.bs:
            if b in b_seen:
                return Violation("OVERLAP", f"edges {b_seen[b]} and {eid} share B-vertex {b}")
            b_seen[b] = eid
    if a_seen != m.a_of or b_seen != m.b_of:
        return Violation("MAP_INCONSISTENT", "vertex maps do not reflect the edge set")
    if require_perfect:
        for a in range(h.a_count):
            if a not in a_seen:
                return Violation("UNMATCHED", f"A-vertex {a}")
    return None
