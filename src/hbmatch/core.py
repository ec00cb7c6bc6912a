"""Instance model for r-uniform bipartite hypergraphs.

Vertices are integers: A = {0..a_count-1} and B = {0..b_count-1} are
separate index spaces.  Every edge has exactly one A-vertex and r-1
distinct B-vertices.  Edge ids are positions in the edge list; index
order on vertices and edge-list order on edges are the canonical total
orders used for every tie-break in the solver.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Edge",
    "BipartiteHypergraph",
    "PartialMatching",
    "Violation",
    "InstanceError",
    "MatchingError",
    "incident_edges",
    "blocking_edges",
    "is_immediately_addable",
    "swap",
]


class Edge:
    """One hyperedge: A-vertex `a` plus the sorted tuple `bs` of B-vertices.

    A plain slotted record, read-only by convention: instances are built
    by the thousand when an instance is loaded, and every solver step
    reads their fields.
    """

    __slots__ = ("id", "a", "bs")

    def __init__(self, id: int, a: int, bs: tuple[int, ...]):
        self.id = id
        self.a = a
        self.bs = bs

    def __repr__(self) -> str:
        return f"Edge(id={self.id}, a={self.a}, bs={self.bs})"


@dataclass(frozen=True)
class Violation:
    """First failed structural check: machine-readable code plus detail.

    `edge` is the id of the offending edge, or None for a rule on the
    instance as a whole.
    """

    code: str
    detail: str
    edge: int | None = None

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

    The structure is immutable after construction.  `a_edges` maps each
    A-vertex that has edges to their ids in edge-id order; read it with
    `a_edges.get(a, ())`, so memory follows the edges, not the declared
    vertex count.  No B-side index is kept.  Construction accepts
    arbitrary (a, bs) pairs so that malformed input can be inspected by
    :func:`certify.validate_instance`; B-vertex lists are stored sorted,
    and an edge whose A-vertex is out of range is left out of the index.
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
        self.edges = [Edge(i, a, tuple(sorted(bs))) for i, (a, bs) in enumerate(edges)]
        a_edges: defaultdict[int, list[int]] = defaultdict(list)
        for e in self.edges:
            if 0 <= e.a < a_count:
                a_edges[e.a].append(e.id)
        self.a_edges: dict[int, list[int]] = dict(a_edges)
        self._b_sets: tuple[frozenset[int], ...] | None = None
        self._validated = False
        self._violation: Violation | None = None

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def b_sets(self) -> tuple[frozenset[int], ...]:
        """Per-edge B-vertex frozensets, built once (hot in the oracles)."""
        if self._b_sets is None:
            self._b_sets = tuple(frozenset(e.bs) for e in self.edges)
        return self._b_sets

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def __repr__(self) -> str:
        return (
            f"BipartiteHypergraph(r={self.r}, a_count={self.a_count}, "
            f"b_count={self.b_count}, m={self.m})"
        )


def incident_edges(h: BipartiteHypergraph, s: Iterable[int]) -> set[int]:
    """All edge ids whose A-vertex lies in `s`.

    Every edge meets A in exactly one vertex, so this is the full set of
    edges incident to `s` on the A side.
    """
    out: set[int] = set()
    for a in s:
        out.update(h.a_edges.get(a, ()))
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


def blocking_edges(h: BipartiteHypergraph, m: PartialMatching, edge_id: int) -> set[int]:
    """Matching edges sharing a B-vertex with edge `edge_id`.

    An edge of M that meets it only in its A-vertex does not block it.
    The result has at most r-1 members since each of its B-vertices
    lies in at most one matching edge.
    """
    return {m.b_of[b] for b in h.edges[edge_id].bs if b in m.b_of}


def is_immediately_addable(h: BipartiteHypergraph, m: PartialMatching, edge_id: int) -> bool:
    """True iff edge `edge_id` has no blocking edges under `m`."""
    return m.b_of.keys().isdisjoint(h.edges[edge_id].bs)


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
