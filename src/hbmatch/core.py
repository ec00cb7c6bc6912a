"""Instance model for r-uniform bipartite hypergraphs.

Vertices are integers: A = {0..a_count-1} and B = {0..b_count-1} are
separate index spaces.  Every edge has exactly one A-vertex and r-1
distinct B-vertices.  Edge ids are positions in the edge list; index
order on vertices and edge-list order on edges are the canonical total
orders used for every tie-break in the solver.

A :class:`PartialMatching` is two vertex maps, which the solver reads
directly, and two checked moves: a collapse's swap is `remove` then `add`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "Edge",
    "BipartiteHypergraph",
    "PartialMatching",
    "Violation",
    "CodedError",
    "InstanceError",
    "MatchingError",
    "incident_edges",
]


class Edge(NamedTuple):
    """One record of the :attr:`BipartiteHypergraph.edges` view."""

    id: int
    a: int
    bs: tuple[int, ...]


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


class CodedError(Exception):
    """An error with a machine-readable `code`; its text is `CODE: message`."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


class InstanceError(CodedError, ValueError):
    """An instance breaks a structural invariant; `code` is the Violation code."""


class MatchingError(CodedError, ValueError):
    """A matching operation was called outside its preconditions."""


class BipartiteHypergraph:
    """An r-uniform bipartite hypergraph stored as edge columns.

    Edge `eid` is A-vertex `edge_a[eid]` plus the sorted tuple
    `edge_bs[eid]` of B-vertices; nothing changes after construction.
    `a_edges` maps each A-vertex that has edges to their ids in edge-id
    order; read it with `a_edges.get(a, ())`, so memory follows the
    edges, not the declared vertex count.  No B-side index is kept.
    Construction sorts arbitrary (a, bs) pairs and indexes every edge;
    :func:`certify.validate_instance` refuses malformed input before the
    index is read.  The parser uses :meth:`from_columns`, which takes
    `edge_a` and the B-columns as they are.
    `edges` is an :class:`Edge` view for outside callers, built on first
    access.
    """

    __slots__ = (
        "r", "a_count", "b_count", "edge_a", "edge_bs", "a_edges",
        "_b_cols", "_edges", "_validated", "_violation",
    )

    def __init__(
        self,
        r: int,
        a_count: int,
        b_count: int,
        edges: Iterable[tuple[int, Sequence[int]]] = (),
    ):
        pairs = [(a, tuple(sorted(bs))) for a, bs in edges]
        self._init(r, a_count, b_count, [a for a, _ in pairs], [bs for _, bs in pairs], None)

    @classmethod
    def from_columns(
        cls, r: int, a_count: int, b_count: int, edge_a: list[int], b_cols: list[list[int]]
    ) -> "BipartiteHypergraph":
        """An instance owning `edge_a` as given, whose edge `eid` has the
        B-vertices `b_cols[k][eid]` in column order k; `edge_bs` is built
        from the columns here, and validation refuses an unsorted tuple.

        `zip` stops at the shortest column, so validation refuses columns
        whose shortest is not as long as `edge_a` (RAGGED_COLUMNS).  The
        instance holds `b_cols` until :func:`certify.validate_instance`
        has read them: r-1 columns of length m are checked in place of
        `edge_bs`, which was built from them; other columns are released
        and `edge_bs` is checked.
        """
        h = cls.__new__(cls)
        h._init(r, a_count, b_count, edge_a, list(zip(*b_cols)), b_cols)
        return h

    def _init(
        self,
        r: int,
        a_count: int,
        b_count: int,
        edge_a: list[int],
        edge_bs: list[tuple[int, ...]],
        b_cols: list[list[int]] | None,
    ) -> None:
        self.r = r
        self.a_count = a_count
        self.b_count = b_count
        self.edge_a = edge_a
        self.edge_bs = edge_bs
        self._b_cols = b_cols  # released by the first validation
        a_edges: defaultdict[int, list[int]] = defaultdict(list)
        for eid, a in enumerate(edge_a):
            a_edges[a].append(eid)
        self.a_edges = dict(a_edges)
        self._edges: tuple[Edge, ...] | None = None
        self._validated = False
        self._violation: Violation | None = None

    @property
    def m(self) -> int:
        return len(self.edge_a)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Read-only view of the edges as :class:`Edge` records, built once."""
        if self._edges is None:
            self._edges = tuple(map(Edge, range(self.m), self.edge_a, self.edge_bs))
        return self._edges

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
    """A mutable set of pairwise vertex-disjoint edges, kept as two maps.

    `a_of` / `b_of` map each covered vertex to the member edge covering
    it: an edge is blocked by `b_of[b]` for its B-vertices b in `b_of`.
    `e` is a member iff `a_of[edge_a[e]] == e`; `edge_ids` is a new set.
    `add` refuses an edge meeting a member (OVERLAP), `remove` a
    non-member (NOT_IN_MATCHING), before any change.
    """

    __slots__ = ("a_of", "b_of")

    def __init__(self) -> None:
        self.a_of: dict[int, int] = {}
        self.b_of: dict[int, int] = {}

    @property
    def edge_ids(self) -> set[int]:
        return set(self.a_of.values())

    def __len__(self) -> int:
        return len(self.a_of)

    def add(self, h: BipartiteHypergraph, edge_id: int) -> None:
        a, bs = h.edge_a[edge_id], h.edge_bs[edge_id]
        if a in self.a_of:  # a member's own A-vertex included
            raise MatchingError(
                "OVERLAP", f"A-vertex {a} already matched by edge {self.a_of[a]}"
            )
        for b in bs:
            if b in self.b_of:
                raise MatchingError(
                    "OVERLAP", f"B-vertex {b} already used by edge {self.b_of[b]}"
                )
        self.a_of[a] = edge_id
        for b in bs:
            self.b_of[b] = edge_id

    def remove(self, h: BipartiteHypergraph, edge_id: int) -> None:
        a = h.edge_a[edge_id]
        if self.a_of.get(a) != edge_id:
            raise MatchingError("NOT_IN_MATCHING", f"edge {edge_id}")
        del self.a_of[a]
        for b in h.edge_bs[edge_id]:
            del self.b_of[b]

