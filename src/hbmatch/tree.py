"""Layers, alternating trees, and the layer-building subroutine.

A layer pairs a set X of pairwise B-disjoint non-matching edges with
the set Y of exactly their blocking edges.  An alternating tree stacks
layers over an unmatched root so that every X-edge hangs off an
A-vertex of the blocking edges one level below, and no B-vertex occurs
in two layers.  The tree additionally enforces a per-vertex cap on
non-blocking edges (`u_bound`), which is what keeps layer growth
balanced across A-vertices.  The engine keeps these invariants by
construction and never re-checks them (no B-vertex in two layers is why
a collapse's swap needs only the matching's `remove` and `add`); the
test suite's checked run (`tests/checked_run.py`) re-checks every one
at each iteration boundary.  With each layer the tree keeps the edges
its fresh build rejected, which let the engine skip a lazy rebuild that
can add nothing (see :func:`build_layer`).
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, NamedTuple

from .core import BipartiteHypergraph, PartialMatching

__all__ = [
    "Layer",
    "AlternatingTree",
    "build_layer",
]


class Layer(NamedTuple):
    """Layer contents: X (non-matching edges), Y (their blockers), and
    the B-vertices of X (`bx`) and of Y (`by`).

    The four sets are owned by the layer once it is built; the tree
    updates them in place as blockers leave Y and as a committed rebuild
    merges its additions in.
    """

    x: set[int]
    y: set[int]
    bx: set[int]
    by: set[int]


class AlternatingTree:
    """Mutable alternating tree owned by a single augmenting run.

    `layers[i]` is layer i+1; level 0 is the root layer.  No B-vertex
    lies in two layers, so the tree's B-occupancy is the union of the
    layers' `bx` and `by` sets, kept as one set and updated by set
    operations as layers come and go.  Within a layer `bx` and `by`
    overlap: a blocker shares a B-vertex with its X-edge.

    `rejected[i]` is the list of edges the fresh build of layer i+1
    rejected, as :func:`build_layer` reports them, or None for a layer
    stacked without one; a committed rebuild leaves it as it is.
    """

    def __init__(self, h: BipartiteHypergraph, m: PartialMatching, root: int, u_bound: int):
        if root in m.a_of:
            raise ValueError(f"root {root} is already matched")
        self.h = h
        self.root = root
        self.u_bound = u_bound
        self.layers: list[Layer] = []
        self.rejected: list[list[int] | None] = []
        self._b_occ: set[int] = set()

    def level(self) -> int:
        return len(self.layers)

    def y_total(self) -> int:
        """Count of blocking edges in the tree plus one for the root."""
        return 1 + sum(len(layer.y) for layer in self.layers)

    def parent_a_set(self, i: int) -> set[int]:
        """A-vertices a (re)build of layer i grows from: A(Y_{i-1})."""
        if i <= 0:
            raise ValueError("layer index must be >= 1")
        if i == 1:
            return {self.root}
        return {self.h.edge_a[f] for f in self.layers[i - 2].y}

    def occupied_b(self) -> AbstractSet[int]:
        """The live set of B-vertices the tree occupies; read-only."""
        return self._b_occ

    def append_layer(self, layer: Layer, rejected: list[int] | None = None) -> None:
        """Stack a layer built by :func:`build_layer`, with the edges its
        build rejected when known; the tree takes its sets."""
        self._b_occ |= layer.bx
        self._b_occ |= layer.by
        self.layers.append(layer)
        self.rejected.append(rejected)

    def discard_last(self) -> None:
        self.rejected.pop()
        layer = self.layers.pop()
        self._b_occ -= layer.bx
        self._b_occ -= layer.by

    def remove_y_edge(self, i: int, edge_id: int) -> None:
        """Drop a blocking edge from layer i after it was swapped out of M.

        Its B-vertices leave the layer's `by`; those it shares with the
        X-edge it blocked stay occupied through `bx`.
        """
        layer = self.layers[i - 1]
        if edge_id not in layer.y:
            raise ValueError(f"edge {edge_id} not in Y of layer {i}")
        layer.y.discard(edge_id)
        bs = self.h.edge_bs[edge_id]
        layer.by.difference_update(bs)
        self._b_occ -= set(bs) - layer.bx

    def commit_rebuild(self, added: Layer) -> None:
        """Merge the edges a rebuild of the last layer adds into it, in place."""
        last = self.layers[-1]
        if not last.x.isdisjoint(added.x):
            raise ValueError("rebuild additions must be disjoint from the layer's X")
        for own, new in zip(last, added):
            own |= new
        self._b_occ |= added.bx
        self._b_occ |= added.by


def build_layer(
    h: BipartiteHypergraph,
    m: PartialMatching,
    occupied_b: AbstractSet[int],
    parent_a_set: Iterable[int],
    u_bound: int,
    *,
    x_held: Iterable[int] = (),
    rejected: list[int] | None = None,
    addable: list[int] | None = None,
) -> Layer:
    """The edges a layer build takes, until no addable edge remains.

    Repeatedly takes the least addable (a, edge) pair, by vertex index
    and then edge id: `a` is a parent with fewer than `u_bound` X-edges,
    counting those in `x_held`, and the edge is not `a`'s own edge in
    `m` and avoids every occupied B-vertex.  It adds the edge to X and
    its blockers under `m` to Y, and treats all their B-vertices as
    occupied from then on.  `occupied_b` is the set of B-vertices to avoid, such as
    the tree's live set (:meth:`AlternatingTree.occupied_b`); it is only
    read.  A rebuild passes the layer's X as `x_held` and an
    `occupied_b` that holds the layer's B-vertices.  The result is a
    fresh :class:`Layer` of the taken edges and their B-vertices, for
    the tree to take or merge; `m` and the caller's sets are not touched.

    Occupancy only grows during a build and taking an edge for one
    parent never frees another, so each parent, in vertex order, takes
    edges from its incidence list in one pass until it reaches
    `u_bound` or runs out, and is never revisited.  Every edge the pass
    reads is then taken, `a`'s own, or rejected for meeting an occupied
    B-vertex; a parent it leaves before its last edge has no room left.
    The build appends the rejected edges, in the order it read them, to
    `rejected`, and the taken edges with no blocker (the layer's
    immediately addable X-edges under `m`) to `addable`, when given.

    Why a fresh build's rejected edges decide its lazy rebuilds: while
    layer i lives, A(Y_{i-1}) is fixed (only a collapse of layer i
    changes Y_{i-1}, and it discards layer i), a parent's room only
    shrinks (X_i only grows), and each parent keeps its own edge.  So
    every edge a rebuild of layer i could take, one of a parent with
    room that is not in X_i, was rejected by the fresh build.  A rebuild
    takes only edges that avoid the tree's occupancy; when every
    rejected edge still meets it, the rebuild takes nothing.
    """
    edge_a, edge_bs = h.edge_a, h.edge_bs
    a_of, b_of, a_edges = m.a_of, m.b_of, h.a_edges
    matched_b = b_of.keys()
    rejected = [] if rejected is None else rejected
    addable = [] if addable is None else addable
    taken = Layer(set(), set(), set(), set())
    x, y, bx, by = taken
    x_counts: dict[int, int] = {}
    for eid in x_held:
        x_counts[edge_a[eid]] = x_counts.get(edge_a[eid], 0) + 1

    for a in sorted(set(parent_a_set)):
        room = u_bound - x_counts.get(a, 0)
        if room <= 0:
            continue
        own = a_of.get(a)
        for eid in a_edges.get(a, ()):
            if eid == own:
                continue
            bs = edge_bs[eid]
            if not (occupied_b.isdisjoint(bs) and bx.isdisjoint(bs) and by.isdisjoint(bs)):
                rejected.append(eid)
                continue
            x.add(eid)
            bx.update(bs)
            if matched_b.isdisjoint(bs):
                addable.append(eid)
            else:
                for b in bs:
                    f = b_of.get(b)
                    if f is not None and f not in y:
                        y.add(f)
                        by.update(edge_bs[f])
            room -= 1
            if room == 0:
                break
    return taken
