"""Layers, alternating trees, and the layer-building subroutine.

A layer pairs a set X of pairwise B-disjoint non-matching edges with
the set Y of exactly their blocking edges.  An alternating tree stacks
layers over an unmatched root so that every X-edge hangs off an
A-vertex of the blocking edges one level below, and no B-vertex occurs
in two layers.  The tree additionally enforces a per-vertex cap on
non-blocking edges (`u_bound`), which is what keeps layer growth
balanced across A-vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import AbstractSet, Iterable, Mapping

from .core import (
    BipartiteHypergraph,
    PartialMatching,
    Violation,
    blocking_edges,
)

__all__ = [
    "Layer",
    "RootLayer",
    "AlternatingTree",
    "find_addable_edge",
    "build_layer",
    "validate_tree",
    "tree_degree",
]


@dataclass
class Layer:
    """Layer contents: X (non-matching edges) and Y (their blockers)."""

    x: set[int] = field(default_factory=set)
    y: set[int] = field(default_factory=set)


@dataclass(frozen=True)
class RootLayer:
    """Level 0 of a tree: a single unmatched A-vertex, no edges."""

    root: int


class AlternatingTree:
    """Mutable alternating tree owned by a single augmenting run.

    `layers[i]` is layer i+1; level 0 is the root layer.  B-occupancy
    counters are maintained incrementally; an occupancy count can reach
    2 when a blocker shares a B-vertex with its X-edge, never more.
    """

    def __init__(self, h: BipartiteHypergraph, m: PartialMatching, root: int, u_bound: int):
        if m.matches_a(root):
            raise ValueError(f"root {root} is already matched")
        self.h = h
        self.root_layer = RootLayer(root)
        self.u_bound = u_bound
        self.layers: list[Layer] = []
        self._b_occ: dict[int, int] = {}

    @property
    def root(self) -> int:
        return self.root_layer.root

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
        return {self.h.edges[f].a for f in self.layers[i - 2].y}

    def occupied_b(self) -> Mapping[int, int]:
        """Live B-vertex occupancy counters of the tree; callers only read it."""
        return self._b_occ

    def a_vertices(self) -> set[int]:
        """Root plus the A-vertices of every blocking edge in the tree."""
        out = {self.root}
        for layer in self.layers:
            out.update(self.h.edges[f].a for f in layer.y)
        return out

    def _count(self, edge_ids: Iterable[int], delta: int) -> None:
        """Add `delta` to the B-occupancy counters of each edge."""
        edges, occ = self.h.edges, self._b_occ
        for eid in edge_ids:
            for b in edges[eid].bs:
                c = occ.get(b, 0) + delta
                if c:
                    occ[b] = c
                else:
                    del occ[b]

    def append_layer(self, x: Iterable[int], y: Iterable[int]) -> Layer:
        layer = Layer(set(x), set(y))
        self._count(chain(layer.x, layer.y), +1)
        self.layers.append(layer)
        return layer

    def discard_last(self) -> None:
        layer = self.layers.pop()
        self._count(chain(layer.x, layer.y), -1)

    def remove_y_edge(self, i: int, edge_id: int) -> None:
        """Drop a blocking edge from layer i after it was swapped out of M."""
        layer = self.layers[i - 1]
        if edge_id not in layer.y:
            raise ValueError(f"edge {edge_id} not in Y of layer {i}")
        layer.y.discard(edge_id)
        self._count((edge_id,), -1)

    def commit_rebuild(self, new_x: set[int], new_y: set[int]) -> None:
        """Replace the last layer by a superset produced by a rebuild."""
        layer = self.layers[-1]
        if not (new_x >= layer.x and new_y >= layer.y):
            raise ValueError("rebuild must extend the existing layer")
        self._count(chain(new_x - layer.x, new_y - layer.y), +1)
        layer.x = set(new_x)
        layer.y = set(new_y)


def tree_degree(tree: AlternatingTree, a: int) -> int:
    """Number of tree edges (X and Y, root excluded) containing `a`."""
    edges = tree.h.edges
    return sum(
        1 for layer in tree.layers for eid in chain(layer.x, layer.y) if edges[eid].a == a
    )


def find_addable_edge(
    h: BipartiteHypergraph,
    occupied_b: set[int],
    parent_a_set: Iterable[int],
    x_counts: Mapping[int, int],
    u_bound: int,
    m: PartialMatching | None = None,
) -> tuple[int, int] | None:
    """Least (a, edge) pair that a layer build would take next.

    `a` must lie in the parent set with fewer than `u_bound` edges
    already in the layer's X (per `x_counts`), and the edge's B-vertices
    must avoid `occupied_b`, which the caller populates with the
    B-vertices of the relevant tree prefix plus the layer under
    construction.  Pairs are ordered by vertex index, then edge id.

    Matching edges are never selected.  Inside the solver that check is
    redundant (a parent's matching edge is always tree-occupied), but it
    keeps the function total for arbitrary occupancy sets.
    """
    for a in sorted(parent_a_set):
        if x_counts.get(a, 0) >= u_bound:
            continue
        for eid in h.a_edges[a]:
            if m is not None and eid in m.edge_ids:
                continue
            e = h.edges[eid]
            if not any(b in occupied_b for b in e.bs):
                return (a, eid)
    return None


def build_layer(
    h: BipartiteHypergraph,
    m: PartialMatching,
    occupied_b: AbstractSet[int] | Mapping[int, int],
    parent_a_set: Iterable[int],
    u_bound: int,
    x0: Iterable[int] = (),
    y0: Iterable[int] = (),
) -> tuple[set[int], set[int]]:
    """Grow a layer from (x0, y0) until no addable edge remains.

    Repeatedly takes the least addable (a, edge) pair, adds the edge to
    X and its blockers under `m` to Y, and treats all their B-vertices
    as occupied from then on.  `occupied_b` is the occupancy to avoid:
    a set of B-vertices, or a mapping keyed by B-vertex such as the
    tree's live counters (:meth:`AlternatingTree.occupied_b`).  It is
    only read; B-vertices the build adds are kept in a local set.
    Neither `m` nor the caller's collections are modified; committing
    the result is the caller's decision.

    Occupancy only grows during a build and taking an edge for one
    parent never frees another, so each parent, in vertex order, takes
    edges from its incidence list in one pass until it reaches
    `u_bound` or runs out, and is never revisited.  The selection order
    is identical to iterating :func:`find_addable_edge`.
    """
    edges, matched, b_of = h.edges, m.edge_ids, m.b_of
    occ = occupied_b.keys() if isinstance(occupied_b, Mapping) else occupied_b
    x = set(x0)
    y = set(y0)
    new_b: set[int] = set()
    for eid in chain(x, y):
        new_b.update(edges[eid].bs)
    x_counts: dict[int, int] = {}
    for eid in x:
        a = edges[eid].a
        x_counts[a] = x_counts.get(a, 0) + 1

    for a in sorted(set(parent_a_set)):
        room = u_bound - x_counts.get(a, 0)
        if room <= 0:
            continue
        for eid in h.a_edges[a]:
            if eid in matched:
                continue
            bs = edges[eid].bs
            if not (occ.isdisjoint(bs) and new_b.isdisjoint(bs)):
                continue
            x.add(eid)
            new_b.update(bs)
            for b in bs:
                f = b_of.get(b)
                if f is not None and f not in y:
                    y.add(f)
                    new_b.update(edges[f].bs)
            room -= 1
            if room == 0:
                break
    return x, y


def validate_tree(
    h: BipartiteHypergraph, m: PartialMatching, tree: AlternatingTree
) -> Violation | None:
    """Re-check every layer and tree invariant from scratch.

    Returns the first violated invariant with its layer index, or None.
    Used after every engine step in debug mode.
    """
    if m.matches_a(tree.root):
        return Violation("ROOT_MATCHED", f"root {tree.root} is matched")
    seen_b: dict[int, int] = {}
    blocking_count: dict[int, int] = {}
    for idx, layer in enumerate(tree.layers, start=1):
        for eid in layer.x:
            if eid in m.edge_ids:
                return Violation("X_IN_MATCHING", f"layer {idx}: edge {eid}")
        layer_b: set[int] = set()
        for eid in sorted(layer.x):
            e = h.edges[eid]
            for b in e.bs:
                if b in layer_b:
                    return Violation(
                        "X_B_OVERLAP_WITHIN_LAYER", f"layer {idx}: B-vertex {b}"
                    )
            layer_b.update(e.bs)
        expected_y: set[int] = set()
        for eid in layer.x:
            expected_y |= blocking_edges(h, m, eid)
        if expected_y != layer.y:
            return Violation(
                "Y_NOT_BLOCKERS",
                f"layer {idx}: Y differs from blockers by "
                f"{sorted(expected_y ^ layer.y)}",
            )
        for f in sorted(layer.y):
            fe = h.edges[f]
            hits = sum(
                1
                for eid in layer.x
                if set(h.edges[eid].bs) & set(fe.bs)
            )
            if hits != 1:
                return Violation(
                    "Y_INTERSECTS_MULTIPLE_X", f"layer {idx}: edge {f} hits {hits} X-edges"
                )
            blocking_count[fe.a] = blocking_count.get(fe.a, 0) + 1
            if blocking_count[fe.a] > 1:
                return Violation(
                    "MULTIPLE_BLOCKING_EDGES", f"A-vertex {fe.a} in layer {idx}"
                )
        parents = tree.parent_a_set(idx)
        for eid in sorted(layer.x):
            if h.edges[eid].a not in parents:
                return Violation(
                    "PARENT_NOT_IN_LOWER_Y",
                    f"layer {idx}: edge {eid} for A-vertex {h.edges[eid].a}",
                )
        for eid in sorted(layer.x | layer.y):
            e = h.edges[eid]
            for b in e.bs:
                if b in seen_b and seen_b[b] != idx:
                    return Violation(
                        "CROSS_LAYER_B_OVERLAP",
                        f"B-vertex {b} in layers {seen_b[b]} and {idx}",
                    )
                seen_b[b] = idx
    x_per_vertex: dict[int, int] = {}
    for layer in tree.layers:
        for eid in layer.x:
            a = h.edges[eid].a
            x_per_vertex[a] = x_per_vertex.get(a, 0) + 1
    for a, count in sorted(x_per_vertex.items()):
        if count > tree.u_bound:
            return Violation("DEGREE_EXCEEDED", f"A-vertex {a} has {count} X-edges")
        if a != tree.root and count + blocking_count.get(a, 0) > tree.u_bound + 1:
            return Violation("DEGREE_EXCEEDED", f"A-vertex {a} total degree")
    recomputed_occ: dict[int, int] = {}
    for layer in tree.layers:
        for eid in layer.x | layer.y:
            for b in h.edges[eid].bs:
                recomputed_occ[b] = recomputed_occ.get(b, 0) + 1
    if recomputed_occ != tree._b_occ:
        return Violation("COUNTER_MISMATCH", "incremental counters diverged")
    return None
