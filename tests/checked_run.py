"""A solve that re-checks the paper's path invariants at every step.

The engine checks every answer it returns (the kernel in
:mod:`hbmatch.certify`), so it needs no check of the path that led
there.  The tests do: :class:`CheckedRun` is an :class:`AugmentRun` that
takes the full loop at every root and, with the same codes as
:class:`InternalSolverError`, re-checks

- at every iteration boundary: the tree (:func:`validate_tree`), the
  matching, the matched A-vertices, and per layer that it is not
  collapsible, grew past delta times the blocking count below it, and
  has no rebuild reaching (1+mu)|X|; then the signature step;
- after every collapse's swaps: the matching, before the rebuild reads it;
- beside every rebuild the engine skips as adding nothing, lazy, of
  witness extraction or of the boundary check below: the full rebuild,
  which must add nothing (SKIPPED_REBUILD_ADDS);
- at every read of the addable edges a fresh build listed: that they are
  the last layer's addable edges, by a scan of X
  (BUILD_ADDABLE_MISMATCH);
- at the end of every run that matched its root: that exactly the root
  was added.

Its matchings, witnesses, stats and trace lines equal a plain solve's.
Inside ``with checked():`` every :func:`find_perfect_matching`, and so
every ``hbmatch solve``, runs checked.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import AbstractSet, Iterator
from unittest import mock

import hbmatch.engine as engine
from hbmatch.certify import WitnessCertificate, verify_matching
from hbmatch.core import BipartiteHypergraph, PartialMatching, Violation
from hbmatch.engine import AugmentRun, InternalSolverError
from hbmatch.signature import check_signature_step
from hbmatch.tree import AlternatingTree, Layer

__all__ = ["CheckedRun", "checked", "validate_tree", "blocking_edges", "is_immediately_addable"]


def blocking_edges(h: BipartiteHypergraph, m: PartialMatching, edge_id: int) -> set[int]:
    """Matching edges sharing a B-vertex with edge `edge_id`: the
    definition of Y that :func:`validate_tree` checks.

    An edge of M that meets it only in its A-vertex does not block it.
    The result has at most r-1 members since each of its B-vertices
    lies in at most one matching edge.
    """
    return {m.b_of[b] for b in h.edge_bs[edge_id] if b in m.b_of}


def is_immediately_addable(h: BipartiteHypergraph, m: PartialMatching, edge_id: int) -> bool:
    """True iff edge `edge_id` has no blocking edges under `m`: the
    addability that the boundary check counts, written apart from the
    engine's scan so that the two are checked against each other."""
    return not blocking_edges(h, m, edge_id)


def validate_tree(
    h: BipartiteHypergraph, m: PartialMatching, tree: AlternatingTree
) -> Violation | None:
    """Re-check every layer and tree invariant from scratch.

    Returns the first violated invariant with its layer index, or None.
    """
    if tree.root in m.a_of:
        return Violation("ROOT_MATCHED", f"root {tree.root} is matched")
    edge_a, edge_bs = h.edge_a, h.edge_bs
    seen_b: dict[int, int] = {}
    blocking_a: set[int] = set()
    for idx, layer in enumerate(tree.layers, start=1):
        for eid in layer.x:
            if m.a_of.get(edge_a[eid]) == eid:
                return Violation("X_IN_MATCHING", f"layer {idx}: edge {eid}")
        layer_b: set[int] = set()
        for eid in sorted(layer.x):
            for b in edge_bs[eid]:
                if b in layer_b:
                    return Violation(
                        "X_B_OVERLAP_WITHIN_LAYER", f"layer {idx}: B-vertex {b}"
                    )
            layer_b.update(edge_bs[eid])
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
            fa = edge_a[f]
            hits = sum(1 for eid in layer.x if not set(edge_bs[eid]).isdisjoint(edge_bs[f]))
            if hits != 1:
                return Violation(
                    "Y_INTERSECTS_MULTIPLE_X", f"layer {idx}: edge {f} hits {hits} X-edges"
                )
            if fa in blocking_a:
                return Violation(
                    "MULTIPLE_BLOCKING_EDGES", f"A-vertex {fa} in layer {idx}"
                )
            blocking_a.add(fa)
        parents = tree.parent_a_set(idx)
        for eid in sorted(layer.x):
            if edge_a[eid] not in parents:
                return Violation(
                    "PARENT_NOT_IN_LOWER_Y",
                    f"layer {idx}: edge {eid} for A-vertex {edge_a[eid]}",
                )
        for eid in sorted(layer.x | layer.y):
            for b in edge_bs[eid]:
                if b in seen_b and seen_b[b] != idx:
                    return Violation(
                        "CROSS_LAYER_B_OVERLAP",
                        f"B-vertex {b} in layers {seen_b[b]} and {idx}",
                    )
                seen_b[b] = idx
    # With MULTIPLE_BLOCKING_EDGES above, this also bounds a vertex's
    # X-edges plus its blocking edge by u_bound + 1.
    x_per_vertex = Counter(edge_a[eid] for layer in tree.layers for eid in layer.x)
    for a, count in sorted(x_per_vertex.items()):
        if count > tree.u_bound:
            return Violation("DEGREE_EXCEEDED", f"A-vertex {a} has {count} X-edges")
    occ: set[int] = set()
    for idx, layer in enumerate(tree.layers, start=1):
        bx = {b for eid in layer.x for b in edge_bs[eid]}
        by = {b for eid in layer.y for b in edge_bs[eid]}
        if bx != layer.bx or by != layer.by:
            return Violation("COUNTER_MISMATCH", f"layer {idx}: B-vertex sets diverged")
        occ |= bx | by
    if occ != tree.occupied_b():
        return Violation("COUNTER_MISMATCH", "tree B-occupancy diverged from its layers")
    return None


class CheckedRun(AugmentRun):
    """An :class:`AugmentRun` whose every root takes the full loop, with
    the path checks of the module docstring.

    The checks compute the signature with the engine's own
    ``signature_from_sizes``, looked up on :mod:`hbmatch.engine` at each
    call, and its memo, so the coordinates checked are the ones a trace
    writes.
    """

    def match_in_one_step(self, root: int) -> bool:
        return False  # the checks need a tree

    def start(self, root: int) -> None:
        super().start(root)
        self.prev_signature: tuple[int, ...] | None = None
        self.matched_before = set(self.m.a_of)

    def run(self, root: int) -> WitnessCertificate | None:
        witness = super().run(root)
        if witness is None:
            self.check_matched_exactly_root()
        return witness

    def build_phase(self) -> WitnessCertificate | None:
        # run() calls this right after each iteration boundary; the
        # invariants go first, so a broken tree is named as such and not
        # as the signature step it also breaks
        self.check_boundary_invariants()
        self.check_signature()
        return super().build_phase()

    def superposed_build(self) -> None:
        # collapse_layer calls this right after the swaps of a collapse
        # that left the root unmatched
        v = verify_matching(self.h, self.m)
        if v is not None:
            raise InternalSolverError("MATCHING_AFTER_SWAP", str(v))
        super().superposed_build()

    def _rebuild(self, i: int, occupied: AbstractSet[int]) -> Layer:
        added = super()._rebuild(i, occupied)
        if added is engine._NO_ADDITIONS:
            tree = self.tree
            full = engine.build_layer(
                self.h, self.m, occupied, tree.parent_a_set(i), self.params.u,
                x_held=tree.layers[i - 1].x,
            )
            if full.x:
                raise InternalSolverError(
                    "SKIPPED_REBUILD_ADDS",
                    f"layer {i}: the full rebuild adds {sorted(full.x)}",
                )
        return added

    @property
    def fresh_addable(self) -> list[int] | None:
        addable = self._fresh_addable
        if addable is not None:
            h, m, tree = self.h, self.m, self.tree
            scan = [eid for eid in sorted(tree.layers[-1].x) if is_immediately_addable(h, m, eid)]
            if addable != scan:
                raise InternalSolverError(
                    "BUILD_ADDABLE_MISMATCH",
                    f"layer {tree.level()}: the build lists {addable}, the scan {scan}",
                )
        return addable

    @fresh_addable.setter
    def fresh_addable(self, addable: list[int] | None) -> None:
        self._fresh_addable = addable

    def check_signature(self) -> None:
        sizes = [(len(l.x), len(l.y)) for l in self.tree.layers]
        sig, _ = engine.signature_from_sizes(sizes, self.memo)
        v = check_signature_step(sig, self.prev_signature)
        if v is not None:
            raise InternalSolverError(v.code, v.detail)
        self.prev_signature = sig

    def check_boundary_invariants(self) -> None:
        """The tree, the matching, A(M), and per layer: not collapsible,
        grown past delta times the blocking count below, and no rebuild
        reaching (1+mu)|X|.

        Two bounds follow and are not checked.  Blocker ratio: the tree
        is valid, so Y is exactly X's blockers and each Y-edge meets one
        X-edge; the non-addable X-edges number at most |Y|, so
        |X|-|Y| <= addable <= mu|X|.  Depth: hence |Y_i| >= (1-mu)|X_i|,
        and with |X_i| > delta*y_below(i) the blocking count after L
        layers exceeds (1+gamma)^L, gamma = (1-mu)delta; the blockers'
        A-vertices are distinct and none is the root, so it is at most n.
        """
        h, m, tree, params = self.h, self.m, self.tree, self.params
        v = validate_tree(h, m, tree)
        if v is not None:
            raise InternalSolverError("TREE_INVALID", str(v))
        v = verify_matching(h, m)
        if v is not None:
            raise InternalSolverError("MATCHING_INVALID", str(v))
        if set(m.a_of) != self.matched_before:
            raise InternalSolverError("MATCHED_SET_CHANGED", "A(M) drifted mid-run")
        y_below = 1
        for idx, layer in enumerate(tree.layers, start=1):
            addable = sum(is_immediately_addable(h, m, eid) for eid in layer.x)
            if params.exceeds_mu(addable, len(layer.x)):
                raise InternalSolverError(
                    "COLLAPSIBLE_AT_BOUNDARY", f"layer {idx} is collapsible"
                )
            if not params.exceeds_delta(len(layer.x), y_below):
                raise InternalSolverError(
                    "LAYER_GROWTH", f"layer {idx}: |X|={len(layer.x)} vs {y_below} below"
                )
            y_below += len(layer.y)
        rebuilds = zip(tree.layers, self._prefix_rebuilds(tree.level()))
        for i, (layer, added) in enumerate(rebuilds, start=1):
            x2 = len(layer.x) + len(added.x)
            if params.reaches_one_plus_mu(x2, len(layer.x)):
                raise InternalSolverError(
                    "SUPERPOSED_GROWTH_AT_BOUNDARY",
                    f"layer {i}: rebuild reaches {x2} from {len(layer.x)}",
                )

    def check_matched_exactly_root(self) -> None:
        if set(self.m.a_of) != self.matched_before | {self.tree.root}:
            raise InternalSolverError(
                "MATCHED_SET_CHANGED", "run did not add exactly the root"
            )


@contextmanager
def checked() -> Iterator[None]:
    """Solve with :class:`CheckedRun` in place of :class:`AugmentRun`."""
    with mock.patch.object(engine, "AugmentRun", CheckedRun):
        yield
