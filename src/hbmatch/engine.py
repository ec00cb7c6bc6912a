"""The augmenting algorithm and the perfect-matching driver.

A solve is one :class:`AugmentRun`: one matching, parameter set, stats
and signature memo, shared by every root.  Each unmatched root grows its
own alternating tree.  Each main-loop iteration first builds a fresh
layer on top of the tree (build phase), then repeatedly collapses the
last layer while more than a mu fraction of its X-edges are immediately
addable (collapse phase).
Collapsing swaps addable X-edges into the matching in place of the
blockers one level below, discards the layer, and lazily re-runs the
layer build on the new last layer, merging the edges the rebuild adds
only when they grow X by a (1+mu) factor.  When the root's own layer
collapses the root gets matched and the run ends.  X-edges are pairwise
B-disjoint and no B-vertex lies in two layers, so a swap never changes
which X-edges of the collapsing layer are addable: the one pass over X
that decides the collapse, the same at every level, also lists the
edges it swaps in or adds.

Two facts of a fresh layer build are reused.  The taken edges with no
blocker are the new layer's addable edges, so the first collapse check
after the build reads them in place of a pass over X; any later check
follows a collapse, which changed the matching, and passes over X.  The
edges the build rejected decide every rebuild of the layer: while it
lives its parents, and their own edges, stay fixed and their room only
shrinks, so a rebuild takes only rejected edges that avoid the
B-vertices it is handed.  When every rejected edge meets them,
:meth:`AugmentRun._rebuild` skips the rebuild, lazy or of witness
extraction, as provably adding nothing.  :func:`build_layer` gives the
proof in full.

Each run first tries to match the root in one step
(:meth:`AugmentRun.match_in_one_step`): when deg(root) < u, so that
mu*deg(root) < 1, one addable X-edge collapses layer 1, and a walk over
the root's edges with the build's take rule finds the edge that collapse
adds, without planting a tree; a traced walk writes the lines the full
loop would.

If a freshly built layer is too small -- not larger than delta times the
blocking-edge count, which asks only for a nonempty layer while that
count is below 1/delta -- the strengthened matching-existence condition
must be violated, and the run extracts an explicit violating set with a
hitting-set certificate instead of a matching.

All threshold comparisons (mu |X|, (1+mu)|X|, delta |Y|) are exact:
:class:`Parameters` compares integer cross-products of the counts with
the numerators and denominators of mu and delta, since several
thresholds sit exactly on integer boundaries.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Callable, Iterator

from .certify import WitnessCertificate, validate_instance, verify_matching, verify_witness
from .core import BipartiteHypergraph, CodedError, InstanceError, PartialMatching
from .params import Parameters
from .signature import SignatureMemo, signature_from_sizes, working_digits
from .tree import AlternatingTree, Layer, build_layer

__all__ = [
    "AugmentRun",
    "SolveResult",
    "SolveStats",
    "InternalSolverError",
    "augment",
    "find_perfect_matching",
]

# Called once per augmenting run, with the run's event lines joined by
# "\n" and no trailing newline; the first line is its augment_start.
TraceSink = Callable[[str], None]

# The first iteration boundary of every run is at an empty tree, whose
# signature is empty: its two lines.
_EMPTY_TREE_BOUNDARY = "iteration iter=1 layers=0\nsignature iter=1 coords= unresolved=0"

# What a skipped lazy rebuild adds: nothing (frozen, so that it is shared).
_NO_ADDITIONS = Layer(frozenset(), frozenset(), frozenset(), frozenset())


class InternalSolverError(CodedError, RuntimeError):
    """The solver broke its own contract.

    Raised for an extracted certificate that does not verify, a final
    matching that is not perfect, and an augmenting run that reaches its
    iteration cap, a safety stop far above every measured run (see
    :meth:`Parameters.iteration_cap`).  The instance and epsilon alone
    set mu, u and the cap, so each is an implementation bug,
    CERTIFICATE_INVALID and ITERATION_CAP_EXCEEDED included.  The test
    suite's checked runs raise it for a broken path invariant.
    """


@dataclass
class SolveStats:
    iterations: int = 0
    max_layers: int = 0
    swaps: int = 0
    build_ops: int = 0


@dataclass(frozen=True)
class SolveResult:
    matching: PartialMatching | None
    witness: WitnessCertificate | None
    stats: SolveStats

    @property
    def status(self) -> str:
        return "perfect_matching" if self.matching is not None else "witness"


class AugmentRun:
    """State of one solve; single-threaded, single-owner.  :meth:`start`
    gives a root its tree.

    When tracing, `trace` appends event lines to `pending`, the current
    run's lines, which :meth:`run` hands to the sink in one string
    before it returns or raises.

    `fresh_addable` is the last layer's immediately addable X-edges in
    edge order, as the build that made it found them, or None: a
    collapse changes the matching, so it drops the list.
    """

    def __init__(
        self,
        h: BipartiteHypergraph,
        m: PartialMatching,
        params: Parameters,
        trace: TraceSink | None = None,
    ):
        self.h = h
        self.m = m
        self.params = params
        self.sink = trace
        self.pending: list[str] = []
        self.trace = self.pending.append if trace is not None else None
        self.stats = SolveStats()
        self.memo = SignatureMemo(params)
        self.cap = params.iteration_cap(h.a_count)
        limit = sys.get_int_max_str_digits()  # 0: no limit
        if trace is not None and 0 < limit < (digits := working_digits(params.b)):
            raise ValueError(
                f"epsilon too small to trace: signature coordinates may have up to {digits} "
                f"digits, over Python's {limit}-digit limit on int/str conversion"
            )

    def start(self, root: int) -> None:
        """Plant a fresh tree at `root`, ValueError if it is matched, and
        log the run's start."""
        self.tree = AlternatingTree(self.h, self.m, root, self.params.u)
        self.fresh_addable: list[int] | None = None
        if self.trace is not None:
            self.trace(f"augment_start root={root} matched={len(self.m)}")

    # ------------------------------------------------------------------
    # main loop

    def run(self, root: int) -> WitnessCertificate | None:
        """Augment from `root` until it is matched (returns None; `m` now
        covers the root) or a layer fails to grow (returns the verified
        witness; `m` is unchanged).

        It first tries :meth:`match_in_one_step`, which matches most
        roots; the tree is planted only when the full loop runs.  When
        tracing, the lines the run wrote reach the sink in one string on
        every exit, an error's included.
        """
        try:
            if self.match_in_one_step(root):
                return None
            self.start(root)
            iteration = 0
            while True:
                iteration += 1
                if iteration > self.cap:
                    self._log_end("internal_error", iteration - 1)
                    raise InternalSolverError(
                        "ITERATION_CAP_EXCEEDED", f"augmenting A-vertex {root}"
                    )
                self.stats.iterations += 1
                if self.trace is not None:
                    self._iteration_boundary(iteration)
                witness = self.build_phase()
                if witness is not None:
                    self._log_end("witness", iteration)
                    return witness
                if self.collapse_phase():
                    self._log_end("matched", iteration)
                    return None
        finally:
            if self.pending:
                self.sink("\n".join(self.pending))
                self.pending.clear()

    def match_in_one_step(self, root: int) -> bool:
        """Match `root` by the edge that decides its first layer's
        collapse, without building the layer; False, with nothing
        changed, when no such edge turns up.

        It runs on roots with k = deg(root) < u edges, so mu*k < 1 as
        u = ceil(1/mu).  Layer 1 then holds at most k X-edges, below the
        cap u, and any nonempty one passes the growth test x > delta*1, as
        delta < 1; one addable X-edge collapses it, and the collapse adds
        the least.  The root is unmatched, so none of its edges is in M,
        and the build takes them in edge-id order: the least addable
        X-edge is the first taken edge with no blocker.  The walk below
        applies the build's take rule up to that edge and counts the stats
        of that one iteration, so matchings, witnesses and stats equal the
        full loop's.

        The walk plants no tree and computes no signature: it adds the
        edge, so a matched root fails in `m.add` with a ValueError before
        any line is written.  A traced walk reads to the root's last edge
        and then hands the sink the seven lines of the full loop's first
        iteration in one string: |X| counts the taken edges, |Y| the
        matched edges on the B-vertices it occupied, which are their
        blockers, and the boundary is at an empty tree.
        """
        h, m, trace = self.h, self.m, self.trace
        edges = h.a_edges.get(root, ())
        if len(edges) >= self.params.u:
            return False
        edge_bs, b_of = h.edge_bs, m.b_of
        occupied: set[int] = set()
        nx, found = 0, None
        for eid in edges:
            bs = edge_bs[eid]
            if not occupied.isdisjoint(bs):
                continue
            if found is None and b_of.keys().isdisjoint(bs):
                found = eid
                if trace is None:
                    break
            occupied.update(bs)
            for b in bs:
                f = b_of.get(b)
                if f is not None:
                    occupied.update(edge_bs[f])
            nx += 1
        if found is None:
            return False
        if trace is not None:
            ny, matched = len({b_of[b] for b in occupied if b in b_of}), len(m)
        m.add(h, found)
        stats = self.stats
        stats.iterations += 1
        stats.build_ops += 1
        stats.max_layers = max(stats.max_layers, 1)
        if trace is not None:
            self.sink(
                f"augment_start root={root} matched={matched}\n{_EMPTY_TREE_BOUNDARY}\n"
                f"layer_built index=1 x={nx} y={ny}\ngrowth result=pass x={nx} y_total=1\n"
                "collapse layer=1 swaps=0 root_matched=1\naugment_end outcome=matched iterations=1"
            )
        return True

    # ------------------------------------------------------------------
    # phases

    def build_phase(self) -> WitnessCertificate | None:
        """Build and append the next layer, which the tree keeps with the
        edges its build rejected, and keep the build's addable edges for
        the first collapse check; on a growth failure, extract the
        violation certificate."""
        tree = self.tree
        level = tree.level()
        y_total_before = tree.y_total()
        rejected: list[int] = []
        addable: list[int] = []
        layer = build_layer(
            self.h, self.m, tree.occupied_b(), tree.parent_a_set(level + 1), self.params.u,
            rejected=rejected, addable=addable,
        )
        self.stats.build_ops += 1
        tree.append_layer(layer, rejected)
        addable.sort()
        self.fresh_addable = addable
        self.stats.max_layers = max(self.stats.max_layers, tree.level())
        nx = len(layer.x)
        ok = self.params.exceeds_delta(nx, y_total_before)
        if self.trace is not None:
            self.trace(f"layer_built index={tree.level()} x={nx} y={len(layer.y)}")
            self.trace(f"growth result={'pass' if ok else 'fail'} x={nx} y_total={y_total_before}")
        if not ok:
            cert = self.extract_witness()
            if self.trace is not None:
                s, hitting = len(cert.s), len(cert.hitting_set)
                self.trace(f"witness s={s} hitting={hitting} bound={cert.bound!s}")
            return cert
        return None

    def collapse_phase(self) -> bool:
        """Collapse the last layer while more than mu|X| of its X-edges
        are immediately addable.

        Each check hands the addable edges, in edge order, to the
        collapse: those with no B-vertex in the matching.  The first
        check after a fresh build reads them from the build
        (`fresh_addable`), which took the layer's edges under the same
        matching and listed those without a blocker.  Every other check
        follows a collapse and its rebuild, so it walks X in edge order
        once, at every level.  Returns True when the root was matched,
        ending the run.
        """
        edge_bs, b_of, tree = self.h.edge_bs, self.m.b_of, self.tree
        while True:  # a collapse of layer 1 matches the root, so a layer remains
            x = tree.layers[-1].x
            addable = self.fresh_addable
            if addable is None:
                addable = [eid for eid in sorted(x) if b_of.keys().isdisjoint(edge_bs[eid])]
            if not self.params.exceeds_mu(len(addable), len(x)):
                return False
            if self.collapse_layer(addable):
                return True

    def collapse_layer(self, addable: list[int]) -> bool:
        """One collapse of the last layer; True when the root got matched.

        `addable` lists the layer's immediately addable X-edges in edge
        order.  Each A-vertex's least one is taken: in layer 1 it is
        added for the root, in a higher layer it replaces the vertex's
        blocker one level below.  Then the layer is discarded and the
        lazy rebuild runs.  A swap is `m.remove` of the blocker, whose
        B-vertices lie in the layer below, then `m.add` of an X-edge
        disjoint from the other X-edges, so no swap changes which X-edges
        here are addable: the list stays what the live matching gives.
        """
        h, m, tree = self.h, self.m, self.tree
        level = tree.level()
        served: set[int] = set()
        matched = False
        self.fresh_addable = None
        for eid in addable:
            a = h.edge_a[eid]
            if a in served:
                continue
            if level == 1:
                m.add(h, eid)
                matched = True
                break
            served.add(a)
            f = m.a_of[a]
            m.remove(h, f)
            m.add(h, eid)
            tree.remove_y_edge(level - 1, f)
            self.stats.swaps += 1
        tree.discard_last()
        if self.trace is not None:
            self.trace(f"collapse layer={level} swaps={len(served)} root_matched={int(matched)}")
        if not matched:
            self.superposed_build()
        return matched

    def superposed_build(self) -> None:
        """Lazy rebuild of the current last layer.

        The additions of :meth:`_rebuild` are computed without committing
        and merged into the layer only if they grow X by a full (1+mu)
        factor (exact comparison, >= at the boundary); otherwise they are
        dropped.  A skipped rebuild counts as a build op and is traced
        with x_after = x_before, as the full rebuild would be.
        """
        tree = self.tree
        i = tree.level()
        added = self._rebuild(i, tree.occupied_b())
        self.stats.build_ops += 1
        x_before = len(tree.layers[-1].x)
        x_after = x_before + len(added.x)
        committed = self.params.reaches_one_plus_mu(x_after, x_before)
        if committed:
            tree.commit_rebuild(added)
        if self.trace is not None:
            self.trace(
                f"superposed layer={i} committed={int(committed)} "
                f"x_before={x_before} x_after={x_after}"
            )

    def _rebuild(self, i: int, occupied: AbstractSet[int]) -> Layer:
        """The edges an uncommitted rebuild of layer i adds, avoiding the
        B-vertices in `occupied`, which holds the layer's own.  It can
        take only edges the layer's fresh build rejected (see
        :func:`build_layer`): when each meets `occupied`, it is skipped.
        A layer stacked without its rejected edges takes the full build.
        """
        tree, bs_of = self.tree, self.h.edge_bs.__getitem__
        rejected = tree.rejected[i - 1]
        if rejected is not None and not any(map(occupied.isdisjoint, map(bs_of, rejected))):
            return _NO_ADDITIONS
        return build_layer(
            self.h, self.m, occupied, tree.parent_a_set(i), self.params.u,
            x_held=tree.layers[i - 1].x,
        )

    def _prefix_rebuilds(self, k: int) -> Iterator[Layer]:
        """The edges the uncommitted rebuild of layer i adds, for i = 1..k,
        each rebuild avoiding the B-vertices of layers 1..i only."""
        prefix: set[int] = set()
        for i, layer in enumerate(self.tree.layers[:k], start=1):
            prefix |= layer.bx
            prefix |= layer.by
            yield self._rebuild(i, prefix)

    # ------------------------------------------------------------------
    # witness extraction

    def extract_witness(self) -> WitnessCertificate:
        """Package the growth failure into a verified certificate.

        S starts from the root plus all A-vertices of blocking edges in
        the pre-failure tree, then drops vertices whose X-edge count is
        saturated and vertices that an uncommitted rebuild of their
        layer would still serve.  The hitting set is every tree B-vertex
        plus the B-vertices the rebuilds would newly introduce: any edge
        of a surviving vertex must meet that set, or its layer's rebuild
        would have taken it.  :meth:`_rebuild` skips the provably empty ones.
        """
        h = self.h
        tree = self.tree
        level = tree.level()  # includes the freshly built failing layer
        s: set[int] = {tree.root}
        for layer in tree.layers[: level - 1]:
            s.update(h.edge_a[f] for f in layer.y)
        x_counts = Counter(h.edge_a[eid] for layer in tree.layers for eid in layer.x)
        hitting = set(tree.occupied_b())
        saturated = {a for a, c in x_counts.items() if c >= self.params.u}
        served: set[int] = set()
        for added in self._prefix_rebuilds(level - 1):
            served.update(h.edge_a[eid] for eid in added.x)
            hitting |= added.bx
            hitting |= added.by
        s -= saturated
        s -= served
        cert = WitnessCertificate.build(h.r, s, hitting, self.params.epsilon)
        v = verify_witness(h, cert)
        if v is not None:
            raise InternalSolverError(
                "CERTIFICATE_INVALID", f"extracted certificate invalid: {v}"
            )
        return cert

    # ------------------------------------------------------------------
    # trace events

    def _log_end(self, outcome: str, iterations: int) -> None:
        if self.trace is not None:
            self.trace(f"augment_end outcome={outcome} iterations={iterations}")

    def _iteration_boundary(self, iteration: int) -> None:
        """Trace the iteration and the progress signature; only called
        when tracing."""
        trace = self.trace
        if iteration == 1:
            trace(_EMPTY_TREE_BOUNDARY)
            return
        trace(f"iteration iter={iteration} layers={self.tree.level()}")
        sizes = [(len(l.x), len(l.y)) for l in self.tree.layers]
        sig, unresolved = signature_from_sizes(sizes, self.memo)
        coords = ",".join(map(str, sig))
        trace(f"signature iter={iteration} coords={coords} unresolved={unresolved}")


def augment(run: AugmentRun, root: int) -> WitnessCertificate | None:
    """Augment the solve `run` from the unmatched `root`.

    Returns None once the root is matched (`run.m` is extended in
    place), or the verified witness when the tree stalls.  Internal
    faults raise :class:`InternalSolverError`.
    """
    return run.run(root)


def find_perfect_matching(
    h: BipartiteHypergraph,
    epsilon: Fraction | str | int,
    trace: TraceSink | None = None,
) -> SolveResult:
    """Match every A-vertex starting from the empty matching.

    Roots are processed in vertex order; each augment matches exactly
    its root, so every root is unmatched when its turn comes.  Returns
    the perfect matching, or the first violation certificate
    encountered.  Epsilon alone sets mu and u, so every witness meets
    its bound.  A malformed instance raises :class:`InstanceError`;
    internal faults (a result that fails its check, or the derived
    iteration cap) raise :class:`InternalSolverError`.
    """
    v = validate_instance(h)
    if v is not None:
        raise InstanceError(v.code, v.detail)
    params = Parameters.for_instance(h.r, epsilon)
    run = AugmentRun(h, PartialMatching(), params, trace)
    for a in range(h.a_count):
        witness = augment(run, a)
        if witness is not None:
            return SolveResult(matching=None, witness=witness, stats=run.stats)
    v = verify_matching(h, run.m, require_perfect=True)
    if v is not None:
        raise InternalSolverError("RESULT_INVALID", str(v))
    return SolveResult(matching=run.m, witness=None, stats=run.stats)
