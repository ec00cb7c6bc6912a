"""The augmenting algorithm and the perfect-matching driver.

One augmenting run grows an alternating tree from an unmatched root.
Each main-loop iteration first builds a fresh layer on top of the tree
(build phase), then repeatedly collapses the last layer while more than
a mu fraction of its X-edges are immediately addable (collapse phase).
Collapsing swaps addable X-edges into the matching in place of the
blockers one level below, discards the layer, and lazily re-runs the
layer build on the new last layer, committing the rebuild only when it
grows X by a (1+mu) factor.  When the root's own layer collapses the
root gets matched and the run ends.

If a freshly built layer is too small -- empty for small trees, or not
larger than delta times the blocking-edge count for large ones -- the
strengthened matching-existence condition must be violated, and the run
extracts an explicit violating set with a hitting-set certificate
instead of a matching.

All threshold comparisons (mu |X|, (1+mu)|X|, delta |Y|) are exact:
:class:`Parameters` compares integer cross-products of the counts with
the numerators and denominators of mu and delta, since several
thresholds sit exactly on integer boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import (
    BipartiteHypergraph,
    InstanceError,
    PartialMatching,
    is_immediately_addable,
    swap,
    validate_instance,
    verify_matching,
)
from .oracles import WitnessCertificate, verify_witness
from .params import Parameters
from .signature import (
    SignatureMemo,
    SignatureVector,
    check_signature_step,
    signature_from_sizes,
)
from .tree import AlternatingTree, build_layer, validate_tree

__all__ = [
    "AugmentOutcome",
    "AugmentRun",
    "SolveResult",
    "SolveStats",
    "InvariantViolation",
    "CertificateError",
    "InternalSolverError",
    "augment",
    "find_perfect_matching",
    "tree_signature",
]

TraceSink = Callable[[str, dict], None]


class InvariantViolation(RuntimeError):
    """A debug-mode runtime invariant failed; always an implementation bug."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


class CertificateError(RuntimeError):
    """An extracted certificate failed verification (implementation bug)."""

    code = "CERTIFICATE_INVALID"


class InternalSolverError(RuntimeError):
    """Driver-level wrapper for internal-error outcomes."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


@dataclass
class SolveStats:
    iterations: int = 0
    max_layers: int = 0
    swaps: int = 0
    build_ops: int = 0
    sig_ambiguities: int = 0


@dataclass(frozen=True)
class AugmentOutcome:
    """Exactly one of: a matching now covering the root, a violation
    certificate, or an internal-error code."""

    matching: PartialMatching | None = None
    witness: WitnessCertificate | None = None
    error: str | None = None


@dataclass(frozen=True)
class SolveResult:
    matching: PartialMatching | None
    witness: WitnessCertificate | None
    stats: SolveStats

    @property
    def status(self) -> str:
        return "perfect_matching" if self.matching is not None else "witness"


class AugmentRun:
    """State of one augmenting computation; single-threaded, single-owner."""

    def __init__(
        self,
        h: BipartiteHypergraph,
        m: PartialMatching,
        root: int,
        params: Parameters,
        trace: TraceSink | None = None,
        debug_invariants: bool = False,
        stats: SolveStats | None = None,
        memo: SignatureMemo | None = None,
    ):
        if m.matches_a(root):
            raise ValueError(f"root {root} is already matched")
        self.h = h
        self.m = m
        self.params = params
        self.trace = trace
        self.debug = debug_invariants
        self.stats = stats if stats is not None else SolveStats()
        self.memo = memo if memo is not None else SignatureMemo(params)
        self.tree = AlternatingTree(h, m, root, params.u)
        self.prev_signature: SignatureVector | None = None
        self._matched_before = m.matched_a_vertices() if debug_invariants else None

    def _emit(self, event: str, **fields) -> None:
        if self.trace is not None:
            self.trace(event, fields)

    # ------------------------------------------------------------------
    # main loop

    def run(self) -> AugmentOutcome:
        root = self.tree.root
        self._emit("augment_start", root=root, matched=len(self.m))
        cap = self.params.iteration_cap(self.h.a_count)
        iteration = 0
        while True:
            iteration += 1
            if iteration > cap:
                self._emit("augment_end", outcome="internal_error", iterations=iteration - 1)
                return AugmentOutcome(error="ITERATION_CAP_EXCEEDED")
            self.stats.iterations += 1
            self._iteration_boundary(iteration)
            witness = self.build_phase()
            if witness is not None:
                self._emit("augment_end", outcome="witness", iterations=iteration)
                return AugmentOutcome(witness=witness)
            if self.collapse_phase():
                if self.debug:
                    self._check_matched_exactly_root(root)
                self._emit("augment_end", outcome="matched", iterations=iteration)
                return AugmentOutcome(matching=self.m)

    # ------------------------------------------------------------------
    # phases

    def build_phase(self) -> WitnessCertificate | None:
        """Build and append the next layer; on a growth failure, extract
        the violation certificate."""
        tree = self.tree
        level = tree.level()
        y_total_before = tree.y_total()
        x, y = build_layer(
            self.h,
            self.m,
            tree.occupied_b(),
            tree.parent_a_set(level + 1),
            self.params.u,
        )
        self.stats.build_ops += 1
        tree.append_layer(x, y)
        self.stats.max_layers = max(self.stats.max_layers, tree.level())
        self._emit("layer_built", index=tree.level(), x=len(x), y=len(y))
        ok = self.growth_check(len(x), y_total_before)
        self._emit(
            "growth",
            result="pass" if ok else "fail",
            x=len(x),
            y_total=y_total_before,
        )
        if not ok:
            cert = self.extract_witness()
            self._emit(
                "witness",
                s=len(cert.s),
                hitting=len(cert.hitting_set),
                bound=str(cert.bound),
            )
            return cert
        if self.debug:
            # Fresh layer excluded: its collapse status is still unresolved.
            self._check_layer_count_bound(tree.level() - 1)
        return None

    def growth_check(self, x_new: int, y_total_before: int) -> bool:
        """Minimum-growth test for a freshly built layer.

        Small trees (blocking count below the threshold, root counted as
        one) only need a nonempty layer; past the threshold the layer
        must exceed delta times the blocking count, compared exactly.
        """
        if y_total_before < self.params.small_tree_threshold:
            return x_new >= 1
        return self.params.exceeds_delta(x_new, y_total_before)

    def collapse_phase(self) -> bool:
        """Collapse the last layer while it stays collapsible.

        Returns True when the root was matched, ending the run.
        """
        tree = self.tree
        while tree.level() >= 1 and self._collapsible(tree.layers[-1].x):
            if self.collapse_layer():
                return True
        return False

    def _collapsible(self, x: set[int]) -> bool:
        """More than mu|X| of the X-edges are immediately addable.

        Counting stops once the answer is decided: at the least count
        that exceeds mu|X|, or when the edges left cannot reach it.
        """
        need = self.params.least_exceeding_mu(len(x))
        left = len(x)
        for eid in x:
            if left < need:
                return False
            left -= 1
            if is_immediately_addable(self.h, self.m, eid):
                need -= 1
                if need == 0:
                    return True
        return False

    def collapse_layer(self) -> bool:
        """One collapse of the last layer; True when the root got matched.

        Swaps, in edge order over the blockers one level below, each
        blocker for the least immediately addable X-edge of its
        A-vertex, re-evaluated against the live matching; then discards
        the layer and runs the lazy rebuild on the new last layer.
        """
        tree = self.tree
        level = tree.level()
        x_by_a = x_by_a_vertex(self.h, tree.layers[-1].x)
        if level == 1:
            root = tree.root
            eid = self._least_addable_for(x_by_a, root)
            assert eid is not None, "collapsible first layer must offer the root an edge"
            self.m.add(self.h, eid)
            tree.discard_last()
            self._emit("collapse", layer=1, swaps=0, root_matched=1)
            return True
        below = tree.layers[level - 2]
        swaps_here = 0
        for f in sorted(below.y):
            a = self.h.edges[f].a
            eid = self._least_addable_for(x_by_a, a)
            if eid is None:
                continue
            swap(self.h, self.m, f, eid)
            tree.remove_y_edge(level - 1, f)
            swaps_here += 1
            self.stats.swaps += 1
            if self.debug:
                v = verify_matching(self.h, self.m)
                if v is not None:
                    raise InvariantViolation("MATCHING_AFTER_SWAP", str(v))
        tree.discard_last()
        self._emit("collapse", layer=level, swaps=swaps_here, root_matched=0)
        self.superposed_build()
        return False

    def _least_addable_for(self, x_by_a: dict[int, list[int]], a: int) -> int | None:
        """Least X-edge of `a` that is immediately addable under the live M."""
        for eid in x_by_a.get(a, ()):
            if is_immediately_addable(self.h, self.m, eid):
                return eid
        return None

    def superposed_build(self) -> None:
        """Lazy rebuild of the current last layer.

        The rebuild is computed without committing and kept only if X
        grew by a full (1+mu) factor (exact comparison, >= at the
        boundary); otherwise the tentative additions are dropped.
        """
        tree = self.tree
        i = tree.level()
        layer = tree.layers[-1]
        x2, y2 = build_layer(
            self.h,
            self.m,
            tree.occupied_b(),
            tree.parent_a_set(i),
            self.params.u,
            x0=layer.x,
            y0=layer.y,
        )
        self.stats.build_ops += 1
        x_before = len(layer.x)
        committed = self.params.reaches_one_plus_mu(len(x2), x_before)
        if committed:
            tree.commit_rebuild(x2, y2)
        self._emit(
            "superposed",
            layer=i,
            committed=int(committed),
            x_before=x_before,
            x_after=len(x2),
        )

    # ------------------------------------------------------------------
    # witness extraction

    def _prefix_rebuild(self, i: int) -> tuple[set[int], set[int]]:
        """Uncommitted rebuild of layer i against the prefix below it,
        ignoring all higher layers."""
        occ: set[int] = set()
        for layer in self.tree.layers[:i]:
            for eid in layer.x | layer.y:
                occ.update(self.h.edges[eid].bs)
        layer = self.tree.layers[i - 1]
        return build_layer(
            self.h,
            self.m,
            occ,
            self.tree.parent_a_set(i),
            self.params.u,
            x0=layer.x,
            y0=layer.y,
        )

    def extract_witness(self) -> WitnessCertificate:
        """Package the growth failure into a verified certificate.

        S starts from the root plus all A-vertices of blocking edges in
        the pre-failure tree, then drops vertices whose X-edge count is
        saturated and vertices that an uncommitted rebuild of their
        layer would still serve.  The hitting set is every tree B-vertex
        plus the B-vertices the rebuilds would newly introduce: any edge
        of a surviving vertex must meet that set, or its layer's rebuild
        would have taken it.
        """
        h = self.h
        tree = self.tree
        level = tree.level()  # includes the freshly built failing layer
        s: set[int] = {tree.root}
        for layer in tree.layers[: level - 1]:
            s.update(h.edges[f].a for f in layer.y)
        x_counts: dict[int, int] = {}
        hitting: set[int] = set()
        for layer in tree.layers:
            for eid in layer.x:
                a = h.edges[eid].a
                x_counts[a] = x_counts.get(a, 0) + 1
            for eid in layer.x | layer.y:
                hitting.update(h.edges[eid].bs)
        saturated = {a for a, c in x_counts.items() if c >= self.params.u}
        served: set[int] = set()
        for i in range(1, level):
            layer = tree.layers[i - 1]
            x2, y2 = self._prefix_rebuild(i)
            served.update(h.edges[eid].a for eid in x2 - layer.x)
            for eid in (x2 | y2) - (layer.x | layer.y):
                hitting.update(h.edges[eid].bs)
        s -= saturated
        s -= served
        cert = WitnessCertificate.build(h.r, s, hitting, self.params.epsilon)
        v = verify_witness(h, cert)
        if v is not None:
            raise CertificateError(f"extracted certificate invalid: {v}")
        return cert

    # ------------------------------------------------------------------
    # iteration-boundary monitoring

    def _iteration_boundary(self, iteration: int) -> None:
        self._emit("iteration", iter=iteration, layers=self.tree.level())
        if self.trace is not None or self.debug:
            sizes = [(len(l.x), len(l.y)) for l in self.tree.layers]
            sig, unresolved = signature_from_sizes(sizes, self.params, self.memo)
            self.stats.sig_ambiguities += unresolved
            self._emit(
                "signature",
                iter=iteration,
                coords=",".join(str(c) for c in sig.coords),
                unresolved=unresolved,
            )
            if self.debug:
                self._check_signature(sig)
            self.prev_signature = sig
        if self.debug:
            self._check_boundary_invariants()

    def _check_signature(self, sig: SignatureVector) -> None:
        broken = check_signature_step(sig, self.prev_signature)
        if broken is None:
            return
        code, pos = broken
        if code == "SIGNATURE_SIGN":
            c = sig.coords[pos - 1]
            detail = f"odd coordinate {c} > 0" if pos % 2 else f"even coordinate {c} < 0"
        elif code == "SIGNATURE_NOT_MONOTONE":
            detail = f"|coords| decrease at position {pos}: {sig.coords}"
        else:
            assert self.prev_signature is not None
            detail = f"{self.prev_signature.coords} -> {sig.coords}"
        raise InvariantViolation(code, detail)

    def _check_boundary_invariants(self) -> None:
        h, m, tree = self.h, self.m, self.tree
        v = validate_tree(h, m, tree)
        if v is not None:
            raise InvariantViolation("TREE_INVALID", str(v))
        v = verify_matching(h, m)
        if v is not None:
            raise InvariantViolation("MATCHING_INVALID", str(v))
        if self._matched_before is not None and m.matched_a_vertices() != self._matched_before:
            raise InvariantViolation("MATCHED_SET_CHANGED", "A(M) drifted mid-run")
        y_below = 1
        for idx, layer in enumerate(tree.layers, start=1):
            if self._collapsible(layer.x):
                raise InvariantViolation(
                    "COLLAPSIBLE_AT_BOUNDARY", f"layer {idx} is collapsible"
                )
            if self.params.exceeds_mu(len(layer.x) - len(layer.y), len(layer.x)):
                raise InvariantViolation(
                    "BLOCKER_RATIO", f"layer {idx}: |Y|={len(layer.y)} |X|={len(layer.x)}"
                )
            if not self.params.exceeds_delta(len(layer.x), y_below):
                raise InvariantViolation(
                    "LAYER_GROWTH", f"layer {idx}: |X|={len(layer.x)} vs {y_below} below"
                )
            y_below += len(layer.y)
        for i in range(1, tree.level() + 1):
            layer = tree.layers[i - 1]
            x2, _ = self._prefix_rebuild(i)
            if self.params.reaches_one_plus_mu(len(x2), len(layer.x)):
                raise InvariantViolation(
                    "SUPERPOSED_GROWTH_AT_BOUNDARY",
                    f"layer {i}: rebuild reaches {len(x2)} from {len(layer.x)}",
                )
        self._check_layer_count_bound(tree.level())

    def _check_layer_count_bound(self, level: int) -> None:
        n = self.h.a_count
        if (1 + self.params.gamma) ** level > n:
            raise InvariantViolation(
                "LAYER_COUNT_BOUND", f"(1+gamma)^{level} > n={n}"
            )

    def _check_matched_exactly_root(self, root: int) -> None:
        assert self._matched_before is not None
        now = self.m.matched_a_vertices()
        if now != self._matched_before | {root}:
            raise InvariantViolation(
                "MATCHED_SET_CHANGED", "run did not add exactly the root"
            )


def x_by_a_vertex(h: BipartiteHypergraph, x: set[int]) -> dict[int, list[int]]:
    """A layer's X-edges grouped by A-vertex, each group in edge-id order."""
    out: dict[int, list[int]] = {}
    for eid in sorted(x):
        out.setdefault(h.edges[eid].a, []).append(eid)
    return out


def tree_signature(tree: AlternatingTree, params: Parameters) -> SignatureVector:
    """Signature vector of a tree's current layer sizes."""
    sizes = [(len(layer.x), len(layer.y)) for layer in tree.layers]
    sig, _ = signature_from_sizes(sizes, params)
    return sig


def augment(
    h: BipartiteHypergraph,
    m: PartialMatching,
    root: int,
    params: Parameters,
    trace: TraceSink | None = None,
    debug_invariants: bool = False,
    stats: SolveStats | None = None,
    memo: SignatureMemo | None = None,
) -> AugmentOutcome:
    """Run one augmenting computation for an unmatched root."""
    run = AugmentRun(
        h,
        m,
        root,
        params,
        trace=trace,
        debug_invariants=debug_invariants,
        stats=stats,
        memo=memo,
    )
    return run.run()


def find_perfect_matching(
    h: BipartiteHypergraph,
    epsilon: Fraction | str | int,
    mu_override: Fraction | str | None = None,
    u_override: int | None = None,
    max_iterations: int | None = None,
    trace: TraceSink | None = None,
    debug_invariants: bool = False,
) -> SolveResult:
    """Match every A-vertex starting from the empty matching.

    Roots are processed in vertex order.  Returns the perfect matching,
    or the first violation certificate encountered.  A malformed
    instance raises :class:`InstanceError`; internal-error outcomes (the
    iteration cap) are raised, never returned.
    """
    v = validate_instance(h)
    if v is not None:
        raise InstanceError(v.code, v.detail)
    params = Parameters.for_instance(
        h.r,
        epsilon,
        mu_override=mu_override,
        u_override=u_override,
        max_iterations=max_iterations,
    )
    m = PartialMatching()
    stats = SolveStats()
    memo = SignatureMemo(params)
    for a in range(h.a_count):
        if m.matches_a(a):
            continue
        outcome = augment(
            h,
            m,
            a,
            params,
            trace=trace,
            debug_invariants=debug_invariants,
            stats=stats,
            memo=memo,
        )
        if outcome.error is not None:
            raise InternalSolverError(outcome.error, f"augmenting A-vertex {a}")
        if outcome.witness is not None:
            return SolveResult(matching=None, witness=outcome.witness, stats=stats)
    v = verify_matching(h, m, require_perfect=True)
    if v is not None:
        raise InternalSolverError("RESULT_INVALID", str(v))
    return SolveResult(matching=m, witness=None, stats=stats)
