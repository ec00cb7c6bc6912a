"""Exact desk-scale oracles behind `hbmatch check-haxell`.

Minimum hitting sets by branch and bound, and exhaustive checking of
the matching-existence condition over all A-subsets.  Both are
exponential by nature and guarded by instance-size caps; the solver
never calls them, and no result check depends on them (those live in
:mod:`hbmatch.certify`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .certify import condition_factor
from .core import BipartiteHypergraph, incident_edges

__all__ = [
    "EXCEEDS_BUDGET",
    "HittingSetResult",
    "HaxellResult",
    "InstanceTooLarge",
    "min_hitting_set",
    "check_haxell",
]

DEFAULT_SUBSET_CAP = 20


class InstanceTooLarge(ValueError):
    """Instance exceeds the cap for an exhaustive oracle."""

    code = "INSTANCE_TOO_LARGE"


class _BudgetExceeded:
    """Sentinel: the minimum hitting set is strictly larger than the budget."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "EXCEEDS_BUDGET"


EXCEEDS_BUDGET = _BudgetExceeded()


@dataclass(frozen=True)
class HittingSetResult:
    size: int
    witness: frozenset[int]


@dataclass(frozen=True)
class HaxellResult:
    """Outcome of the condition check: satisfied, or the first violator."""

    satisfied: bool
    violator: tuple[int, ...] | None = None
    tau: int | None = None
    bound: Fraction | None = None


def _greedy_hitting_set(bsets: list[frozenset[int]]) -> list[int]:
    """Deterministic greedy cover; upper bound seed for the search."""
    chosen: list[int] = []
    unhit = list(bsets)
    while unhit:
        counts: dict[int, int] = {}
        for bs in unhit:
            for v in bs:
                counts[v] = counts.get(v, 0) + 1
        best = max(sorted(counts), key=lambda v: counts[v])
        chosen.append(best)
        unhit = [bs for bs in unhit if best not in bs]
    return chosen


def min_hitting_set(
    h: BipartiteHypergraph,
    family: Iterable[int],
    budget: int | None = None,
) -> HittingSetResult | _BudgetExceeded:
    """Exact minimum hitting set of the edge family, over B-vertices.

    Branch and bound: branch on the B-vertices of an unhit edge (the one
    with the fewest vertices not yet excluded, ties by family order),
    vertices in index order, excluding each tried vertex from later
    branches.  Pruned at the incumbent, at the budget, and at an
    admissible lower bound from a greedy B-disjoint subfamily.

    With a budget, returns EXCEEDS_BUDGET when the true minimum is
    strictly larger; that is a value, not a failure.
    """
    ids = sorted(set(family))
    all_bsets = h.b_sets
    bsets = [all_bsets[i] for i in ids]
    if not bsets:
        return HittingSetResult(0, frozenset())

    best_set: tuple[int, ...] | None = None
    if budget is not None:
        # a greedy incumbent is pointless when the search stops at budget
        best_size = budget + 1
    else:
        greedy = _greedy_hitting_set(bsets)
        best_set = tuple(sorted(greedy))
        best_size = len(greedy)

    chosen: list[int] = []
    chosen_set: set[int] = set()
    excluded: set[int] = set()

    def lower_bound(unhit: list[frozenset[int]], enough: int) -> int | None:
        # Greedy B-disjoint subfamily: its size is a valid lower bound;
        # scanning stops once `enough` certifies the prune (the prune
        # fires either way, so skipping a later dead edge is harmless).
        # None signals an unhit edge with every vertex excluded.
        used: set[int] = set()
        count = 0
        for bs in unhit:
            if excluded and not (bs - excluded):
                return None
            if not (bs & used):
                used |= bs
                count += 1
                if count >= enough:
                    return count
        return count

    def dfs() -> None:
        nonlocal best_size, best_set
        unhit = [bs for bs in bsets if not (bs & chosen_set)]
        if not unhit:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_set = tuple(sorted(chosen))
            return
        lb = lower_bound(unhit, best_size - len(chosen))
        if lb is None or len(chosen) + lb >= best_size:
            return
        if excluded:
            target = min(unhit, key=lambda bs: len(bs - excluded))
        else:
            target = min(unhit, key=len)
        tried: list[int] = []
        for v in sorted(target - excluded):
            chosen.append(v)
            chosen_set.add(v)
            dfs()
            chosen.pop()
            chosen_set.discard(v)
            excluded.add(v)
            tried.append(v)
        excluded.difference_update(tried)

    dfs()
    if best_set is None or (budget is not None and best_size > budget):
        return EXCEEDS_BUDGET
    return HittingSetResult(best_size, frozenset(best_set))


def check_haxell(
    h: BipartiteHypergraph,
    epsilon: Fraction,
    mode: str = "strengthened",
    max_a: int = DEFAULT_SUBSET_CAP,
) -> HaxellResult:
    """Exhaustively test tau(E_S) > factor * (|S|-1) over all nonempty S.

    `mode` is "strengthened" (factor 2r-3+epsilon) or "classic"
    (factor 2r-3).  Subsets are enumerated by increasing size, then
    lexicographically, and the first violator is returned.  Comparisons
    use exact rationals; the per-subset hitting-set search stops at the
    floored bound.
    """
    if mode not in ("strengthened", "classic"):
        raise ValueError(f"unknown mode {mode!r}")
    if h.a_count > max_a:
        raise InstanceTooLarge(
            f"|A|={h.a_count} exceeds the subset-enumeration cap {max_a}"
        )
    factor = condition_factor(h.r, epsilon if mode == "strengthened" else Fraction(0))
    for k in range(1, h.a_count + 1):
        for subset in combinations(range(h.a_count), k):
            bound = factor * (k - 1)
            budget = math.floor(bound)
            res = min_hitting_set(h, incident_edges(h, subset), budget=budget)
            if res is not EXCEEDS_BUDGET:
                assert isinstance(res, HittingSetResult)
                return HaxellResult(False, subset, res.size, bound)
    return HaxellResult(True)
