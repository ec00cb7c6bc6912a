"""Exact desk-scale oracles behind `hbmatch check-haxell`.

Minimum hitting sets by branch and bound, and exhaustive checking of
the matching-existence condition over all A-subsets.  Both are
exponential by nature and guarded by instance-size caps; the solver
never calls them, and no result check depends on them (those live in
:mod:`hbmatch.certify`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator

from .certify import condition_factor
from .core import BipartiteHypergraph, incident_edges
from .params import parse_rational

__all__ = [
    "HaxellResult",
    "InstanceTooLarge",
    "min_hitting_set",
    "check_haxell",
]

DEFAULT_SUBSET_CAP = 20


class InstanceTooLarge(ValueError):
    """Instance exceeds the cap for an exhaustive oracle."""


@dataclass(frozen=True)
class HaxellResult:
    """Outcome of the condition check: satisfied, or the first violator
    S with a minimum hitting set of E_S, sorted; tau is its size."""

    satisfied: bool
    violator: tuple[int, ...] | None = None
    tau: int | None = None
    bound: Fraction | None = None
    hitting_set: tuple[int, ...] | None = None


def _greedy_hitting_set(bsets: list[frozenset[int]]) -> list[int]:
    """Deterministic greedy cover; upper bound seed for the search."""
    chosen: list[int] = []
    unhit = list(bsets)
    while unhit:
        counts = Counter(v for bs in unhit for v in bs)
        best = max(sorted(counts), key=counts.__getitem__)
        chosen.append(best)
        unhit = [bs for bs in unhit if best not in bs]
    return chosen


def _search(bsets: list[frozenset[int]], budget: int) -> frozenset[int] | None:
    """A minimum hitting set of `bsets` if one has at most `budget` vertices.

    Branch and bound on an explicit stack, each frame holding its node's
    unhit edges for its children to filter: branch on the B-vertices of
    an unhit edge (the one with the fewest vertices not yet excluded,
    ties by list order), vertices in index order, excluding each tried
    vertex from later siblings.  A node is pruned when it cannot beat
    the incumbent (or, before one is found, the budget): a greedy
    B-disjoint subfamily of its unhit edges bounds what it still needs.
    No unhit edge loses its last vertex to exclusion: the j-th child of
    an edge with k vertices left excludes j-1 < k of them, and every
    other unhit edge of the node has at least k left.
    """
    best: frozenset[int] | None = None
    limit = budget + 1  # a new incumbent must be smaller than this
    chosen: list[int] = []  # one vertex per stack frame whose child is open
    excluded: set[int] = set()
    stack: list[tuple[list[int], Iterator[int], list[frozenset[int]]]] = []
    unhit = bsets
    while True:
        if not unhit:
            if len(chosen) < limit:
                limit = len(chosen)
                best = frozenset(chosen)
        else:
            # prune once a greedy B-disjoint subfamily (one vertex each)
            # fills the room; branch otherwise
            used: set[int] = set()
            room = limit - len(chosen)
            for bs in unhit:
                if not (bs & used):
                    used |= bs
                    room -= 1
                    if room <= 0:
                        break
            else:
                target = min(unhit, key=lambda bs: len(bs - excluded))
                candidates = sorted(target - excluded)
                stack.append((candidates, iter(candidates), unhit))
        while stack:
            candidates, untried, node_unhit = stack[-1]
            if len(chosen) == len(stack):  # back from this frame's child
                excluded.add(chosen.pop())
            v = next(untried, None)
            if v is not None:
                chosen.append(v)
                unhit = [bs for bs in node_unhit if v not in bs]
                break
            excluded.difference_update(candidates)
            stack.pop()
        else:
            return best


def min_hitting_set(
    h: BipartiteHypergraph,
    family: Iterable[int],
    budget: int | None = None,
) -> frozenset[int] | None:
    """Exact minimum hitting set of the edge family, over B-vertices.

    Without a budget the search starts from the greedy cover as its
    incumbent.  With a budget, returns None when the true minimum is
    strictly larger (always, for a negative budget); that is a value,
    not a failure.
    """
    bsets = [frozenset(h.edge_bs[i]) for i in sorted(set(family))]
    if budget is not None:
        return _search(bsets, budget)
    greedy = _greedy_hitting_set(bsets)
    return _search(bsets, len(greedy) - 1) or frozenset(greedy)


def check_haxell(h: BipartiteHypergraph, epsilon: Fraction | str | int) -> HaxellResult:
    """Exhaustively test tau(E_S) > (2r-3+epsilon)(|S|-1) over all nonempty S.

    Epsilon is read as the solver reads it, by :func:`parse_rational`,
    and must be >= 0; at epsilon 0 this is the classic condition.
    Subsets are enumerated by increasing size, then lexicographically,
    and the first violator is returned.  Comparisons use exact
    rationals; the per-subset hitting-set search stops at the floored
    bound.  An instance with |A| above DEFAULT_SUBSET_CAP raises
    :class:`InstanceTooLarge`.
    """
    epsilon = parse_rational(epsilon, "epsilon")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if h.a_count > DEFAULT_SUBSET_CAP:
        raise InstanceTooLarge(
            f"|A|={h.a_count} exceeds the subset-enumeration cap {DEFAULT_SUBSET_CAP}"
        )
    factor = condition_factor(h.r, epsilon)
    bsets = [frozenset(bs) for bs in h.edge_bs]
    for k in range(1, h.a_count + 1):
        for subset in combinations(range(h.a_count), k):
            bound = factor * (k - 1)
            family = sorted(incident_edges(h, subset))
            found = _search([bsets[i] for i in family], math.floor(bound))
            if found is not None:
                return HaxellResult(False, subset, len(found), bound, tuple(sorted(found)))
    return HaxellResult(True)
