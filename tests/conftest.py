"""Shared instance builders and hypothesis strategies."""

from __future__ import annotations

from typing import Callable

import pytest
from hypothesis import strategies as st

from hbmatch import (
    BipartiteHypergraph,
    GeneratorSpec,
    PartialMatching,
    from_bipartite_graph,
    generate,
)
from hbmatch.oracles import DEFAULT_SUBSET_CAP, InstanceTooLarge


def make_h(r, a_count, b_count, edges) -> BipartiteHypergraph:
    return BipartiteHypergraph(r, a_count, b_count, edges)


def shift_chain(k: int) -> BipartiteHypergraph:
    """r=2 chain whose last augmentation unwinds a depth-k cascade.

    Each a_i < k lists (a_i; b_{i+1}) before (a_i; b_i), so greedy
    matching shifts every vertex up and a_k's only edge is taken.
    """
    pairs = []
    for i in range(k):
        pairs.append((i, i + 1))
        pairs.append((i, i))
    pairs.append((k, k))
    return from_bipartite_graph(pairs, k + 1, k + 1)


def superposed_commit_instance() -> BipartiteHypergraph:
    """r=3 fixture where a collapse frees b1 and the lazy rebuild of the
    layer below gains an edge, crossing the (1+mu) commit threshold."""
    return make_h(3, 3, 10, [
        (0, (0, 1)),
        (0, (8, 9)),
        (1, (4, 5)),
        (2, (0, 2)),
        (2, (4, 6)),
        (2, (1, 7)),
    ])


def shuffled_planted(seed: int, na: int, r: int = 3, tight: bool = False) -> BipartiteHypergraph:
    """`shuffled` instance with 2na extra edges and nb = (r-1)na + na,
    or nb = (r-1)na when tight, so the planted matching uses every
    B-vertex."""
    return generate(GeneratorSpec(
        mode="shuffled", r=r, a_count=na, b_count=(r - 1) * na + (0 if tight else na),
        extra_edges=2 * na, seed=seed,
    ))


def per_line(sink: Callable[[str], None]) -> Callable[[str], None]:
    """A trace sink that hands `sink` each line of every run's string."""

    def split(run: str) -> None:
        for line in run.split("\n"):
            sink(line)

    return split


def trace_event(line: str) -> tuple[str, dict]:
    """One engine trace line as (event, fields); integer fields become ints."""
    event, *pairs = line.split()
    fields = {}
    for pair in pairs:
        key, value = pair.split("=", 1)
        fields[key] = int(value) if value.lstrip("-").isdecimal() else value
    return event, fields


def brute_force_perfect_matching(
    h: BipartiteHypergraph, max_a: int = DEFAULT_SUBSET_CAP
) -> PartialMatching | None:
    """Backtracking ground-truth search; lexicographically first matching.

    A-vertices are processed in index order and each tries its incident
    edges in edge order, so the first complete assignment found is the
    lexicographically least one.  Returns None when no perfect matching
    exists.
    """
    if h.a_count > max_a:
        raise InstanceTooLarge(f"|A|={h.a_count} exceeds the backtracking cap {max_a}")
    used_b: set[int] = set()
    picks: list[int] = []

    def bt(a: int) -> bool:
        if a == h.a_count:
            return True
        for eid in h.a_edges.get(a, ()):
            e = h.edges[eid]
            if any(b in used_b for b in e.bs):
                continue
            used_b.update(e.bs)
            picks.append(eid)
            if bt(a + 1):
                return True
            picks.pop()
            used_b.difference_update(e.bs)
        return False

    if not bt(0):
        return None
    m = PartialMatching()
    for eid in picks:
        m.add(h, eid)
    return m


@st.composite
def hypergraphs(draw, max_a=6, max_b=10, max_edges=14, r_values=(2, 3, 4)):
    r = draw(st.sampled_from(r_values))
    a_count = draw(st.integers(1, max_a))
    b_count = draw(st.integers(r - 1, max_b))
    n_edges = draw(st.integers(0, max_edges))
    seen = set()
    edges = []
    for _ in range(n_edges):
        a = draw(st.integers(0, a_count - 1))
        bs = tuple(sorted(draw(
            st.sets(st.integers(0, b_count - 1), min_size=r - 1, max_size=r - 1)
        )))
        if (a, bs) not in seen:
            seen.add((a, bs))
            edges.append((a, bs))
    return make_h(r, a_count, b_count, edges)


@st.composite
def hypergraphs_with_matching(draw, **kwargs):
    h = draw(hypergraphs(**kwargs))
    m = PartialMatching()
    order = draw(st.permutations(range(h.m))) if h.m else []
    for eid in order:
        e = h.edges[eid]
        if e.a not in m.a_of and not any(b in m.b_of for b in e.bs):
            if draw(st.booleans()):
                m.add(h, eid)
    return h, m


@pytest.fixture
def tiny_r3():
    """One r=3 edge (a0; b0, b1)."""
    return make_h(3, 1, 2, [(0, (0, 1))])
