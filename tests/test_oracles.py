import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbmatch import (
    GeneratorSpec,
    WitnessCertificate,
    find_perfect_matching,
    from_bipartite_graph,
    generate,
    verify_witness,
)
from hbmatch.core import incident_edges
from hbmatch.oracles import InstanceTooLarge, _greedy_hitting_set, check_haxell, min_hitting_set

from .conftest import brute_force_perfect_matching, hypergraphs, make_h


def exhaustive_min_hitting_set(h, family):
    """Independent oracle: try every B-subset by increasing size."""
    bsets = [set(h.edges[i].bs) for i in family]
    if not bsets:
        return 0
    for k in range(0, h.b_count + 1):
        for subset in combinations(range(h.b_count), k):
            chosen = set(subset)
            if all(bs & chosen for bs in bsets):
                return k
    raise AssertionError("some edge cannot be hit at all")


EXCEEDS_BUDGET = "EXCEEDS_BUDGET"


def recursive_min_hitting_set(h, family, budget=None):
    """The recursive branch and bound before the stack rewrite, kept as
    the reference: the same search, returning the found set, or
    EXCEEDS_BUDGET when the minimum is larger than the budget."""
    ids = sorted(set(family))
    bsets = [frozenset(h.edge_bs[i]) for i in ids]
    if not bsets:
        return frozenset()

    best_set = None
    if budget is not None:
        best_size = budget + 1
    else:
        greedy = _greedy_hitting_set(bsets)
        best_set = tuple(sorted(greedy))
        best_size = len(greedy)

    chosen = []
    chosen_set = set()
    excluded = set()

    def lower_bound(unhit, enough):
        used = set()
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

    def dfs():
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
        tried = []
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
    return frozenset(best_set)


class TestMinHittingSet:
    def test_empty_family(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        res = min_hitting_set(h, set())
        assert len(res) == 0 and res == frozenset()

    def test_common_vertex(self):
        h = make_h(3, 2, 3, [(0, (0, 1)), (1, (0, 2))])
        res = min_hitting_set(h, {0, 1})
        assert len(res) == 1 and res == frozenset({0})

    def test_pairwise_disjoint_family(self):
        h = make_h(3, 3, 6, [(0, (0, 1)), (1, (2, 3)), (2, (4, 5))])
        assert exhaustive_min_hitting_set(h, [0, 1, 2]) == 3
        res = min_hitting_set(h, {0, 1, 2})
        assert len(res) == 3

    def test_budget_exceeded_is_a_value(self):
        h = make_h(3, 3, 6, [(0, (0, 1)), (1, (2, 3)), (2, (4, 5))])
        assert min_hitting_set(h, {0, 1, 2}, budget=2) is None
        res = min_hitting_set(h, {0, 1, 2}, budget=3)
        assert res is not None and len(res) == 3

    def test_witness_hits_everything(self):
        h = make_h(3, 3, 5, [(0, (0, 1)), (1, (1, 2)), (2, (3, 4)), (2, (1, 3))])
        res = min_hitting_set(h, range(h.m))
        for eid in range(h.m):
            assert set(h.edges[eid].bs) & res

    @pytest.mark.parametrize("family", [[], [0], [0, 1, 2]])
    def test_negative_budget_is_always_exceeded(self, family):
        h = make_h(3, 3, 6, [(0, (0, 1)), (1, (2, 3)), (2, (4, 5))])
        for budget in (-1, -5):
            assert min_hitting_set(h, family, budget=budget) is None

    def test_deeper_than_the_recursion_limit(self):
        # n pairwise B-disjoint edges, then a gadget on which the greedy
        # cover takes 3 vertices and the disjoint-subfamily bound is 2:
        # the search must go n + 2 vertices deep to beat the greedy cover
        n = sys.getrecursionlimit() + 200
        edges = [(i, (2 * i, 2 * i + 1)) for i in range(n)]
        base = 2 * n
        gadget = [(0, 2), (0, 3), (2, 4), (3, 5)]
        edges += [(n + j, (base + x, base + y)) for j, (x, y) in enumerate(gadget)]
        h = make_h(3, n + 4, base + 6, edges)
        start = time.perf_counter()
        res = min_hitting_set(h, range(h.m))
        elapsed = time.perf_counter() - start
        assert len(res) == n + 2
        assert all(set(h.edge_bs[i]) & res for i in range(h.m))
        assert elapsed < 3.0

    @given(hypergraphs(max_a=5, max_b=10, max_edges=14), st.data())
    @settings(max_examples=300)
    def test_same_set_as_recursive_search(self, h, data):
        family = data.draw(st.lists(st.integers(0, max(h.m - 1, 0)), max_size=h.m))
        for budget in (None, 0, 1, 2, 3, 4, 5):
            expected = recursive_min_hitting_set(h, family, budget)
            got = min_hitting_set(h, family, budget)
            assert got == (None if expected is EXCEEDS_BUDGET else expected)

    @given(hypergraphs(max_a=4, max_b=8, max_edges=8))
    @settings(max_examples=60)
    def test_agrees_with_exhaustive_enumeration(self, h):
        family = list(range(h.m))
        expected = exhaustive_min_hitting_set(h, family)
        res = min_hitting_set(h, family)
        assert len(res) == expected
        assert all(set(h.edges[i].bs) & res for i in family)
        assert len(res) == expected


class TestCheckHaxell:
    def test_isolated_vertex_always_violates(self):
        h = make_h(3, 1, 2, [])
        for eps in (Fraction(1), Fraction(1, 7)):
            res = check_haxell(h, eps)
            assert not res.satisfied
            assert res.violator == (0,) and res.tau == 0 and res.hitting_set == ()

    def test_private_disjoint_edges_satisfy(self):
        # two A-vertices, four pairwise B-disjoint private edges each
        edges = []
        for a in range(2):
            for j in range(4):
                base = (a * 4 + j) * 2
                edges.append((a, (base, base + 1)))
        h = make_h(3, 2, 16, edges)
        # independent check: enumerate all subsets exhaustively
        for s_size in (1, 2):
            for s in combinations(range(2), s_size):
                tau = exhaustive_min_hitting_set(h, incident_edges(h, s))
                assert tau >= 4 * s_size > 4 * (s_size - 1)
        assert check_haxell(h, Fraction(1)).satisfied

    def test_complete_bipartite_2x2_violated_at_eps_1(self):
        h = from_bipartite_graph([(a, b) for a in range(2) for b in range(2)], 2, 2)
        # exhaustive check over all three nonempty subsets
        taus = {
            s: exhaustive_min_hitting_set(h, incident_edges(h, s))
            for k in (1, 2)
            for s in combinations(range(2), k)
        }
        assert taus[(0, 1)] == 2  # bound (1+1)*(2-1) = 2; 2 > 2 fails
        res = check_haxell(h, Fraction(1))
        assert not res.satisfied
        assert res.violator == (0, 1) and res.tau == 2 and res.bound == 2
        assert res.hitting_set == (0, 1)

    def test_classic_condition_is_epsilon_zero(self):
        h = from_bipartite_graph([(a, b) for a in range(2) for b in range(2)], 2, 2)
        assert check_haxell(h, Fraction(0)).satisfied
        assert not check_haxell(h, Fraction(1)).satisfied

    @pytest.mark.parametrize(
        "text, value", [("1/2", Fraction(1, 2)), ("1", Fraction(1)), (0, Fraction(0))]
    )
    def test_epsilon_is_read_as_the_solver_reads_it(self, text, value):
        h = from_bipartite_graph([(a, b) for a in range(2) for b in range(2)], 2, 2)
        res = check_haxell(h, text)
        assert res == check_haxell(h, value)
        assert res.bound is None or type(res.bound) is Fraction

    @pytest.mark.parametrize(
        "epsilon, error, message",
        [
            ("abc", ValueError, "epsilon 'abc' is not p/q or a decimal"),
            ("1/0", ValueError, "epsilon '1/0' has a zero denominator"),
            (0.5, TypeError, "rational parameters must not pass through floats"),
            (-1, ValueError, "epsilon must be >= 0, got -1"),
            ("-1/2", ValueError, "epsilon must be >= 0, got -1/2"),
        ],
        ids=["not-a-rational", "zero-denominator", "float", "negative-int", "negative-fraction"],
    )
    def test_refuses_a_malformed_or_negative_epsilon(self, epsilon, error, message):
        h = from_bipartite_graph([(a, b) for a in range(2) for b in range(2)], 2, 2)
        with pytest.raises(error) as exc:
            check_haxell(h, epsilon)
        assert type(exc.value) is error and str(exc.value) == message

    def test_hall_regime_ends_at_epsilon_times_na_minus_one_equal_to_one(self):
        # r = 2, so tau(E_S) = |N(S)|, and a planted perfect matching gives
        # Hall's condition.  At eps*(na-1) < 1 the paper's condition is
        # Hall's and holds; at eps*(na-1) = 1 all of A violates it, as
        # |N(A)| = 8 = (1+1/7)*7.
        h = generate(GeneratorSpec("shuffled", 2, 8, 8, extra_edges=10, seed=0))
        assert check_haxell(h, Fraction(1, 8)).satisfied
        res = check_haxell(h, Fraction(1, 7))
        assert not res.satisfied
        assert (res.violator, res.tau, res.bound) == (tuple(range(8)), 8, 8)
        assert find_perfect_matching(h, Fraction(1, 8)).status == "perfect_matching"

    @given(h=hypergraphs(max_a=4, max_b=7, max_edges=12), eps=st.sampled_from(["0", "1/2", "1", "3"]))
    @settings(max_examples=60, deadline=None)
    def test_violation_carries_a_minimum_hitting_set(self, h, eps):
        # The VIOLATED answer proves itself: its sorted set hits every
        # edge of E_S, has tau members, and no smaller set does.
        res = check_haxell(h, eps)
        if res.satisfied:
            assert res.hitting_set is None
            return
        family = incident_edges(h, res.violator)
        assert res.hitting_set == tuple(sorted(set(res.hitting_set)))
        assert all(set(h.edge_bs[eid]) & set(res.hitting_set) for eid in family)
        assert res.tau == len(res.hitting_set) == exhaustive_min_hitting_set(h, family)
        assert res.tau <= res.bound

    def test_subset_cap(self):
        h = make_h(2, 21, 1, [])
        with pytest.raises(InstanceTooLarge):
            check_haxell(h, Fraction(1))

    def test_first_violator_in_size_then_lex_order(self):
        # a0 and a1 both edgeless: {a0} must be reported, not {a1} or pairs
        h = make_h(2, 2, 1, [])
        res = check_haxell(h, Fraction(1))
        assert res.violator == (0,)


class TestBruteForce:
    def test_empty_a(self):
        h = make_h(2, 0, 1, [])
        m = brute_force_perfect_matching(h)
        assert m is not None and len(m) == 0

    def test_two_a_one_b_has_none(self):
        h = make_h(2, 2, 1, [(0, (0,)), (1, (0,))])
        assert brute_force_perfect_matching(h) is None

    def test_complete_2x2_first_branch(self):
        h = from_bipartite_graph([(a, b) for a in range(2) for b in range(2)], 2, 2)
        m = brute_force_perfect_matching(h)
        assert m is not None and sorted(m.edge_ids) == [0, 3]  # (a0;b0), (a1;b1)

    def test_cap(self):
        h = make_h(2, 30, 1, [])
        with pytest.raises(InstanceTooLarge):
            brute_force_perfect_matching(h)

    @given(hypergraphs(max_a=4, max_b=6, max_edges=10))
    @settings(max_examples=50)
    def test_result_is_a_perfect_matching(self, h):
        m = brute_force_perfect_matching(h)
        if m is not None:
            from hbmatch import verify_matching

            assert verify_matching(h, m, require_perfect=True) is None


class TestHaxellImpliesMatching:
    """Classic condition satisfied implies a perfect matching exists."""

    @given(hypergraphs(max_a=4, max_b=7, max_edges=12))
    @settings(max_examples=60)
    def test_on_random_instances(self, h):
        if check_haxell(h, Fraction(0)).satisfied:
            assert brute_force_perfect_matching(h) is not None


class TestGraphSpecialization:
    """For r=2 the minimum hitting set of E_S is the neighborhood N(S)."""

    @given(hypergraphs(max_a=5, max_b=7, max_edges=12, r_values=(2,)))
    @settings(max_examples=60)
    def test_tau_equals_neighborhood_size(self, h):
        import itertools

        for k in range(1, h.a_count + 1):
            for s in itertools.combinations(range(h.a_count), k):
                family = incident_edges(h, s)
                neighborhood = {b for eid in family for b in h.edges[eid].bs}
                assert len(min_hitting_set(h, family)) == len(neighborhood)


class TestVerifyWitness:
    def test_edgeless_singleton(self):
        h = make_h(3, 1, 2, [])
        cert = WitnessCertificate.build(3, {0}, set(), Fraction(1))
        assert cert.bound == 0
        assert verify_witness(h, cert) is None

    def test_two_edges_one_b(self):
        h = make_h(2, 2, 1, [(0, (0,)), (1, (0,))])
        cert = WitnessCertificate.build(2, {0, 1}, {0}, Fraction(1, 2))
        assert cert.bound == Fraction(3, 2)
        assert verify_witness(h, cert) is None

    def test_unhit_edge(self):
        h = make_h(2, 2, 1, [(0, (0,)), (1, (0,))])
        cert = WitnessCertificate.build(2, {0, 1}, set(), Fraction(1, 2))
        v = verify_witness(h, cert)
        assert v is not None and v.code == "UNHIT_EDGE"

    def test_size_exceeds_bound(self):
        h = make_h(2, 2, 3, [(0, (0,)), (1, (1,))])
        cert = WitnessCertificate.build(2, {0}, {0, 1, 2}, Fraction(1))
        v = verify_witness(h, cert)
        assert v is not None and v.code == "SIZE_EXCEEDS_BOUND"

    def test_accepted_witness_implies_condition_violated(self):
        h = make_h(2, 2, 1, [(0, (0,)), (1, (0,))])
        cert = WitnessCertificate.build(2, {0, 1}, {0}, Fraction(1, 2))
        assert verify_witness(h, cert) is None
        assert not check_haxell(h, Fraction(1, 2)).satisfied
