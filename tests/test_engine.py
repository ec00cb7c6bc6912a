import hashlib
import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbmatch import (
    AugmentRun,
    BipartiteHypergraph,
    GeneratorSpec,
    InstanceError,
    Parameters,
    PartialMatching,
    augment,
    brute_force_perfect_matching,
    check_haxell,
    find_perfect_matching,
    from_bipartite_graph,
    floor_log,
    generate,
    incident_edges,
    is_immediately_addable,
    min_hitting_set,
    verify_matching,
    verify_witness,
)
from hbmatch.cli import TraceWriter, parse_instance, serialize_instance
from hbmatch.engine import InternalSolverError, x_by_a_vertex

from .conftest import (
    hypergraphs_with_matching,
    make_h,
    shift_chain,
    shuffled_planted,
    superposed_commit_instance,
)


def params(r=3, eps=1, **kw):
    return Parameters.for_instance(r, eps, **kw)


class TestGrowthCheck:
    """Exact-arithmetic thresholds of the layer growth test."""

    def run_for(self, r=3, eps=1):
        h = make_h(r, 1, r - 1, [(0, tuple(range(r - 1)))])
        return AugmentRun(h, PartialMatching(), 0, params(r, eps))

    def test_small_tree_needs_one_edge(self):
        run = self.run_for()
        assert run.growth_check(1, 1)
        assert not run.growth_check(0, 1)

    def test_big_tree_rational_boundary(self):
        # r=3, eps=1: threshold 45, delta=1/45; 2 > 50/45 passes
        run = self.run_for()
        assert run.growth_check(2, 50)
        assert not run.growth_check(1, 50)
        # exact boundary: 1 > 45/45 is false
        assert not run.growth_check(1, 45)
        assert run.growth_check(2, 45)


class TestCollapseThreshold:
    def test_single_addable_edge_collapses(self):
        # 1 > mu*1 for any mu < 1
        h = make_h(3, 1, 2, [(0, (0, 1))])
        run = AugmentRun(h, PartialMatching(), 0, params())
        assert run._collapsible({0})

    def test_empty_layer_never_collapsible(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        run = AugmentRun(h, PartialMatching(), 0, params())
        assert not run._collapsible(set())

    def test_exact_mu_fraction_boundary(self):
        # 90 edges, exactly one addable: 1 > 90 * (1/90) is false
        edges = [(0, (2 * j, 2 * j + 1)) for j in range(90)]
        blockers = [(1 + j, (2 * j + 1, 180 + j)) for j in range(89)]
        h = make_h(3, 90, 270, edges + blockers)
        m = PartialMatching()
        for j in range(89):
            m.add(h, 90 + j)
        run = AugmentRun(h, m, 0, params(3, 1))
        x = set(range(90))
        addable = [eid for eid in x if not any(b in m.b_of for b in h.edges[eid].bs)]
        assert len(addable) == 1
        assert not run._collapsible(x)
        # one fewer blocker: 2 > 1 holds
        m.remove(h, 90)
        assert run._collapsible(x)


class TestSuperposedCommitThreshold:
    def test_exact_boundary_91_of_90(self):
        p = params(3, 1)
        assert Fraction(91) >= (1 + p.mu) * 90
        assert not Fraction(90) >= (1 + p.mu) * 90

    def test_integer_thresholds_agree_with_fractions(self):
        # reference: the exact Fraction expressions of mu, 1+mu and delta,
        # on counts around each threshold and on its exact multiples
        def near(q, n):
            t = math.floor(q * n)
            return {-1, 0, t - 1, t, t + 1, t + 2, n}

        cases = [params(r, eps) for r in (2, 3, 4) for eps in (1, "1/2", "2/3", 3)]
        cases += [params(3, 1, mu_override=mu) for mu in ("1/6", "1/8", "2/7", "5/9")]
        boundaries = 0
        for p in cases:
            for q in (p.mu, p.delta):
                d = q.denominator
                ns = set(range(40)) | {j * d + e for j in (1, 2, 3) for e in (-1, 0, 1)}
                for n in sorted(ns):
                    for k in near(q, n) | near(1 + q, n):
                        assert p.exceeds_mu(k, n) == (k > p.mu * n)
                        assert p.exceeds_mu(k, n) == (k >= p.least_exceeding_mu(n))
                        assert p.reaches_one_plus_mu(k, n) == (Fraction(k) >= (1 + p.mu) * n)
                        assert p.exceeds_delta(k, n) == (k > p.delta * n)
                        # the debug-mode blocker-ratio test |Y| < (1-mu)|X|
                        assert p.exceeds_mu(n - k, n) == (Fraction(k) < (1 - p.mu) * n)
                        boundaries += (k == p.mu * n) + (k == (1 + p.mu) * n)
                        boundaries += k == p.delta * n
        assert boundaries > 100
        p = params(3, 1)
        assert p.reaches_one_plus_mu(91, 90) and not p.reaches_one_plus_mu(90, 90)
        assert not p.exceeds_mu(1, 90) and p.exceeds_mu(2, 90)
        assert not p.exceeds_delta(1, 45) and p.exceeds_delta(2, 45)

    def test_commit_fires_end_to_end(self):
        h = superposed_commit_instance()
        events = []
        res = find_perfect_matching(
            h, 1, trace=lambda n, f: events.append((n, dict(f))), debug_invariants=True
        )
        commits = [f for n, f in events if n == "superposed" and f["committed"]]
        assert commits and commits[0]["x_before"] == 2 and commits[0]["x_after"] == 3
        assert res.status == "perfect_matching"

    def test_rejected_rebuild_leaves_layer_unchanged(self):
        # chain collapse performs rebuilds that never find new edges
        h = shift_chain(4)
        events = []
        res = find_perfect_matching(
            h, "1/2", trace=lambda n, f: events.append((n, dict(f))), debug_invariants=True
        )
        rejected = [f for n, f in events if n == "superposed" and not f["committed"]]
        assert rejected and all(f["x_before"] == f["x_after"] for f in rejected)
        assert res.status == "perfect_matching"


class TestAugment:
    def test_unblocked_edge_matches_in_one_iteration(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        out = augment(h, PartialMatching(), 0, params(), debug_invariants=True)
        assert out.matching is not None and out.matching.edge_ids == {0}

    def test_edgeless_root_yields_empty_witness(self):
        h = make_h(3, 1, 2, [])
        out = augment(h, PartialMatching(), 0, params(), debug_invariants=True)
        w = out.witness
        assert w is not None and w.s == {0} and w.hitting_set == frozenset()
        assert w.bound == 0
        assert verify_witness(h, w) is None

    def test_augmenting_path_matches_brute_force(self):
        h = from_bipartite_graph([(0, 0), (1, 0), (1, 1)], 2, 2)
        m = PartialMatching()
        m.add(h, 1)
        out = augment(h, m, 0, params(2, 1), debug_invariants=True)
        assert out.matching is not None
        assert sorted(out.matching.edge_ids) == [0, 2]
        assert brute_force_perfect_matching(h) is not None

    def test_hand_traced_witness_extraction(self):
        # one shared B-vertex: tree grows X1={e0}, Y1={e1}, then stalls
        h = make_h(2, 2, 1, [(0, (0,)), (1, (0,))])
        m = PartialMatching()
        m.add(h, 1)
        out = augment(h, m, 0, params(2, "1/2"), debug_invariants=True)
        w = out.witness
        assert w is not None
        assert w.s == {0, 1} and w.hitting_set == {0}
        assert verify_witness(h, w) is None

    def test_rejects_matched_root(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        m = PartialMatching()
        m.add(h, 0)
        with pytest.raises(ValueError):
            augment(h, m, 0, params())

    def test_iteration_cap_reports_internal_error(self):
        # the last root of the chain needs several iterations; cap at one
        h = shift_chain(6)
        assert find_perfect_matching(h, "1/2").status == "perfect_matching"
        with pytest.raises(InternalSolverError) as exc:
            find_perfect_matching(h, "1/2", max_iterations=1)
        assert exc.value.code == "ITERATION_CAP_EXCEEDED"


class TestCollapseIndex:
    @given(hm=hypergraphs_with_matching(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_per_a_index_picks_what_scanning_all_of_x_picks(self, hm, data):
        h, m = hm
        root = next((a for a in range(h.a_count) if not m.matches_a(a)), None)
        if root is None:
            return
        run = AugmentRun(h, m, root, params(h.r, 1))
        x = data.draw(st.sets(st.integers(0, h.m - 1))) if h.m else set()

        def scan_all_of_x(a):
            # reference: the least addable X-edge of a, sorting all of X
            for eid in sorted(x):
                e = h.edges[eid]
                if e.a == a and not any(b in m.b_of for b in e.bs):
                    return eid
            return None

        x_by_a = x_by_a_vertex(h, x)
        for _ in range(2):
            for a in range(h.a_count):
                assert run._least_addable_for(x_by_a, a) == scan_all_of_x(a)
            # the index is built once per collapse while swaps change M
            if m.edge_ids:
                m.remove(h, min(m.edge_ids))


class TestCollapseSwapStepwise:
    def test_r3_two_layer_collapse_swaps_blocker(self):
        # L_1 = ({(a0;b0,b1)}, {f=(a1;b1,b4)}), L_2 = ({e=(a1;b2,b3)}, {});
        # collapsing L_2 swaps f for e, empties Y_1, and discards L_2.
        h = make_h(3, 2, 5, [(0, (0, 1)), (1, (1, 4)), (1, (2, 3))])
        m = PartialMatching()
        m.add(h, 1)
        run = AugmentRun(h, m, 0, params(3, 1))
        assert run.build_phase() is None
        assert run.tree.layers[0].x == {0} and run.tree.layers[0].y == {1}
        assert not run._collapsible(run.tree.layers[0].x)
        assert run.build_phase() is None
        assert run.tree.layers[1].x == {2} and run.tree.layers[1].y == set()
        assert run._collapsible(run.tree.layers[1].x)
        from hbmatch import validate_tree

        assert validate_tree(h, m, run.tree) is None
        matched_root = run.collapse_layer()
        assert not matched_root
        assert m.edge_ids == {2}, "f swapped out, e swapped in"
        assert run.tree.level() == 1
        assert run.tree.layers[0].y == set()
        assert validate_tree(h, m, run.tree) is None
        assert verify_matching(h, m) is None
        # with b1 free the root's own layer now collapses
        assert run.collapse_phase()
        assert sorted(m.edge_ids) == [0, 2]


class TestDeepCascade:
    def test_chain_unwinds_with_swaps_at_every_level(self):
        k = 8
        h = shift_chain(k)
        events = []
        res = find_perfect_matching(
            h, "1/2", trace=lambda n, f: events.append((n, dict(f))), debug_invariants=True
        )
        assert res.status == "perfect_matching"
        assert res.stats.max_layers == k + 1
        assert res.stats.swaps == k
        assert verify_matching(h, res.matching, require_perfect=True) is None

    def test_second_addable_edge_of_swapped_vertex_causes_no_extra_swap(self):
        # X_2 holds two addable edges for a0; after the first swap removes
        # a0's blocker, the second causes nothing, and Y_1 loses exactly
        # the swapped entry before L_2 is discarded.
        h = make_h(2, 2, 4, [(0, (1,)), (1, (1,)), (0, (2,)), (0, (3,))])
        events = []
        res = find_perfect_matching(
            h, "1/2", trace=lambda n, f: events.append((n, dict(f))), debug_invariants=True
        )
        collapses = [f for n, f in events if n == "collapse"]
        assert {"layer": 2, "swaps": 1, "root_matched": 0} in collapses
        assert res.status == "perfect_matching"
        assert sorted(res.matching.edge_ids) == [1, 2]


class TestDebugInvariantsOnDeepTrees:
    def test_shuffled_planted_multi_layer(self):
        # validate_tree re-counts the tree's counters from scratch at every
        # iteration boundary (COUNTER_MISMATCH), here on trees of 4-12 layers
        for seed in range(6):
            h = shuffled_planted(seed, 60)
            res = find_perfect_matching(h, 1, debug_invariants=True)
            assert res.stats.max_layers >= 3
            assert res.stats == find_perfect_matching(h, 1).stats
            if res.witness is not None:
                assert verify_witness(h, res.witness) is None
            else:
                assert verify_matching(h, res.matching, require_perfect=True) is None


class TestFindPerfectMatching:
    def test_empty_a(self):
        h = make_h(3, 0, 2, [])
        res = find_perfect_matching(h, 1)
        assert res.status == "perfect_matching" and len(res.matching) == 0

    def test_complete_bipartite_2x2(self):
        h = from_bipartite_graph([(a, b) for a in range(2) for b in range(2)], 2, 2)
        res = find_perfect_matching(h, "1/2", debug_invariants=True)
        assert res.status == "perfect_matching" and len(res.matching) == 2
        assert brute_force_perfect_matching(h) is not None

    def test_guaranteed_generator_instance(self):
        spec = GeneratorSpec(mode="guaranteed", r=3, a_count=4, b_count=40, d=5, seed=3)
        h = generate(spec)
        assert check_haxell(h, Fraction(1)).satisfied
        res = find_perfect_matching(h, 1, debug_invariants=True)
        assert res.status == "perfect_matching"
        assert verify_matching(h, res.matching, require_perfect=True) is None

    def test_witness_passes_crosscheck(self):
        h = make_h(2, 3, 1, [(0, (0,)), (1, (0,)), (2, (0,))])
        res = find_perfect_matching(h, "1/2", debug_invariants=True)
        w = res.witness
        assert w is not None and verify_witness(h, w) is None
        tau = min_hitting_set(h, incident_edges(h, w.s)).size
        assert Fraction(tau) <= w.bound

    @given(seed=st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_adversarial_never_internal_error(self, seed):
        spec = GeneratorSpec(
            mode="adversarial", r=2 + seed % 3, a_count=4 + seed % 6,
            b_count=4 + seed % 5, extra_edges=seed % 3, seed=seed,
        )
        h = generate(spec)
        res = find_perfect_matching(h, "1/2", debug_invariants=True)
        if res.witness is not None:
            assert verify_witness(h, res.witness) is None
        else:
            assert verify_matching(h, res.matching, require_perfect=True) is None


class TestWitnessExtractionRegimes:
    def test_large_tree_growth_failure(self):
        # eps=2, r=2: threshold 10, delta=1/10.  Nine blocked root edges
        # give y_total=10, entering the large regime; the next layer has
        # exactly one edge and 1 > 1 fails.  The failing layer is
        # nonempty, and its B-vertex must appear in the hitting set.
        edges = [(i, (i,)) for i in range(9)]          # f_0..f_8, matched first
        edges += [(9, (i,)) for i in range(9)]         # root edges, all blocked
        edges += [(0, (9,))]                           # a0's free alternative
        h = make_h(2, 10, 10, edges)
        events = []
        res = find_perfect_matching(
            h, 2, trace=lambda n, f: events.append((n, dict(f))), debug_invariants=True
        )
        fails = [f for n, f in events if n == "growth" and f["result"] == "fail"]
        assert fails == [{"result": "fail", "x": 1, "y_total": 10}]
        w = res.witness
        assert w is not None and verify_witness(h, w) is None
        assert w.s == frozenset(range(10))
        assert w.hitting_set == frozenset(range(10)), "fresh layer's b9 must be included"
        assert not check_haxell(h, Fraction(2)).satisfied

    def test_saturated_vertices_leave_the_violating_set(self):
        # u_override=2 caps the root at two blocked edges; at extraction
        # the root is saturated and S keeps only the blockers' vertices.
        edges = [(0, (0,)), (1, (1,)), (2, (0,)), (2, (1,)), (2, (3,)), (3, (3,))]
        h = make_h(2, 4, 4, edges)
        m = PartialMatching()
        m.add(h, 0)
        m.add(h, 1)
        m.add(h, 5)
        out = augment(h, m, 2, params(2, 1, u_override=2), debug_invariants=True)
        w = out.witness
        assert w is not None and verify_witness(h, w) is None
        assert w.s == frozenset({0, 1})
        assert w.hitting_set == frozenset({0, 1})


class TestSolverAgreesWithExhaustiveCheck:
    """Dual route against the all-subsets oracle on arbitrary instances:
    a witness outcome implies the strengthened condition really fails,
    and a satisfied instance always yields a matching."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_outcomes_match_condition_status(self, seed):
        rng_r = 2 + seed % 2
        spec = GeneratorSpec(
            mode="planted" if seed % 3 else "adversarial",
            r=rng_r,
            a_count=2 + seed % 5,
            b_count=(rng_r - 1) * (2 + seed % 5) + seed % 3,
            extra_edges=seed % 6,
            seed=seed,
        )
        h = generate(spec)
        eps = Fraction(1, 2)
        res = find_perfect_matching(h, eps, debug_invariants=True)
        if res.witness is not None:
            assert verify_witness(h, res.witness) is None
            assert not check_haxell(h, eps).satisfied
        else:
            assert verify_matching(h, res.matching, require_perfect=True) is None
        if check_haxell(h, eps).satisfied:
            assert res.matching is not None


class TestAugmentContract:
    """augment() on arbitrary valid (instance, matching, root) states."""

    @given(hm=hypergraphs_with_matching())
    @settings(max_examples=80, deadline=None)
    def test_outcome_sound_from_any_state(self, hm):
        h, m = hm
        root = next((a for a in range(h.a_count) if not m.matches_a(a)), None)
        if root is None:
            return
        before = m.matched_a_vertices()
        out = augment(h, m, root, params(h.r, "1/2"), debug_invariants=True)
        assert out.error is None
        if out.matching is not None:
            assert out.matching.matched_a_vertices() == before | {root}
            assert verify_matching(h, out.matching) is None
        else:
            assert out.witness is not None
            assert verify_witness(h, out.witness) is None
            assert m.matched_a_vertices() == before


class TestTreeSignature:
    def test_matches_layer_sizes(self):
        from hbmatch import AlternatingTree, signature_from_sizes
        from hbmatch.engine import tree_signature

        h = make_h(3, 2, 8, [(0, (0, 1)), (1, (1, 2)), (1, (3, 4))])
        m = PartialMatching()
        m.add(h, 1)
        tree = AlternatingTree(h, m, 0, 10)
        tree.append_layer({0}, {1})
        p = params(3, 1)
        assert tree_signature(tree, p) == signature_from_sizes([(1, 1)], p)[0]
        assert tree_signature(tree, p).coords == (-2775055, 2783200)


class TestTraceEvents:
    def test_event_stream_shape(self):
        h = superposed_commit_instance()
        events = []
        find_perfect_matching(h, 1, trace=lambda n, f: events.append((n, dict(f))))
        names = [n for n, _ in events]
        assert names.count("augment_start") == 3 == names.count("augment_end")
        assert "layer_built" in names and "collapse" in names
        assert "signature" in names and "superposed" in names
        for n, f in events:
            if n == "growth":
                assert f["result"] in ("pass", "fail")

    def test_stats_independent_of_debug_mode(self):
        h = shift_chain(5)
        plain = find_perfect_matching(h, "1/2")
        debug = find_perfect_matching(h, "1/2", debug_invariants=True)
        assert (
            plain.stats.iterations,
            plain.stats.max_layers,
            plain.stats.swaps,
            plain.stats.build_ops,
        ) == (
            debug.stats.iterations,
            debug.stats.max_layers,
            debug.stats.swaps,
            debug.stats.build_ops,
        )
        assert sorted(plain.matching.edge_ids) == sorted(debug.matching.edge_ids)


class TestCollapsibleEarlyExit:
    @given(
        hm=hypergraphs_with_matching(max_edges=20),
        mu=st.sampled_from(["1/90", "1/4", "1/3", "1/2", "2/3", "9/10"]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_answer_as_counting_every_edge(self, hm, mu, data):
        h, m = hm
        root = next((a for a in range(h.a_count) if not m.matches_a(a)), None)
        if root is None or h.m == 0:
            return
        run = AugmentRun(h, m, root, params(h.r, 1, mu_override=mu))
        x = data.draw(st.sets(st.sampled_from(range(h.m))))
        addable = sum(1 for eid in x if is_immediately_addable(h, m, eid))
        assert run._collapsible(x) == run.params.exceeds_mu(addable, len(x))


class TestInputValidation:
    @pytest.mark.parametrize(
        "h,code",
        [
            (BipartiteHypergraph(2, 1, 1, [(0, (5,))]), "INDEX_OUT_OF_RANGE"),
            (BipartiteHypergraph(3, 1, 2, [(0, (1,))]), "NON_UNIFORM_EDGE"),
        ],
    )
    def test_invalid_instance_raises_typed_error(self, h, code):
        with pytest.raises(InstanceError) as exc:
            find_perfect_matching(h, 1)
        assert exc.value.code == code

    def test_parsed_instance_is_checked_once(self, monkeypatch):
        import hbmatch.core as core

        calls = []
        real = core._first_violation
        monkeypatch.setattr(core, "_first_violation", lambda h: calls.append(h) or real(h))
        h = parse_instance(serialize_instance(superposed_commit_instance()))
        assert find_perfect_matching(h, 1).status == "perfect_matching"
        assert len(calls) == 1
        fresh = superposed_commit_instance()
        find_perfect_matching(fresh, 1)
        find_perfect_matching(fresh, "1/2")
        assert len(calls) == 2


# sha256 of the trace document of shuffled_planted(seed, 60) solved at
# epsilon 1; guards every trace byte, signature coordinates included
TRACE_SHA256 = {
    1: "9bf75983fd9f52c5bc0ce58cb46e3c4fca83e796f1002ff27c5270a4263b0e8f",  # witness, 12 layers
    2: "ef8ec1f022329a1927eb385a75eaf50b1397fa28db6ee6550a5e5eabb789fb30",  # matching, 5 layers
}


class TestTraceBytes:
    @pytest.mark.parametrize("seed", sorted(TRACE_SHA256))
    def test_trace_document_digest_pinned(self, seed):
        buf = io.StringIO()
        find_perfect_matching(shuffled_planted(seed, 60), 1, trace=TraceWriter(buf))
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == TRACE_SHA256[seed]


def reference_signature(sizes, p):
    """Signature coordinates with fresh coefficients and one floor_log each."""
    scale = Fraction(5 * p.r * p.r) / p.epsilon
    coords, c = [], Fraction(1)
    for i, (x, y) in enumerate(sizes, start=1):
        c = c * scale if i == 1 else c * scale / (1 - p.mu)
        coords += [-floor_log(c * x, p.b)[0], floor_log(c / (1 - p.mu) * y, p.b)[0]]
    return tuple(coords)


class TestSignatureMemoPerSolve:
    def test_solves_with_different_epsilon_get_their_own_coordinates(self, monkeypatch):
        import hbmatch.engine as engine

        seen = []
        real = engine.signature_from_sizes

        def recording(sizes, p, *rest):
            out = real(sizes, p, *rest)
            seen.append((tuple(sizes), p, out[0].coords))
            return out

        monkeypatch.setattr(engine, "signature_from_sizes", recording)
        h = shuffled_planted(2, 30)
        by_eps = {}
        for eps in (Fraction(1), Fraction(1, 2)):
            seen.clear()
            find_perfect_matching(h, eps, trace=lambda event, fields: None)
            assert seen and {p.epsilon for _, p, _ in seen} == {eps}
            for sizes, p, coords in seen:
                assert coords == reference_signature(sizes, p)
            by_eps[eps] = {sizes: coords for sizes, _, coords in seen}
        shared = (by_eps[1].keys() & by_eps[Fraction(1, 2)].keys()) - {()}
        assert shared
        assert all(by_eps[1][k] != by_eps[Fraction(1, 2)][k] for k in shared)
