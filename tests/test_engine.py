import contextlib
import copy
import dataclasses
import hashlib
import io
import math
import sys
import time
from fractions import Fraction
from typing import AbstractSet
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbmatch import (
    BipartiteHypergraph,
    GeneratorSpec,
    Parameters,
    PartialMatching,
    find_perfect_matching,
    from_bipartite_graph,
    generate,
    verify_matching,
    verify_witness,
)
from hbmatch.cli import (
    TraceWriter,
    check_trace_lines,
    format_result,
    parse_instance,
    serialize_instance,
)
import hbmatch.engine as engine_module
from hbmatch.core import InstanceError, incident_edges
from hbmatch.engine import AugmentRun, InternalSolverError, SolveStats, augment
from hbmatch.oracles import check_haxell, min_hitting_set
from hbmatch.signature import SignatureMemo, check_signature_step, floor_log, signature_from_sizes
from hbmatch.tree import AlternatingTree, Layer, build_layer

from .checked_run import CheckedRun, checked, is_immediately_addable, validate_tree
from .conftest import (
    brute_force_perfect_matching,
    hypergraphs_with_matching,
    make_h,
    per_line,
    shift_chain,
    shuffled_planted,
    superposed_commit_instance,
    trace_event,
)


_for_instance = Parameters.for_instance


def params(r=3, eps=1, mu=None):
    """The parameters at (r, eps), with mu substituted when given; the
    parameters derive u and b from it.  Small fixtures reach the full
    loop only at such a mu."""
    p = _for_instance(r, eps)
    return p if mu is None else dataclasses.replace(p, mu=Fraction(mu))


def substituted(mu=None):
    """Solve at `params(r, eps, mu)` in place of the parameters that
    epsilon alone sets."""
    return mock.patch.object(
        Parameters, "for_instance",
        lambda r, eps: params(r, eps, mu),
    )


def capped(cap):
    """Solve with every run's iteration cap set to `cap` in place of the
    one derived from the instance size."""
    return mock.patch.object(Parameters, "iteration_cap", lambda self, n: cap)


def started(h, m, root, p):
    """A solve's run with a tree planted at `root`, for driving the
    phases by hand."""
    run = AugmentRun(h, m, p)
    run.start(root)
    return run


def growth_by_regime(p: Parameters, x: int, y: int) -> bool:
    """Reference growth test with its two regimes written out: below the
    threshold t = ceil(1/delta) a nonempty layer passes, from t on the
    layer must exceed delta*y."""
    if y < math.ceil(1 / p.delta):
        return x >= 1
    return x > p.delta * y


class TestGrowthCheck:
    """Exact-arithmetic thresholds of the layer growth test x > delta*y."""

    def test_small_tree_needs_one_edge(self):
        # r=3, eps=1: delta = 1/45, so below y = 45 one edge passes
        p = params()
        for y in range(1, 45):
            assert p.exceeds_delta(1, y)
            assert not p.exceeds_delta(0, y)

    def test_big_tree_rational_boundary(self):
        # r=3, eps=1: delta=1/45; 2 > 50/45 passes
        p = params()
        assert p.exceeds_delta(2, 50)
        assert not p.exceeds_delta(1, 50)
        # exact boundary: 1 > 45/45 is false
        assert not p.exceeds_delta(1, 45)
        assert p.exceeds_delta(2, 45)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("eps", [1, "1/2", "1/3", "2/3", "3/2", 8])
    def test_one_inequality_equals_the_two_regimes(self, r, eps):
        p = params(r, eps)
        t = math.ceil(1 / p.delta)
        for y in range(1, t + 6):
            for x in range(5):
                assert p.exceeds_delta(x, y) == growth_by_regime(p, x, y), (x, y)


def collapsible(run: AugmentRun, x) -> bool:
    """Reference collapse decision, read from the live matching by
    counting every X-edge: more than mu|X| are immediately addable."""
    addable = sum(1 for eid in x if is_immediately_addable(run.h, run.m, eid))
    return run.params.exceeds_mu(addable, len(x))


def handed_to_collapse(run: AugmentRun, x, level: int = 1):
    """The list collapse_phase hands to collapse_layer when the last
    layer, at `level` over empty ones, has X-edges `x`; None when that
    layer does not collapse.  The collapse itself is stubbed out."""
    for _ in range(level - 1):
        run.tree.append_layer(Layer(set(), set(), set(), set()))
    run.tree.append_layer(Layer(set(x), set(), set(), set()))
    handed = []
    run.collapse_layer = lambda addable: handed.append(addable) or True
    assert run.collapse_phase() == bool(handed)
    return handed[0] if handed else None


class TestCollapseThreshold:
    def test_single_addable_edge_collapses(self):
        # 1 > mu*1 for any mu < 1
        h = make_h(3, 1, 2, [(0, (0, 1))])
        run = started(h, PartialMatching(), 0, params())
        assert handed_to_collapse(run, {0}) == [0]

    def test_empty_layer_never_collapsible(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        run = started(h, PartialMatching(), 0, params())
        assert handed_to_collapse(run, set()) is None

    def test_every_level_hands_over_every_addable_edge(self):
        # both edges addable and mu*2 < 1: every level, layer 1 included,
        # hands over both, in edge order (the set iterates 8 before 1)
        h = make_h(3, 1, 20, [(0, (2 * j, 2 * j + 1)) for j in range(10)])
        assert list({1, 8}) == [8, 1]
        for level in (1, 2, 3):
            run = started(h, PartialMatching(), 0, params())
            assert handed_to_collapse(run, {1, 8}, level) == [1, 8]

    def test_exact_mu_fraction_boundary(self):
        # 90 edges, exactly one addable: 1 > 90 * (1/90) is false
        edges = [(0, (2 * j, 2 * j + 1)) for j in range(90)]
        blockers = [(1 + j, (2 * j + 1, 180 + j)) for j in range(89)]
        h = make_h(3, 90, 270, edges + blockers)
        m = PartialMatching()
        for j in range(89):
            m.add(h, 90 + j)
        x = set(range(90))
        addable = [eid for eid in x if not any(b in m.b_of for b in h.edges[eid].bs)]
        assert len(addable) == 1
        assert handed_to_collapse(started(h, m, 0, params(3, 1)), x) is None
        # one fewer blocker: 2 > 1 holds
        m.remove(h, 90)
        assert handed_to_collapse(started(h, m, 0, params(3, 1)), x) == [0, 89]


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
        cases += [params(3, 1, mu) for mu in ("1/6", "1/8", "2/7", "5/9")]
        boundaries = 0
        for p in cases:
            # the one-step walk's entry test, mu*k < 1
            ks = range(60)
            assert [k < p.u for k in ks] == [p.mu * k < 1 for k in ks]
            for q in (p.mu, p.delta):
                d = q.denominator
                ns = set(range(40)) | {j * d + e for j in (1, 2, 3) for e in (-1, 0, 1)}
                for n in sorted(ns):
                    for k in near(q, n) | near(1 + q, n):
                        assert p.exceeds_mu(k, n) == (k > p.mu * n)
                        assert p.reaches_one_plus_mu(k, n) == (Fraction(k) >= (1 + p.mu) * n)
                        assert p.exceeds_delta(k, n) == (k > p.delta * n)
                        # |X|-|Y| > mu|X| is |Y| < (1-mu)|X|, the blocker
                        # ratio the boundary invariants imply
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
        with checked():
            res = find_perfect_matching(
                h, 1, trace=per_line(lambda line: events.append(trace_event(line)))
            )
        commits = [f for n, f in events if n == "superposed" and f["committed"]]
        assert commits and commits[0]["x_before"] == 2 and commits[0]["x_after"] == 3
        assert res.status == "perfect_matching"

    def test_rejected_rebuild_leaves_layer_unchanged(self):
        # chain collapse performs rebuilds that never find new edges
        h = shift_chain(4)
        events = []
        with checked():
            res = find_perfect_matching(
                h, "1/2", trace=per_line(lambda line: events.append(trace_event(line)))
            )
        rejected = [f for n, f in events if n == "superposed" and not f["committed"]]
        assert rejected and all(f["x_before"] == f["x_after"] for f in rejected)
        assert res.status == "perfect_matching"


class TestAugment:
    def test_unblocked_edge_matches_in_one_iteration(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        m = PartialMatching()
        assert augment(CheckedRun(h, m, params()), 0) is None
        assert m.edge_ids == {0}

    def test_edgeless_root_yields_empty_witness(self):
        h = make_h(3, 1, 2, [])
        w = augment(CheckedRun(h, PartialMatching(), params()), 0)
        assert w is not None and w.s == {0} and w.hitting_set == frozenset()
        assert w.bound == 0
        assert verify_witness(h, w) is None

    def test_augmenting_path_matches_brute_force(self):
        h = from_bipartite_graph([(0, 0), (1, 0), (1, 1)], 2, 2)
        m = PartialMatching()
        m.add(h, 1)
        assert augment(CheckedRun(h, m, params(2, 1)), 0) is None
        assert sorted(m.edge_ids) == [0, 2]
        assert brute_force_perfect_matching(h) is not None

    def test_hand_traced_witness_extraction(self):
        # one shared B-vertex: tree grows X1={e0}, Y1={e1}, then stalls
        h = make_h(2, 2, 1, [(0, (0,)), (1, (0,))])
        m = PartialMatching()
        m.add(h, 1)
        w = augment(CheckedRun(h, m, params(2, "1/2")), 0)
        assert w is not None
        assert w.s == {0, 1} and w.hitting_set == {0}
        assert verify_witness(h, w) is None

    def test_rejects_matched_root(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        m = PartialMatching()
        m.add(h, 0)
        with pytest.raises(ValueError):
            augment(AugmentRun(h, m, params()), 0)

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("checking", [False, True])
    def test_rejects_matched_root_with_a_free_edge(self, traced, checking):
        # The one-step walk finds the free edge 1 before any tree is
        # planted; a checked run plants none, as its tree refuses the root.
        h = make_h(3, 1, 4, [(0, (0, 1)), (0, (2, 3))])
        m = PartialMatching()
        m.add(h, 0)
        lines: list[str] = []
        run = (CheckedRun if checking else AugmentRun)(
            h, m, params(), lines.append if traced else None
        )
        with pytest.raises(ValueError):
            augment(run, 0)
        assert m.edge_ids == {0} and lines == [] and vars(run.stats) == vars(SolveStats())

    def test_iteration_cap_reports_internal_error(self):
        # the last root of the chain needs several iterations; cap at one
        h = shift_chain(6)
        assert find_perfect_matching(h, "1/2").status == "perfect_matching"
        with pytest.raises(InternalSolverError) as exc:
            with capped(1):
                find_perfect_matching(h, "1/2")
        assert exc.value.code == "ITERATION_CAP_EXCEEDED"


def solve_outcome(h, epsilon, **kw):
    """Status, matching edge ids, witness S and hitting set, and stats of
    one solve, or the code and message of its InternalSolverError."""
    try:
        res = find_perfect_matching(h, epsilon, **kw)
    except InternalSolverError as exc:
        return ("error", exc.code, str(exc))
    w = res.witness
    return (
        res.status,
        sorted(res.matching.edge_ids) if res.matching is not None else None,
        (sorted(w.s), sorted(w.hitting_set)) if w is not None else None,
        vars(res.stats),
    )


@st.composite
def shuffled_generated(draw, max_a=20):
    """A shuffled r = 2..4 planted (tight or not) or guaranteed instance."""
    r = draw(st.integers(2, 4))
    na = draw(st.integers(1, max_a))
    seed = draw(st.integers(0, 2**16))
    mode = draw(st.sampled_from(["planted", "tight", "guaranteed"]))
    if mode != "guaranteed":
        return generate(GeneratorSpec(
            mode="shuffled", r=r, a_count=na, b_count=(r - 1) * na + (mode == "planted") * na,
            extra_edges=draw(st.integers(0, 3 * na)), seed=seed,
        ))
    d = draw(st.integers(1, 4))
    h = generate(GeneratorSpec(
        mode="guaranteed", r=r, a_count=na, b_count=d * (r - 1) * na + na, d=d,
        extra_edges=draw(st.integers(0, 3 * na)), seed=seed,
    ))
    edges = draw(st.permutations(list(zip(h.edge_a, h.edge_bs))))
    return BipartiteHypergraph(r, na, h.b_count, edges)


def full_path():
    """Turn the one-step walk off, so every root runs the full loop."""
    return mock.patch.object(AugmentRun, "match_in_one_step", lambda run, root: False)


def counting_build_layer(monkeypatch) -> list[int]:
    """Patch `engine.build_layer` to record each call; returns the record."""
    import hbmatch.engine as engine

    calls: list[int] = []
    real = engine.build_layer

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "build_layer", counted)
    return calls


def recorded_runs(monkeypatch) -> list[AugmentRun]:
    """Patch `AugmentRun.__init__` to record each run; returns the record."""
    runs: list[AugmentRun] = []
    init = AugmentRun.__init__
    monkeypatch.setattr(AugmentRun, "__init__", lambda run, *a: runs.append(run) or init(run, *a))
    return runs


class TestSubstitutedParameters:
    """The ported properties compare two programs, so they would still
    pass if `substituted` or `capped` never reached the solve; this pins
    that they do."""

    @pytest.mark.parametrize(
        "mu, expected",
        [
            (None, (Fraction(1, 40), 40, Fraction(64000, 63999))),
            ("1/2", (Fraction(1, 2), 2, Fraction(8, 7))),
            ("1/3", (Fraction(1, 3), 3, Fraction(27, 26))),
        ],
    )
    def test_reaches_the_run(self, monkeypatch, mu, expected):
        runs = recorded_runs(monkeypatch)
        with substituted(mu):
            solve_outcome(shift_chain(2), 1)
        assert [(run.params.mu, run.params.u, run.params.b) for run in runs] == [expected]

    def test_capped_reaches_the_run(self, monkeypatch):
        runs = recorded_runs(monkeypatch)
        with capped(5):
            solve_outcome(shift_chain(2), 1)
        assert [run.cap for run in runs] == [5]


class TestOneStepMatch:
    """Every solve matches a root in one step when one addable edge
    decides its first layer; `full_path` forces the full layer build."""

    @given(
        h=shuffled_generated(),
        eps=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 4)]),
        mu=st.sampled_from([None, "1/2", "1/3"]),
        cap=st.sampled_from([None, 1, 2]),
        traced=st.booleans(),
        checking=st.booleans(),
    )
    # Root 1's first edge has one blocker on both of its B-vertices: |Y| = 1.
    @example(
        h=make_h(3, 2, 4, [(0, (0, 1)), (1, (0, 1)), (1, (2, 3))]),
        eps=Fraction(1), mu=None, cap=None, traced=True, checking=False,
    )
    @settings(max_examples=150, deadline=None)
    def test_solve_equals_full_path_in_every_mode(self, h, eps, mu, cap, traced, checking):
        # Plain, traced, checked and traced+checked, at the default and
        # small iteration caps: same result (all that the result document
        # prints) or error code and message, stats and trace lines.
        # Checked runs never walk, so the walk is held to the checked solve.
        def solve(checking):
            lines: list[str] = []
            with (
                substituted(mu),
                capped(cap) if cap else contextlib.nullcontext(),
                checked() if checking else contextlib.nullcontext(),
            ):
                trace = lines.append if traced else None
                return solve_outcome(h, eps, trace=trace), lines

        with full_path():
            full = solve(checking)
        assert solve(checking) == full
        if checking:
            assert solve(False) == full

    def test_builds_no_layer_unless_checked(self, monkeypatch):
        # Plain and traced runs walk; checked runs build each root's layer 1.
        h = generate(GeneratorSpec(mode="guaranteed", r=3, a_count=30, b_count=400, seed=4))
        levels: list[int] = []
        build = AugmentRun.build_phase
        monkeypatch.setattr(
            AugmentRun, "build_phase", lambda run: levels.append(run.tree.level() + 1) or build(run)
        )
        plain = find_perfect_matching(h, 1)
        assert plain.status == "perfect_matching" and levels == []
        for trace in (None, lambda line: None):
            for checking in (False, True):
                levels.clear()
                with checked() if checking else contextlib.nullcontext():
                    res = find_perfect_matching(h, 1, trace=trace)
                assert levels == ([1] * 30 if checking else [])
                assert res.matching.edge_ids == plain.matching.edge_ids
                assert vars(res.stats) == vars(plain.stats)

    def test_traced_walk_plants_no_tree_and_computes_no_signature(self, monkeypatch):
        import hbmatch.engine as engine

        h = generate(GeneratorSpec(mode="guaranteed", r=3, a_count=30, b_count=400, seed=4))
        trees: list[int] = []
        signatures: list[int] = []
        tree, signature = engine.AlternatingTree, engine.signature_from_sizes
        monkeypatch.setattr(engine, "AlternatingTree", lambda *a: trees.append(1) or tree(*a))
        monkeypatch.setattr(
            engine, "signature_from_sizes", lambda *a: signatures.append(1) or signature(*a)
        )

        def traced():
            trees.clear()
            signatures.clear()
            lines: list[str] = []
            find_perfect_matching(h, 1, trace=lines.append)
            return lines, len(trees), len(signatures)

        lines, planted, computed = traced()
        assert (planted, computed) == (0, 0)
        with full_path():
            full, planted, computed = traced()
        assert (planted, computed) == (30, 0)
        assert lines == full and check_trace_lines(lines) is None
        # Checked runs compute the signature that each written boundary
        # line equals.
        with checked():
            assert traced() == (lines, 30, 30)

    def test_an_edge_meeting_only_a_blocker_is_skipped(self, monkeypatch):
        # Root 1's first edge is blocked by edge 0, whose B-vertex 2 its
        # second edge meets: the build skips that edge, so the third edge
        # is found free and added in one step.
        h = make_h(3, 2, 7, [(0, (1, 2)), (1, (0, 1)), (1, (2, 4)), (1, (5, 6))])
        with full_path():
            full = solve_outcome(h, 1)
        calls = counting_build_layer(monkeypatch)
        assert solve_outcome(h, 1) == full and len(calls) == 0
        assert full[1] == [0, 3]

    def test_root_needing_two_addable_edges_takes_the_full_loop(self, monkeypatch):
        # deg 2 at mu = 1/2: one addable edge of 2 is not > mu*2
        h = make_h(3, 1, 4, [(0, (0, 1)), (0, (2, 3))])
        calls = counting_build_layer(monkeypatch)
        with substituted(mu="1/2"):
            res = find_perfect_matching(h, 1)
        assert res.matching.edge_ids == {0} and len(calls) == 1
        calls.clear()
        assert find_perfect_matching(h, 1).matching.edge_ids == {0} and len(calls) == 0


class TestOneRunPerSolve:
    def test_one_run_and_one_iteration_cap_per_solve(self, monkeypatch):
        # 30 augmented roots, untraced and traced: the solve's state is
        # built once, not once per root.
        h = generate(GeneratorSpec(mode="guaranteed", r=3, a_count=30, b_count=400, seed=4))
        calls = []
        init, cap = AugmentRun.__init__, Parameters.iteration_cap
        monkeypatch.setattr(
            AugmentRun, "__init__", lambda run, *a, **kw: calls.append("run") or init(run, *a, **kw)
        )
        monkeypatch.setattr(
            Parameters, "iteration_cap", lambda p, n: calls.append("cap") or cap(p, n)
        )
        outcomes = []
        for kw in ({}, dict(trace=lambda line: None)):
            calls.clear()
            res = find_perfect_matching(h, 1, **kw)
            assert sorted(calls) == ["cap", "run"]
            outcomes.append((res.matching.edge_ids, vars(res.stats)))
        assert outcomes[0] == outcomes[1]


def per_blocker_collapse(run: AugmentRun) -> bool:
    """Reference: the collapse as a walk over the blockers one level below.

    Each blocker, in edge order, is swapped for the least X-edge of its
    A-vertex that is addable under the live matching; layer 1 adds the
    root's least addable X-edge.  X is indexed by A-vertex once.
    """
    h, m, tree = run.h, run.m, run.tree
    assert collapsible(run, tree.layers[-1].x)
    level = tree.level()
    x_by_a: dict[int, list[int]] = {}
    for eid in sorted(tree.layers[-1].x):
        x_by_a.setdefault(h.edge_a[eid], []).append(eid)

    def least_addable(a):
        return next((e for e in x_by_a.get(a, ()) if is_immediately_addable(h, m, e)), None)

    if level == 1:
        m.add(h, least_addable(tree.root))
        tree.discard_last()
        if run.trace is not None:
            run.trace("collapse layer=1 swaps=0 root_matched=1")
        return True
    swaps = 0
    for f in sorted(tree.layers[level - 2].y):
        eid = least_addable(h.edge_a[f])
        if eid is None:
            continue
        m.remove(h, f)
        m.add(h, eid)
        tree.remove_y_edge(level - 1, f)
        swaps += 1
        run.stats.swaps += 1
    tree.discard_last()
    if run.trace is not None:
        run.trace(f"collapse layer={level} swaps={swaps} root_matched=0")
    run.superposed_build()
    return False


def _run_state(run: AugmentRun):
    m, tree = run.m, run.tree
    return (
        m.edge_ids, m.a_of, m.b_of,
        [tuple(layer) for layer in tree.layers], tree.occupied_b(),
        vars(run.stats),
    )


class TestCollapseAgainstPerBlockerReference:
    @given(
        seed=st.integers(0, 2**16),
        na=st.integers(10, 60),
        r=st.integers(2, 4),
        eps=st.sampled_from([1, "1/2", "1/4"]),
        mu=st.sampled_from([None, "1/2", "1/3"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_matching_layers_and_swaps(self, seed, na, r, eps, mu):
        # Every collapse of a whole solve is first replayed by the reference
        # on a copy of the run, on the states the engine itself reaches.
        # The reference decides from the live matching, not from the list
        # the engine hands over, and so does the check of every layer the
        # collapse phase leaves standing.
        h = shuffled_planted(seed, na, r)
        lines: list[str] = []
        phase, collapse = AugmentRun.collapse_phase, AugmentRun.collapse_layer

        def checked_phase(run):
            matched = phase(run)
            assert matched or not collapsible(run, run.tree.layers[-1].x)
            return matched

        def checked_collapse(run, addable):
            shared = {id(x): x for x in (h, run.params, run.memo, lines)}
            ref = copy.deepcopy(run, shared)
            ref_lines: list[str] = []
            ref.trace = ref_lines.append
            ref_matched = per_blocker_collapse(ref)
            start = len(run.pending)
            matched = collapse(run, addable)
            assert matched == ref_matched
            assert _run_state(run) == _run_state(ref)
            assert run.pending[start:] == ref_lines
            return matched

        with pytest.MonkeyPatch.context() as mp, substituted(mu):
            mp.setattr(AugmentRun, "collapse_phase", checked_phase)
            mp.setattr(AugmentRun, "collapse_layer", checked_collapse)
            try:
                find_perfect_matching(h, eps, trace=per_line(lines.append))
            except InternalSolverError as exc:  # a witness a large mu voids
                assert exc.code == "CERTIFICATE_INVALID" and mu is not None


class TestCollapseSwapStepwise:
    def test_r3_two_layer_collapse_swaps_blocker(self):
        # L_1 = ({(a0;b0,b1)}, {f=(a1;b1,b4)}), L_2 = ({e=(a1;b2,b3)}, {});
        # collapsing L_2 swaps f for e, empties Y_1, and discards L_2.
        h = make_h(3, 2, 5, [(0, (0, 1)), (1, (1, 4)), (1, (2, 3))])
        m = PartialMatching()
        m.add(h, 1)
        run = started(h, m, 0, params(3, 1))
        assert run.build_phase() is None
        assert run.tree.layers[0].x == {0} and run.tree.layers[0].y == {1}
        assert not collapsible(run, run.tree.layers[0].x)
        assert run.build_phase() is None
        assert run.tree.layers[1].x == {2} and run.tree.layers[1].y == set()
        assert collapsible(run, run.tree.layers[1].x)
        assert validate_tree(h, m, run.tree) is None
        matched_root = run.collapse_layer([2])
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
        with checked():
            res = find_perfect_matching(
                h, "1/2", trace=per_line(lambda line: events.append(trace_event(line)))
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
        with checked():
            res = find_perfect_matching(
                h, "1/2", trace=per_line(lambda line: events.append(trace_event(line)))
            )
        collapses = [f for n, f in events if n == "collapse"]
        assert {"layer": 2, "swaps": 1, "root_matched": 0} in collapses
        assert res.status == "perfect_matching"
        assert sorted(res.matching.edge_ids) == [1, 2]


class TestCheckedRunOnDeepTrees:
    def test_shuffled_planted_multi_layer(self):
        # validate_tree re-counts the tree's counters from scratch at every
        # iteration boundary (COUNTER_MISMATCH), here on trees of 4-12 layers
        for seed in range(6):
            h = shuffled_planted(seed, 60)
            with checked():
                res = find_perfect_matching(h, 1)
            assert res.stats.max_layers >= 3
            assert res.stats == find_perfect_matching(h, 1).stats
            if res.witness is not None:
                assert verify_witness(h, res.witness) is None
            else:
                assert verify_matching(h, res.matching, require_perfect=True) is None

    def test_tight_corpus_reaches_the_growth_threshold_and_commits_rebuilds(self):
        # At r=3, eps=1, 1/delta = 45: from y_total = 45 on, the growth
        # test asks for more than a nonempty layer.  Tight shuffled
        # instances pass and fail it there and commit (1+mu) rebuilds, and
        # checked runs stay clean on them.
        assert Parameters.for_instance(3, 1).delta == Fraction(1, 45)
        seen = set()
        for seed in range(3000, 3006):
            h = generate(GeneratorSpec(
                mode="shuffled", r=3, a_count=300, b_count=600, extra_edges=1500, seed=seed,
            ))
            events = []
            trace = per_line(lambda line: events.append(trace_event(line)))
            res = find_perfect_matching(h, 1, trace=trace)
            for name, f in events:
                if name == "growth" and f["y_total"] >= 45:
                    seen.add(f["result"])
                elif name == "superposed" and f["committed"] == 1:
                    seen.add("committed")
            with checked():
                assert find_perfect_matching(h, 1).stats == res.stats
        assert seen == {"pass", "fail", "committed"}

    # With mu substituted these checked solves skip prefix rebuilds of
    # layers below the last, whose rejected edges must be read for that
    # layer and tested against that prefix; each ends in a witness.
    @pytest.mark.parametrize(
        "mu, nb, extra, seed",
        [("1/3", 60, 120, 38), ("1/3", 75, 60, 28), ("1/4", 75, 90, 33)],
    )
    def test_prefix_rebuild_skips_at_substituted_mu(self, mu, nb, extra, seed):
        h = generate(GeneratorSpec(
            mode="shuffled", r=3, a_count=30, b_count=nb, extra_edges=extra, seed=seed,
        ))
        with substituted(mu):
            with checked():
                res = find_perfect_matching(h, 1)
            assert res.stats == find_perfect_matching(h, 1).stats
        assert res.status == "witness"
        assert verify_witness(h, res.witness) is None


def checked_started(h, m=None, root=0):
    """A checked run of `h` at epsilon 1, started at `root`."""
    run = CheckedRun(h, m if m is not None else PartialMatching(), params(h.r, 1))
    run.start(root)
    return run


def append_built_layer(run, u_bound=None):
    """Build the run's next layer and stack it, as build_phase does."""
    tree = run.tree
    layer = build_layer(run.h, run.m, tree.occupied_b(), tree.parent_a_set(tree.level() + 1),
                        run.params.u if u_bound is None else u_bound)
    tree.append_layer(layer)
    return layer


def raised(call) -> InternalSolverError:
    with pytest.raises(InternalSolverError) as exc:
        call()
    return exc.value


class TestEachEngineCodeFires:
    """Each engine check and each check of the checked run, on a fault
    built by hand or by a faulty step."""

    def test_collapsible_layer_at_a_boundary(self):
        # Root 0 has three edges, one blocked by vertex 1's matched edge:
        # |X| - |Y| = 2 > mu|X|, and two X-edges are addable.
        h = make_h(2, 2, 3, [(0, (0,)), (0, (1,)), (0, (2,)), (1, (0,))])
        m = PartialMatching()
        m.add(h, 3)
        run = checked_started(h, m)
        layer = append_built_layer(run)
        assert (layer.x, layer.y) == ({0, 1, 2}, {3})
        assert run.params.exceeds_mu(len(layer.x) - len(layer.y), len(layer.x))
        err = raised(run.check_boundary_invariants)
        assert str(err) == "COLLAPSIBLE_AT_BOUNDARY: layer 1 is collapsible"

    def test_layer_not_grown_past_delta(self):
        # Layer 2 grows from vertex 1, whose only edge is matched: empty.
        h = make_h(2, 2, 1, [(0, (0,)), (1, (0,))])
        m = PartialMatching()
        m.add(h, 1)
        run = checked_started(h, m)
        append_built_layer(run)
        assert append_built_layer(run).x == set()
        err = raised(run.check_boundary_invariants)
        assert str(err) == "LAYER_GROWTH: layer 2: |X|=0 vs 2 below"

    def test_rebuild_reaching_one_plus_mu(self):
        # Layer 1 built at cap 1 holds one of the root's two blocked
        # edges; the rebuild at u adds the other, 2 >= (1+mu)*1.
        h = make_h(2, 3, 2, [(0, (0,)), (0, (1,)), (1, (0,)), (2, (1,))])
        m = PartialMatching()
        m.add(h, 2)
        m.add(h, 3)
        run = checked_started(h, m)
        assert append_built_layer(run, u_bound=1).x == {0}
        err = raised(run.check_boundary_invariants)
        assert str(err) == "SUPERPOSED_GROWTH_AT_BOUNDARY: layer 1: rebuild reaches 2 from 1"

    def test_matched_set_drifting_mid_run(self):
        h = make_h(2, 2, 2, [(0, (0,)), (1, (1,))])
        run = checked_started(h)
        run.m.add(h, 1)
        err = raised(run.check_boundary_invariants)
        assert str(err) == "MATCHED_SET_CHANGED: A(M) drifted mid-run"

    def test_run_ending_with_more_than_the_root_matched(self):
        h = make_h(2, 2, 2, [(0, (0,)), (1, (1,))])
        run = checked_started(h)
        run.m.add(h, 0)
        run.check_matched_exactly_root()
        run.m.add(h, 1)
        err = raised(run.check_matched_exactly_root)
        assert str(err) == "MATCHED_SET_CHANGED: run did not add exactly the root"

    def test_matching_maps_out_of_step(self):
        h = make_h(2, 2, 2, [(0, (0,)), (1, (1,))])
        run = checked_started(h)
        run.m.b_of[0] = 1  # a stale B-vertex entry
        err = raised(run.check_boundary_invariants)
        assert err.code == "MATCHING_INVALID" and "MAP_INCONSISTENT" in str(err)

    def test_swap_leaving_its_blocker_in_the_matching(self, monkeypatch):
        remove = PartialMatching.remove

        def faulty_remove(m, h, f_out):
            remove(m, h, f_out)
            m.b_of.update(dict.fromkeys(h.edge_bs[f_out], f_out))

        monkeypatch.setattr(PartialMatching, "remove", faulty_remove)
        with checked():
            err = raised(lambda: find_perfect_matching(shift_chain(3), 1))
        assert err.code == "MATCHING_AFTER_SWAP" and "MAP_INCONSISTENT" in str(err)

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_blocker_left_in_y_is_named_by_the_tree_check(self, monkeypatch, seed):
        # The tree is checked before the signature step it also breaks.
        monkeypatch.setattr(AlternatingTree, "remove_y_edge", lambda tree, i, edge_id: None)
        with checked():
            err = raised(lambda: find_perfect_matching(shuffled_planted(seed, 60), 1))
        assert str(err).startswith("TREE_INVALID: Y_NOT_BLOCKERS: ")

    def test_augment_leaving_a_root_bare(self, monkeypatch):
        import hbmatch.engine as engine

        monkeypatch.setattr(engine, "augment", lambda run, root: None)
        err = raised(lambda: find_perfect_matching(make_h(2, 1, 1, [(0, (0,))]), 1))
        assert str(err) == "RESULT_INVALID: UNMATCHED: A-vertex 0"

    @staticmethod
    def forgetful_build(monkeypatch, kind: str) -> None:
        """A build that leaves the `kind` list it was handed empty."""
        import hbmatch.engine as engine

        real = engine.build_layer

        def build(*args, **kwargs):
            layer = real(*args, **kwargs)
            kwargs.get(kind, []).clear()
            return layer

        monkeypatch.setattr(engine, "build_layer", build)

    def test_skipped_rebuild_that_would_add_edges(self, monkeypatch):
        # With no rejected edge remembered every rebuild is skipped; once
        # a collapse frees b1, the rebuild of layer 1 would take a2's
        # edge on b1, b7, which the fresh build rejected.
        self.forgetful_build(monkeypatch, "rejected")
        with checked():
            err = raised(lambda: find_perfect_matching(superposed_commit_instance(), 1))
        assert str(err) == "SKIPPED_REBUILD_ADDS: layer 1: the full rebuild adds [5]"

    def test_build_listing_wrong_addable_edges(self, monkeypatch):
        self.forgetful_build(monkeypatch, "addable")
        with checked():
            err = raised(lambda: find_perfect_matching(make_h(2, 1, 1, [(0, (0,))]), 1))
        assert str(err) == "BUILD_ADDABLE_MISMATCH: layer 1: the build lists [], the scan [0]"


class TestFindPerfectMatching:
    def test_empty_a(self):
        h = make_h(3, 0, 2, [])
        res = find_perfect_matching(h, 1)
        assert res.status == "perfect_matching" and len(res.matching) == 0

    def test_complete_bipartite_2x2(self):
        h = from_bipartite_graph([(a, b) for a in range(2) for b in range(2)], 2, 2)
        with checked():
            res = find_perfect_matching(h, "1/2")
        assert res.status == "perfect_matching" and len(res.matching) == 2
        assert brute_force_perfect_matching(h) is not None

    def test_guaranteed_generator_instance(self):
        spec = GeneratorSpec(mode="guaranteed", r=3, a_count=4, b_count=40, d=5, seed=3)
        h = generate(spec)
        assert check_haxell(h, Fraction(1)).satisfied
        with checked():
            res = find_perfect_matching(h, 1)
        assert res.status == "perfect_matching"
        assert verify_matching(h, res.matching, require_perfect=True) is None

    def test_witness_passes_crosscheck(self):
        h = make_h(2, 3, 1, [(0, (0,)), (1, (0,)), (2, (0,))])
        with checked():
            res = find_perfect_matching(h, "1/2")
        w = res.witness
        assert w is not None and verify_witness(h, w) is None
        tau = len(min_hitting_set(h, incident_edges(h, w.s)))
        assert Fraction(tau) <= w.bound

    @given(seed=st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_shuffled_never_internal_error(self, seed):
        r, na = 2 + seed % 3, 4 + seed % 6
        spec = GeneratorSpec(
            mode="shuffled", r=r, a_count=na, b_count=(r - 1) * na,
            extra_edges=na + seed % 3, seed=seed,
        )
        h = generate(spec)
        with checked():
            res = find_perfect_matching(h, "1/2")
        if res.witness is not None:
            assert verify_witness(h, res.witness) is None
        else:
            assert verify_matching(h, res.matching, require_perfect=True) is None


def hall_instance(na, extra_edges, seed):
    """Shuffled r=2 instance with nb = na, so its planted matching is perfect."""
    return generate(GeneratorSpec("shuffled", 2, na, na, extra_edges=extra_edges, seed=seed))


class TestHallRegime:
    """At r = 2, tau(E_S) = |N(S)|, so at eps*(na-1) < 1 the condition is
    Hall's, which a planted perfect matching proves.  Every solve must end
    in a matching: a witness would be a verified violation of a condition
    that holds.  Conversely, with a B-vertex fewer than A-vertices every
    solve must end in a witness, and that witness is a Hall violator."""

    @given(
        na=st.integers(1, 60),
        extra=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_solve_ends_in_a_perfect_matching(self, na, extra, seed):
        h, eps = hall_instance(na, extra * na, seed), Fraction(1, na)
        plain = find_perfect_matching(h, eps)
        runs: list[str] = []
        traced = find_perfect_matching(h, eps, trace=runs.append)
        with checked():
            checked_res = find_perfect_matching(h, eps)
        assert check_trace_lines(runs) is None
        for res in (plain, traced, checked_res):
            assert res.status == "perfect_matching"
            assert res.matching.edge_ids == plain.matching.edge_ids
            assert vars(res.stats) == vars(plain.stats)

    @given(
        na=st.integers(2, 60),
        extra=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=300, deadline=None)
    def test_without_a_b_vertex_every_solve_proves_a_hall_violation(self, na, extra, seed):
        # The converse: with B-vertex na-1 and its edges gone, |B| < |A|,
        # so no perfect matching exists.  At eps = 1/na, eps*(|S|-1) < 1
        # for every S, so the certificate alone proves Hall's condition
        # broken: N(S) lies in the hitting set, which is at most |S|-1.
        g = hall_instance(na, extra * na, seed)
        last = na - 1
        h = BipartiteHypergraph(
            2, na, last, [(a, bs) for a, bs in zip(g.edge_a, g.edge_bs) if last not in bs]
        )
        eps = Fraction(1, na)
        plain = find_perfect_matching(h, eps)
        runs: list[str] = []
        traced = find_perfect_matching(h, eps, trace=runs.append)
        with checked():
            checked_res = find_perfect_matching(h, eps)
        assert check_trace_lines(runs) is None
        for res in (plain, traced, checked_res):
            assert res.status == "witness"
            assert res.witness == plain.witness
            assert vars(res.stats) == vars(plain.stats)
        s, hitting = plain.witness.s, plain.witness.hitting_set
        neighbourhood = {b for eid in incident_edges(h, s) for b in h.edge_bs[eid]}
        assert neighbourhood <= hitting
        assert len(hitting) <= len(s) - 1

    def test_the_shape_grows_deep_trees(self):
        # The property runs the checked run on trees of several layers.
        depths = []
        for seed in range(8):
            with checked():
                res = find_perfect_matching(hall_instance(60, 120, seed), Fraction(1, 60))
            depths.append(res.stats.max_layers)
        assert max(depths) >= 4


class TestLargeEpsilon:
    @pytest.mark.parametrize("eps", ["2", "5", "8", "9", "12", "1000", "1e1000"])
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_every_solve_is_verified(self, r, eps):
        # Thresholds at min(eps, 1); the witness bound at the given eps.
        corpus = [shuffled_planted(seed, 5 + seed, r, tight=True) for seed in range(6)]
        corpus += [
            generate(GeneratorSpec(
                mode="shuffled", r=r, a_count=4 + seed, b_count=(r - 1) * (4 + seed),
                extra_edges=4 + seed + seed % 3, seed=seed,
            ))
            for seed in range(6)
        ]
        # No perfect matching, so every r has a witness; at r = 2 the
        # planted instances above all end in a matching.
        corpus.append(make_h(r, 2, r - 1, [(0, tuple(range(r - 1))), (1, tuple(range(r - 1)))]))
        for h in corpus:
            with checked():
                res = find_perfect_matching(h, eps)
            if res.witness is not None:
                assert res.witness.epsilon == Fraction(eps)
                assert verify_witness(h, res.witness) is None
            else:
                assert verify_matching(h, res.matching, require_perfect=True) is None


class TestWitnessExtractionRegimes:
    def test_large_tree_growth_failure(self):
        # eps=2, r=2: the thresholds use min(eps, 1) = 1, so threshold 20
        # and delta=1/20.  Nineteen blocked root edges give y_total=20,
        # entering the large regime; the next layer has exactly one edge
        # and 1 > 1 fails.  The failing layer is nonempty, and its
        # B-vertex must appear in the hitting set.
        edges = [(i, (i,)) for i in range(19)]         # f_0..f_18, matched first
        edges += [(19, (i,)) for i in range(19)]       # root edges, all blocked
        edges += [(0, (19,))]                          # a0's free alternative
        h = make_h(2, 20, 20, edges)
        events = []
        with checked():
            res = find_perfect_matching(
                h, 2, trace=per_line(lambda line: events.append(trace_event(line)))
            )
        fails = [f for n, f in events if n == "growth" and f["result"] == "fail"]
        assert fails == [{"result": "fail", "x": 1, "y_total": 20}]
        w = res.witness
        assert w is not None and verify_witness(h, w) is None
        assert w.s == frozenset(range(20))
        assert w.hitting_set == frozenset(range(20)), "fresh layer's b19 must be included"
        assert not check_haxell(h, Fraction(2)).satisfied

    def test_saturated_vertices_leave_the_violating_set(self):
        # mu = 1/2 caps the root at u = 2 blocked edges; at extraction
        # the root is saturated and S keeps only the blockers' vertices.
        edges = [(0, (0,)), (1, (1,)), (2, (0,)), (2, (1,)), (2, (3,)), (3, (3,))]
        h = make_h(2, 4, 4, edges)
        m = PartialMatching()
        m.add(h, 0)
        m.add(h, 1)
        m.add(h, 5)
        w = augment(CheckedRun(h, m, params(2, 1, "1/2")), 2)
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
            mode="planted" if seed % 3 else "shuffled",
            r=rng_r,
            a_count=2 + seed % 5,
            b_count=(rng_r - 1) * (2 + seed % 5) + seed % 3,
            extra_edges=seed % 6,
            seed=seed,
        )
        h = generate(spec)
        eps = Fraction(1, 2)
        with checked():
            res = find_perfect_matching(h, eps)
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
        root = next((a for a in range(h.a_count) if a not in m.a_of), None)
        if root is None:
            return
        before = set(m.a_of)
        w = augment(CheckedRun(h, m, params(h.r, "1/2")), root)
        if w is None:
            assert set(m.a_of) == before | {root}
            assert verify_matching(h, m) is None
        else:
            assert verify_witness(h, w) is None
            assert set(m.a_of) == before


class TestTreeSignature:
    def test_matches_layer_sizes(self):
        p = params(3, 1)
        assert signature_from_sizes([(1, 1)], SignatureMemo(p))[0] == (-2775055, 2783200)

    def test_checked_run_raises_the_rule_of_check_signature_step(self, monkeypatch):
        import hbmatch.engine as engine

        const = (-1, 1)
        calls = []
        monkeypatch.setattr(
            engine, "signature_from_sizes", lambda sizes, memo: calls.append(sizes) or (const, 0)
        )
        with pytest.raises(InternalSolverError) as exc, checked():
            find_perfect_matching(shift_chain(3), 1)
        assert len(calls) >= 2
        v = check_signature_step(const, const)
        assert exc.value.code == v.code == "SIGNATURE_NOT_DECREASING"
        assert str(exc.value) == f"{v.code}: {v.detail}"


class TestTraceSinkRuns:
    """A traced solve hands its sink one string per augmenting run: the
    run's lines joined by newlines, every line delivered before the run
    returns or raises."""

    @pytest.mark.parametrize("checking", [False, True])
    def test_one_call_per_augment_start(self, checking):
        runs: list[str] = []
        h = shuffled_planted(1, 60)
        with checked() if checking else contextlib.nullcontext():
            find_perfect_matching(h, 1, trace=runs.append)
        lines = "\n".join(runs).split("\n")
        assert len(runs) > 1 and len(lines) > 7 * len(runs)
        assert sum(line.startswith("augment_start ") for line in lines) == len(runs)

    def test_each_call_is_one_whole_run_without_a_trailing_newline(self):
        runs: list[str] = []
        find_perfect_matching(shuffled_planted(2, 60), 1, trace=runs.append)
        for run in runs:
            lines = run.split("\n")
            assert lines[0].startswith("augment_start ") and lines[-1].startswith("augment_end ")
            assert all(lines)  # no empty line, so no trailing newline

    def test_a_capped_run_delivers_its_lines_before_the_error(self):
        runs: list[str] = []
        with pytest.raises(InternalSolverError) as exc, capped(1):
            find_perfect_matching(shift_chain(6), "1/2", trace=runs.append)
        assert exc.value.code == "ITERATION_CAP_EXCEEDED"
        assert len(runs) == 7
        last = runs[-1].split("\n")
        assert last[0] == "augment_start root=6 matched=6"
        assert last[-1] == "augment_end outcome=internal_error iterations=1"

    def test_a_failed_check_delivers_the_run_so_far(self, monkeypatch):
        import hbmatch.engine as engine

        monkeypatch.setattr(engine, "signature_from_sizes", lambda sizes, memo: ((-1, 1), 0))
        runs: list[str] = []
        with pytest.raises(InternalSolverError) as exc, checked():
            find_perfect_matching(shift_chain(3), 1, trace=runs.append)
        assert exc.value.code == "SIGNATURE_NOT_DECREASING"
        last = runs[-1].split("\n")
        assert last[0] == "augment_start root=3 matched=3"
        assert last[-1] == "signature iter=2 coords=-1,1 unresolved=0"

    def test_a_checked_one_step_root_delivers_one_string(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        expected = (
            "augment_start root=0 matched=0\niteration iter=1 layers=0\n"
            "signature iter=1 coords= unresolved=0\nlayer_built index=1 x=1 y=0\n"
            "growth result=pass x=1 y_total=1\ncollapse layer=1 swaps=0 root_matched=1\n"
            "augment_end outcome=matched iterations=1"
        )
        for checking in (True, False):
            runs: list[str] = []
            with checked() if checking else contextlib.nullcontext():
                find_perfect_matching(h, 1, trace=runs.append)
            assert runs == [expected]


class TestTraceEvents:
    def test_event_stream_shape(self):
        h = superposed_commit_instance()
        events = []
        find_perfect_matching(h, 1, trace=per_line(lambda line: events.append(trace_event(line))))
        names = [n for n, _ in events]
        assert names.count("augment_start") == 3 == names.count("augment_end")
        assert "layer_built" in names and "collapse" in names
        assert "signature" in names and "superposed" in names
        for n, f in events:
            if n == "growth":
                assert f["result"] in ("pass", "fail")

    def test_stats_independent_of_checking(self):
        h = shift_chain(5)
        plain = find_perfect_matching(h, "1/2")
        with checked():
            checked_res = find_perfect_matching(h, "1/2")
        assert vars(plain.stats) == vars(checked_res.stats)
        assert sorted(plain.matching.edge_ids) == sorted(checked_res.matching.edge_ids)


class TestCollapsibleEarlyExit:
    @given(
        hm=hypergraphs_with_matching(max_edges=20),
        mu=st.sampled_from(["1/90", "1/4", "1/3", "1/2", "2/3", "9/10"]),
        level=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_answer_as_counting_every_edge(self, hm, mu, level, data):
        # Every level, layer 1 included, hands over every addable edge.
        h, m = hm
        root = next((a for a in range(h.a_count) if a not in m.a_of), None)
        if root is None or h.m == 0:
            return
        run = started(h, m, root, params(h.r, 1, mu))
        x = data.draw(st.sets(st.sampled_from(range(h.m))))
        addable = sorted(eid for eid in x if is_immediately_addable(h, m, eid))
        expected = addable if collapsible(run, x) else None
        assert handed_to_collapse(run, x, level) == expected


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
        import hbmatch.certify as certify

        calls = []
        real = certify._first_violation
        monkeypatch.setattr(certify, "_first_violation", lambda h: calls.append(h) or real(h))
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


# sha256 of the result document and of the trace document of
# shuffled_planted(seed, 60, tight=True) solved at epsilon 1: each solve
# ends in a witness after 9-22 lazy rebuilds, 1-2 of them committed
TIGHT_SHA256 = {
    0: ("b8eb1c3447b8083dcdb1e4f37d1b6be7f1e5ce5d991dd2bb7141ff9cf60401d9",
        "b545ce2835c051a9166863fb1ad1744542f2005fbf6c572198b959549118704f"),
    1: ("c2a5dcc169ed01dc5fea59882f9d0f84ff947d1fc22e1675e64673fc907975e8",
        "b78af76681c5c1c8aad0b05567196023863df241fe23ab898cfc91f763a66ff5"),
    2: ("30b3f1080c309a62f4c1536e8a6fd55cc719a066a033e8adc03ce911787ab985",
        "a0b0b672a87c1e205f49e041a2458b03fe37c7969df2ec3f4d420a89f79297f2"),
    3: ("db497e77f87530704d555cdca11e2ee90d0a5b30a6d360151cf1416519522d47",
        "de6284d6ee9138bed2d3346eded4fca6a3b905432d0b671974e5506dd63ca503"),
    4: ("f19e0a3ba2dd0682569dbebea54a6597add7169720e0ee9289403582b0caee80",
        "d444d791cc6176b28e12563ec8599481845137ba9309ff9912e266cd8fb3029e"),
}


class TestTightBytes:
    @pytest.mark.parametrize("seed", sorted(TIGHT_SHA256))
    def test_result_and_trace_digests_pinned(self, seed):
        h = shuffled_planted(seed, 60, tight=True)
        plain = format_result(find_perfect_matching(h, 1), Fraction(1))
        buf = io.StringIO()
        traced = format_result(find_perfect_matching(h, 1, trace=TraceWriter(buf)), Fraction(1))
        assert traced == plain
        assert buf.getvalue().count("committed=1") >= 1
        digests = tuple(hashlib.sha256(doc.encode()).hexdigest() for doc in (plain, buf.getvalue()))
        assert digests == TIGHT_SHA256[seed]


class TestTinyEpsilonTrace:
    """A coordinate has about log10(1/mu^3) digits; a trace whose
    coordinates could pass Python's int/str limit is refused up front."""

    def test_refused_before_the_first_root(self):
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            find_perfect_matching(shuffled_planted(1, 60), "1e-1000", trace=lambda line: None)
        assert time.perf_counter() - start < 1
        assert str(exc.value) == (
            "epsilon too small to trace: signature coordinates may have up to 6030 digits, "
            "over Python's 4300-digit limit on int/str conversion"
        )

    def test_traced_solve_at_1e_minus_100_unchanged(self):
        buf = io.StringIO()
        res = find_perfect_matching(shuffled_planted(1, 60), "1e-100", trace=TraceWriter(buf))
        assert res.status == "witness"
        digest = "0a38222aff6820dc120627681b76357d442f210ae0a902d0b898fe56b4cef055"
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest

    def test_no_refusal_without_the_limit(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        p = Parameters.for_instance(3, "1e-1000")
        AugmentRun(shuffled_planted(1, 60), PartialMatching(), p, trace=lambda line: None)


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

        def recording(sizes, memo):
            out = real(sizes, memo)
            seen.append((tuple(sizes), memo.params, out[0]))
            return out

        monkeypatch.setattr(engine, "signature_from_sizes", recording)
        h = shuffled_planted(2, 30)
        by_eps = {}
        for eps in (Fraction(1), Fraction(1, 2)):
            seen.clear()
            find_perfect_matching(h, eps, trace=lambda line: None)
            assert seen and {p.epsilon for _, p, _ in seen} == {eps}
            for sizes, p, coords in seen:
                assert coords == reference_signature(sizes, p)
            by_eps[eps] = {sizes: coords for sizes, _, coords in seen}
        shared = (by_eps[1].keys() & by_eps[Fraction(1, 2)].keys()) - {()}
        assert shared
        assert all(by_eps[1][k] != by_eps[Fraction(1, 2)][k] for k in shared)


class FullScanRun(AugmentRun):
    """Both reuses of a fresh build off: every rebuild runs in full and
    every collapse check walks X."""

    def _rebuild(self, i: int, occupied: AbstractSet[int]) -> Layer:
        tree = self.tree
        return engine_module.build_layer(
            self.h, self.m, occupied, tree.parent_a_set(i), self.params.u,
            x_held=tree.layers[i - 1].x,
        )

    @property
    def fresh_addable(self) -> None:
        return None

    @fresh_addable.setter
    def fresh_addable(self, addable) -> None:
        pass


@st.composite
def reuse_instances(draw):
    """(instance, epsilon): shuffled planted, tight and guaranteed at
    r = 2..4, or the Hall shape (r = 2, nb = na) at epsilon 1/na."""
    kind = draw(st.sampled_from(["generated", "hall"]))
    if kind == "hall":
        na = draw(st.integers(1, 40))
        h = hall_instance(na, draw(st.integers(1, 3)) * na, draw(st.integers(0, 2**16)))
        return h, Fraction(1, na)
    return draw(shuffled_generated(max_a=40)), Fraction(1)


class TestReusesOff:
    """A solve that reuses its fresh builds' lists equals one that always
    rebuilds in full and always walks X."""

    @staticmethod
    def solve(h, eps, mu, full: bool):
        runs: list[str] = []
        with (
            substituted(mu),
            mock.patch.object(engine_module, "AugmentRun", FullScanRun if full else AugmentRun),
        ):
            plain = solve_outcome(h, eps)
            traced = solve_outcome(h, eps, trace=runs.append)
        return plain, traced, runs

    @given(reuse_instances(), st.sampled_from([None, "1/2", "1/3"]))
    # In these solves a rebuild of layer 2 takes an edge but is refused,
    # and a later rebuild of that layer can take the edge again, so the
    # layer's list must stay its fresh build's, which holds the edge.
    @example((shuffled_planted(24, 34), Fraction(1)), "1/3")
    @example((shuffled_planted(55, 25, tight=True), Fraction(1)), "1/3")
    @settings(max_examples=500, deadline=None)
    def test_equal_documents_stats_and_traces(self, case, mu):
        h, eps = case
        plain, traced, runs = self.solve(h, eps, mu, full=False)
        assert plain == traced
        assert (plain, traced, runs) == self.solve(h, eps, mu, full=True)

    @pytest.mark.parametrize("seed", sorted(TIGHT_SHA256))
    def test_the_tight_solves_skip_rebuilds(self, monkeypatch, seed):
        h = shuffled_planted(seed, 60, tight=True)
        calls = counting_build_layer(monkeypatch)
        res = find_perfect_matching(h, 1)
        reused = len(calls)
        calls.clear()
        with mock.patch.object(engine_module, "AugmentRun", FullScanRun):
            full = find_perfect_matching(h, 1)
        assert vars(res.stats) == vars(full.stats)
        assert reused < len(calls)

    @pytest.mark.parametrize("seed", sorted(TIGHT_SHA256))
    def test_the_tight_witnesses_skip_prefix_rebuilds(self, monkeypatch, seed):
        h = shuffled_planted(seed, 60, tight=True)
        calls = counting_build_layer(monkeypatch)
        inside: list[int] = []
        extract = AugmentRun.extract_witness

        def counted(run):
            before = len(calls)
            cert = extract(run)
            inside.append(len(calls) - before)
            return cert

        monkeypatch.setattr(AugmentRun, "extract_witness", counted)
        res = find_perfect_matching(h, 1)
        with mock.patch.object(engine_module, "AugmentRun", FullScanRun):
            full = find_perfect_matching(h, 1)
        assert len(inside) == 2
        assert inside[0] < inside[1]
        assert res.witness == full.witness


class TestSubclassOverrides:
    def test_every_override_is_an_engine_name(self):
        # An override of a name the engine no longer has is never called,
        # and its subclass silently runs the engine's own code.
        run = started(shift_chain(2), PartialMatching(), 0, params())
        for cls in (CheckedRun, FullScanRun):
            own = {
                name for name in vars(cls)
                if not (name.startswith("__") or cls is CheckedRun and name.startswith("check_"))
            }
            assert own and own <= set(dir(run)), cls.__name__
