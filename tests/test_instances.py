import dataclasses
import hashlib
import importlib.util
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hbmatch
from hbmatch import GeneratorSpec, from_bipartite_graph, generate, validate_instance
from hbmatch.cli import parse_instance, serialize_instance
from hbmatch.core import InstanceError
from hbmatch.instances import MODES, InfeasibleSpec, SplitMix64, default_private_degree
from hbmatch.oracles import check_haxell

from .conftest import brute_force_perfect_matching

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    """perfbench/workloads.py, loaded by path; its dataclasses look
    their module up in sys.modules."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


class TestSplitMix64:
    def test_known_first_outputs_for_seed_zero(self):
        # splitmix64 reference stream for seed 0
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_below_and_distinct(self):
        rng = SplitMix64(42)
        vals = [rng.below(10) for _ in range(100)]
        assert all(0 <= v < 10 for v in vals)
        picks = rng.distinct(8, 5)
        assert len(set(picks)) == 5 and picks == sorted(picks)

    def test_below_refuses_an_empty_range(self):
        with pytest.raises(ValueError, match=r"^below\(\) needs n >= 1$"):
            SplitMix64(0).below(0)

    def test_distinct_refuses_more_values_than_the_range_before_any_draw(self, monkeypatch):
        rng = SplitMix64(0)
        monkeypatch.setattr(rng, "below", lambda n: pytest.fail("drew before refusing"))
        with pytest.raises(ValueError, match="^cannot draw more distinct values than the range$"):
            rng.distinct(2, 3)

    def test_shuffle_is_deterministic(self):
        a, b = list(range(20)), list(range(20))
        SplitMix64(7).shuffle(a)
        SplitMix64(7).shuffle(b)
        assert a == b and a != list(range(20))


class TestGenGuaranteed:
    def test_default_private_degree(self):
        assert default_private_degree(2, Fraction(1)) == 3
        assert default_private_degree(3, Fraction(1)) == 5
        assert default_private_degree(4, Fraction(1)) == 7
        assert default_private_degree(3, Fraction(1, 2)) == 5  # ceil(4.5)

    def test_single_vertex_two_disjoint_edges(self):
        spec = GeneratorSpec(mode="guaranteed", r=2, a_count=1, b_count=2, d=2, seed=0)
        h = generate(spec, Fraction(1))
        assert h.m == 2
        assert check_haxell(h, Fraction(1)).satisfied

    def test_r3_instances_satisfy_condition_and_have_matching(self):
        spec = GeneratorSpec(mode="guaranteed", r=3, a_count=3, b_count=24, d=4, seed=5)
        h = generate(spec, Fraction(1))
        assert validate_instance(h) is None
        assert check_haxell(h, Fraction(1)).satisfied
        assert brute_force_perfect_matching(h) is not None

    def test_infeasible_b_count(self):
        spec = GeneratorSpec(mode="guaranteed", r=3, a_count=3, b_count=10, d=4, seed=0)
        with pytest.raises(InfeasibleSpec):
            generate(spec)

    def test_extra_edges_preserve_condition(self):
        spec = GeneratorSpec(
            mode="guaranteed", r=3, a_count=3, b_count=40, d=5, extra_edges=10, seed=9
        )
        h = generate(spec, Fraction(1))
        assert validate_instance(h) is None
        assert check_haxell(h, Fraction(1)).satisfied


class TestGenPlanted:
    def test_zero_extras_is_exactly_a_matching(self):
        spec = GeneratorSpec(mode="planted", r=3, a_count=4, b_count=8, seed=1)
        h = generate(spec)
        assert h.m == 4
        m = brute_force_perfect_matching(h)
        assert m is not None and len(m) == 4

    @given(seed=st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_always_contains_matching(self, seed):
        spec = GeneratorSpec(
            mode="planted", r=3, a_count=5, b_count=14, extra_edges=6, seed=seed
        )
        h = generate(spec)
        assert validate_instance(h) is None
        assert brute_force_perfect_matching(h) is not None

    def test_equal_seeds_identical_instances(self):
        spec = GeneratorSpec(mode="planted", r=3, a_count=5, b_count=12, extra_edges=4, seed=77)
        a = serialize_instance(generate(spec))
        b = serialize_instance(generate(spec))
        assert a == b

    def test_infeasible(self):
        with pytest.raises(InfeasibleSpec):
            generate(GeneratorSpec(mode="planted", r=3, a_count=5, b_count=9, seed=0))

    def test_extra_edges_stop_once_every_slot_is_taken(self, monkeypatch):
        # 2 * C(4, 2) = 12 slots; a billion requested edges must not each
        # spend their 200 draws once the slots run out.
        draws = []
        real = SplitMix64.next_u64

        def counted(rng):
            draws.append(1)
            assert len(draws) <= 10_000, "drawing past a full edge space"
            return real(rng)

        monkeypatch.setattr(SplitMix64, "next_u64", counted)
        spec = GeneratorSpec(mode="planted", r=3, a_count=2, b_count=4, extra_edges=10, seed=0)
        full = generate(spec)
        assert full.m == 12
        huge = generate(dataclasses.replace(spec, extra_edges=10**9))
        assert serialize_instance(huge) == serialize_instance(full)


class TestGenShuffled:
    def test_too_few_b_vertices_is_the_planted_refusal(self):
        spec = GeneratorSpec(mode="shuffled", r=3, a_count=5, b_count=9, seed=0)
        with pytest.raises(InfeasibleSpec, match="^need b_count >= 10 to plant a perfect matching$"):
            generate(spec)

    @given(seed=st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_instances_are_well_formed_and_deterministic(self, seed):
        spec = GeneratorSpec(
            mode="shuffled", r=3, a_count=7, b_count=14, extra_edges=7, seed=seed
        )
        h1, h2 = generate(spec), generate(spec)
        assert validate_instance(h1) is None
        assert serialize_instance(h1) == serialize_instance(h2)
        assert brute_force_perfect_matching(h1) is not None

    @pytest.mark.parametrize("run_seed", [3, 18])
    def test_mode_writes_the_benchmark_deep_corpus(self, tmp_path, run_seed):
        # perfbench shuffles planted instances itself; the mode must give
        # the same instance bytes below the comment line.
        paths = workloads.write_corpus(hbmatch, workloads.DEEP, run_seed, 2, tmp_path)
        for i, path in enumerate(paths):
            spec = GeneratorSpec(
                mode="shuffled", r=3, a_count=600, b_count=1800, extra_edges=1200,
                seed=1000 * run_seed + i,
            )
            comment, body = path.read_text().split("\n", 1)
            assert comment.startswith("c generator: mode=planted ")
            assert body == serialize_instance(generate(spec))


class TestFromBipartiteGraph:
    def test_common_vertex_funnel_violates(self):
        # all edges through b0: tau(E_A) = 1
        pairs = [(a, 0) for a in range(4)]
        h = from_bipartite_graph(pairs, 4, 1)
        res = check_haxell(h, Fraction(1))
        assert not res.satisfied

    def test_empty(self):
        h = from_bipartite_graph([], 2, 3)
        assert h.m == 0 and h.r == 2

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(0, 0), (2, 1)], "INDEX_OUT_OF_RANGE: edge 1: A-vertex 2"),
            ([(0, 0), (1, 3)], "INDEX_OUT_OF_RANGE: edge 1: B-vertex 3"),
            ([(1, -1)], "INDEX_OUT_OF_RANGE: edge 0: B-vertex -1"),
            ([(0, 1), (1, 0), (0, 1)], "DUPLICATE_EDGE: edge 2 repeats (0, (1,))"),
        ],
    )
    def test_bad_pairs_raise_the_kernel_violation(self, pairs, message):
        with pytest.raises(InstanceError) as exc:
            from_bipartite_graph(pairs, 2, 3)
        assert isinstance(exc.value, ValueError)
        assert (exc.value.code, str(exc.value)) == (message.split(":")[0], message)

    def test_k22(self):
        h = from_bipartite_graph([(a, b) for a in range(2) for b in range(2)], 2, 2)
        assert h.m == 4 and all(len(e.bs) == 1 for e in h.edges)

    def test_permutation_matrix_has_matching(self):
        perm = [2, 0, 3, 1]
        h = from_bipartite_graph([(a, perm[a]) for a in range(4)], 4, 4)
        m = brute_force_perfect_matching(h)
        assert m is not None and len(m) == 4

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            from_bipartite_graph([(0, 5)], 1, 3)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            from_bipartite_graph([(0, 0), (0, 0)], 1, 1)


class TestGenGraph:
    def test_requires_r2(self):
        with pytest.raises(InfeasibleSpec):
            generate(GeneratorSpec(mode="graph", r=3, a_count=2, b_count=2, seed=0))

    def test_edge_count_and_determinism(self):
        spec = GeneratorSpec(mode="graph", r=2, a_count=4, b_count=5, extra_edges=9, seed=3)
        h = generate(spec)
        assert h.m == 9
        assert validate_instance(h) is None
        assert serialize_instance(h) == serialize_instance(generate(spec))


class TestSpecCheck:
    @pytest.mark.parametrize(
        "fields",
        [
            dict(r=1), dict(r=0), dict(r=-2), dict(a_count=-1), dict(b_count=-3),
            dict(extra_edges=-1), dict(d=-1),
        ],
        ids=["r1", "r0", "negative-r", "negative-na", "negative-nb", "negative-extra", "negative-d"],
    )
    def test_refused_at_construction(self, fields):
        spec = dict(mode="planted", r=2, a_count=2, b_count=8, extra_edges=1, seed=0)
        with pytest.raises(InfeasibleSpec):
            GeneratorSpec(**{**spec, **fields})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("r", "3"), ("r", 3.0), ("a_count", 2.0), ("a_count", True), ("b_count", "4"),
            ("extra_edges", 1.0), ("d", 2.0), ("d", False), ("seed", 1.5), ("seed", True),
        ],
    )
    def test_field_that_is_not_an_int_is_refused_by_name(self, name, value):
        # r="3" and seed=1.5 used to end in a bare TypeError, and a float
        # or bool count was accepted.
        spec = dict(mode="planted", r=3, a_count=2, b_count=4, extra_edges=0, d=None, seed=0)
        with pytest.raises(InfeasibleSpec, match=f"^{name} must be an int, got {value!r}$"):
            GeneratorSpec(**{**spec, name: value})
        assert generate(GeneratorSpec(**spec)).m == 2

    def test_every_mode_gives_its_pinned_bytes(self):
        # One digest over a grid of specs in every mode: each instance's
        # serialized text, or the refusal message of a spec it cannot meet.
        digest = hashlib.sha256()
        grid = product(
            MODES, (2, 3, 4), (0, 1, 5, 30), (0, 3, 40, 200), (0, 7, 60), (None, 0, 2), (0, 1, 77)
        )
        for mode, r, na, nb, extra, d, seed in grid:
            spec = GeneratorSpec(mode, r, na, nb, extra_edges=extra, d=d, seed=seed)
            try:
                text = serialize_instance(generate(spec))
            except InfeasibleSpec as exc:
                text = str(exc)
            digest.update(text.encode())
        assert digest.hexdigest() == (
            "dc5f8bdf277e6098b16f94b6a39347d8d31127e59b5bf83db334359488d7cb0e"
        )

    def test_generate_refuses_an_unknown_mode(self):
        spec = GeneratorSpec(mode="bogus", r=2, a_count=2, b_count=2, seed=0)
        with pytest.raises(ValueError, match="^unknown generator mode 'bogus'$"):
            generate(spec)

    @given(
        mode=st.sampled_from(MODES),
        r=st.integers(-1, 5),
        na=st.integers(-2, 8),
        nb=st.integers(-2, 30),
        extra=st.integers(-2, 12),
        d=st.none() | st.integers(-2, 4),
        seed=st.integers(0, 2**64),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_generated_instance_parses(self, mode, r, na, nb, extra, d, seed):
        # A spec is refused with InfeasibleSpec, or its instance serializes
        # to text the parser takes back unchanged.
        try:
            spec = GeneratorSpec(mode, r, na, nb, extra_edges=extra, d=d, seed=seed)
            h = generate(spec)
        except InfeasibleSpec:
            return
        g = parse_instance(serialize_instance(h, comments=[f"generator: {spec.describe()}"]))
        assert (g.r, g.a_count, g.b_count) == (h.r, h.a_count, h.b_count)
        assert (g.edge_a, g.edge_bs) == (h.edge_a, h.edge_bs)
