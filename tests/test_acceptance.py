"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete.  Corpora are seeded and shared across criteria; the
invariant and signature criteria re-run samples of the same instances
checked (`tests/checked_run.py`) and traced.
"""

from __future__ import annotations

import io
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from hbmatch import (
    BipartiteHypergraph,
    GeneratorSpec,
    find_perfect_matching,
    generate,
    verify_matching,
    verify_witness,
)
from hbmatch.cli import TraceWriter, check_trace_lines, main, parse_instance, serialize_instance
from hbmatch.core import incident_edges
from hbmatch.instances import SplitMix64, default_private_degree
from hbmatch.oracles import check_haxell, min_hitting_set

from .checked_run import checked
from .conftest import brute_force_perfect_matching


@contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS ({time.perf_counter() - start:.1f}s)")


# ----------------------------------------------------------------------
# shared corpora


@pytest.fixture(scope="module")
def graph_corpus():
    """Random bipartite graphs (r=2) satisfying the condition at eps=1/4."""
    eps = Fraction(1, 4)
    out = []
    for i in range(520):
        k = [3, 4, 5, 6, 7][i % 5] if i < 420 else [8, 9, 10, 11, 12][i % 5]
        nb = k + 2
        spec = GeneratorSpec(
            mode="graph", r=2, a_count=k, b_count=nb,
            extra_edges=int(0.7 * k * nb), seed=i,
        )
        h = generate(spec)
        if check_haxell(h, eps).satisfied:
            out.append(h)
    assert len(out) >= 500, f"only {len(out)} satisfied graphs generated"
    return out


@pytest.fixture(scope="module")
def guaranteed_corpus():
    eps = Fraction(1)
    out = []
    for i in range(200):
        r = 3 if i % 2 == 0 else 4
        na = 2 + (i // 2) % 7
        d = default_private_degree(r, eps)
        spec = GeneratorSpec(
            mode="guaranteed", r=r, a_count=na, b_count=d * (r - 1) * na,
            extra_edges=i % 6, d=d, seed=i,
        )
        out.append(generate(spec, eps))
    return out


@pytest.fixture(scope="module")
def shuffled_corpus():
    out = []
    for i in range(200):
        r, na = 2 + i % 3, 4 + i % 9
        spec = GeneratorSpec(
            mode="shuffled", r=r, a_count=na, b_count=(r - 1) * na,
            extra_edges=na + i % 4, seed=i,
        )
        out.append(generate(spec))
    return out


# ----------------------------------------------------------------------
# criteria


def test_criterion_1_graph_specialization(graph_corpus):
    with criterion(1, "graph specialization r=2"):
        start = time.perf_counter()
        for h in graph_corpus:
            res = find_perfect_matching(h, "1/4")
            assert res.matching is not None, "satisfied graph must yield a matching"
            assert verify_matching(h, res.matching, require_perfect=True) is None
            assert brute_force_perfect_matching(h) is not None
        assert time.perf_counter() - start < 10.0


def test_criterion_2_guaranteed_instances(guaranteed_corpus):
    with criterion(2, "guaranteed-condition instances"):
        start = time.perf_counter()
        for h in guaranteed_corpus:
            assert check_haxell(h, Fraction(1)).satisfied
            res = find_perfect_matching(h, 1)
            assert res.matching is not None
            assert verify_matching(h, res.matching, require_perfect=True) is None
        assert time.perf_counter() - start < 30.0


def test_criterion_3_witness_soundness(shuffled_corpus):
    with criterion(3, "witness soundness"):
        witnesses = 0
        for h in shuffled_corpus:
            res = find_perfect_matching(h, "1/2")
            if res.matching is not None:
                assert verify_matching(h, res.matching, require_perfect=True) is None
                continue
            witnesses += 1
            w = res.witness
            assert w is not None
            assert verify_witness(h, w) is None
            tau = len(min_hitting_set(h, incident_edges(h, w.s)))
            assert Fraction(tau) <= w.bound
        assert witnesses >= 50, "shuffled corpus must actually exercise witnesses"


def test_criterion_4_invariant_suite(graph_corpus, guaranteed_corpus, shuffled_corpus):
    # The checked run re-checks every tree/layer invariant,
    # collapsibility, layer growth, superposed growth caps and signature
    # monotonicity at every iteration boundary; any violation raises and
    # fails the test.
    with criterion(4, "per-iteration invariants (checked run)"):
        sample = (
            graph_corpus[::12] + guaranteed_corpus[::5] + shuffled_corpus[::5]
        )
        assert len(sample) >= 120
        with checked():
            for h in sample:
                find_perfect_matching(h, "1/2")


def test_criterion_5_signature_monotonicity(graph_corpus, guaranteed_corpus, shuffled_corpus):
    with criterion(5, "signature monotonicity"):
        sample = (
            graph_corpus[::12] + guaranteed_corpus[::6] + shuffled_corpus[::6]
        )
        checked = 0
        for h in sample:
            buf = io.StringIO()
            res = find_perfect_matching(h, "1/2", trace=TraceWriter(buf))
            err = check_trace_lines(buf.getvalue().splitlines())
            assert err is None, err
            checked += 1
        assert checked >= 100


def test_criterion_6_oracle_cross_validation():
    with criterion(6, "oracle cross-validation"):
        def exhaustive_tau(h, family):
            bsets = [set(h.edges[i].bs) for i in family]
            if not bsets:
                return 0
            for k in range(h.b_count + 1):
                for sub in combinations(range(h.b_count), k):
                    s = set(sub)
                    if all(bs & s for bs in bsets):
                        return k
            raise AssertionError("family has an unhittable edge")

        rng = SplitMix64(2024)
        for _ in range(100):
            r = 2 + rng.below(3)
            nb = max(r - 1, 3 + rng.below(10))
            na = 1 + rng.below(5)
            seen, edges = set(), []
            for _ in range(rng.below(13)):
                a = rng.below(na)
                bs = tuple(rng.distinct(nb, r - 1))
                if (a, bs) not in seen:
                    seen.add((a, bs))
                    edges.append((a, bs))
            h = BipartiteHypergraph(r, na, nb, edges)
            res = min_hitting_set(h, range(h.m))
            assert len(res) == exhaustive_tau(h, range(h.m))

        # classic condition satisfied implies a perfect matching exists
        satisfied = 0
        for i in range(300):
            r = 2 + i % 2
            na = 2 + i % 4
            spec = GeneratorSpec(
                mode="planted", r=r, a_count=na, b_count=(r - 1) * na + 2,
                extra_edges=2 + i % 7, seed=i,
            )
            h = generate(spec)
            if check_haxell(h, Fraction(0)).satisfied:
                satisfied += 1
                assert brute_force_perfect_matching(h) is not None
        assert satisfied >= 50, "classic-satisfied sample too small to be meaningful"


def test_criterion_7_termination_and_speed(graph_corpus, guaranteed_corpus, shuffled_corpus):
    with criterion(7, "termination and caps"):
        # find_perfect_matching raises on ITERATION_CAP_EXCEEDED; none of
        # the corpus runs may do so.
        for h in graph_corpus[::10] + guaranteed_corpus[::10] + shuffled_corpus[::10]:
            find_perfect_matching(h, "1/2")
        times = []
        for seed in range(16):
            spec = GeneratorSpec(
                mode="planted", r=3, a_count=50, b_count=110, extra_edges=300, seed=seed
            )
            h = generate(spec)
            assert h.a_count <= 50 and h.m <= 500
            start = time.perf_counter()
            find_perfect_matching(h, "1/2")
            times.append(time.perf_counter() - start)
        for seed in range(15):
            spec = GeneratorSpec(
                mode="shuffled", r=3, a_count=50, b_count=100, extra_edges=100, seed=seed
            )
            h = generate(spec)
            assert h.a_count <= 50 and h.m <= 500
            start = time.perf_counter()
            find_perfect_matching(h, "1/2")
            times.append(time.perf_counter() - start)
        assert statistics.median(times) < 1.0


def test_criterion_8_interface_fidelity(tmp_path, guaranteed_corpus, shuffled_corpus):
    with criterion(8, "interface fidelity"):
        # parse . serialize round-trips byte-identically
        corpus = guaranteed_corpus[::8] + shuffled_corpus[::8]
        for h in corpus:
            text = serialize_instance(h)
            assert serialize_instance(parse_instance(text)) == text

        # every solve output passes verify; reruns are byte-identical
        for idx, h in enumerate(corpus[:20]):
            inst = tmp_path / f"i{idx}.hbm"
            inst.write_text(serialize_instance(h))
            docs = []
            for run in (0, 1):
                out = tmp_path / f"r{idx}-{run}.txt"
                code = main([
                    "solve", "--input", str(inst), "--epsilon", "1/2",
                    "--output", str(out),
                ])
                assert code in (0, 2)
                assert main(["verify", "--instance", str(inst), "--result", str(out)]) == 0
                docs.append(out.read_bytes())
            assert docs[0] == docs[1]
