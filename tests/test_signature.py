import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbmatch import (
    Parameters,
    SignatureError,
    SignatureVector,
    floor_log,
    lex_less,
    signature_from_sizes,
)
from hbmatch.signature import SignatureMemo, check_signature_step


def params_r3_eps1():
    return Parameters.for_instance(3, Fraction(1))


class TestParameters:
    def test_derived_constants_r3_eps1(self):
        p = params_r3_eps1()
        assert p.mu == Fraction(1, 90)
        assert p.u == 90
        assert p.delta == Fraction(1, 45)
        assert p.gamma == Fraction(89, 90) * Fraction(1, 45)
        assert p.b == Fraction(729000, 728999)
        assert p.small_tree_threshold == 45

    def test_derived_constants_r2_eps_quarter(self):
        p = Parameters.for_instance(2, "1/4")
        assert p.mu == Fraction(1, 640)
        assert p.u == 640
        assert p.small_tree_threshold == 80

    def test_overrides(self):
        p = Parameters.for_instance(3, 1, mu_override="1/8", u_override=4)
        assert p.mu == Fraction(1, 8) and p.u == 4

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            Parameters.for_instance(3, 0)
        with pytest.raises(TypeError):
            Parameters.for_instance(3, 0.5)

    def test_iteration_cap_formula(self):
        p = params_r3_eps1()
        n = 10
        expected = 10 * n * n * (math.ceil(math.log2(n)) + 2) ** 2 + 1000
        assert p.iteration_cap(n) == expected
        assert p.iteration_cap(1) == 10 * 4 + 1000
        assert Parameters.for_instance(3, 1, max_iterations=7).iteration_cap(10) == 7


class TestFloorLog:
    def test_exact_powers_of_the_base(self):
        assert floor_log(Fraction(8), Fraction(2)) == (3, False)
        assert floor_log(Fraction(9), Fraction(2)) == (3, False)
        assert floor_log(Fraction(1, 3), Fraction(2))[0] == -2

    def test_base_close_to_one(self):
        b = Fraction(729000, 728999)
        k, ambiguous = floor_log(Fraction(45), b)
        assert k == 2775055 and not ambiguous

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            floor_log(Fraction(0), Fraction(2))
        with pytest.raises(ValueError):
            floor_log(Fraction(2), Fraction(1))

    def test_near_one_values_settled_exactly(self):
        assert floor_log(Fraction(10**30 + 1, 10**30), Fraction(2)) == (0, False)
        assert floor_log(Fraction(10**30 - 1, 10**30), Fraction(2)) == (-1, False)

    @pytest.mark.parametrize(
        "r,eps,value,expected",
        [
            # floors larger than 2^53: every intermediate must stay inside
            # the sized working precision, not the 53-bit default context
            (10, "1/100", Fraction(150000), 11918390573078392802062),
            (25, "1/1000", Fraction(3125000), 3651109580359530987562932380408),
        ],
    )
    def test_huge_floors_match_direct_high_precision(self, r, eps, value, expected):
        import mpmath

        p = Parameters.for_instance(r, eps)
        with mpmath.workprec(2000):
            x = (mpmath.log(value.numerator) - mpmath.log(value.denominator)) / (
                mpmath.log(p.b.numerator) - mpmath.log(p.b.denominator)
            )
            direct = int(mpmath.floor(x))
        assert direct == expected
        assert floor_log(value, p.b) == (expected, False)


class TestSignature:
    def test_empty_tree_is_top_symbol_only(self):
        sig, unresolved = signature_from_sizes([], params_r3_eps1())
        assert sig.coords == () and unresolved == 0

    def test_frozen_fixture_r3_eps1(self):
        # |X_1| = |Y_1| = 1: floors of log_{729000/728999}(45) and
        # of log(4050/89), evaluated at >= 120-bit precision.
        sig, unresolved = signature_from_sizes([(1, 1)], params_r3_eps1())
        assert sig.coords == (-2775055, 2783200)
        assert unresolved == 0

    def test_doubling_y_strictly_increases_even_coordinate(self):
        p = params_r3_eps1()
        one, _ = signature_from_sizes([(1, 1)], p)
        two, _ = signature_from_sizes([(1, 2)], p)
        assert two.coords[1] > one.coords[1]
        assert two.coords[1] == 3288504

    def test_log_of_zero(self):
        with pytest.raises(SignatureError) as exc:
            signature_from_sizes([(0, 1)], params_r3_eps1())
        assert exc.value.code == "LOG_OF_ZERO"

    def test_sign_pattern_and_monotone_magnitudes(self):
        p = params_r3_eps1()
        sig, _ = signature_from_sizes([(3, 4), (2, 2), (5, 7)], p)
        mags = [abs(c) for c in sig.coords]
        for i, c in enumerate(sig.coords):
            assert (c <= 0) if i % 2 == 0 else (c >= 0)
        assert mags == sorted(mags)


# size lists as a run's iteration boundaries produce them; zeros are
# allowed so that LOG_OF_ZERO raises land between cached calls
size_lists = st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=5)


class TestSignatureMemo:
    @given(
        seq=st.lists(size_lists, min_size=1, max_size=10),
        eps=st.sampled_from(["1", "1/2", "1/10"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_shared_memo_matches_fresh_calls(self, seq, eps):
        p = Parameters.for_instance(3, eps)
        memo = SignatureMemo(p)
        for sizes in seq:
            try:
                fresh = signature_from_sizes(sizes, p)
            except SignatureError as exc:
                with pytest.raises(SignatureError) as shared:
                    signature_from_sizes(sizes, p, memo)
                assert shared.value.code == exc.code == "LOG_OF_ZERO"
                continue
            assert signature_from_sizes(sizes, p, memo) == fresh

    def test_repeated_sizes_reuse_floor_log(self, monkeypatch):
        import hbmatch.signature as signature

        calls = []
        real = signature.floor_log
        monkeypatch.setattr(
            signature, "floor_log", lambda v, b: calls.append(v) or real(v, b)
        )
        p = params_r3_eps1()
        memo = SignatureMemo(p)
        first = signature_from_sizes([(3, 4), (2, 2)], p, memo)
        assert len(calls) == 4
        assert signature_from_sizes([(3, 4), (2, 2), (5, 1)], p, memo)[0].coords[:4] == (
            first[0].coords
        )
        assert len(calls) == 6
        # the same size on the other side or another layer is a new key
        signature_from_sizes([(4, 3)], p, memo)
        assert len(calls) == 8

    def test_memo_of_other_parameters_rejected(self):
        memo = SignatureMemo(Parameters.for_instance(3, "1/2"))
        with pytest.raises(ValueError):
            signature_from_sizes([(1, 1)], params_r3_eps1(), memo)


class TestCheckSignatureStep:
    def test_clean_step(self):
        prev = SignatureVector((-5, 7))
        assert check_signature_step(SignatureVector((-6, 7)), prev) is None
        assert check_signature_step(SignatureVector(()), None) is None

    @pytest.mark.parametrize(
        "coords,expected",
        [
            ((5, 7), ("SIGNATURE_SIGN", 1)),
            ((-5, -7), ("SIGNATURE_SIGN", 2)),
            ((-5, 7, -6, 8), ("SIGNATURE_NOT_MONOTONE", 3)),
            ((-5, 4), ("SIGNATURE_NOT_MONOTONE", 2)),
        ],
    )
    def test_first_broken_rule_and_position(self, coords, expected):
        assert check_signature_step(SignatureVector(coords), None) == expected

    def test_not_decreasing(self):
        prev = SignatureVector((-6, 7))
        assert check_signature_step(SignatureVector((-5, 7)), prev) == (
            "SIGNATURE_NOT_DECREASING", 0
        )
        assert check_signature_step(prev, prev) == ("SIGNATURE_NOT_DECREASING", 0)


class TestLexLess:
    def test_extension_reduces_value(self):
        top = SignatureVector(())
        ext = SignatureVector((-3, 5))
        assert lex_less(ext, top)
        assert not lex_less(top, ext)

    def test_smaller_even_coordinate(self):
        a = SignatureVector((-3, 5))
        b = SignatureVector((-3, 4))
        assert lex_less(b, a)
        assert not lex_less(a, b)

    def test_smaller_odd_coordinate(self):
        a = SignatureVector((-4, 9))
        b = SignatureVector((-3, 2))
        assert lex_less(a, b)

    def test_equal_vectors(self):
        a = SignatureVector((-3, 5))
        assert not lex_less(a, a)

    def test_prefix_comparison(self):
        longer = SignatureVector((-3, 5, -9, 11))
        shorter = SignatureVector((-3, 5))
        assert lex_less(longer, shorter)
        assert not lex_less(shorter, longer)
