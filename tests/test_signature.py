import dataclasses
import math
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbmatch import Parameters
from hbmatch.params import (
    MAX_DECIMAL_EXPONENT,
    MAX_RATIONAL_CHARS,
    parse_epsilon,
    parse_rational,
)
from hbmatch.signature import (
    SignatureError,
    SignatureMemo,
    _Logs,
    check_signature_step,
    floor_log,
    lex_less,
    signature_from_sizes,
    working_digits,
)


def params_r3_eps1():
    return Parameters.for_instance(3, Fraction(1))


class TestParameters:
    def test_derived_constants_r3_eps1(self):
        p = params_r3_eps1()
        assert p.mu == Fraction(1, 90)
        assert p.u == 90
        assert p.delta == Fraction(1, 45)
        assert p.b == Fraction(729000, 728999)

    def test_derived_constants_r2_eps_quarter(self):
        p = Parameters.for_instance(2, "1/4")
        assert p.mu == Fraction(1, 640)
        assert p.u == 640
        assert p.delta == Fraction(1, 80)

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("eps", ["3/2", "8", "1e1000"])
    def test_thresholds_use_epsilon_at_most_1(self, r, eps):
        # The given epsilon is kept; every derived constant, and the
        # monitor's floors, are those at epsilon = 1.
        p, p1 = Parameters.for_instance(r, eps), Parameters.for_instance(r, 1)
        assert p.epsilon == Fraction(eps)
        assert vars(p) == {**vars(p1), "epsilon": p.epsilon}
        for layer, side, size in ((1, 0, 3), (2, 1, 5), (3, 0, 40)):
            assert SignatureMemo(p).floor(layer, side, size) == SignatureMemo(p1).floor(
                layer, side, size
            )

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            Parameters.for_instance(3, 0)
        with pytest.raises(TypeError):
            Parameters.for_instance(3, 0.5)
        with pytest.raises(ValueError, match="epsilon must be > 0"):
            Parameters.for_instance(3, "-1")

    def test_decimal_exponent_bounded(self):
        assert parse_rational(f"1e{MAX_DECIMAL_EXPONENT}") == 10**MAX_DECIMAL_EXPONENT
        assert parse_rational(f"2E-{MAX_DECIMAL_EXPONENT}") == Fraction(2, 10**MAX_DECIMAL_EXPONENT)
        for text in (f"1e{MAX_DECIMAL_EXPONENT + 1}", f"1e-{MAX_DECIMAL_EXPONENT + 1}",
                     "1E+999999999", "0.5e999999999"):
            with pytest.raises(ValueError, match="exponent beyond"):
                parse_rational(text)

    def test_text_length_bounded(self):
        padded = "1e" + "0" * (MAX_RATIONAL_CHARS - 3) + "5"  # exponent 5, at the limit
        assert len(padded) == MAX_RATIONAL_CHARS and parse_rational(padded) == 10**5
        for text in ("1" * (MAX_RATIONAL_CHARS + 1), "1e0" + padded[2:],
                     "1/" + "3" * MAX_RATIONAL_CHARS):
            with pytest.raises(ValueError, match="longer than"):
                parse_rational(text)

    def test_parse_epsilon_requires_positive(self):
        assert parse_epsilon("1/2") == Fraction(1, 2)
        for text in ("0", "-1", "-1/2", "0e5"):
            with pytest.raises(ValueError, match="epsilon must be > 0"):
                parse_epsilon(text)

    @pytest.mark.parametrize("text", ["", "abc", "1/2/3", " "])
    def test_message_names_the_parameter_and_quotes_the_text(self, text):
        for name, call in (
            ("rational", lambda: parse_rational(text)),
            ("epsilon", lambda: parse_epsilon(text)),
            ("epsilon", lambda: Parameters.for_instance(3, text)),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"{name} {text!r} is not p/q or a decimal"
        with pytest.raises(ValueError, match=r"^epsilon '1/0' has a zero denominator$"):
            Parameters.for_instance(3, "1/0")

    def test_uniformity_below_two_is_refused(self):
        with pytest.raises(ValueError, match=r"^uniformity r must be >= 2$"):
            Parameters.for_instance(1, 1)

    @pytest.mark.parametrize("r", [3.0, True, "3", None])
    def test_uniformity_that_is_not_an_int_is_refused(self, r):
        with pytest.raises(ValueError, match=r"^uniformity r must be >= 2$"):
            Parameters.for_instance(r, 1)

    @pytest.mark.parametrize(
        "mu, shown",
        [(0.1, "0.1"), (Fraction(0), "Fraction(0, 1)"), (Fraction(1), "Fraction(1, 1)"),
         (Fraction(3, 2), "Fraction(3, 2)"), (Fraction(-1, 2), "Fraction(-1, 2)"), (1, "1")],
        ids=["float", "zero", "one", "above-one", "negative", "int"],
    )
    def test_mu_outside_the_open_unit_interval_is_refused(self, mu, shown):
        # A float mu once built u = 10 and a float b; mu = 0 or 1 divided by zero.
        message = rf"^mu must be a Fraction in \(0, 1\), got {re.escape(shown)}$"
        with pytest.raises(ValueError, match=message):
            Parameters(Fraction(1), 3, mu)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(params_r3_eps1(), mu=mu)

    @pytest.mark.parametrize(
        "epsilon, shown",
        [(0.5, "0.5"), (Fraction(0), "Fraction(0, 1)"), (Fraction(-1), "Fraction(-1, 1)"),
         (1, "1"), ("1", "'1'")],
        ids=["float", "zero", "negative", "int", "str"],
    )
    def test_epsilon_that_is_not_a_positive_fraction_is_refused(self, epsilon, shown):
        message = rf"^epsilon must be a Fraction > 0, got {re.escape(shown)}$"
        with pytest.raises(ValueError, match=message):
            Parameters(epsilon, 3, Fraction(1, 90))

    @pytest.mark.parametrize("r", [1, 0, 3.0, True, "3", None])
    def test_constructor_refuses_an_r_as_for_instance_does(self, r):
        with pytest.raises(ValueError, match=r"^uniformity r must be >= 2$"):
            Parameters(Fraction(1), r, Fraction(1, 90))

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("eps", ["1", "1/2", "1/7", "3"])
    def test_epsilon_r_and_mu_set_every_other_constant(self, r, eps):
        # u, delta, b and the four threshold integers follow from
        # (epsilon, r, mu), at the mu epsilon sets and at a substituted one.
        p = Parameters.for_instance(r, eps)
        e = min(Fraction(eps), Fraction(1))
        assert p.mu == e**2 / (10 * r * r)
        for mu in (p.mu, Fraction(1, 2), Fraction(1, 3), Fraction(2, 7)):
            q = dataclasses.replace(p, mu=mu)
            assert (q.epsilon, q.r, q.mu) == (p.epsilon, r, mu)
            assert q.u == math.ceil(1 / mu) and q.b == 1 / (1 - mu**3)
            assert q.delta == e / (5 * r * r)
            assert (q.mu_num, q.mu_den) == (mu.numerator, mu.denominator)
            assert (q.delta_num, q.delta_den) == (q.delta.numerator, q.delta.denominator)
        assert dataclasses.replace(p, mu=p.mu) == p
        for name, value in (("u", 3), ("delta", Fraction(1, 2)), ("b", Fraction(2))):
            with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
                dataclasses.replace(p, **{name: value})

    def test_iteration_cap_formula(self):
        p = params_r3_eps1()
        n = 10
        expected = 10 * n * n * (math.ceil(math.log2(n)) + 2) ** 2 + 1000
        assert p.iteration_cap(n) == expected
        assert p.iteration_cap(1) == 10 * 4 + 1000


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
        # without an enclosure the checks see value * scale, with or
        # without `logs`
        with pytest.raises(ValueError):
            floor_log(Fraction(1, 2), Fraction(2), scale=0)
        with pytest.raises(ValueError):
            floor_log(Fraction(-1), Fraction(2), _Logs(Fraction(2), 30))
        with pytest.raises(ValueError):
            floor_log(Fraction(2), Fraction(1, 2), _Logs(Fraction(2), 30))

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
        mpmath = pytest.importorskip("mpmath")

        p = Parameters.for_instance(r, eps)
        with mpmath.workprec(2000):
            x = (mpmath.log(value.numerator) - mpmath.log(value.denominator)) / (
                mpmath.log(p.b.numerator) - mpmath.log(p.b.denominator)
            )
            direct = int(mpmath.floor(x))
        assert direct == expected
        assert floor_log(value, p.b) == (expected, False)


def mp_floor_log(value: Fraction, base: Fraction) -> int:
    """floor(log_base(value)) from a 2000-bit mpmath evaluation."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(2000):
        x = (mpmath.log(value.numerator) - mpmath.log(value.denominator)) / (
            mpmath.log(base.numerator) - mpmath.log(base.denominator)
        )
        return int(mpmath.floor(x))


def coefficient(p: Parameters, layer: int, side: int) -> Fraction:
    """c_i (side 0) or d_i (side 1), straight from their definitions."""
    c = (Fraction(5 * p.r * p.r) / p.epsilon) ** layer / (1 - p.mu) ** (layer - 1)
    return c / (1 - p.mu) if side else c


class TestFloorLogOracle:
    """floor_log and the memo's cached-logarithm path against mpmath."""

    @given(
        r=st.integers(2, 5),
        eps=st.sampled_from(["1", "1/2", "1/10", "1/100"]),
        layer=st.integers(1, 20),
        side=st.integers(0, 1),
        size=st.integers(1, 5000),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_2000_bit_evaluation(self, r, eps, layer, side, size):
        p = Parameters.for_instance(r, eps)
        value = coefficient(p, layer, side) * size
        expected = (mp_floor_log(value, p.b), False)
        assert floor_log(value, p.b) == expected
        assert SignatureMemo(p).floor(layer, side, size) == expected

    def test_base_gap_reaches_below_1e_12(self):
        assert Parameters.for_instance(5, "1/100").b - 1 < Fraction(1, 10**12)

    @pytest.mark.parametrize("k", [-64, -17, -1, 0, 1, 2, 33, 64])
    @pytest.mark.parametrize("eps", ["1", "1/100"])
    def test_exact_powers_settled_exactly(self, k, eps):
        b = Parameters.for_instance(3, eps).b
        assert floor_log(b**k, b) == (k, False)

    @pytest.mark.parametrize("k", [-64, 1, 64])
    def test_just_above_and_below_an_integer(self, k):
        b = params_r3_eps1().b
        nudge = Fraction(1, 10**40)  # log_b moves by about 7e-35
        assert floor_log(b**k * (1 + nudge), b) == (k, False)
        assert floor_log(b**k * (1 - nudge), b) == (k - 1, False)
        assert mp_floor_log(b**k * (1 - nudge), b) == k - 1

    def test_huge_exponent_at_an_exact_power_stays_unresolved(self):
        fl, unresolved = floor_log(Fraction(2**65), Fraction(2))
        assert unresolved and fl in (64, 65)
        assert floor_log(Fraction(2**65 + 1), Fraction(2)) == (65, False)


class TestFloorLogEnclosureFirst:
    """The memo's call floor_log(value, b, logs, ln, scale), with ln an
    enclosure of ln(value * scale), equals floor_log(value * scale, b):
    from the enclosure alone when it holds no integer, by the raised
    precision and exact powers when it straddles one, as it does at
    every exact power b**k but b**0."""

    @pytest.mark.parametrize("eps", ["1", "1/100"])
    def test_equals_the_call_on_the_product(self, eps):
        b = Parameters.for_instance(3, eps).b
        logs = _Logs(b, working_digits(b))
        nudge = Fraction(1, 10**40)
        cases = straddled = 0
        for k in (-5, 0, 1, 2, 17, 64):
            for scale in (1, 2, 45, 4050):
                for target in (b**k, b**k * (1 + nudge), b**k * (1 - nudge), b**k * 3 / 2):
                    value = target / scale
                    ln = logs.add(logs.ln(value.numerator, value.denominator), logs.ln(scale))
                    lo, hi = logs.floors(ln)
                    cases += 1
                    straddled += lo != hi
                    assert floor_log(value, b, logs, ln, scale) == floor_log(target, b)
        assert 0 < straddled < cases


def test_traced_solve_imports_no_mpmath():
    """The package imports and traces with mpmath unavailable."""
    code = textwrap.dedent(
        """
        import io, sys
        sys.modules["mpmath"] = None  # every import of mpmath now fails
        from hbmatch import find_perfect_matching
        from hbmatch.cli import TraceWriter, check_trace_lines
        from tests.conftest import shuffled_planted
        buf = io.StringIO()
        find_perfect_matching(shuffled_planted(1, 60), 1, trace=TraceWriter(buf))
        lines = buf.getvalue().splitlines()
        assert any(line.startswith("signature ") and "coords=-" in line for line in lines)
        assert check_trace_lines(lines) is None
        print(sorted(name for name in sys.modules if name.startswith("mpmath")))
        """
    )
    root = Path(__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=root, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "['mpmath']\n"


class TestSignature:
    def test_empty_tree_is_top_symbol_only(self):
        sig, unresolved = signature_from_sizes([], SignatureMemo(params_r3_eps1()))
        assert sig == () and unresolved == 0

    def test_frozen_fixture_r3_eps1(self):
        # |X_1| = |Y_1| = 1: floors of log_{729000/728999}(45) and
        # of log(4050/89), evaluated at >= 120-bit precision.
        sig, unresolved = signature_from_sizes([(1, 1)], SignatureMemo(params_r3_eps1()))
        assert sig == (-2775055, 2783200)
        assert unresolved == 0

    def test_doubling_y_strictly_increases_even_coordinate(self):
        p = params_r3_eps1()
        one, _ = signature_from_sizes([(1, 1)], SignatureMemo(p))
        two, _ = signature_from_sizes([(1, 2)], SignatureMemo(p))
        assert two[1] > one[1]
        assert two[1] == 3288504

    def test_log_of_zero(self):
        with pytest.raises(SignatureError) as exc:
            signature_from_sizes([(0, 1)], SignatureMemo(params_r3_eps1()))
        assert exc.value.code == "LOG_OF_ZERO"

    def test_sign_pattern_and_monotone_magnitudes(self):
        p = params_r3_eps1()
        sig, _ = signature_from_sizes([(3, 4), (2, 2), (5, 7)], SignatureMemo(p))
        mags = [abs(c) for c in sig]
        for i, c in enumerate(sig):
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
                fresh = signature_from_sizes(sizes, SignatureMemo(p))
            except SignatureError as exc:
                with pytest.raises(SignatureError) as shared:
                    signature_from_sizes(sizes, memo)
                assert shared.value.code == exc.code == "LOG_OF_ZERO"
                continue
            assert signature_from_sizes(sizes, memo) == fresh

    def test_repeated_sizes_reuse_floor_log(self, monkeypatch):
        import hbmatch.signature as signature

        calls = []
        real = signature.floor_log
        monkeypatch.setattr(
            signature, "floor_log", lambda v, b, *rest: calls.append(v) or real(v, b, *rest)
        )
        p = params_r3_eps1()
        memo = SignatureMemo(p)
        first = signature_from_sizes([(3, 4), (2, 2)], memo)
        assert len(calls) == 4
        assert signature_from_sizes([(3, 4), (2, 2), (5, 1)], memo)[0][:4] == first[0]
        assert len(calls) == 6
        # the same size on the other side or another layer is a new key
        signature_from_sizes([(4, 3)], memo)
        assert len(calls) == 8


class TestCheckSignatureStep:
    def test_clean_step(self):
        prev = (-5, 7)
        assert check_signature_step((-6, 7), prev) is None
        assert check_signature_step((), None) is None

    @pytest.mark.parametrize(
        "coords,expected",
        [
            ((5, 7), ("SIGNATURE_SIGN", "sign pattern broken at position 1: odd coordinate 5 > 0")),
            ((-5, -7), ("SIGNATURE_SIGN", "sign pattern broken at position 2: even coordinate -7 < 0")),
            ((-5, 7, -6, 8), ("SIGNATURE_NOT_MONOTONE", "|coords| not non-decreasing at position 3: ")),
            ((-5, 4), ("SIGNATURE_NOT_MONOTONE", "|coords| not non-decreasing at position 2: ")),
        ],
    )
    def test_first_broken_rule_and_position(self, coords, expected):
        code, detail = expected
        v = check_signature_step(coords, None)
        assert v.code == code and v.detail.startswith(detail)

    def test_not_decreasing(self):
        prev = (-6, 7)
        for sig in [(-5, 7), prev]:
            v = check_signature_step(sig, prev)
            assert v.code == "SIGNATURE_NOT_DECREASING"
            assert v.detail == f"signature did not decrease: {prev} -> {sig}"


class TestLexLess:
    def test_extension_reduces_value(self):
        top = ()
        ext = (-3, 5)
        assert lex_less(ext, top)
        assert not lex_less(top, ext)

    def test_smaller_even_coordinate(self):
        a = (-3, 5)
        b = (-3, 4)
        assert lex_less(b, a)
        assert not lex_less(a, b)

    def test_smaller_odd_coordinate(self):
        a = (-4, 9)
        b = (-3, 2)
        assert lex_less(a, b)

    def test_equal_vectors(self):
        a = (-3, 5)
        assert not lex_less(a, a)

    def test_prefix_comparison(self):
        longer = (-3, 5, -9, 11)
        shorter = (-3, 5)
        assert lex_less(longer, shorter)
        assert not lex_less(shorter, longer)

    def test_top_symbol_tops_integers_beyond_float_range(self):
        huge = 10**400
        assert lex_less((-3, huge), (-3,))
        assert not lex_less((-3,), (-3, huge))
        assert lex_less((-3, huge), (-3, huge + 1))
