"""Signature vectors: the lexicographic progress monitor.

Each layer i contributes the pair

    ( -floor(log_b(c_i |X_i|)),  +floor(log_b(d_i |Y_i|)) )

with c_i = (5r^2/eps)^i / (1-mu)^(i-1), d_i = c_i / (1-mu) and base
b = 1/(1-mu^3).  A signature is the tuple of these integers; it ends
with an implicit top symbol that compares greater than every integer.
Across every completed main-loop iteration the vector strictly
decreases lexicographically, which is what bounds the iteration count.
The solver's control flow never reads these values; they exist for
tracing and tests.

Since b-1 can be ~1e-10, the floors are numerically delicate.  They are
computed with :mod:`decimal`, whose ``ln`` is correctly rounded, as
proven enclosures: every logarithm is widened by one unit in the last
place and every later addition and division rounds outward, so the
exact quotient log_b(value) lies in the computed interval.  A floor is
returned only when no integer lies inside that interval.  Otherwise the
precision is raised and every logarithm recomputed, and an interval that
still holds an integer k with |k| <= 64 is settled exactly by comparing
value with b**k.  Only a boundary that survives both steps (a huge
exponent at, or closer than the raised precision to, an exact power)
is returned with the unresolved flag set; such flags are counted and
surfaced to callers.

Between two iterations only the top layers of a tree change, so one
solve keeps a :class:`SignatureMemo`: the coefficients (c_i, d_i), the
logarithms that stay fixed for the solve (ln b, ln c_i, ln d_i and
ln |size| for each size seen), and every floor, with its unresolved
flag, keyed by (layer, side, size).  A size seen before in the same
layer and side costs a dict lookup; the unresolved flags are summed on
every call, hit or miss.

:func:`check_signature_step` holds the monitor's rules (sign pattern,
non-decreasing magnitudes, strict lexicographic decrease) and the one
wording of each, for ``hbmatch check-trace`` and for the test suite's
checked run (``tests/checked_run.py``).
"""

from __future__ import annotations

import math
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from typing import Sequence

from .core import CodedError, Violation
from .params import Parameters

__all__ = [
    "SignatureError",
    "SignatureMemo",
    "floor_log",
    "signature_from_sizes",
    "lex_less",
    "check_signature_step",
]


class SignatureError(CodedError, ValueError):
    """Raised for layers where the signature is undefined."""


# (lo, hi) with lo <= the exact real value <= hi
Enclosure = tuple[Decimal, Decimal]

_ZERO = Decimal(0)
_GUARD_BITS = 80
_EXACT_EXPONENT_CAP = 64


def _digits(bits: int) -> int:
    """Decimal digits that carry at least `bits` bits."""
    return bits * 30103 // 100000 + 1


def _ln_int(n: int, prec: int) -> Enclosure:
    """ln(n) for an integer n >= 1, enclosed at `prec` significant digits.

    The correctly rounded result is within half a unit in the last place
    of the exact value, so its two neighbours enclose it strictly.
    """
    if n == 1:
        return _ZERO, _ZERO
    ctx = Context(prec=prec)
    y = ctx.ln(n)
    return y.next_minus(ctx), y.next_plus(ctx)


class _Logs:
    """Enclosures of natural logarithms at one working precision, for one
    base: ln(base) once, and outward-rounded sums and quotients."""

    __slots__ = ("prec", "down", "up", "ln_base")

    def __init__(self, base: Fraction, prec: int):
        self.prec = prec
        self.down = Context(prec=prec, rounding=ROUND_FLOOR)
        self.up = Context(prec=prec, rounding=ROUND_CEILING)
        # relative width below 10^(2-prec), so lo > 0 for every base > 1
        self.ln_base = self.ln(base.numerator, base.denominator)

    def ln(self, n: int, d: int = 1) -> Enclosure:
        """ln(n/d) for positive integers n and d, rounded outward; ln(1) is
        exactly 0, so ln(n) and -ln(d) take this one path too."""
        # ln(n) - ln(d) cancels: |ln(n/d)| >= |n-d|/max(n,d) and
        # ln(max) < bit_length(max), so this many more bits keep prec
        big = max(n, d)
        lost = big.bit_length() - abs(n - d).bit_length() + big.bit_length().bit_length() + 1
        work = self.prec + _digits(lost)
        n_lo, n_hi = _ln_int(n, work)
        d_lo, d_hi = _ln_int(d, work)
        return self.down.subtract(n_lo, d_hi), self.up.subtract(n_hi, d_lo)

    def add(self, a: Enclosure, b: Enclosure) -> Enclosure:
        return self.down.add(a[0], b[0]), self.up.add(a[1], b[1])

    def floors(self, ln_value: Enclosure) -> tuple[int, int]:
        """Floors of the two ends of the enclosure of ln_value / ln_base."""
        lo, hi = ln_value
        b_lo, b_hi = self.ln_base
        x_lo = self.down.divide(lo, b_hi if lo >= 0 else b_lo)
        x_hi = self.up.divide(hi, b_lo if hi >= 0 else b_hi)
        return math.floor(x_lo), math.floor(x_hi)


def working_digits(base: Fraction) -> int:
    """First-pass precision in digits.  ln(base) is about base-1, so the
    quotient log_base(value) has about gap_bits bits ahead of its point;
    the guard bits follow them, so no signature coordinate has as many
    digits.  (ln() adds the digits its own cancellation loses.)"""
    gap = base - 1
    gap_bits = max(0, gap.denominator.bit_length() - gap.numerator.bit_length())
    return _digits(gap_bits + _GUARD_BITS)


def floor_log(
    value: Fraction,
    base: Fraction,
    logs: _Logs | None = None,
    ln_value: Enclosure | None = None,
    scale: int = 1,
) -> tuple[int, bool]:
    """floor(log_base(value * scale)) plus a flag for an unresolved floor
    boundary.

    `logs` holds ln(base) at a working precision, and `ln_value` an
    enclosure of ln(value * scale) at that precision, for callers that
    keep them; `ln_value` needs `logs`, and whatever is missing is
    computed here.  When both are given and the enclosure of the
    quotient holds no integer, its floor is returned before any rational
    arithmetic, so value * scale is formed only for a boundary.  When
    the enclosure holds an integer k, every logarithm is recomputed at
    raised precision; if that still holds k and |k| is small enough to
    afford an exact rational power, the boundary is settled by comparing
    value * scale against base**k directly.  The flag is True only for
    boundaries that survive both steps.  Without an enclosure, a
    product value * scale <= 0 or a base <= 1 raises ValueError.
    """
    if ln_value is None:
        value, scale = value * scale, 1
        if value <= 0:
            raise ValueError("floor_log requires a positive value")
        if base <= 1:
            raise ValueError("floor_log requires base > 1")
        if logs is None:
            logs = _Logs(base, working_digits(base))
        ln_value = logs.ln(value.numerator, value.denominator)
    lo, hi = logs.floors(ln_value)
    if lo == hi:
        return lo, False
    value *= scale
    magnitude = max(abs(lo), abs(hi)).bit_length()
    logs = _Logs(base, 2 * logs.prec + _digits(magnitude))
    lo, hi = logs.floors(logs.ln(value.numerator, value.denominator))
    if lo == hi:
        return lo, False
    if hi - lo == 1 and abs(hi) <= _EXACT_EXPONENT_CAP:
        return (hi, False) if value >= base**hi else (lo, False)
    return lo, True


class SignatureMemo:
    """Exact monitor work shared by the iterations of one solve.

    Holds the per-layer coefficients (c_i, d_i) with enclosures of their
    logarithms, ln(size) for every size seen, and the floor_log result
    for each (layer, side, size) key, side 0 for X and 1 for Y.  The
    logarithms are computed at the first miss, so a solve that never
    asks for a signature pays nothing.  A memo is bound to one parameter
    set and lives as long as its solve.
    """

    __slots__ = ("params", "_logs", "_ln_scale", "_ln_grow", "_layers", "_ln_sizes", "_floors")

    def __init__(self, params: Parameters):
        self.params = params
        self._logs: _Logs | None = None
        self._layers: list[tuple[tuple[Fraction, Enclosure], tuple[Fraction, Enclosure]]] = []
        self._ln_sizes: dict[int, Enclosure] = {}
        self._floors: dict[tuple[int, int, int], tuple[int, bool]] = {}

    def floor(self, layer: int, side: int, size: int) -> tuple[int, bool]:
        """floor_log(coefficient * size, b) for layer's X (side 0) or Y (side 1)."""
        key = (layer, side, size)
        hit = self._floors.get(key)
        if hit is None:
            if len(self._layers) < layer:
                self._extend(layer)
            logs = self._logs
            coeff, ln_coeff = self._layers[layer - 1][side]
            ln_size = self._ln_sizes.get(size)
            if ln_size is None:
                ln_size = self._ln_sizes[size] = logs.ln(size)
            hit = floor_log(coeff, self.params.b, logs, logs.add(ln_coeff, ln_size), size)
            self._floors[key] = hit
        return hit

    def _extend(self, layers: int) -> None:
        p = self.params
        scale = 1 / p.delta  # 5r^2/eps, at the slack the thresholds use
        logs = self._logs
        if logs is None:
            logs = self._logs = _Logs(p.b, working_digits(p.b))
            self._ln_scale = logs.ln(scale.numerator, scale.denominator)
            # ln(1/(1-mu)), the log of d_i / c_i
            self._ln_grow = logs.ln(p.mu_den, p.mu_den - p.mu_num)
        ln_scale, ln_grow = self._ln_scale, self._ln_grow
        rows = self._layers
        while len(rows) < layers:
            if rows:
                (c, ln_c), _ = rows[-1]
                c, ln_c = c * scale / (1 - p.mu), logs.add(logs.add(ln_c, ln_scale), ln_grow)
            else:
                c, ln_c = scale, ln_scale
            rows.append(((c, ln_c), (c / (1 - p.mu), logs.add(ln_c, ln_grow))))


def signature_from_sizes(
    sizes: Sequence[tuple[int, int]], memo: SignatureMemo
) -> tuple[tuple[int, ...], int]:
    """Signature for layers of the given (|X_i|, |Y_i|) sizes.

    Returns the vector together with the count of floor boundaries left
    unresolved at doubled precision.  Raises LOG_OF_ZERO when a layer is
    empty on either side; at iteration boundaries that cannot happen.
    `memo` holds the parameters and carries floors over from earlier
    calls of the same solve.
    """
    coords: list[int] = []
    unresolved = 0
    for i, (x_size, y_size) in enumerate(sizes, start=1):
        if x_size == 0 or y_size == 0:
            raise SignatureError("LOG_OF_ZERO", f"layer {i} has sizes ({x_size}, {y_size})")
        s_odd, amb1 = memo.floor(i, 0, x_size)
        s_even, amb2 = memo.floor(i, 1, y_size)
        coords.append(-s_odd)
        coords.append(s_even)
        unresolved += int(amb1) + int(amb2)
    return tuple(coords), unresolved


_TOP = (math.inf,)  # int-float comparisons are exact, so inf tops every int


def lex_less(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Strict lexicographic order with the terminal top symbol.

    A longer vector extends a shorter equal prefix with an integer where
    the shorter one has the top symbol, so the longer vector is smaller.
    """
    return a + _TOP < b + _TOP


def check_signature_step(sig: tuple[int, ...], prev: tuple[int, ...] | None) -> Violation | None:
    """First monitor rule that `sig` breaks, following `prev` in one run.

    Odd coordinates are <= 0 and even ones >= 0 (SIGNATURE_SIGN), their
    magnitudes never decrease (SIGNATURE_NOT_MONOTONE), and the vector is
    lexicographically below `prev` (SIGNATURE_NOT_DECREASING).  Returns
    the violation, worded once for every caller, or None when every rule
    holds.
    """
    last = 0
    for pos, c in enumerate(sig, start=1):
        if (c > 0) if pos % 2 else (c < 0):
            broken = f"odd coordinate {c} > 0" if pos % 2 else f"even coordinate {c} < 0"
            return Violation("SIGNATURE_SIGN", f"sign pattern broken at position {pos}: {broken}")
        if abs(c) < last:
            return Violation(
                "SIGNATURE_NOT_MONOTONE", f"|coords| not non-decreasing at position {pos}: {sig}"
            )
        last = abs(c)
    if prev is not None and not lex_less(sig, prev):
        return Violation("SIGNATURE_NOT_DECREASING", f"signature did not decrease: {prev} -> {sig}")
    return None
