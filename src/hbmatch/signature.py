"""Signature vectors: the lexicographic progress monitor.

Each layer i contributes the pair

    ( -floor(log_b(c_i |X_i|)),  +floor(log_b(d_i |Y_i|)) )

with c_i = (5r^2/eps)^i / (1-mu)^(i-1), d_i = c_i / (1-mu) and base
b = 1/(1-mu^3); the vector ends with an implicit top symbol that
compares greater than every integer.  Across every completed main-loop
iteration the vector strictly decreases lexicographically, which is
what bounds the iteration count.  The solver's control flow never reads
these values; they exist for tracing, debugging, and tests.

Since b-1 can be ~1e-10, the floors are numerically delicate: they are
evaluated with mpmath at a precision sized to the magnitude of the
result plus a generous guard, and re-evaluated at doubled precision
whenever the value lands within 2^-20 of an integer.  Ambiguities that
survive the doubled precision are counted and surfaced to callers.

Between two iterations only the top layers of a tree change, so one
solve keeps a :class:`SignatureMemo`: the coefficients (c_i, d_i) and
every floor, with its unresolved flag, keyed by (layer, side, size).
A size seen before in the same layer and side costs a dict lookup; the
unresolved flags are summed on every call, hit or miss.

:func:`check_signature_step` holds the monitor's rules (sign pattern,
non-decreasing magnitudes, strict lexicographic decrease) for both the
debug-mode engine check and ``hbmatch check-trace``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath

from .params import Parameters

__all__ = [
    "SignatureVector",
    "SignatureError",
    "SignatureMemo",
    "floor_log",
    "signature_from_sizes",
    "lex_less",
    "check_signature_step",
]

_GUARD = 2.0**-20  # exact in binary floating point; compared against mpf


class SignatureError(ValueError):
    """Raised for layers where the signature is undefined."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


@dataclass(frozen=True)
class SignatureVector:
    """Integer coordinates s_1..s_{2l}; the terminal top symbol is implicit."""

    coords: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.coords)


def _floor_and_frac(value: Fraction, base: Fraction, prec: int) -> tuple[int, float]:
    """floor(log_base(value)) at the given precision, plus the fractional
    part of the quotient.

    Everything, including the floor and the fractional part, is computed
    inside the working-precision context: the default context would
    round a floor with more than 53 significant bits.
    """
    with mpmath.workprec(prec):
        num = mpmath.log(value.numerator) - mpmath.log(value.denominator)
        den = mpmath.log(base.numerator) - mpmath.log(base.denominator)
        x = num / den
        fl = int(mpmath.floor(x))
        return fl, float(x - fl)


_EXACT_EXPONENT_CAP = 64


def floor_log(value: Fraction, base: Fraction) -> tuple[int, bool]:
    """floor(log_base(value)) plus a flag for an unresolved floor boundary.

    Values within 2^-20 of an integer k are recomputed at doubled
    precision; if still ambiguous and |k| is small enough to afford an
    exact rational power, the boundary is settled by comparing value
    against base**k directly.  The flag is True only for boundaries that
    survive both escalations (huge exponents near an exact power).
    """
    if value <= 0:
        raise ValueError("floor_log requires a positive value")
    if base <= 1:
        raise ValueError("floor_log requires base > 1")
    # ln(base) cancels ~log2(1/(base-1)) bits when base is barely above 1;
    # the gap is known exactly, so both passes can be sized up front
    gap = base - 1
    gap_bits = max(0, gap.denominator.bit_length() - gap.numerator.bit_length())
    rough, _ = _floor_and_frac(value, base, 64 + gap_bits)
    magnitude = max(1, abs(rough).bit_length())
    prec = 2 * magnitude + gap_bits + 80
    fl, frac = _floor_and_frac(value, base, prec)
    if min(frac, 1 - frac) >= _GUARD:
        return fl, False
    fl2, frac2 = _floor_and_frac(value, base, 2 * prec)
    if min(frac2, 1 - frac2) >= _GUARD:
        return fl2, False
    k = fl2 if frac2 < 0.5 else fl2 + 1
    if abs(k) <= _EXACT_EXPONENT_CAP:
        return (k, False) if value >= base**k else (k - 1, False)
    return fl2, True


class SignatureMemo:
    """Exact monitor work shared by the iterations of one solve.

    Holds the per-layer coefficients (c_i, d_i) and the floor_log result
    for each (layer, side, size) key, side 0 for X and 1 for Y.  It is
    bound to one parameter set and lives as long as its solve.
    """

    __slots__ = ("params", "_coefficients", "_floors")

    def __init__(self, params: Parameters):
        self.params = params
        self._coefficients: list[tuple[Fraction, Fraction]] = []
        self._floors: dict[tuple[int, int, int], tuple[int, bool]] = {}

    def floor(self, layer: int, side: int, size: int) -> tuple[int, bool]:
        """floor_log(coefficient * size, b) for layer's X (side 0) or Y (side 1)."""
        key = (layer, side, size)
        hit = self._floors.get(key)
        if hit is None:
            coeffs = self._coefficients
            if len(coeffs) < layer:
                self._extend(layer)
            hit = floor_log(coeffs[layer - 1][side] * size, self.params.b)
            self._floors[key] = hit
        return hit

    def _extend(self, layers: int) -> None:
        p = self.params
        scale = Fraction(5 * p.r * p.r) / p.epsilon
        coeffs = self._coefficients
        while len(coeffs) < layers:
            c = coeffs[-1][0] * scale / (1 - p.mu) if coeffs else scale
            coeffs.append((c, c / (1 - p.mu)))


def signature_from_sizes(
    sizes: Sequence[tuple[int, int]],
    params: Parameters,
    memo: SignatureMemo | None = None,
) -> tuple[SignatureVector, int]:
    """Signature for layers of the given (|X_i|, |Y_i|) sizes.

    Returns the vector together with the count of floor boundaries left
    unresolved at doubled precision.  Raises LOG_OF_ZERO when a layer is
    empty on either side; at iteration boundaries that cannot happen.
    `memo` carries floors over from earlier calls of the same solve;
    without one the call starts an empty memo.
    """
    if memo is None:
        memo = SignatureMemo(params)
    elif memo.params is not params and memo.params != params:
        raise ValueError("signature memo belongs to other parameters")
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
    return SignatureVector(tuple(coords)), unresolved


def lex_less(a: SignatureVector, b: SignatureVector) -> bool:
    """Strict lexicographic order with the implicit terminal top symbol.

    A longer vector extends a shorter equal prefix with an integer where
    the shorter one has the top symbol, so the longer vector is smaller.
    """
    for x, y in zip(a.coords, b.coords):
        if x != y:
            return x < y
    if len(a.coords) == len(b.coords):
        return False
    return len(a.coords) > len(b.coords)


def check_signature_step(
    sig: SignatureVector, prev: SignatureVector | None
) -> tuple[str, int] | None:
    """First monitor rule that `sig` breaks, following `prev` in one run.

    Odd coordinates are <= 0 and even ones >= 0 (SIGNATURE_SIGN), their
    magnitudes never decrease (SIGNATURE_NOT_MONOTONE), and the vector is
    lexicographically below `prev` (SIGNATURE_NOT_DECREASING).  Returns
    the code with the 1-based coordinate position (0 for the last rule),
    or None when every rule holds.
    """
    last = 0
    for pos, c in enumerate(sig.coords, start=1):
        if (c > 0) if pos % 2 else (c < 0):
            return "SIGNATURE_SIGN", pos
        if abs(c) < last:
            return "SIGNATURE_NOT_MONOTONE", pos
        last = abs(c)
    if prev is not None and not lex_less(sig, prev):
        return "SIGNATURE_NOT_DECREASING", 0
    return None
