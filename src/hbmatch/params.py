"""Solver parameters derived from the condition slack epsilon.

All thresholds live exactly on integer boundaries for natural inputs
(e.g. 91 >= (1+1/90)*90), so every derived quantity is kept as an exact
rational and every comparison in the engine is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

__all__ = ["Parameters", "parse_rational", "parse_epsilon", "MAX_DECIMAL_EXPONENT"]

# Far beyond any useful slack, and small enough that 10**exponent still
# prints within Python's 4300-digit limit on int/str conversion.
MAX_DECIMAL_EXPONENT = 1000
# Python's default limit on int/str conversion: no digit run in a text
# this short can exceed it, whether numerator, denominator, mantissa or
# zero-padded exponent.
MAX_RATIONAL_CHARS = 4300


def parse_rational(text: str | int | Fraction, name: str = "rational") -> Fraction:
    """Exact conversion from "p/q" or decimal strings; floats rejected.

    Every error is a ValueError that starts with `name`, the parameter
    or field being read.  A decimal exponent beyond MAX_DECIMAL_EXPONENT
    (counted without its leading zeros) is rejected before the power of
    ten is built, and a text longer than MAX_RATIONAL_CHARS before any
    of its digits are converted.
    """
    if isinstance(text, float):
        raise TypeError("rational parameters must not pass through floats")
    if isinstance(text, str):
        _, e, exponent = text.lower().partition("e")
        # counted before int(), which itself fails beyond 4300 digits
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if e and digits.isdecimal() and (
            len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits) > MAX_DECIMAL_EXPONENT
        ):
            raise ValueError(
                f"{name} {text!r} has an exponent beyond {MAX_DECIMAL_EXPONENT}"
            )
        if len(text) > MAX_RATIONAL_CHARS:
            raise ValueError(
                f"{name} text of {len(text)} characters is longer than {MAX_RATIONAL_CHARS}"
            )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{name} {text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"{name} {text!r} is not p/q or a decimal") from None


def parse_epsilon(text: str | int | Fraction) -> Fraction:
    """The condition slack epsilon: a rational that must be > 0."""
    epsilon = parse_rational(text, "epsilon")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return epsilon


def _check_uniformity(r: object) -> None:
    if type(r) is not int or r < 2:  # a bool or a float r is refused
        raise ValueError("uniformity r must be >= 2")


@dataclass(frozen=True)
class Parameters:
    """Degree bound and threshold constants for one (epsilon, r, mu).

    mu is the lazy-collapse fraction, e^2/(10 r^2) in :meth:`for_instance`,
    where e = min(epsilon, 1); `epsilon` keeps the value given.  The rest
    is derived on every construction, so `replace(p, mu=...)` derives it
    anew and `replace(p, u=...)` raises ValueError: u = ceil(1/mu) the
    per-vertex edge cap, delta = e/(5 r^2) the required layer growth rate,
    b = 1/(1-mu^3) the logarithm base of the progress monitor, and the
    numerators and denominators of mu and delta as plain ints.  A
    construction refuses, with a ValueError naming the field, an epsilon
    that is not a Fraction > 0, an r that is not an int >= 2 and a mu
    that is not a Fraction in (0, 1).
    """

    epsilon: Fraction
    r: int
    mu: Fraction
    u: int = field(init=False)
    delta: Fraction = field(init=False)
    b: Fraction = field(init=False)
    mu_num: int = field(init=False, repr=False, compare=False)
    mu_den: int = field(init=False, repr=False, compare=False)
    delta_num: int = field(init=False, repr=False, compare=False)
    delta_den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.epsilon, Fraction) or self.epsilon <= 0:
            raise ValueError(f"epsilon must be a Fraction > 0, got {self.epsilon!r}")
        _check_uniformity(self.r)
        if not isinstance(self.mu, Fraction) or not 0 < self.mu < 1:
            raise ValueError(f"mu must be a Fraction in (0, 1), got {self.mu!r}")
        mu, delta = self.mu, min(self.epsilon, Fraction(1)) / (5 * self.r * self.r)
        derived = (math.ceil(1 / mu), delta, 1 / (1 - mu**3))
        derived += mu.as_integer_ratio() + delta.as_integer_ratio()
        for f, value in zip(fields(self)[3:], derived):  # the init=False fields
            object.__setattr__(self, f.name, value)

    @classmethod
    def for_instance(cls, r: int, epsilon: Fraction | str | int) -> "Parameters":
        """The parameters at uniformity r and slack epsilon.  With the
        instance size they set every bound of a solve; nothing overrides one.

        The thresholds use e = min(epsilon, 1), so mu lies in (0, 1/40]
        and u >= 40 at every epsilon > 0 and r >= 2; at a large epsilon
        itself, u would fall to 2 and a stalled tree could yield an
        over-bound witness.  This is sound: the condition at epsilon
        implies it at e, and a witness at e meets the bound
        (2r-3+epsilon)(|S|-1) that `epsilon` keeps, as |S| >= 1.
        """
        epsilon = parse_epsilon(epsilon)
        _check_uniformity(r)  # before r enters mu's formula
        return cls(epsilon, r, min(epsilon, Fraction(1)) ** 2 / (10 * r * r))

    # Exact threshold tests on counts.  Each compares integer
    # cross-products with the stored numerator and denominator of mu or
    # delta (denominators are positive), which decides the boundary cases
    # such as 91 >= (1+1/90)*90 exactly without building Fractions.

    def exceeds_mu(self, k: int, n: int) -> bool:
        """k > mu*n: the collapse test, k addable edges of n."""
        return k * self.mu_den > self.mu_num * n

    def reaches_one_plus_mu(self, new: int, old: int) -> bool:
        """new >= (1+mu)*old: the superposed-rebuild commit test."""
        d = self.mu_den
        return new * d >= (d + self.mu_num) * old

    def exceeds_delta(self, x: int, y: int) -> bool:
        """x > delta*y: the layer-growth test, x new X-edges over the
        blocking count y (root counted as one).  Below y = 1/delta it asks
        only for x >= 1, as 0 < delta*y < 1 there."""
        return x * self.delta_den > self.delta_num * y

    def iteration_cap(self, n: int) -> int:
        """Per-run iteration cap at |A| = n: a safety stop far above every
        measured run, not a bound derived from the paper's.  It is
        10 n^2 (ceil(log2 n)+2)^2 + 1000, 2.25e7 at n = 150, while no root
        of a size sweep up to n = 4800 (r = 3) took more than 59
        iterations.  Reaching it signals a bug, not input."""
        log_term = (math.ceil(math.log2(n)) if n > 1 else 0) + 2
        return 10 * n * n * log_term * log_term + 1000
