"""Solver parameters derived from the condition slack epsilon.

All thresholds live exactly on integer boundaries for natural inputs
(e.g. 91 >= (1+1/90)*90), so every derived quantity is kept as an exact
rational and every comparison in the engine is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["Parameters", "parse_rational"]


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Exact conversion from "p/q" or decimal strings; floats rejected."""
    if isinstance(text, float):
        raise TypeError("rational parameters must not pass through floats")
    return Fraction(text)


@dataclass(frozen=True)
class Parameters:
    """Degree bound and threshold constants for one (epsilon, r) pair.

    mu = epsilon^2/(10 r^2) is the lazy-collapse fraction, u = ceil(1/mu)
    the per-vertex edge cap, delta = epsilon/(5 r^2) the required layer
    growth rate, gamma = (1-mu) delta the blocking-edge growth rate, and
    b = 1/(1-mu^3) the logarithm base of the progress monitor.
    """

    epsilon: Fraction
    r: int
    mu: Fraction
    u: int
    delta: Fraction
    gamma: Fraction
    b: Fraction
    small_tree_threshold: int
    max_iterations: int | None = None

    @classmethod
    def for_instance(
        cls,
        r: int,
        epsilon: Fraction | str | int,
        mu_override: Fraction | str | None = None,
        u_override: int | None = None,
        max_iterations: int | None = None,
    ) -> "Parameters":
        epsilon = parse_rational(epsilon)
        if epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if r < 2:
            raise ValueError("uniformity r must be >= 2")
        mu = parse_rational(mu_override) if mu_override is not None else (
            epsilon**2 / (10 * r * r)
        )
        if not 0 < mu < 1:
            raise ValueError(f"mu={mu} out of range (0, 1)")
        u = u_override if u_override is not None else math.ceil(1 / mu)
        if u < 1:
            raise ValueError("u must be >= 1")
        delta = epsilon / (5 * r * r)
        gamma = (1 - mu) * delta
        return cls(
            epsilon=epsilon,
            r=r,
            mu=mu,
            u=u,
            delta=delta,
            gamma=gamma,
            b=1 / (1 - mu**3),
            small_tree_threshold=math.ceil(Fraction(5 * r * r) / epsilon),
            max_iterations=max_iterations,
        )

    # Exact threshold tests on counts.  Each compares integer
    # cross-products with the numerator and denominator of mu or delta
    # (denominators are positive), which decides the boundary cases such
    # as 91 >= (1+1/90)*90 exactly without building Fractions.

    def exceeds_mu(self, k: int, n: int) -> bool:
        """k > mu*n: the collapse test, k addable edges of n."""
        return k * self.mu.denominator > self.mu.numerator * n

    def least_exceeding_mu(self, n: int) -> int:
        """Least k with k > mu*n, so exceeds_mu(k, n) holds exactly from k on."""
        return self.mu.numerator * n // self.mu.denominator + 1

    def reaches_one_plus_mu(self, new: int, old: int) -> bool:
        """new >= (1+mu)*old: the superposed-rebuild commit test."""
        d = self.mu.denominator
        return new * d >= (d + self.mu.numerator) * old

    def exceeds_delta(self, x: int, y: int) -> bool:
        """x > delta*y: the layer-growth test past the small-tree threshold."""
        return x * self.delta.denominator > self.delta.numerator * y

    def iteration_cap(self, n: int) -> int:
        """Generous polynomial cap; reaching it signals a bug, not input."""
        if self.max_iterations is not None:
            return self.max_iterations
        if n <= 0:
            return 1000
        log_term = (math.ceil(math.log2(n)) if n > 1 else 0) + 2
        return 10 * n * n * log_term * log_term + 1000
