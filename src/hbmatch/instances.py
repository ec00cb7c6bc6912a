"""Seeded instance generation and the r=2 graph specialization.

:func:`generate` is the one entry point.  Each mode in `MODES` is a
private builder, looked up in one table, that returns the edge list of
(spec, epsilon); `generate` builds the instance from it.  Every mode is
a deterministic function of (spec, seed).  Randomness comes from
splitmix64, chosen over a stdlib generator because instances must
regenerate bit-identically from any implementation of the same formats;
the full generator fits in a dozen lines and its identifier is recorded
in generated file headers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .certify import validate_instance
from .core import BipartiteHypergraph, InstanceError

__all__ = [
    "PRNG_ID",
    "SplitMix64",
    "GeneratorSpec",
    "InfeasibleSpec",
    "default_private_degree",
    "generate",
    "from_bipartite_graph",
]

PRNG_ID = "splitmix64"
_MASK64 = (1 << 64) - 1

Edges = list[tuple[int, tuple[int, ...]]]


class InfeasibleSpec(ValueError):
    """A spec that no instance can meet."""


class SplitMix64:
    """splitmix64: 64-bit state, one addition and two xor-shift mixes."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); modulo bias is irrelevant here."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        return self.next_u64() % n

    def distinct(self, n: int, k: int) -> list[int]:
        """k distinct sorted values from [0, n), by rejection."""
        if k > n:
            raise ValueError("cannot draw more distinct values than the range")
        out: set[int] = set()
        while len(out) < k:
            out.add(self.below(n))
        return sorted(out)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class GeneratorSpec:
    mode: str
    r: int
    a_count: int
    b_count: int
    extra_edges: int = 0
    d: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        """Refuse what no instance file can hold: a field but mode that is
        not an int (a bool is not one; d may be None), r < 2 or a negative count."""
        for name in ("r", "a_count", "b_count", "extra_edges", "d", "seed"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "d" and value is None):
                raise InfeasibleSpec(f"{name} must be an int, got {value!r}")
        if self.r < 2:
            raise InfeasibleSpec(f"uniformity r={self.r} must be >= 2")
        counts = (("na", self.a_count), ("nb", self.b_count),
                  ("extra_edges", self.extra_edges), ("d", self.d or 0))
        for name, value in counts:
            if value < 0:
                raise InfeasibleSpec(f"{name}={value} must be >= 0")

    def describe(self) -> str:
        return (
            f"mode={self.mode} r={self.r} na={self.a_count} nb={self.b_count} "
            f"d={self.d if self.d is not None else '-'} "
            f"extra_edges={self.extra_edges} seed={self.seed} prng={PRNG_ID}"
        )


def default_private_degree(r: int, epsilon: Fraction) -> int:
    """Smallest private degree for which the disjoint-edge argument holds."""
    return math.ceil(Fraction(2 * r - 2) + epsilon)


def _add_random_edges(edges: Edges, rng: SplitMix64, spec: GeneratorSpec) -> None:
    """Append spec.extra_edges new random edges, or fewer once no slot is free."""
    seen = set(edges)
    slots = spec.a_count * math.comb(spec.b_count, spec.r - 1)
    for _ in range(spec.extra_edges):
        if len(seen) >= slots:
            break  # every (a, bs) slot is taken, or none exists
        for _attempt in range(200):
            a = rng.below(spec.a_count)
            bs = tuple(rng.distinct(spec.b_count, spec.r - 1))
            if (a, bs) not in seen:
                seen.add((a, bs))
                edges.append((a, bs))
                break
        # else: edge space is (nearly) exhausted; silently add fewer.


def _guaranteed(spec: GeneratorSpec, epsilon: Fraction) -> Edges:
    """Edges provably satisfying the strengthened condition.

    Every A-vertex receives d pairwise-B-disjoint edges on B-vertices no
    other edge touches, so hitting its incident edges costs d vertices
    per member of S: tau(E_S) >= d|S| > (2r-3+eps)(|S|-1) whenever
    d >= 2r-2+eps.  Extra random edges can only raise tau.
    """
    d = spec.d if spec.d is not None else default_private_degree(spec.r, epsilon)
    width = d * (spec.r - 1)
    if spec.b_count < width * spec.a_count:
        raise InfeasibleSpec(
            f"need b_count >= {width * spec.a_count} for {spec.a_count} vertices "
            f"with {d} private edges"
        )
    rng = SplitMix64(spec.seed)
    edges: Edges = []
    for a in range(spec.a_count):
        base = a * width
        for j in range(d):
            lo = base + j * (spec.r - 1)
            edges.append((a, tuple(range(lo, lo + spec.r - 1))))
    _add_random_edges(edges, rng, spec)
    return edges


def _planted(spec: GeneratorSpec, epsilon: Fraction) -> Edges:
    """Edges with a hidden perfect matching; no condition guarantee."""
    if spec.b_count < (spec.r - 1) * spec.a_count:
        raise InfeasibleSpec(
            f"need b_count >= {(spec.r - 1) * spec.a_count} to plant a perfect matching"
        )
    rng = SplitMix64(spec.seed)
    perm = list(range(spec.b_count))
    rng.shuffle(perm)
    edges: Edges = []
    for a in range(spec.a_count):
        slot = perm[a * (spec.r - 1) : (a + 1) * (spec.r - 1)]
        edges.append((a, tuple(sorted(slot))))
    _add_random_edges(edges, rng, spec)
    return edges


def _shuffled(spec: GeneratorSpec, epsilon: Fraction) -> Edges:
    """`planted` edges shuffled by SplitMix64(seed ^ 0x5EED).

    The planted edge stops being each vertex's first choice, so the
    solver grows multi-layer trees with swaps and lazy rebuilds.  At
    nb = (r-1)na, the tight case, the planted matching uses every B-vertex.
    """
    edges = _planted(spec, epsilon)
    SplitMix64(spec.seed ^ 0x5EED).shuffle(edges)
    return edges


def _graph(spec: GeneratorSpec, epsilon: Fraction) -> Edges:
    """Random bipartite graph (r=2): extra_edges distinct uniform pairs."""
    if spec.r != 2:
        raise InfeasibleSpec("graph mode is the r=2 specialization")
    rng = SplitMix64(spec.seed)
    count = min(spec.extra_edges, spec.a_count * spec.b_count)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < count:
        pairs.add((rng.below(spec.a_count), rng.below(spec.b_count)))
    return [(a, (b,)) for a, b in sorted(pairs)]


_BUILDERS = {"planted": _planted, "guaranteed": _guaranteed, "graph": _graph, "shuffled": _shuffled}
MODES = tuple(_BUILDERS)


def from_bipartite_graph(
    adjacency: list[tuple[int, int]], a_count: int, b_count: int
) -> BipartiteHypergraph:
    """Wrap a bipartite graph as a 2-uniform hypergraph.

    In this specialization the minimum hitting set of the edges incident
    to S is exactly the neighborhood N(S).  A pair out of range or
    repeated raises :class:`InstanceError` with the code
    :func:`validate_instance` gives it.
    """
    h = BipartiteHypergraph(2, a_count, b_count, [(a, (b,)) for a, b in adjacency])
    v = validate_instance(h)
    if v is not None:
        raise InstanceError(v.code, v.detail)
    return h


def generate(spec: GeneratorSpec, epsilon: Fraction = Fraction(1)) -> BipartiteHypergraph:
    """The instance of spec.mode; epsilon only sets guaranteed's default d."""
    builder = _BUILDERS.get(spec.mode)
    if builder is None:
        raise ValueError(f"unknown generator mode {spec.mode!r}")
    return BipartiteHypergraph(spec.r, spec.a_count, spec.b_count, builder(spec, epsilon))
