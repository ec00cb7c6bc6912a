"""hbmatch: perfect matchings in r-uniform bipartite hypergraphs.

The solver augments a partial matching through degree-bounded
alternating trees with lazy collapse; whenever layer growth stalls it
returns a violating set S together with an explicit hitting set of size
at most (2r-3+epsilon)(|S|-1), certifying that the strengthened
matching-existence condition fails.  Every result is checked by the
kernel in :mod:`hbmatch.certify` before it is returned.
"""

from .certify import (
    ParseError,
    WitnessCertificate,
    check_result,
    condition_factor,
    parse_result,
    validate_instance,
    verify_matching,
    verify_witness,
)
from .core import BipartiteHypergraph, PartialMatching
from .engine import InternalSolverError, SolveResult, find_perfect_matching
from .instances import GeneratorSpec, from_bipartite_graph, generate
from .params import Parameters

__version__ = "0.1.0"

__all__ = [
    "find_perfect_matching",
    "SolveResult",
    "InternalSolverError",
    "ParseError",
    "validate_instance",
    "verify_matching",
    "condition_factor",
    "WitnessCertificate",
    "verify_witness",
    "parse_result",
    "check_result",
    "GeneratorSpec",
    "generate",
    "from_bipartite_graph",
    "BipartiteHypergraph",
    "PartialMatching",
    "Parameters",
]
