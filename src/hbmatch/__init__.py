"""hbmatch: perfect matchings in r-uniform bipartite hypergraphs.

The solver augments a partial matching through degree-bounded
alternating trees with lazy collapse; whenever layer growth stalls it
returns a violating set S together with an explicit hitting set of size
at most (2r-3+epsilon)(|S|-1), certifying that the strengthened
matching-existence condition fails.
"""

from .core import (
    BipartiteHypergraph,
    Edge,
    InstanceError,
    MatchingError,
    PartialMatching,
    Violation,
    blocking_edges,
    incident_edges,
    is_immediately_addable,
    swap,
    validate_instance,
    verify_matching,
)
from .engine import (
    AugmentOutcome,
    AugmentRun,
    CertificateError,
    InternalSolverError,
    InvariantViolation,
    SolveResult,
    SolveStats,
    augment,
    find_perfect_matching,
)
from .instances import (
    GeneratorSpec,
    InfeasibleSpec,
    SplitMix64,
    default_private_degree,
    from_bipartite_graph,
    gen_adversarial,
    gen_graph,
    gen_guaranteed,
    gen_planted,
    generate,
)
from .oracles import (
    EXCEEDS_BUDGET,
    HaxellResult,
    HittingSetResult,
    InstanceTooLarge,
    WitnessCertificate,
    brute_force_perfect_matching,
    check_haxell,
    condition_factor,
    min_hitting_set,
    verify_witness,
)
from .params import Parameters, parse_rational
from .signature import (
    SignatureError,
    SignatureVector,
    floor_log,
    lex_less,
    signature_from_sizes,
)
from .tree import (
    AlternatingTree,
    Layer,
    RootLayer,
    build_layer,
    find_addable_edge,
    tree_degree,
    validate_tree,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteHypergraph",
    "Edge",
    "PartialMatching",
    "Violation",
    "InstanceError",
    "MatchingError",
    "validate_instance",
    "incident_edges",
    "blocking_edges",
    "is_immediately_addable",
    "swap",
    "verify_matching",
    "EXCEEDS_BUDGET",
    "HittingSetResult",
    "HaxellResult",
    "WitnessCertificate",
    "InstanceTooLarge",
    "min_hitting_set",
    "check_haxell",
    "brute_force_perfect_matching",
    "verify_witness",
    "condition_factor",
    "Layer",
    "RootLayer",
    "AlternatingTree",
    "find_addable_edge",
    "build_layer",
    "validate_tree",
    "tree_degree",
    "Parameters",
    "parse_rational",
    "SignatureVector",
    "SignatureError",
    "floor_log",
    "signature_from_sizes",
    "lex_less",
    "AugmentOutcome",
    "AugmentRun",
    "SolveResult",
    "SolveStats",
    "InvariantViolation",
    "CertificateError",
    "InternalSolverError",
    "augment",
    "find_perfect_matching",
    "GeneratorSpec",
    "InfeasibleSpec",
    "SplitMix64",
    "default_private_degree",
    "generate",
    "gen_guaranteed",
    "gen_planted",
    "gen_adversarial",
    "gen_graph",
    "from_bipartite_graph",
]
