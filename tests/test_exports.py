"""Package-wide rules: every name a module exports resolves, so a
deletion leaves no stale export, and no function recurses."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hbmatch

MODULES = [hbmatch] + [
    importlib.import_module(f"hbmatch.{info.name}")
    for info in pkgutil.iter_modules(hbmatch.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_exports_the_solver_kernel_and_generators():
    assert sorted(hbmatch.__all__) == sorted([
        # the solver
        "find_perfect_matching", "SolveResult", "InternalSolverError",
        # the checking kernel
        "ParseError", "validate_instance", "verify_matching", "condition_factor",
        "WitnessCertificate", "verify_witness", "parse_result", "check_result",
        # the generators
        "GeneratorSpec", "generate", "gen_guaranteed", "gen_planted", "gen_adversarial",
        "gen_graph", "from_bipartite_graph",
        # the data types
        "BipartiteHypergraph", "PartialMatching", "Parameters",
    ])


def test_no_function_calls_itself():
    # recursion depth grows with the input, and a RecursionError is a
    # traceback, not a typed exit
    src = Path(hbmatch.__file__).resolve().parent
    recursive = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                recursive.extend(
                    f"{path.name}:{node.lineno} {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == fn.name
                )
    assert recursive == []
