"""Package-wide rules: every name a module exports resolves, so a
deletion leaves no stale export, no function recurses, and every error
code the package raises is named by some test."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import hbmatch
from hbmatch.oracles import check_haxell

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
        "GeneratorSpec", "generate", "from_bipartite_graph",
        # the data types
        "BipartiteHypergraph", "PartialMatching", "Parameters",
    ])


@pytest.mark.parametrize(
    "function, names",
    [
        (hbmatch.find_perfect_matching, ["h", "epsilon", "trace"]),
        (hbmatch.Parameters.for_instance, ["r", "epsilon"]),
        (check_haxell, ["h", "epsilon"]),
    ],
    ids=["find_perfect_matching", "Parameters.for_instance", "check_haxell"],
)
def test_epsilon_alone_sets_the_thresholds(function, names):
    # No knob may replace a bound that the instance and epsilon set: the
    # witness bound holds only at the mu and u that epsilon sets, a run
    # that reaches the derived iteration cap is a bug, and the oracle's
    # subset cap is fixed.
    assert list(inspect.signature(function).parameters) == names


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


def coded_error_names() -> set[str]:
    """`CodedError` and the names of all its subclasses in the package."""
    names, todo = set(), [hbmatch.core.CodedError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo += cls.__subclasses__()
    return names


def test_every_raised_code_is_named_by_a_test():
    # A code no test names is a check no test makes fire.  The codes are
    # the string constants passed first to `Violation` or a `CodedError`,
    # in the package and in the checked run's path checks.
    src = Path(hbmatch.__file__).resolve().parent
    callees = coded_error_names() | {"Violation"}
    codes = {}
    for path in sorted(src.glob("*.py")) + [Path(__file__).parent / "checked_run.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in callees
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                codes.setdefault(node.args[0].value, f"{path.name}:{node.lineno}")
    anchors = {"CERTIFICATE_INVALID", "INDEX_OUT_OF_RANGE", "LOG_OF_ZERO", "Y_NOT_BLOCKERS"}
    assert anchors <= set(codes)
    tests = "\n".join(
        path.read_text() for path in sorted(Path(__file__).parent.glob("test_*.py"))
    )
    unnamed = [
        f"{code} ({where})"
        for code, where in sorted(codes.items())
        if not re.search(rf"\b{code}\b", tests)
    ]
    assert unnamed == []
