"""List the raise sites of the package and of the checked run that tier-1
never executes.

    python3 tests/raise_sites.py

Runs the tier-1 suite in-process under ``sys.settrace``, tracing only
frames of ``src/hbmatch`` and of ``tests/checked_run.py`` (whose checks
re-check the engine's path), and prints every ``raise`` statement and
every ``return Violation(...)`` that never ran.  A site that no test can
reach belongs in ALLOWED with its reason.  Exits 1 when an unexecuted
site is not allowed, or when an allowed one did run; 0 otherwise.

Test outcomes are ignored: under the tracer the suite takes about 2.5
times as long, and a timing assertion may fail.  The script uses only
the standard library and pytest, and its name keeps pytest from
collecting it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CENSUSED = sorted((ROOT / "src" / "hbmatch").glob("*.py")) + [ROOT / "tests" / "checked_run.py"]

# (file, function, first line of the statement) -> why no test runs it
ALLOWED: dict[tuple[str, str, str], str] = {}


def raise_sites() -> dict[tuple[str, int], tuple[str, str]]:
    """(path, line) -> (function, first source line) for each site."""
    sites = {}
    for path in CENSUSED:
        lines = path.read_text().splitlines()
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                is_site = isinstance(node, ast.Raise) or (
                    isinstance(node, ast.Return)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id == "Violation"
                )
                if is_site:
                    # nested functions are walked again; the innermost name wins
                    sites[(str(path), node.lineno)] = (func.name, lines[node.lineno - 1].strip())
    return sites


def main() -> int:
    sites = raise_sites()
    wanted: dict[str, set[int]] = {}
    for path, line in sites:
        wanted.setdefault(path, set()).add(line)
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in wanted[frame.f_code.co_filename]:
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in wanted else None

    src = str(ROOT / "src")  # for this process and the suite's subprocesses
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]

    failed = False
    for (path, line), (func, text) in sorted(sites.items()):
        key = (Path(path).name, func, text)
        where = f"{Path(path).relative_to(ROOT)}:{line} {func}: {text}"
        if (path, line) in ran:
            if key in ALLOWED:
                print(f"allowed but ran: {where}")
                failed = True
        elif key in ALLOWED:
            print(f"never ran (allowed: {ALLOWED[key]}): {where}")
        else:
            print(f"never ran: {where}")
            failed = True
    print(f"{len(sites)} raise sites, {len(sites) - len(ran)} never ran")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
