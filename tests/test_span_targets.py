"""The benchmark's span targets stay attached to the program.

`perfbench/spans.py` wraps, by name, the functions and methods that each
caller looks up.  If a refactor renames one, or a caller stops looking it
up by that name, the span records nothing and its per-layer metric reads
a silent 0.  These tests only read `perfbench/`.
"""

from __future__ import annotations

import importlib.util
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest

import hbmatch
from hbmatch.cli import main, serialize_instance

from .conftest import per_line, shuffled_planted, superposed_commit_instance, trace_event

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _owner(path: str):
    owner = hbmatch
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize(
    "owner_path, attr, name", spans.TARGETS, ids=[t[2] for t in spans.TARGETS]
)
def test_target_resolves(owner_path, attr, name):
    assert callable(getattr(_owner(owner_path), attr, None)), f"{owner_path}.{attr} ({name})"


@contextmanager
def _instrumented():
    """A fresh recorder with every span target patched, restored on exit."""
    owners = [(_owner(path), attr) for path, attr, _ in spans.TARGETS]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr in owners]
    rec = spans.Recorder()
    try:
        spans.instrument(hbmatch, rec)
        yield rec
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def test_every_span_records_calls(tmp_path):
    """A traced witness solve, a traced matching solve with a committed
    rebuild, a trace check and a generator call reach every span."""
    with _instrumented() as rec:
        spec = hbmatch.GeneratorSpec(mode="planted", r=3, a_count=4, b_count=12)
        hbmatch.instances.generate(spec)
        solves = (("witness", shuffled_planted(1, 60)), ("commit", superposed_commit_instance()))
        for name, h in solves:
            inst, trace = tmp_path / f"{name}.hbm", tmp_path / f"{name}.trace"
            inst.write_text(serialize_instance(h))
            argv = ["solve", "--input", str(inst), "--epsilon", "1", "--trace", str(trace),
                    "--output", str(tmp_path / f"{name}.res")]
            assert main(argv) in (0, 2)
            assert main(["check-trace", "--trace", str(trace)]) == 0
    missing = [name for _, _, name in spans.TARGETS if name not in rec.totals]
    assert not missing


def test_x_added_counts_the_edges_each_build_adds():
    """`tree.x_added` is each fresh layer's |X| plus what each lazy
    rebuild adds, committed or not, as the solve's own trace logs them.
    The one-step walk is off, so every `layer_built` line is a build's."""
    lines: list[str] = []
    no_walk = mock.patch.object(hbmatch.engine.AugmentRun, "match_in_one_step", lambda run, root: False)
    with _instrumented() as rec, no_walk:
        hbmatch.find_perfect_matching(superposed_commit_instance(), 1, trace=per_line(lines.append))
    events = [trace_event(line) for line in lines]
    built = sum(f["x"] for name, f in events if name == "layer_built")
    grown = sum(f["x_after"] - f["x_before"] for name, f in events if name == "superposed")
    assert grown > 0
    assert rec.counters["tree.x_added"] == built + grown
