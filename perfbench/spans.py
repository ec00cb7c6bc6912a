"""In-memory spans around calls into hbmatch's modules.

Instrumentation patches, from outside the program, the name each caller
looks up: `hbmatch.cli.parse_instance` for the CLI, module globals of
`hbmatch.engine` for the solver's collaborators, and methods on
`AugmentRun` and `AlternatingTree`.  Every call becomes a span (name,
start, end, parent span, instance id).  Totals, self times and call
counts are kept for every span; the raw spans of the first RAW_CAP calls
are kept and written out when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import time
from pathlib import Path

RAW_CAP = 100_000

# (owner path, attribute, span name); owners are resolved on the imported
# package, so each entry patches the name its caller looks up.
TARGETS = [
    ("cli", "parse_instance", "cli.parse"),
    ("cli", "validate_instance", "core.validate"),
    ("cli", "format_result", "cli.format"),
    ("cli", "check_trace_lines", "cli.check_trace"),
    ("cli.TraceWriter", "__call__", "cli.trace_write"),
    ("cli", "find_perfect_matching", "engine.solve"),
    ("engine", "augment", "engine.augment"),
    ("engine", "verify_matching", "core.verify_matching"),
    ("engine.AugmentRun", "build_phase", "engine.build_phase"),
    ("engine.AugmentRun", "collapse_phase", "engine.collapse_phase"),
    ("engine.AugmentRun", "superposed_build", "engine.superposed_build"),
    ("engine.AugmentRun", "extract_witness", "engine.extract_witness"),
    ("engine", "build_layer", "tree.build_layer"),
    ("engine", "verify_witness", "oracles.verify_witness"),
    ("engine", "signature_from_sizes", "signature.signature_from_sizes"),
    ("signature", "floor_log", "signature.floor_log"),
    ("tree.AlternatingTree", "append_layer", "tree.append_layer"),
    ("tree.AlternatingTree", "discard_last", "tree.discard_last"),
    ("tree.AlternatingTree", "remove_y_edge", "tree.remove_y_edge"),
    ("tree.AlternatingTree", "commit_rebuild", "tree.commit_rebuild"),
    ("instances", "generate", "instances.generate"),
]

BOOKKEEPING = ("tree.append_layer", "tree.discard_last", "tree.remove_y_edge", "tree.commit_rebuild")


class Recorder:
    """Span stack plus per-name [count, total_ns, self_ns] totals."""

    def __init__(self) -> None:
        self.instance = -1
        self.totals: dict[str, list[int]] = {}
        self.counters: dict[str, int] = {}
        self.raw: list[tuple[str, int, int, int, int] | None] = []
        self.dropped = 0
        self._stack: list[list] = []  # [name, start_ns, child_ns, row, parent row]

    def enter(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        if len(self.raw) < RAW_CAP:
            row = len(self.raw)
            self.raw.append(None)  # filled in by exit()
        else:
            row = -1
            self.dropped += 1
        self._stack.append([name, time.perf_counter_ns(), 0, row, parent])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        name, start, child, row, parent = self._stack.pop()
        dur = end - start
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0, 0]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if row >= 0:
            self.raw[row] = (name, start, end, parent, self.instance)

    def add(self, counter: str, value: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def snapshot(self) -> dict:
        """Call counts and counters so far (exact, unlike times)."""
        out = {name: tot[0] for name, tot in self.totals.items()}
        out.update(self.counters)
        return out

    def reset_totals(self) -> dict[str, list[int]]:
        old, self.totals, self.counters = self.totals, {}, {}
        return old

    def write(self, path: Path) -> None:
        """Raw spans as TSV: name, start_ns, end_ns, parent row, instance."""
        t0 = self.raw[0][1] if self.raw else 0
        with path.open("w") as f:
            f.write("name\tstart_ns\tend_ns\tparent\tinstance\n")
            for name, start, end, parent, inst in self.raw:
                f.write(f"{name}\t{start - t0}\t{end - t0}\t{parent}\t{inst}\n")


def _count_x_added(rec: Recorder, args: tuple, kwargs: dict, out) -> None:
    x0 = kwargs.get("x0", args[5] if len(args) > 5 else ())
    rec.add("tree.x_added", len(out[0]) - len(x0))


AFTER = {"tree.build_layer": _count_x_added}


def _wrap(rec: Recorder, fn, name: str):
    after = AFTER.get(name)
    enter, exit_ = rec.enter, rec.exit

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            exit_()
        if after is not None:
            after(rec, args, kwargs, out)
        return out

    return spanned


def instrument(hb, rec: Recorder) -> None:
    """Patch every target on the imported package `hb` to record spans."""
    for owner_path, attr, name in TARGETS:
        owner = hb
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        setattr(owner, attr, _wrap(rec, getattr(owner, attr), name))


# Per-layer metrics.  Times are means per timed solve (roots for
# augment self time); counts are exact sums over one pass of the corpus.
# "moves" names the end-to-end metric and workloads each should move.
PER_LAYER = {
    "cli.parse_ms": ("ms", "e2e_ms_p50 on bulk; small share on deep (includes core.validate_ms)"),
    "cli.format_ms": ("ms", "nothing: control"),
    "cli.trace_lines": ("count", "e2e_ms_p50 on traced only"),
    "core.validate_ms": ("ms", "e2e_ms_p50 on bulk"),
    "engine.solve_ms": ("ms", "e2e_ms_p50 on all workloads"),
    "engine.roots": ("count", "augment calls; fixed by the corpus"),
    "engine.augment_self_us": ("us", "e2e_ms_p50 on bulk (per-root setup)"),
    "engine.build_phase_ms": ("ms", "e2e_ms_p50 on deep"),
    "engine.build_phase_calls": ("count", "deep"),
    "engine.collapse_phase_ms": ("ms", "e2e_ms_p50 on deep; on bulk only the one collapse that matches each root"),
    "engine.collapse_self_ms": ("ms", "e2e_ms_p50 on deep (_least_addable_for, _collapsible, swap)"),
    "engine.superposed_calls": ("count", "deep"),
    "engine.superposed_commit_ratio": ("ratio", "deep: commit_rebuild per superposed_build"),
    "engine.certify_ms": ("ms", "e2e_ms_p50 on bulk (final verify_matching) and deep (extract_witness on its witness outcomes)"),
    "engine.witnesses": ("count", "deep"),
    "engine.iterations": ("count", "exact SolveStats sum"),
    "engine.swaps": ("count", "exact SolveStats sum"),
    "engine.build_ops": ("count", "exact SolveStats sum"),
    "tree.build_layer_ms": ("ms", "e2e_ms_p50 on deep, bulk"),
    "tree.build_layer_calls": ("count", "deep, bulk"),
    "tree.x_added": ("count", "total X growth over all build_layer calls"),
    "tree.bookkeeping_ms": ("ms", "e2e_ms_p50 on deep (append/discard/remove_y/commit)"),
    "tree.depth_p50": ("layers", "shape check: >= 3 on deep"),
    "tree.depth_max": ("layers", "shape check: 1 on bulk"),
    "signature.calls": ("count", "e2e_ms_p50 on traced; zero elsewhere"),
    "signature.floor_log_calls": ("count", "e2e_ms_p50 on traced; zero elsewhere"),
    "oracles.verify_witness_calls": ("count", "deep"),
    "instances.generate_ms": ("ms", "setup_s only"),
    "span.e2e_ms_p50": ("ms", "wall-time median of this span run; over the plain run's unscaled one it is the span overhead"),
}

# Reported as text only: on workloads that never reach these layers the
# time is a constant zero.
REPORT_ONLY = {
    "signature.ms": ("ms", "e2e_ms_p50 on traced"),
    "signature.floor_log_ms": ("ms", "e2e_ms_p50 on traced"),
    "cli.trace_write_ms": ("ms", "e2e_ms_p50 on traced"),
    "cli.check_trace_ms": ("ms", "nothing: outside the timed path"),
    "core.verify_matching_ms": ("ms", "e2e_ms_p50 on bulk"),
    "engine.extract_witness_ms": ("ms", "e2e_ms_p50 on deep"),
    "oracles.verify_witness_ms": ("ms", "e2e_ms_p50 on deep"),
}


def per_layer_metrics(
    totals: dict[str, list[int]],
    first_pass: dict,
    solves: int,
    setup_totals: dict[str, list[int]],
    check_totals: dict[str, list[int]],
    stats: list[dict],
    span_times: list[float],
) -> dict[str, float]:
    """Derive every PER_LAYER and REPORT_ONLY value.

    `totals` cover the timed loop, `first_pass` the exact counts of one
    pass over the corpus, `stats` the per-instance result-document stats.
    """

    def per_solve_ms(*names: str, self_time: bool = False) -> float:
        ns = sum(totals.get(n, (0, 0, 0))[2 if self_time else 1] for n in names)
        return ns / solves / 1e6

    def count(name: str) -> int:
        return first_pass.get(name, 0)

    def mean_ms(tots: dict, name: str) -> float:
        n, total, _ = tots.get(name, (0, 0, 0))
        return total / n / 1e6 if n else 0.0

    roots = totals.get("engine.augment", (0, 0, 0))
    superposed = count("engine.superposed_build")
    depths = [s["max_layers"] for s in stats]
    return {
        "cli.parse_ms": per_solve_ms("cli.parse"),
        "cli.format_ms": per_solve_ms("cli.format"),
        "cli.trace_lines": count("cli.trace_write"),
        "core.validate_ms": per_solve_ms("core.validate"),
        "engine.solve_ms": per_solve_ms("engine.solve"),
        "engine.roots": count("engine.augment"),
        "engine.augment_self_us": roots[2] / roots[0] / 1e3 if roots[0] else 0.0,
        "engine.build_phase_ms": per_solve_ms("engine.build_phase"),
        "engine.build_phase_calls": count("engine.build_phase"),
        "engine.collapse_phase_ms": per_solve_ms("engine.collapse_phase"),
        "engine.collapse_self_ms": per_solve_ms("engine.collapse_phase", self_time=True),
        "engine.superposed_calls": superposed,
        "engine.superposed_commit_ratio": (
            count("tree.commit_rebuild") / superposed if superposed else 0.0
        ),
        "engine.certify_ms": per_solve_ms("core.verify_matching", "engine.extract_witness"),
        "engine.witnesses": count("engine.extract_witness"),
        "engine.iterations": sum(s["iterations"] for s in stats),
        "engine.swaps": sum(s["swaps"] for s in stats),
        "engine.build_ops": sum(s["build_ops"] for s in stats),
        "tree.build_layer_ms": per_solve_ms("tree.build_layer"),
        "tree.build_layer_calls": count("tree.build_layer"),
        "tree.x_added": count("tree.x_added"),
        "tree.bookkeeping_ms": per_solve_ms(*BOOKKEEPING),
        "tree.depth_p50": statistics.median(depths),
        "tree.depth_max": max(depths),
        "signature.calls": count("signature.signature_from_sizes"),
        "signature.floor_log_calls": count("signature.floor_log"),
        "oracles.verify_witness_calls": count("oracles.verify_witness"),
        "instances.generate_ms": mean_ms(setup_totals, "instances.generate"),
        "span.e2e_ms_p50": statistics.median(span_times) * 1e3,
        "signature.ms": per_solve_ms("signature.signature_from_sizes"),
        "signature.floor_log_ms": per_solve_ms("signature.floor_log"),
        "cli.trace_write_ms": per_solve_ms("cli.trace_write"),
        "cli.check_trace_ms": mean_ms(check_totals, "cli.check_trace"),
        "core.verify_matching_ms": per_solve_ms("core.verify_matching"),
        "engine.extract_witness_ms": per_solve_ms("engine.extract_witness"),
        "oracles.verify_witness_ms": per_solve_ms("oracles.verify_witness"),
    }


SHARES = {
    "cli.parse": 1,  # total time, validate included
    "engine.solve": 1,
    "engine.build_phase": 1,
    "engine.collapse_phase": 1,
    "engine.augment": 2,  # self time: per-root setup and the main loop
    "signature.signature_from_sizes": 1,
    "cli.trace_write": 1,
}


def shares(totals: dict[str, list[int]], loop_s: float) -> dict[str, float]:
    """Each layer's part of the summed timed-solve time."""
    return {
        name: totals.get(name, (0, 0, 0))[col] / 1e9 / loop_s for name, col in SHARES.items()
    }
