"""End-to-end benchmark for hbmatch.

    python3 perfbench/run.py --workload deep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  One process runs one workload:

1. set-up, timed as `setup_s`: import hbmatch, generate the workload's
   corpus from --seed (see workloads.py), serialize it to instance files
   and solve one instance as warm-up.  Set-up runs SETUP_REPEATS times
   and the median is reported;
2. the timed loop: `hbmatch solve` through `hbmatch.cli.main`, in
   process, cycling over the corpus for --seconds seconds and at least
   one full pass and MIN_SOLVES solves (closed loop, one caller);
3. untimed checks: every result document must repeat byte for byte for
   its instance, pass `hbmatch verify`, and (on `traced`) its trace must
   pass `hbmatch check-trace`; documents of recorded seeds must match the
   digests in record.json.

Every time in the end-to-end metrics is in reference seconds: during and
around each set-up and each solve a fixed pure-Python task is timed, and
the step's time is scaled by it (speed.py), so that the host's own speed
swings cancel.  Each solve weighs 1/(solves of its instance), so that an
instance reached once more by the last, partial pass does not count
extra.  The unscaled wall times are printed on an earlier line.

With --trace 0 the last stdout line holds the end-to-end metrics.  With
--trace 1 the same steps run with spans around calls into each module
(spans.py), and the last line holds the per-layer metrics; the raw spans
go to .bench_build/perfbench/spans-<workload>.tsv.  Earlier lines report
the fail ratio, result and trace sha256, the exact counter fingerprint
and, with --trace 1, every module metric with its share of solve time.

    python3 perfbench/run.py --record 0:32   # rewrite record.json
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import spans  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 3
MIN_SOLVES = 100
SMOKE_INSTANCES = 3

END_TO_END = {
    "e2e_ms_p50": "ms",
    "e2e_ms_p90": "ms",
    "instances_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def import_program():
    """Import hbmatch from this checkout's src/; exit 2 if it is absent."""
    if not (SRC / "hbmatch" / "cli.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'hbmatch'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import hbmatch.cli

    if Path(hbmatch.__file__).resolve().parent != SRC / "hbmatch":
        sys.exit(f"perfbench: imported hbmatch from {hbmatch.__file__}, not {SRC}")
    return hbmatch


def quiet_main(hb, argv: list[str]) -> int:
    """`hbmatch <argv>` in process, its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return hb.cli.main(argv)


class Bench:
    def __init__(self, hb, workload: wl.Workload, seed: int, count: int, work: Path,
                 sampler: speed.Sampler | None = None):
        self.hb = hb
        self.sampler = sampler  # None: report wall times unscaled
        self.w = workload
        self.seed = seed
        self.count = count
        self.work = work
        self.paths: list[Path] = []
        self.results: list[bytes | None] = [None] * count
        self.traces: list[bytes | None] = [None] * count
        self.attempted = 0
        self.failed = 0
        self.bad: set[int] = set()  # instances with any failed operation

    def solve_args(self, i: int) -> list[str]:
        args = ["solve", "--input", str(self.paths[i]), "--epsilon", wl.EPSILON,
                "--output", str(self.work / f"res-{i}.txt")]
        if self.w.trace_doc:
            args += ["--trace", str(self.work / f"trace-{i}.txt")]
        return args

    def timed(self, step) -> tuple[float, float]:
        """Run `step()`; return its wall seconds and its reference seconds."""
        if self.sampler is None:
            t0 = time.perf_counter()
            step()
            wall = time.perf_counter() - t0
            return wall, wall
        self.sampler.start()
        t0 = time.perf_counter()
        try:
            step()
        finally:
            wall = time.perf_counter() - t0
            net, scaled = self.sampler.stop(wall)
        return net, scaled

    def setup(self) -> tuple[float, float]:
        """Write the corpus and solve instance 0 as warm-up; return the
        wall seconds and the same in reference seconds."""
        def step():
            self.paths = wl.write_corpus(self.hb, self.w.corpus, self.seed, self.count, self.work)
            quiet_main(self.hb, self.solve_args(0))
        return self.timed(step)

    def fail(self, i: int, msg: str) -> None:
        self.failed += 1
        self.bad.add(i)
        print(f"FAIL {self.w.name} seed={self.seed} instance {i}: {msg}", file=sys.stderr)

    def solve(self, i: int) -> tuple[float, float] | None:
        """One timed solve plus its untimed repeat check: its wall and
        reference seconds, or None on failure."""
        self.attempted += 1
        args = self.solve_args(i)
        rcs = []
        gc.collect()
        try:
            elapsed = self.timed(lambda: rcs.append(quiet_main(self.hb, args)))
        except Exception as exc:  # any escape from the CLI is a failed solve
            self.fail(i, f"{type(exc).__name__}: {exc}")
            return None
        rc = rcs[0]
        if rc not in (0, 2):
            self.fail(i, f"exit code {rc}")
            return None
        docs = [(self.results, self.work / f"res-{i}.txt")]
        if self.w.trace_doc:
            docs.append((self.traces, self.work / f"trace-{i}.txt"))
        for store, path in docs:
            data = path.read_bytes()
            if store[i] is None:
                store[i] = data
            elif store[i] != data:
                self.fail(i, f"{path.name} differs from its first solve")
                return None
        return elapsed

    def check(self, record: dict) -> None:
        """Untimed: verify each result, check each trace, compare digests."""
        for i in range(self.count):
            if self.results[i] is None:
                continue
            self.attempted += 1
            res = str(self.work / f"res-{i}.txt")
            if quiet_main(self.hb, ["verify", "--instance", str(self.paths[i]), "--result", res]):
                self.fail(i, "hbmatch verify rejected the result")
            if self.w.trace_doc:
                self.attempted += 1
                trace = str(self.work / f"trace-{i}.txt")
                if quiet_main(self.hb, ["check-trace", "--trace", trace]):
                    self.fail(i, "hbmatch check-trace rejected the trace")
        try:
            expected = wl.recorded_digests(record, self.w.corpus_name, self.w.corpus, self.seed)
        except ValueError as exc:
            self.attempted += 1
            self.fail(-1, str(exc))
            return
        if expected is None:
            print(f"record: seed {self.seed} not recorded; digests not compared")
            return
        kinds = [("results", self.results)]
        if self.w.trace_doc:
            kinds.append(("traces", self.traces))
        compared = 0
        for kind, docs in kinds:
            for i, data in enumerate(docs):
                if data is None:
                    continue
                compared += 1
                if wl.digest(data)[: wl.DIGEST_HEX] != wl.expected_prefix(expected[kind], i):
                    self.fail(i, f"{kind} digest differs from record.json")
        self.attempted += compared
        print(f"record: compared {compared} digests with record.json")

    def stats(self) -> list[dict]:
        """Per-instance SolveStats and status, read from the result documents."""
        out = []
        for data in self.results:
            if data is None:
                continue
            doc = self.hb.cli.parse_result(data.decode())
            s = dict(kv.split("=") for kv in doc["stats"].split())
            row = {k: int(v) for k, v in s.items()}
            row["status"] = doc["status"]
            out.append(row)
        return out


def fingerprint(stats: list[dict]) -> dict:
    """Exact counters that must repeat from run to run for one seed."""
    depth: dict[str, int] = {}
    outcomes: dict[str, int] = {}
    for s in stats:
        depth[str(s["max_layers"])] = depth.get(str(s["max_layers"]), 0) + 1
        outcomes[s["status"]] = outcomes.get(s["status"], 0) + 1
    return {
        "iterations": sum(s["iterations"] for s in stats),
        "swaps": sum(s["swaps"] for s in stats),
        "build_ops": sum(s["build_ops"] for s in stats),
        "outcomes": dict(sorted(outcomes.items())),
        "depth_histogram": dict(sorted(depth.items(), key=lambda kv: int(kv[0]))),
    }


def instance_weights(solved: list[int]) -> list[float]:
    """A weight per solve such that every instance weighs the same in total.

    The timed loop ends mid-pass, so without weights the instances at the
    head of the corpus would count once more than the rest.
    """
    counts: dict[int, int] = {}
    for i in solved:
        counts[i] = counts.get(i, 0) + 1
    return [1 / counts[i] for i in solved]


def weighted_quantile(values: list[float], weights: list[float], q: float) -> float:
    """The smallest value whose share of the total weight at or below it is >= q."""
    target = q * sum(weights)
    acc = 0.0
    for value, weight in sorted(zip(values, weights)):
        acc += weight
        if acc >= target - 1e-9:
            return value
    return max(values)


def run(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    hb = import_program()
    import_s = time.perf_counter() - t0
    workload = wl.WORKLOADS[args.workload]
    count = SMOKE_INSTANCES if args.smoke else workload.corpus.instances
    repeats = 1 if args.smoke else SETUP_REPEATS
    min_solves = 0 if args.smoke else MIN_SOLVES
    rec = spans.Recorder() if args.trace else None
    if rec is not None:
        spans.instrument(hb, rec)

    WORK.mkdir(parents=True, exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        # Spans would count the sampler's handler as program time, so the
        # span run reports its times unscaled.
        sampler = speed.Sampler() if rec is None else None
        bench = Bench(hb, workload, args.seed, count, work, sampler)
        setups, raw_setups = [], []
        for _ in range(repeats):
            wall, ref = bench.setup()
            setups.append(import_s * ref / wall + ref)  # import scaled like the rest
            raw_setups.append(import_s + wall)
        setup_totals = rec.reset_totals() if rec else {}

        times: list[float] = []  # wall seconds per solve
        scaled: list[float] = []  # the same in reference seconds
        solved: list[int] = []
        first_pass: dict = {}
        start = time.perf_counter()
        n = 0
        while n < count or n < min_solves or time.perf_counter() - start < args.seconds:
            i = n % count
            if rec is not None:
                rec.instance = i
            timing = bench.solve(i)
            if timing is not None:
                times.append(timing[0])
                scaled.append(timing[1])
                solved.append(i)
            n += 1
            if n == count and rec is not None:
                first_pass = rec.snapshot()
        loop_totals = rec.reset_totals() if rec else {}

        bench.check(wl.load_record())
        check_totals = rec.reset_totals() if rec else {}
        stats = bench.stats()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not times:
        print("perfbench: no solve succeeded", file=sys.stderr)
        return 1
    result_digest = wl.digest(b"".join(d or b"" for d in bench.results))
    print(f"workload {workload.name} seed {args.seed} instances {count} solves {len(times)}")
    print(f"fail_ratio {bench.failed / bench.attempted:.6f} ({bench.failed}/{bench.attempted})")
    print(f"results_sha256 {result_digest}")
    if workload.trace_doc:
        print(f"traces_sha256 {wl.digest(b''.join(d or b'' for d in bench.traces))}")
    print("fingerprint " + json.dumps(fingerprint(stats), sort_keys=True))

    print(f"wall e2e_ms_p50 {statistics.median(times) * 1e3:.3f} "
          f"e2e_ms_p90 {statistics.quantiles(times, n=10)[8] * 1e3:.3f} "
          f"setup_s {statistics.median(raw_setups):.4f} (unscaled)")
    if rec is None:
        weights = instance_weights(solved)
        verified = sum(w for w, i in zip(weights, solved) if i not in bench.bad)
        values = {
            "e2e_ms_p50": weighted_quantile(scaled, weights, 0.5) * 1e3,
            "e2e_ms_p90": weighted_quantile(scaled, weights, 0.9) * 1e3,
            "instances_per_s": verified / sum(w * t for w, t in zip(weights, scaled)),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        values = spans.per_layer_metrics(
            loop_totals, first_pass, len(times), setup_totals, check_totals, stats, times
        )
        for name, (unit, moves) in {**spans.PER_LAYER, **spans.REPORT_ONLY}.items():
            print(f"metric {name} {values[name]:.6g} {unit}  -> {moves}")
        for name, share in spans.shares(loop_totals, sum(times)).items():
            print(f"share {name} {share:.3f} of span-run solve time")
        rec.write(WORK / f"spans-{workload.name}.tsv")
        print(f"spans {len(rec.raw)} written, {rec.dropped} beyond RAW_CAP not kept")
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


def record(seeds: range) -> int:
    """Solve every recorded corpus once per seed and rewrite record.json."""
    hb = import_program()
    import mpmath

    corpora: dict[str, dict] = {}
    for w in wl.WORKLOADS.values():
        entry = corpora.setdefault(w.corpus_name, {"spec": w.corpus.spec_dict(), "digests": {}})
        for seed in seeds:
            work = WORK / f"record-{os.getpid()}"
            work.mkdir(parents=True)
            try:
                bench = Bench(hb, w, seed, w.corpus.instances, work)
                bench.paths = wl.write_corpus(hb, w.corpus, seed, bench.count, work)
                for i in range(bench.count):
                    if bench.solve(i) is None:
                        return 1
                bench.check({})
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if bench.failed:
                return 1
            digests = entry["digests"].setdefault(str(seed), {})
            results = "".join(wl.digest(d)[: wl.DIGEST_HEX] for d in bench.results)
            if digests.setdefault("results", results) != results:
                print(f"{w.name} seed {seed}: results differ from the shared corpus", file=sys.stderr)
                return 1
            if w.trace_doc:
                digests["traces"] = "".join(wl.digest(d)[: wl.DIGEST_HEX] for d in bench.traces)
            print(f"recorded {w.name} seed {seed}", file=sys.stderr)
    doc = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "platform": platform.platform(),
        },
        "seed_range": [seeds.start, seeds.stop],
        "instance_seed": f"{wl.SEED_STRIDE} * seed + i; shuffle seed = instance seed ^ {wl.SHUFFLE_SALT:#x}",
        "digest": f"first {wl.DIGEST_HEX} hex digits of sha256 per instance document, in instance order",
        "workloads": {
            w.name: {"corpus": w.corpus_name, "trace_doc": w.trace_doc}
            for w in wl.WORKLOADS.values()
        },
        "end_to_end": END_TO_END,
        "per_layer": {k: {"unit": u, "moves": m} for k, (u, m) in spans.PER_LAYER.items()},
        "report_only": {k: {"unit": u, "moves": m} for k, (u, m) in spans.REPORT_ONLY.items()},
        "corpora": corpora,
    }
    wl.RECORD_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help=f"{SMOKE_INSTANCES} instances, one pass")
    p.add_argument("--record", metavar="LO:HI", help="rewrite record.json for seeds LO..HI-1")
    args = p.parse_args()
    if args.record:
        lo, _, hi = args.record.partition(":")
        return record(range(int(lo), int(hi)))
    if args.workload is None:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
