"""Run the benchmark over several workloads and seeds and summarise it.

    python3 perfbench/report.py --seeds 0:10 --workloads deep,bulk
        each end-to-end metric's median and quartile spread over the seeds,
        the spread being (Q3 - Q1) / median as statistics.quantiles gives it
    python3 perfbench/report.py --overhead --seeds 0:1
        plain and span-run wall-time medians per workload, the span
        overhead, the trace-document overhead traced/deep (in the
        end-to-end e2e_ms_p50, reference ms), and the per-module shares

Each run is its own `run.py` process, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int, seconds: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{proc.stderr}")
    return result, lines


def spread(workloads: list[str], seeds: range, seconds: int) -> None:
    for w in workloads:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result, _ = run(w, seed, 0, seconds)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        for metric in BENCH["end_to_end"]:
            v = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            print(f"SPREAD {w} {metric['name']}: median {statistics.median(v):.4g} "
                  f"spread {(q3 - q1) / med:.4f} bound {metric['bound']} n={len(v)}", flush=True)


def overhead(workloads: list[str], seed: int, seconds: int) -> None:
    plain = {}
    for w in workloads:
        result, lines = run(w, seed, 0, seconds)
        plain[w] = result["metrics"]["e2e_ms_p50"]["value"]
        # The span run is not scaled (speed.py), so compare wall times.
        wall = float(next(l for l in lines if l.startswith("wall ")).split()[2])
        layers, lines = run(w, seed, 1, seconds)
        spanned = layers["metrics"]["span.e2e_ms_p50"]["value"]
        print(f"{w}: wall-time median plain {wall:.2f} ms, span run {spanned:.2f} ms, "
              f"span overhead {spanned / wall:.3f}x")
        for line in lines:
            if line.startswith(("share ", "metric ")):
                print(f"  {line}")
    if "traced" in plain and "deep" in plain:
        print(f"trace-document overhead traced/deep: {plain['traced'] / plain['deep']:.3f}x "
              f"({plain['traced']:.2f} ms / {plain['deep']:.2f} ms)")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    p.add_argument("--seeds", default="0:10", help="LO:HI")
    p.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    p.add_argument("--overhead", action="store_true")
    args = p.parse_args()
    lo, _, hi = args.seeds.partition(":")
    workloads = args.workloads.split(",")
    if args.overhead:
        overhead(workloads, int(lo), args.seconds)
    else:
        spread(workloads, range(int(lo), int(hi)), args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
