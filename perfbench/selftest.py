"""Self-test of the benchmark, in seconds: smoke runs of every workload.

    python3 perfbench/selftest.py

Checks that each workload of workloads.py emits every metric named in
BENCHMARK.json with its unit, fails nothing, and prints a parseable
result line; that the exact counter fingerprint repeats between runs;
that the trees keep their shape (one layer on bulk, a median of at least
three on deep and witness); that a wrong recorded digest is caught; and
that a directory without the program exits non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 0  # inside record.json's seed range, so digests are compared
SCRATCH = ROOT / ".bench_build" / "perfbench-selftest"


def smoke(root: Path, workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def checked_smoke(workload: str, trace: int) -> tuple[dict, dict]:
    proc, result = smoke(ROOT, workload, trace)
    assert proc.returncode == 0 and result is not None, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}, sorted(result["metrics"])
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)
    assert "record: compared" in proc.stdout, proc.stdout
    line = next(l for l in proc.stdout.splitlines() if l.startswith("fingerprint "))
    return result, json.loads(line.split(" ", 1)[1])


def copy_tree(dest: Path, with_program: bool) -> None:
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, dest / path)
    if with_program:
        shutil.copytree(ROOT / "src" / "hbmatch", dest / "src" / "hbmatch")


def main() -> int:
    # Every workload in workloads.py, including `witness`, which is kept
    # for runs by hand but left out of BENCHMARK.json.
    for workload in wl.WORKLOADS:
        _, fp0 = checked_smoke(workload, 0)
        _, fp0_again = checked_smoke(workload, 0)
        layers, fp1 = checked_smoke(workload, 1)
        assert fp0 == fp0_again == fp1, (fp0, fp0_again, fp1)
        depth = {k: layers["metrics"][f"tree.depth_{k}"]["value"] for k in ("p50", "max")}
        if workload == "bulk":
            assert depth["max"] == 1, depth
        if workload in ("deep", "witness"):
            assert depth["p50"] >= 3, depth
        print(f"ok {workload}: fingerprint {json.dumps(fp0, sort_keys=True)}")

    try:
        tampered = SCRATCH / "tampered"
        copy_tree(tampered, with_program=True)
        record_path = tampered / "perfbench" / "record.json"
        record = json.loads(record_path.read_text())
        packed = record["corpora"]["deep"]["digests"][str(SEED)]["results"]
        flipped = "0" if packed[0] != "0" else "1"
        record["corpora"]["deep"]["digests"][str(SEED)]["results"] = flipped + packed[1:]
        record_path.write_text(json.dumps(record))
        proc, result = smoke(tampered, "deep", 0)
        assert result is not None and result["correct"] is False and result["failed"] >= 1, proc
        print("ok a wrong recorded digest fails the run")

        bare = SCRATCH / "bare"
        copy_tree(bare, with_program=False)
        proc, result = smoke(bare, "deep", 0)
        assert proc.returncode != 0 and result is None, proc
        print("ok without the program: exit code", proc.returncode)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
