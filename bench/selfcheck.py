"""Check the benchmark itself on tiny inputs.

For each workload, runs bench/run.py with --tiny once untraced and once
traced, on the same seed, and confirms that

- the last line is a result with exactly the keys correct, attempted,
  failed and metrics, and that every case matched its truth;
- the metric names and units are exactly BENCHMARK.json's end_to_end list
  (untraced) and per_layer list (traced);
- the traced run printed the same digest of the program's outputs as the
  untraced run, so tracing changed no result.

    python3 bench/selfcheck.py          # exit code 0 when every check holds
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SEED = 7


def run(workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
           str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {workload} trace={trace}: exit code {proc.returncode}")
    lines = proc.stdout.strip().split("\n")
    digest = next(ln.split()[1] for ln in lines if ln.startswith("outputs_sha256 "))
    return json.loads(lines[-1]), digest


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace in (0, 1):
            result, digests[trace] = run(workload, trace)
            label = f"{workload} trace={trace}"
            if set(result) != RESULT_KEYS:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{label}: {result['failed']} cases contradict their truth")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != wanted[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units) ^ set(wanted[trace]))}")
        if digests[0] != digests[1]:
            problems.append(f"{workload}: traced and untraced outputs differ")
        print(f"{workload}: outputs {digests[0][:16]} (untraced) {digests[1][:16]} (traced)")
    for problem in problems:
        print("FAIL " + problem)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
