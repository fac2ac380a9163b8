"""Benchmark of the heyde package: three closed-loop batch workloads.

One caller sends one case at a time and waits for it, as a batch user of
``decompose``, ``mc_symmetry_test`` and the CLI does.  A run builds its
cases from ``--seed``, repeats the whole case list in rounds for about
``--seconds`` seconds, checks every outcome against the truth the case was
built from, and prints one JSON result as its last line.

    python3 bench/run.py --workload decompose_large_g --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --seconds 40          # all workloads, one process each

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics.
See bench/README.md for the metrics, the workloads and a baseline.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread: within nproc, and steadier on a shared machine.
# Set before numpy is imported, here and in every child process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
TINY_SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120
P90_MIN_SAMPLES = 100  # at least ten samples above the 90th percentile
WORKLOADS = ("decompose_large_g", "mc_simulate", "cli_batch_small")

END_TO_END = (
    ("cases_per_s", "1/s"),
    ("case_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Per-layer metrics, each per traced round (one pass over the case list).
PER_LAYER = (
    ("finite_abelian.char_table.calls", "count"),
    ("finite_abelian.char_table.self_s", "s"),
    ("finite_abelian.kernel_of_I_plus.self_s", "s"),
    ("measures.from_terms.calls", "count"),
    ("measures.from_terms.self_s", "s"),
    ("measures.convolve.calls", "count"),
    ("measures.convolve.self_s", "s"),
    ("measures.char_fn.calls", "count"),
    ("measures.char_fn.self_s", "s"),
    ("measures.is_distribution.calls", "count"),
    ("measures.is_distribution.self_s", "s"),
    ("measures.is_distribution.verdict_yes", "count"),
    ("measures.is_distribution.verdict_no", "count"),
    ("measures.is_distribution.verdict_boundary", "count"),
    ("measures.sample_arrays.calls", "count"),
    ("measures.sample_arrays.self_s", "s"),
    ("measures.sample_arrays.draws", "count"),
    ("theta.theta_to_measure.self_s", "s"),
    ("theta.measure_to_theta.self_s", "s"),
    ("symmetry.equation_residual_report.calls", "count"),
    ("symmetry.equation_residual_report.self_s", "s"),
    ("symmetry.equation_residual_report.dual_points", "count"),
    ("symmetry.mc_symmetry_test.calls", "count"),
    ("symmetry.mc_symmetry_test.self_s", "s"),
    ("symmetry.mc_symmetry_test.probe_evals", "count"),
    ("symmetry.delta_relation.self_s", "s"),
    ("symmetry.char_sup_distance.self_s", "s"),
    ("structure.decompose.calls", "count"),
    ("structure.decompose.self_s", "s"),
    ("structure.decompose.accept_ratio", "ratio"),
    ("structure.generate_instance.self_s", "s"),
    ("structure.rigidity_decision.self_s", "s"),
    ("cli.build_parser.self_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.emit_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.self_sum_frac", "ratio"),
    ("run.failed_frac", "ratio"),
    ("run.case_p90_ms", "ms"),
)


def import_program() -> None:
    """Put the checkout's src/ first on the path; refuse any other heyde."""
    if not (SRC / "heyde" / "__init__.py").is_file():
        raise SystemExit(f"error: no heyde package under {SRC}")
    sys.path.insert(0, str(SRC))
    import heyde

    if Path(heyde.__file__).resolve().parent != SRC / "heyde":
        raise SystemExit(f"error: imported heyde from {heyde.__file__}, not {SRC}")


@dataclass
class Round:
    traced: bool
    latencies: list[float]
    statuses: list[str]
    digest: str

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_round(cases, tracer, traced: bool) -> Round:
    import workloads

    latencies, statuses, texts = [], [], []
    if traced:
        tracer.install()
    try:
        for case in cases:
            if traced:
                tracer.case = case.name
            start = time.perf_counter()
            if traced:
                tracer.enabled = True
            try:
                out = case.call()
            except Exception as exc:  # counted as a failed case; the batch goes on
                out = workloads.Unexpected(exc)
            if traced:
                tracer.enabled = False
            latencies.append(time.perf_counter() - start)
            status, text = case.check(out)
            statuses.append(status)
            texts.append(text)
    finally:
        if traced:
            tracer.uninstall()
    return Round(traced, latencies, statuses, workloads.digest(texts))


def run_rounds(cases, seconds: float, tracer) -> list[Round]:
    """Whole rounds while the next one is expected to end within seconds;
    with a tracer, rounds alternate untraced and traced, at least one each."""
    rounds: list[Round] = []
    durations: list[float] = []
    start = time.perf_counter()
    min_rounds = 2 if tracer is not None else 1
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        rounds.append(run_round(cases, tracer, traced))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed + max(durations[-2:]) > seconds:
            return rounds


def measure_setup(args) -> float:
    """Median wall time of fresh processes from start to the first timed
    case: interpreter start, import, inputs from the seed, warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(TINY_SETUP_PROBES if args.tiny else SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
    return statistics.median(times)


def environment(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(BLAS_THREADS),
    }


def p90_ms(latencies: list[float]) -> float | None:
    if len(latencies) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(latencies, n=10)[8] * 1e3


def end_to_end(cases, rounds: list[Round], setup_s: float) -> dict[str, float]:
    walls = [r.wall for r in rounds if not r.traced]
    latencies = [x for r in rounds if not r.traced for x in r.latencies]
    return {
        "cases_per_s": len(cases) / statistics.median(walls),
        "case_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(tracer, rounds: list[Round], failed_frac: float) -> dict[str, float]:
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    n = len(traced)
    self_s, calls = tracer.self_times()
    untraced_wall = statistics.median(r.wall for r in untraced)
    out: dict[str, float] = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(span, 0) / n
        elif field == "self_s":
            out[name] = self_s.get(span, 0.0) / n
        elif name in ("cli.parse_s", "cli.emit_s"):
            out[name] = self_s.get(name[: -len("_s")], 0.0) / n
        else:
            out[name] = tracer.counts.get(name, 0.0) / n
    decompose_calls = calls.get("structure.decompose", 0)
    out["structure.decompose.accept_ratio"] = (
        tracer.counts.get("structure.decompose.accepted", 0.0) / decompose_calls
        if decompose_calls else 0.0
    )
    out["trace.overhead_frac"] = statistics.median(r.wall for r in traced) / untraced_wall - 1.0
    out["trace.self_sum_frac"] = sum(self_s.values()) / n / untraced_wall
    out["run.failed_frac"] = failed_frac
    out["run.case_p90_ms"] = p90_ms([x for r in untraced for x in r.latencies]) or 0.0
    return out


def run_workload(args) -> int:
    import_program()
    import tracing
    import workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed, args.tiny)
        workloads.warm_up(args.workload)
        print("ready", flush=True)
        return 0

    setup_s = measure_setup(args)
    cases = workloads.build(args.workload, args.seed, args.tiny)
    workloads.warm_up(args.workload)
    tracer = tracing.Tracer() if args.trace else None
    rounds = run_rounds(cases, args.seconds, tracer)

    statuses = [s for r in rounds for s in r.statuses]
    attempted = len(statuses)
    failed = statuses.count(workloads.FAIL)
    known = {k: statuses.count(k) for k in workloads.KNOWN_DEFECTS if k in statuses}
    failed_frac = (attempted - statuses.count(workloads.OK)) / attempted
    digests = {r.digest for r in rounds}
    consistent = len(digests) == 1
    untraced_lat = [x for r in rounds if not r.traced for x in r.latencies]
    p90 = p90_ms(untraced_lat)

    print(f"workload {args.workload}: {len(rounds)} rounds of {len(cases)} cases, "
          f"{attempted} attempted, {failed} failed, failed_frac {failed_frac:.4f}")
    for key, count in known.items():
        print(f"  known defect {key} x{count}: {workloads.KNOWN_DEFECTS[key]}")
    for case, status in zip(cases, rounds[0].statuses):
        if status == workloads.FAIL:
            print(f"  FAILED case {case.name}")
    if not consistent:
        print("  outputs differ between rounds (traced against untraced, or nondeterministic)")
    print(f"  case latency: {len(untraced_lat)} untraced samples, "
          f"p90 {'n/a (fewer than %d samples)' % P90_MIN_SAMPLES if p90 is None else f'{p90:.3f} ms'}")

    if args.trace:
        metrics = per_layer(tracer, rounds, failed_frac)
        units = dict(PER_LAYER)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(cases, rounds, setup_s)
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print("env " + json.dumps(environment(args)))
    print("outputs_sha256 " + (digests.pop() if consistent else "inconsistent"))
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; prints every metric by name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {workload} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small groups and sample counts, for bench/selfcheck.py")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
