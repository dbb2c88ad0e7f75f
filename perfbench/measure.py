"""Timed loops, output checks and metrics of one benchmark run.

Import only after the BLAS thread variables are set and `src/` is on the
path; `run.py` does both.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
import workloads
from probe import SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from cellfree_ee.harness import ExperimentConfig; ExperimentConfig.from_file(sys.argv[2])"
)
# Op i of a run with seed s gets master seed s * SEED_STRIDE + i.
SEED_STRIDE = 100_000
REFERENCE_SEED = 1


@dataclass
class Phase:
    """Ops of one timed loop, with the machine-speed probe run after each op."""

    probe: SpeedProbe
    op_s: list = field(default_factory=list)  # wall time of every op, completed or not
    scaled_s: list = field(default_factory=list)  # op_s over the slowdown probed right after the op
    digests: list = field(default_factory=list)  # per op index; None when it raised
    attempted: int = 0
    failed: int = 0
    ee: dict = field(default_factory=dict)  # scheme -> EE values, bits/J

    def ops_per_s(self, times: list) -> float:
        return sum(d is not None for d in self.digests) / sum(times)

    def op_ms_p50(self, times: list) -> float:
        done = [t for t, d in zip(times, self.digests) if d is not None]
        return 1e3 * statistics.median(done) if done else 0.0


def op_seed(seed: int, index: int) -> int:
    return seed * SEED_STRIDE + index


def run_ops(workload, seed: int, seconds: float, tracer=None) -> Phase:
    """Repeat ops until `seconds` have passed; an op that raises counts as failed."""
    phase = Phase(SpeedProbe())
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                produced = workload.run(op_seed(seed, index))
            else:
                with tracer.op(index):
                    produced = workload.run(op_seed(seed, index))
        except Exception:  # a failing op is counted and the workload goes on
            phase.op_s.append(time.perf_counter() - t0)
            phase.digests.append(None)
            phase.attempted += workload.attempts_per_op
            phase.failed += workload.attempts_per_op
            print(f"op {index} raised:\n{traceback.format_exc()}", file=sys.stderr)
        else:
            phase.op_s.append(time.perf_counter() - t0)
            result = workload.inspect(produced)
            phase.digests.append(result.digest)
            phase.attempted += result.attempted
            phase.failed += result.failed
            for scheme, values in result.ee.items():
                phase.ee.setdefault(scheme, []).extend(values)
        phase.scaled_s.append(phase.op_s[-1] / phase.probe.sample(phase.op_s[-1]))
        index += 1
    return phase


def measure_setup(config_path: Path) -> float:
    """Median wall time of fresh interpreters importing the package and validating the config."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine_block() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "nproc_affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(phase: Phase, setup_s: float) -> dict:
    """The bounded metrics; op timings are scaled to the nominal machine speed."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {
        "ops_per_s": metric(phase.ops_per_s(phase.scaled_s), "1/s"),
        "op_ms_p50": metric(phase.op_ms_p50(phase.scaled_s), "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def report_only(phase: Phase) -> dict:
    """Figures kept out of the JSON line: raw timings, and values that can be 0 or exist for sweeps only."""
    extra = {
        "failed_frac": metric(phase.failed / phase.attempted, "ratio"),
        "ops_per_s_raw": metric(phase.ops_per_s(phase.op_s), "1/s"),
        "op_ms_p50_raw": metric(phase.op_ms_p50(phase.op_s), "ms"),
        "machine_slowdown": metric(phase.probe.slowdown, "ratio"),
    }
    for scheme in ("pce", "ipce"):
        if phase.ee.get(scheme):
            extra[f"ee_{scheme}_mbit_per_j"] = metric(statistics.fmean(phase.ee[scheme]) / 1e6, "Mbit/J")
    return extra


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")


def run_checked(args, out_dir: Path) -> tuple:
    """Measure one workload; returns (metrics, attempted, failed). Raises CheckError."""
    workload = workloads.make_workload(args.workload, out_dir)
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("machine: " + json.dumps(machine_block(), sort_keys=True))
    setup_s = measure_setup(workload.config_path)

    expected = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))[workload.name]
    reference = workload.inspect(workload.run(REFERENCE_SEED))
    workload.check_reference(reference.reference, expected)

    if not args.trace:
        phase = run_ops(workload, args.seed, args.seconds)
        first = next((i for i, d in enumerate(phase.digests) if d is not None), None)
        if first is not None and workload.inspect(workload.run(op_seed(args.seed, first))).digest != phase.digests[first]:
            raise workloads.CheckError(f"op {first} rerun gave different output bytes")
        metrics = end_to_end(phase, setup_s)
        print_metrics("end-to-end:", {**metrics, **report_only(phase)})
        return metrics, phase.attempted, phase.failed

    plain = run_ops(workload, args.seed, args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_ops(workload, args.seed, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    common = min(len(plain.digests), len(traced.digests))
    for i in range(common):
        if plain.digests[i] != traced.digests[i]:
            raise workloads.CheckError(f"op {i} gave different output bytes traced and untraced")
    metrics = {name: metric(v, unit) for name, (v, unit) in tracing.layer_metrics(tracer, len(traced.op_s)).items()}
    # Overhead on the ops both halves ran: traced minus untraced rate, each
    # scaled to the nominal machine speed like ops_per_s.
    traced_rate = common / sum(traced.scaled_s[:common])
    plain_rate = common / sum(plain.scaled_s[:common])
    metrics["trace.ops_per_s"] = metric(traced_rate, "1/s")
    metrics["trace.overhead_ops_per_s"] = metric(traced_rate - plain_rate, "1/s")
    print_metrics("untraced half:", {**end_to_end(plain, setup_s), **report_only(plain)})
    print_metrics("per-layer (traced half):", metrics)
    return metrics, plain.attempted + traced.attempted, plain.failed + traced.failed
