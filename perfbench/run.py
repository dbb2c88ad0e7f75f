#!/usr/bin/env python3
"""cellfree-ee benchmark: seeded figure sweeps and the ZF validation, timed end to end.

    python3 perfbench/run.py --workload sweep_m --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, one after another

Run from anywhere inside a source checkout; the package is imported from the
checkout's `src/`. Each run first measures set-up time in fresh interpreters,
then runs a reference op at a fixed seed (warm-up, and the check of its
outputs against `reference.json`), then repeats ops on inputs derived from
`--seed` for `--seconds` seconds. With `--trace 0` the first op is rerun
afterwards and must give identical bytes. With `--trace 1` half the time runs
untraced and half traced on the same inputs; the two must give identical
bytes, and the per-layer metrics come from the traced half. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exit codes: 0 valid run, 1 an output check failed, 2 the package is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
ALL = "all"
WORKLOAD_NAMES = ("sweep_m", "sweep_rhof", "solver_k2", "zf_bridge")
# BLAS threads are pinned to one: the matrices are at most 120 x 16, where
# extra threads add run-to-run spread and no speed.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EXIT_INVALID = 1
EXIT_NO_PACKAGE = 2


def prepare_imports() -> None:
    """Pin BLAS threads before numpy loads, and import the package from `src/`."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def run_workload(args) -> int:
    if not (SRC / "cellfree_ee").is_dir():
        print(f"error: no cellfree_ee package under {SRC}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    prepare_imports()
    try:
        import measure
    except ImportError as exc:
        print(f"error: cannot import cellfree_ee from {SRC}: {exc}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=OUT_ROOT))
    try:
        metrics, attempted, failed = measure.run_checked(args, out_dir)
    except measure.workloads.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return EXIT_INVALID
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()  # left in place while another run uses it
    print("checks: reference outputs, CSV schema and rerun bytes all match")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or EXIT_INVALID
            continue
        result = json.loads(lines[-1])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    if status == 0:
        print(json.dumps(combined))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default=ALL, choices=(ALL,) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == ALL else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
