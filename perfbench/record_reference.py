#!/usr/bin/env python3
"""Record each workload's reference-op outputs into reference.json.

    python3 perfbench/record_reference.py

Run it only at a commit whose results are known good: every later benchmark
run checks its reference op against these values.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.prepare_imports()
    import measure
    import workloads

    reference = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name in run.WORKLOAD_NAMES:
            workload = workloads.make_workload(name, Path(tmp))
            reference[name] = workload.inspect(workload.run(measure.REFERENCE_SEED)).reference
    path = run.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
