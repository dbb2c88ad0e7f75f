#!/usr/bin/env python3
"""Compare the CSV rows that two source trees give for the same sweeps.

    python tools/audit_rows.py PARENT_TREE CHANGE_TREE --command sweep-rhof \
        --config perfbench/configs/sweep_rhof.cfg --seeds 300000-300099

Each tree runs `cellfree_ee.cli COMMAND --config CONFIG --seed S --out ...`
for every master seed S of the range, in one subprocess per tree with
PYTHONPATH=<tree>/src and one BLAS thread; the two subprocesses run side by
side. The config file is only read. Rows are matched on (master seed, scheme,
M, K, rho_f_w, qos_rule, seed) and compared on EE, sum SE, iterations and
status; `wall_ms` is ignored. The report lists the rows that differ, the
status transitions with counts, the largest relative EE change per scheme
(over all rows, and over rows whose status is unchanged) with the largest
fall, the iteration changes, and every row that newly became NaN, `error:*`
or `infeasible`. A last line counts the master seeds whose CSV and `_agg.csv`
files are byte-identical between the trees; the row comparison alone misses
a change in `wall_ms` or in the aggregate file. With `--identical`, any seed
whose files differ fails the audit. With `--ee-bound REL`, any row whose
status did not change and whose EE moved by more than REL, relative, fails it.

Exit codes: 0 no row newly bad (and, with --identical, every seed's files
byte-identical; with --ee-bound, no unchanged-status row past the bound),
1 some row newly bad, a row missing on one side, with --identical some
seed's files differing, or with --ee-bound some row past the bound, 2 usage
error or a tree's run failed.
"""

from __future__ import annotations

import argparse
import collections
import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

KEY_FIELDS = ("scheme", "M", "K", "rho_f_w", "qos_rule", "seed")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EXIT_OK, EXIT_NEW_BAD_ROWS, EXIT_USAGE = 0, 1, 2
# Runs in each tree's interpreter: one CSV per master seed. A sweep whose
# optimized rows are all infeasible returns a nonzero code; that is a result.
# A rejected config writes no CSV, so it fails the tree's run.
RUNNER_CODE = """
import sys
from cellfree_ee.cli import EXIT_CONFIG_ERROR, main
command, config, out_dir, *seeds = sys.argv[1:]
for seed in seeds:
    if main([command, "--config", config, "--seed", seed, "--out", f"{out_dir}/{seed}.csv"]) == EXIT_CONFIG_ERROR:
        sys.exit(EXIT_CONFIG_ERROR)
"""


def parse_seeds(text: str) -> list:
    """'300000-300099' or '5' -> the inclusive list of master seeds."""
    first, _, last = text.partition("-")
    lo, hi = int(first), int(last or first)
    if lo < 0 or hi < lo:
        raise ValueError(f"bad seed range {text!r}")
    return list(range(lo, hi + 1))


def start_tree(tree: Path, command: str, config: Path, seeds: list, out_dir: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    argv = [sys.executable, "-c", RUNNER_CODE, command, str(config), str(out_dir), *map(str, seeds)]
    return subprocess.Popen(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL)


def read_rows(out_dir: Path, seeds: list) -> dict:
    rows = {}
    for seed in seeds:
        with open(out_dir / f"{seed}.csv", newline="") as handle:
            for row in csv.DictReader(handle):
                rows[(seed,) + tuple(row[f] for f in KEY_FIELDS)] = row
    return rows


def identical_seeds(parent_dir: Path, change_dir: Path, seeds: list) -> int:
    """How many master seeds gave byte-identical CSV and _agg.csv files in both trees."""
    return sum(
        all((parent_dir / name).read_bytes() == (change_dir / name).read_bytes()
            for name in (f"{seed}.csv", f"{seed}_agg.csv"))
        for seed in seeds
    )


def is_bad(row: dict) -> bool:
    status = row["status"]
    return math.isnan(float(row["ee_bits_per_joule"])) or status.startswith("error") or status == "infeasible"


def relative(new: float, old: float) -> float:
    return (new - old) / abs(old) if old else (0.0 if new == old else math.inf)


def compare(parent: dict, change: dict, ee_bound: float | None = None) -> tuple:
    """The report lines and whether any row is newly bad, unmatched, or past ee_bound.

    ee_bound, optional, is the largest relative EE change allowed on a row
    whose status did not change.
    """
    lines = []
    unmatched = sorted(set(parent) ^ set(change))
    for key in unmatched:
        lines.append(f"row only in {'parent' if key in parent else 'change'}: {key}")
    differing, iteration_changes, newly_bad, over_bound = [], [], [], []
    transitions = collections.Counter()
    largest = collections.defaultdict(lambda: [0.0, 0.0, 0.0])  # |all|, |same status|, largest fall
    for key in sorted(set(parent) & set(change)):
        old, new = parent[key], change[key]
        if any(old[f] != new[f] for f in ("ee_bits_per_joule", "sum_se", "iters", "status")):
            differing.append(key)
        if old["status"] != new["status"]:
            transitions[(old["status"], new["status"])] += 1
        if old["iters"] != new["iters"]:
            iteration_changes.append(int(new["iters"]) - int(old["iters"]))
        if is_bad(new) and not is_bad(old):
            newly_bad.append((key, old["status"], new["status"], new["ee_bits_per_joule"]))
        ee_old, ee_new = float(old["ee_bits_per_joule"]), float(new["ee_bits_per_joule"])
        if math.isfinite(ee_old) and math.isfinite(ee_new):
            change_rel = relative(ee_new, ee_old)
            worst = largest[key[1]]
            worst[0] = max(worst[0], abs(change_rel))
            if old["status"] == new["status"]:
                worst[1] = max(worst[1], abs(change_rel))
                if ee_bound is not None and abs(change_rel) > ee_bound:
                    over_bound.append((key, change_rel))
            worst[2] = min(worst[2], change_rel)

    lines.append(f"rows compared: {len(set(parent) & set(change))}, differing: {len(differing)}")
    for key in differing:
        old, new = parent[key], change[key]
        lines.append(
            f"  {key}: ee {old['ee_bits_per_joule']} -> {new['ee_bits_per_joule']}, "
            f"sum_se {old['sum_se']} -> {new['sum_se']}, "
            f"iters {old['iters']} -> {new['iters']}, status {old['status']} -> {new['status']}"
        )
    lines.append("status transitions: " + (", ".join(
        f"{a} -> {b}: {n}" for (a, b), n in sorted(transitions.items())) or "none"))
    for scheme, (any_status, same_status, fall) in sorted(largest.items()):
        lines.append(
            f"largest relative EE change, {scheme}: {any_status:.3e} "
            f"(unchanged status {same_status:.3e}; largest fall {max(0.0, -fall):.3e})"
        )
    if iteration_changes:
        lines.append(
            f"iteration changes: {len(iteration_changes)} rows, net {sum(iteration_changes):+d}, "
            f"from {min(iteration_changes):+d} to {max(iteration_changes):+d}"
        )
    else:
        lines.append("iteration changes: none")
    lines.append(f"rows newly NaN, error:* or infeasible: {len(newly_bad)}")
    for key, old_status, new_status, ee in newly_bad:
        lines.append(f"  {key}: status {old_status} -> {new_status}, ee {ee}")
    if ee_bound is not None:
        lines.append(f"rows with unchanged status past the EE bound {ee_bound:.3e}: {len(over_bound)}")
        lines.extend(f"  {key}: relative EE change {change_rel:+.3e}" for key, change_rel in over_bound)
    return lines, bool(newly_bad or unmatched or over_bound)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree holding src/cellfree_ee")
    parser.add_argument("change", type=Path, help="source tree holding src/cellfree_ee")
    parser.add_argument("--command", required=True, choices=("sweep-m", "sweep-rhof", "single"))
    parser.add_argument("--config", required=True, type=Path, help="key=value config file, read only")
    parser.add_argument("--seeds", required=True, help="inclusive master-seed range, such as 300000-300099")
    parser.add_argument("--identical", action="store_true",
                        help="fail unless every seed's CSV and _agg.csv are byte-identical between the trees")
    parser.add_argument("--ee-bound", type=float, metavar="REL",
                        help="fail when a row whose status did not change moves its EE by more than REL, relative")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    if args.ee_bound is not None and not 0.0 <= args.ee_bound < math.inf:
        parser.error("--ee-bound must be finite and nonnegative")
    trees = [args.parent.resolve(), args.change.resolve()]
    config = args.config.resolve()
    for tree in trees:
        if not (tree / "src" / "cellfree_ee").is_dir():
            parser.error(f"no src/cellfree_ee under {tree}")
    if not config.is_file():
        parser.error(f"no config file {config}")

    with tempfile.TemporaryDirectory() as tmp:
        out_dirs = [Path(tmp) / "parent", Path(tmp) / "change"]
        for out_dir in out_dirs:
            out_dir.mkdir()
        runs = [start_tree(tree, args.command, config, seeds, out) for tree, out in zip(trees, out_dirs)]
        codes = [run.wait() for run in runs]
        if any(codes):
            print(f"error: a tree's run failed (exit codes {codes})", file=sys.stderr)
            return EXIT_USAGE
        parent, change = (read_rows(out, seeds) for out in out_dirs)
        identical = identical_seeds(*out_dirs, seeds)

    lines, failed = compare(parent, change, args.ee_bound)
    print(f"{args.command} {config.name} master seeds {seeds[0]}-{seeds[-1]}")
    print("\n".join(lines))
    print(f"byte-identical CSV and _agg.csv: {identical} of {len(seeds)} seeds")
    failed = failed or (args.identical and identical < len(seeds))
    return EXIT_NEW_BAD_ROWS if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
