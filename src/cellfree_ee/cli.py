"""Command-line entry point for the sweep and single-point runners."""

from __future__ import annotations

import argparse
import os
import sys

from .harness import (
    ConfigError,
    ExperimentConfig,
    comma_list,
    rows_to_csv,
    run_topology,
    sweep_m,
    sweep_rho_f,
    write_outputs,
)

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_ALL_INFEASIBLE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellfree-ee",
        description="Energy-efficiency experiments for downlink cell-free massive MIMO with zero-forcing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sweep-m", "sweep the AP count at the first configured transmit power"),
        ("sweep-rhof", "sweep the per-AP transmit power at the first configured AP count"),
        ("single", "run one (M, rho_f) point on one topology"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", metavar="PATH", help="key=value config file")
        cmd.add_argument("--seed", type=int, metavar="U64", help="override the master seed")
        cmd.add_argument("--out", metavar="PATH", help="per-run CSV path (aggregate written alongside)")
        cmd.add_argument("--schemes", metavar="LIST", help="comma list from equal,pce,ipce")
        if name != "single":  # single runs the first topology only
            cmd.add_argument("--topologies", type=int, metavar="N", help="topology draws per point")
        cmd.add_argument("--mc", type=int, metavar="N", help="channel draws for the precoder statistics")
    return parser


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        config.master_seed = args.seed
    if args.schemes is not None:
        config.schemes = tuple(comma_list(args.schemes))
    if getattr(args, "topologies", None) is not None:
        config.n_topologies = args.topologies
    if args.mc is not None:
        config.n_mc = args.mc
    config.validate()
    return config


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which is a config error here.
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG_ERROR
    try:
        config = _load_config(args)
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ConfigError(f"--out directory {os.path.dirname(args.out)!r} does not exist")
        if args.command == "sweep-m":
            rows = sweep_m(config)
        elif args.command == "sweep-rhof":
            rows = sweep_rho_f(config)
        else:
            rows = run_topology(config, config.m_list[:1], 0, config.rho_f_w_list[:1])
        if args.out:
            out_path, agg_path = write_outputs(rows, args.out)
            print(f"wrote {out_path} and {agg_path}")
        else:
            sys.stdout.write(rows_to_csv(rows))
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    optimized = [r for r in rows if r.scheme != "equal"]
    if optimized and all(r.failed for r in optimized):
        return EXIT_ALL_INFEASIBLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
