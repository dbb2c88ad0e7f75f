"""The four benchmark workloads and the checks on their outputs.

Sweep workloads drive the package through `cellfree_ee.cli.main`, exactly as
a user producing a figure would; the validation workload calls the public
`cellfree_ee.zfstats` functions. Package functions are looked up on their
modules at call time so that the tracer's run-time patches are seen.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cellfree_ee import cli, power, propagation, zfstats
from cellfree_ee.harness import ExperimentConfig

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# The per-run CSV schema documented in the package README.
CSV_SCHEMA = "scheme,M,K,rho_f_w,qos_rule,seed,ee_bits_per_joule,sum_se,iters,status,wall_ms"
AGGREGATE_SCHEMA = (
    "scheme,M,K,rho_f_w,qos_rule,n_runs,n_converged,n_failed,"
    "ee_mean_bits_per_joule,ee_stderr,sum_se_mean,iters_mean"
)
OPTIMIZED_SCHEMES = ("pce", "ipce")
# Signal-level draws of one zf_bridge validation (the criterion-3 count).
VALIDATION_DRAWS = 100_000
# Criterion 3: interference gap within this many combined standard errors.
BRIDGE_SE_MULTIPLE = 3.0
# Reference tolerances, relative. Solver stopping tests are at 1e-6, so a
# change of summation order can move a converged EE by about that much.
EE_REL_TOL = 1e-4
ZF_REL_TOL = 1e-9


class CheckError(RuntimeError):
    """An output check failed; the run is invalid."""


@dataclass
class OpResult:
    """What one op produced, reduced to what the benchmark checks and reports."""

    digest: str
    attempted: int
    failed: int
    ee: dict = field(default_factory=dict)  # scheme -> list of finite EE, bits/J
    reference: dict = field(default_factory=dict)


class SweepWorkload:
    """One `cellfree-ee sweep-*` invocation on one topology per op."""

    def __init__(self, name: str, command: str, out_dir: Path):
        self.name = name
        self.command = command
        self.config_path = CONFIG_DIR / f"{name}.cfg"
        self.config = ExperimentConfig.from_file(str(self.config_path))
        points = len(self.config.m_list) if command == "sweep-m" else len(self.config.rho_f_w_list)
        self.rows_per_op = points * len(self.config.schemes)
        self.attempts_per_op = points * len(OPTIMIZED_SCHEMES)
        self.out_path = out_dir / f"{name}.csv"

    def run(self, master_seed: int) -> int:
        argv = [self.command, "--config", str(self.config_path), "--seed", str(master_seed),
                "--out", str(self.out_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def inspect(self, exit_code: int) -> OpResult:
        if exit_code == cli.EXIT_CONFIG_ERROR:
            raise CheckError(f"{self.name}: cellfree-ee rejected the benchmark config")
        data = self.out_path.read_bytes()
        text = data.decode("utf-8")
        agg_path = self.out_path.with_name(self.out_path.stem + "_agg.csv")
        agg_header = agg_path.read_text(encoding="utf-8").split("\n", 1)[0]
        header = text.partition("\n")[0]
        if header != CSV_SCHEMA or agg_header != AGGREGATE_SCHEMA:
            raise CheckError(f"{self.name}: CSV header {header!r} / {agg_header!r} differs from the documented schema")
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != self.rows_per_op:
            raise CheckError(f"{self.name}: {len(rows)} CSV rows, expected {self.rows_per_op}")
        ee: dict = {}
        failed = 0
        for row in rows:
            value = float(row["ee_bits_per_joule"])
            if math.isfinite(value):
                ee.setdefault(row["scheme"], []).append(value)
            elif row["scheme"] in OPTIMIZED_SCHEMES:
                failed += 1
        reference = {"ee_mean": {s: float(np.mean(v)) for s, v in sorted(ee.items())}}
        return OpResult(hashlib.sha256(data).hexdigest(), self.attempts_per_op, failed, ee, reference)

    def check_reference(self, got: dict, expected: dict) -> None:
        want, have = expected["ee_mean"], got["ee_mean"]
        if set(want) != set(have):
            raise CheckError(f"{self.name}: reference schemes {sorted(want)}, got {sorted(have)}")
        for scheme, value in want.items():
            if abs(have[scheme] - value) > EE_REL_TOL * abs(value):
                raise CheckError(f"{self.name}: {scheme} mean EE {have[scheme]!r} differs from reference {value!r}")


class BridgeWorkload:
    """Statistics estimate then signal-level validation at the criterion-3 shape."""

    attempts_per_op = 1

    def __init__(self, name: str):
        self.name = name
        self.config_path = CONFIG_DIR / f"{name}.cfg"
        self.config = ExperimentConfig.from_file(str(self.config_path))

    def run(self, master_seed: int) -> tuple:
        cfg = self.config
        m, k = cfg.m_list[0], cfg.k
        tau_u = cfg.tau_u_samples()
        s_topo, s_shadow, s_mc = np.random.SeedSequence(master_seed).spawn(3)
        topo = propagation.generate_topology(m, k, cfg.area_side_km, s_topo)
        beta = propagation.large_scale_fading(topo, cfg.sigma_shad_db, cfg.d_min_km, np.random.default_rng(s_shadow))
        params = power.make_power_params(
            m=m,
            bandwidth_hz=cfg.bandwidth_hz,
            p_tx_watts=cfg.rho_f_w_list[0],
            p_ul_watts=cfg.rho_r_w,
            noise_figure_db=cfg.noise_figure_db,
            tau=cfg.tau,
            tau_u=tau_u,
        )
        stats = propagation.mmse_stats(beta, params.rho_r, tau_u)
        rng = np.random.default_rng(s_mc)
        zf = zfstats.estimate_zf_statistics(stats, cfg.n_mc, rng)
        eta = power.equal_power_allocation(zf.theta).eta * 0.8
        out = zfstats.validate_sinr(stats, zf, eta, params.rho_f, VALIDATION_DRAWS, rng)
        return zf, eta, params.rho_f, out

    def inspect(self, produced: tuple) -> OpResult:
        zf, eta, rho_f, out = produced
        digest = hashlib.sha256()
        for array in (zf.gamma, zf.theta, out.interference, out.interference_se):
            digest.update(np.ascontiguousarray(array).tobytes())
        desired_exact = np.array_equal(out.desired, rho_f * eta)
        predicted_se = rho_f * (zf.gamma_se @ eta)
        combined = BRIDGE_SE_MULTIPLE * np.sqrt(out.interference_se**2 + predicted_se**2)
        gap = np.abs(out.interference - out.predicted_interference)
        passed = desired_exact and bool(np.all(gap <= combined))
        reference = {
            "interference": out.interference.tolist(),
            "predicted_interference": out.predicted_interference.tolist(),
        }
        return OpResult(digest.hexdigest(), 1, 0 if passed else 1, reference=reference)

    def check_reference(self, got: dict, expected: dict) -> None:
        for key, want in expected.items():
            have = got[key]
            if len(have) != len(want) or any(abs(h - w) > ZF_REL_TOL * abs(w) for h, w in zip(have, want)):
                raise CheckError(f"{self.name}: {key} {have} differs from reference {want}")


def make_workload(name: str, out_dir: Path):
    if name == "sweep_rhof":
        return SweepWorkload(name, "sweep-rhof", out_dir)
    if name in ("sweep_m", "solver_k2"):
        return SweepWorkload(name, "sweep-m", out_dir)
    if name == "zf_bridge":
        return BridgeWorkload(name)
    raise ValueError(f"unknown workload {name!r}")
