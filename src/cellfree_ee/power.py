"""Rate model, power-consumption model, and the energy-efficiency objective.

Conventions: rho_f and rho_r are dimensionless transmit-to-noise ratios
(P_watts / N0), so transmit power in watts is recovered as rho_f * n0_watts.
Spectral efficiencies are in bits/s/Hz, throughput in bits/s, energy
efficiency in bits/Joule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .zfstats import ZfStatistics

BOLTZMANN = 1.380649e-23  # J/K
NOISE_TEMPERATURE = 290.0  # K


@dataclass(frozen=True)
class PowerParams:
    """System bandwidth, normalized transmit powers, and consumption constants."""

    bandwidth_hz: float
    rho_f: float  # downlink power / N0
    rho_r: float  # uplink power / N0
    n0_watts: float
    tau: int  # coherence interval, samples
    tau_u: int  # uplink training, samples
    alpha: np.ndarray  # (M,), reciprocal amplifier drain efficiency
    p_cir: float  # static circuit power, W
    p_cm: np.ndarray  # (M,), per-AP circuit power, W
    p_0m: np.ndarray  # (M,), fixed backhaul power, W
    p_btm: np.ndarray  # (M,), traffic-dependent backhaul power, W per bit/s

    def __post_init__(self):
        if not (self.tau > self.tau_u >= 1):
            raise ValueError(f"need tau > tau_u >= 1, got tau={self.tau}, tau_u={self.tau_u}")
        if not all(math.isfinite(rho) and rho > 0 for rho in (self.rho_f, self.rho_r)):
            raise ValueError("normalized powers must be positive")

    @property
    def prelog(self) -> float:
        """Fraction of the coherence interval carrying payload, 1 - tau_u/tau."""
        return 1.0 - self.tau_u / self.tau

    @cached_property
    def p_fixed(self) -> float:
        """Total consumption independent of the power coefficients, W (summed once)."""
        return float(self.p_cir + np.sum(self.p_cm) + np.sum(self.p_0m))


def noise_power_watts(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise power: 290 K * k_B * bandwidth * noise figure."""
    return NOISE_TEMPERATURE * BOLTZMANN * bandwidth_hz * 10.0 ** (noise_figure_db / 10.0)


def make_power_params(
    m: int,
    bandwidth_hz: float = 20e6,
    p_tx_watts: float = 0.2,
    p_ul_watts: float = 0.1,
    noise_figure_db: float = 9.0,
    tau: int = 200,
    tau_u: int = 16,
    drain_efficiency: float = 0.388,
    p_cir_watts: float = 9.0,
    p_cm_watts: float = 0.2,
    p_0m_watts: float = 0.2,
    p_bt_watts_per_gbps: float = 0.25,
) -> PowerParams:
    """PowerParams from hardware-level constants (powers in watts)."""
    n0 = noise_power_watts(bandwidth_hz, noise_figure_db)
    return PowerParams(
        bandwidth_hz=bandwidth_hz,
        rho_f=p_tx_watts / n0,
        rho_r=p_ul_watts / n0,
        n0_watts=n0,
        tau=tau,
        tau_u=tau_u,
        alpha=np.full(m, 1.0 / drain_efficiency),
        p_cir=p_cir_watts,
        p_cm=np.full(m, p_cm_watts),
        p_0m=np.full(m, p_0m_watts),
        p_btm=np.full(m, p_bt_watts_per_gbps * 1e-9),
    )


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user downlink power-control coefficients."""

    eta: np.ndarray  # (K,), nonnegative


@dataclass(frozen=True)
class QosSpec:
    """Per-user spectral-efficiency floors and the floors derived from them."""

    r_bar: np.ndarray  # (K,), bits/s/Hz
    r_tilde: np.ndarray  # r_bar * tau / (tau - tau_u), the pre-log-free floors
    sinr_floor: np.ndarray  # 2^r_tilde - 1, the minimum SINR

    @classmethod
    def from_floor(cls, r_bar, params: PowerParams) -> "QosSpec":
        r_bar = np.atleast_1d(np.asarray(r_bar, dtype=float))
        if not np.all(np.isfinite(r_bar) & (r_bar >= 0)):
            raise ValueError("QoS floors must be nonnegative")
        r_tilde = r_bar * params.tau / (params.tau - params.tau_u)
        return cls(r_bar=r_bar, r_tilde=r_tilde, sinr_floor=2.0**r_tilde - 1.0)


def per_user_rate(eta: np.ndarray, gamma: np.ndarray, params: PowerParams) -> np.ndarray:
    """Spectral efficiency per user, bits/s/Hz.

    r_k = (1 - tau_u/tau) * log2(1 + rho_f eta_k / (1 + rho_f (gamma @ eta)_k))
    """
    eta = np.asarray(eta, dtype=float)
    denom = 1.0 + params.rho_f * (gamma @ eta)
    return params.prelog * np.log2(1.0 + params.rho_f * eta / denom)


def transmit_power_watts(eta: np.ndarray, theta: np.ndarray, params: PowerParams) -> float:
    """Amplifier power drawn by the APs, sum_m alpha_m rho_f N0 (theta @ eta)_m."""
    return float(params.rho_f * params.n0_watts * params.alpha @ (theta @ np.asarray(eta, float)))


def reduced_power(eta: np.ndarray, theta: np.ndarray, params: PowerParams) -> float:
    """Consumption without the traffic-dependent backhaul term, W."""
    return transmit_power_watts(eta, theta, params) + params.p_fixed


def total_power(eta: np.ndarray, theta: np.ndarray, params: PowerParams, sum_rate_bits_per_s: float) -> float:
    """Full consumption model: fixed + amplifier + traffic-dependent backhaul, W."""
    backhaul_traffic = float(np.sum(params.p_btm)) * sum_rate_bits_per_s
    return reduced_power(eta, theta, params) + backhaul_traffic


def energy_efficiency(eta: np.ndarray, zf: ZfStatistics, params: PowerParams) -> float:
    """Delivered bits per Joule: B * sum_k r_k / total power."""
    throughput = params.bandwidth_hz * float(np.sum(per_user_rate(eta, zf.gamma, params)))
    if throughput == 0.0:
        return 0.0
    return throughput / total_power(eta, zf.theta, params, throughput)


def reduced_energy_efficiency(eta: np.ndarray, zf: ZfStatistics, params: PowerParams) -> float:
    """Throughput over the reduced power. Shares its maximizer with the full ratio.

    1/EE = 1/(this ratio) + sum_m p_btm, so maximizing either is equivalent;
    the solvers optimize this one and report the full ratio.
    """
    throughput = params.bandwidth_hz * float(np.sum(per_user_rate(eta, zf.gamma, params)))
    return throughput / reduced_power(eta, zf.theta, params)


def equal_power_allocation(theta: np.ndarray) -> PowerAllocation:
    """No-power-control baseline: every eta_k = 1 / max_m sum_k theta_mk.

    The per-AP constraint is tight at the most loaded AP by construction.
    """
    row_sums = np.asarray(theta, float).sum(axis=1)
    worst = row_sums.max() if row_sums.size else 0.0
    if worst <= 0:
        raise ValueError("theta has no positive row sum; cannot scale equal powers")
    k = theta.shape[1]
    return PowerAllocation(eta=np.full(k, 1.0 / worst))


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    qos_margin: np.ndarray  # (K,), r_k - r_bar_k
    ap_margin: np.ndarray  # (M,), 1 - (theta @ eta)_m
    violations: list

    def __bool__(self) -> bool:
        return self.feasible


def check_feasibility(
    eta: np.ndarray,
    zf: ZfStatistics,
    params: PowerParams,
    qos: QosSpec,
    tol: float = 1e-9,
) -> FeasibilityReport:
    """Verify QoS floors, per-AP power budgets, and nonnegativity at eta."""
    eta = np.asarray(eta, dtype=float)
    qos_margin = per_user_rate(eta, zf.gamma, params) - qos.r_bar
    ap_margin = 1.0 - zf.theta @ eta
    violations = []
    for k in np.nonzero(qos_margin < -tol)[0]:
        violations.append(f"user {k}: rate short of floor by {-qos_margin[k]:.3e} bits/s/Hz")
    for m in np.nonzero(ap_margin < -tol)[0]:
        violations.append(f"AP {m}: power budget exceeded by {-ap_margin[m]:.3e}")
    if eta.min(initial=0.0) < -tol:
        violations.append(f"negative power coefficient {eta.min():.3e}")
    return FeasibilityReport(
        feasible=not violations,
        qos_margin=qos_margin,
        ap_margin=ap_margin,
        violations=violations,
    )
