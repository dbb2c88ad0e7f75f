"""Parametric fractional programming for the perfect-channel-estimation case.

With exact estimates the interference coupling vanishes, the per-user rates
decouple, and the energy-efficiency ratio has a concave numerator over an
affine denominator. Dinkelbach's method then solves a short sequence of
concave programs: maximize numerator - lambda * denominator, update lambda to
the achieved ratio, and stop when the parametric gap closes.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from .inner import ConstraintSet, NonConcaveObjectiveError, feasible_point, solve_inner
from .power import (
    PowerAllocation,
    PowerParams,
    QosSpec,
    energy_efficiency,
    equal_power_allocation,
    reduced_energy_efficiency,
)
from .reports import STATUS_CONVERGED, STATUS_INFEASIBLE, STATUS_MAX_ITER, SolveReport
from .zfstats import ZfStatistics

DEFAULT_GAP_TOL = 1e-6
MAX_OUTER_ITERS = 50


def solve_pce(
    zf: ZfStatistics,
    params: PowerParams,
    qos: QosSpec,
    gap_tol: float = DEFAULT_GAP_TOL,
    inner_tol: float = 1e-6,
    use_full_power: bool = False,
):
    """Energy-efficiency-optimal power control under perfect channel estimation.

    The interference coefficients are forced to zero (the estimation-error
    term disappears with perfect CSI); the per-AP budget keeps its usual
    linear form. By default the Dinkelbach denominator is the reduced power
    (no traffic-dependent backhaul term), whose maximizer coincides with the
    full ratio's; set use_full_power=True to iterate on the full consumption
    model instead. The reported energy efficiency always uses the full model.

    Returns (PowerAllocation or None, SolveReport).
    """
    t0 = time.perf_counter()
    zf0 = dataclasses.replace(zf, gamma=np.zeros_like(zf.gamma))
    report = SolveReport()

    start = feasible_point(zf0, params, qos)
    if start is None:
        report.status = STATUS_INFEASIBLE
        report.wall_time_s = time.perf_counter() - t0
        return None, report

    theta = zf.theta
    k = theta.shape[1]
    eta_scale = float(equal_power_allocation(theta).eta[0])
    rho_hat = params.rho_f * eta_scale
    prelog = params.prelog
    bandwidth = params.bandwidth_hz
    # Affine denominator in the scaled variable: d_hat . v + p_fixed (watts).
    d_hat = params.rho_f * params.n0_watts * (params.alpha @ theta) * eta_scale
    p_bt_sum = float(np.sum(params.p_btm))

    constraints = ConstraintSet(k)
    for row in theta * eta_scale:
        constraints.add_linear(row, 1.0)
    # QoS lower bounds are linear once the interference term is gone.
    lower = np.maximum(qos.sinr_floor / rho_hat, 1e-12)
    constraints.add_lower_bounds(lower)

    def sum_rate(v):
        """Sum spectral efficiency at v, bits/s/Hz."""
        return prelog * float(np.sum(np.log2(1.0 + rho_hat * v)))

    def denominator(v):
        return float(d_hat @ v) + params.p_fixed

    v = start.eta / eta_scale
    lam = reduced_energy_efficiency(start.eta, zf0, params)
    if use_full_power:
        lam = energy_efficiency(start.eta, zf0, params)
    report.lambdas.append(lam)
    report.ee_trajectory.append(energy_efficiency(start.eta, zf0, params))
    report.iterates.append(start.eta)

    status = STATUS_MAX_ITER
    ln2 = np.log(2.0)
    for _ in range(MAX_OUTER_ITERS):
        # Subproblem objective, scaled by 1/bandwidth to stay order one.
        rate_coeff = 1.0 - lam * p_bt_sum if use_full_power else 1.0
        lam_hat = lam / bandwidth

        def value(x):
            return rate_coeff * sum_rate(x) - lam_hat * denominator(x)

        def gradient(x):
            return rate_coeff * prelog * rho_hat / ((1.0 + rho_hat * x) * ln2) - lam_hat * d_hat

        def hessian(x):
            diag = -rate_coeff * prelog * rho_hat**2 / ((1.0 + rho_hat * x) ** 2 * ln2)
            if not np.all(diag < 0.0):
                raise NonConcaveObjectiveError("parametric objective lost concavity")
            return np.diag(diag)

        # zero-clipped coordinates sit just below the interior floor; lift them
        warm = np.maximum(v, lower + 1e-12)
        v, kkt = solve_inner((value, gradient, hessian), constraints, warm, tol=inner_tol)
        report.inner_reports.append(kkt)
        report.outer_iterations += 1
        report.ee_trajectory.append(energy_efficiency(eta_scale * v, zf0, params))
        report.iterates.append(eta_scale * v)

        numer = bandwidth * sum_rate(v)
        denom = denominator(v)
        if use_full_power:
            denom += p_bt_sum * numer
        gap = numer - lam * denom
        lam_prev = lam
        lam = numer / denom
        report.lambdas.append(lam)
        # Relative parametric gap: |N - lam D| <= tol * lam * D, i.e. the
        # ratio moved by less than tol relative.
        if abs(gap) <= gap_tol * max(lam_prev, lam) * denom:
            status = STATUS_CONVERGED
            break

    report.status = status
    report.wall_time_s = time.perf_counter() - t0
    return PowerAllocation(eta=eta_scale * v), report
