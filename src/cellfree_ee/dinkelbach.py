"""Parametric fractional programming for the perfect-channel-estimation case.

With exact estimates the interference coupling vanishes, the per-user rates
decouple, and the energy-efficiency ratio has a concave numerator over an
affine denominator. Dinkelbach's method then solves a short sequence of
concave programs: maximize numerator - lambda * denominator, update lambda to
the achieved ratio, and stop when the parametric gap closes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .inner import ConstraintSet, NonConcaveObjectiveError, _minimal_power_start, solve_inner
from .power import (
    PowerAllocation,
    PowerParams,
    QosSpec,
    energy_efficiency,
    equal_power_allocation,
    reduced_energy_efficiency,
    spectral_efficiency,
)
from .reports import STATUS_CONVERGED, STATUS_INFEASIBLE, STATUS_MAX_ITER, SolveReport
from .zfstats import ZfStatistics

# Relative parametric gap at which the Dinkelbach iteration stops.
GAP_TOL = 1e-6
MAX_OUTER_ITERS = 50


def solve_pce(zf: ZfStatistics, params: PowerParams, qos: QosSpec):
    """Energy-efficiency-optimal power control under perfect channel estimation.

    The interference coefficients are forced to zero (the estimation-error
    term disappears with perfect CSI); the per-AP budget keeps its usual
    linear form. The Dinkelbach denominator is the reduced power (no
    traffic-dependent backhaul term): that term only adds a constant to the
    reciprocal ratio, so the maximizer is the full ratio's. The reported
    energy efficiency always uses the full model.

    Without interference each Dinkelbach subproblem is separable up to the
    per-AP rows, so its optimum over the QoS floors is a clipped water level.
    When that point leaves every per-AP row slack it is the exact subproblem
    optimum (every per-AP multiplier is zero); otherwise the step falls back
    to the interior-point solver. The status is `converged` only when the
    parametric gap closed and the last step's subproblem was solved to
    tolerance. A start that _minimal_power_start reports as the only feasible
    point (not interior) is returned as `converged` after 0 iterations.

    Returns (PowerAllocation or None, SolveReport).
    """
    zf0 = dataclasses.replace(zf, gamma=np.zeros_like(zf.gamma))
    report = SolveReport()

    theta = zf.theta
    k = theta.shape[1]
    eta_scale = float(equal_power_allocation(theta).eta[0])
    theta_hat = theta * eta_scale
    rho_hat = params.rho_f * eta_scale
    # QoS floors are simple lower bounds once the interference term is gone,
    # so the problem is feasible iff the floors alone leave every AP slack.
    lower = np.maximum(qos.sinr_floor / rho_hat, 1e-12)
    start, interior = _minimal_power_start(theta_hat, np.zeros((k, k)), lower)
    if start is None:
        report.status = STATUS_INFEASIBLE
        return None, report

    prelog = params.prelog
    bandwidth = params.bandwidth_hz
    p_fixed = params.p_fixed
    # Affine denominator in the scaled variable: d_hat . v + p_fixed (watts).
    d_hat = params.rho_f * params.n0_watts * (params.alpha @ theta) * eta_scale
    ln2 = np.log(2.0)

    def sum_rate(v):
        """Sum spectral efficiency at v, bits/s/Hz."""
        return prelog * float(np.sum(spectral_efficiency(rho_hat * v)))

    def denominator(v):
        return float(d_hat @ v) + p_fixed

    def subproblem(lam_hat, f_scale):
        """The parametric objective times f_scale, with its gradient and Hessian diagonal."""

        def value(x):
            return f_scale * (sum_rate(x) - lam_hat * denominator(x))

        def gradient(x):
            return f_scale * (prelog * rho_hat / ((1.0 + rho_hat * x) * ln2) - lam_hat * d_hat)

        def hessian(x):
            diag = f_scale * (-prelog * rho_hat**2 / ((1.0 + rho_hat * x) ** 2 * ln2))
            if not np.all(diag < 0.0):
                raise NonConcaveObjectiveError("parametric objective lost concavity")
            return diag

        return value, gradient, hessian

    v = start
    lam = reduced_energy_efficiency(eta_scale * v, zf0, params)
    report.lambdas.append(lam)
    report.ee_trajectory.append(energy_efficiency(eta_scale * v, zf0, params))
    report.iterates.append(eta_scale * v)
    if not interior:
        # The start is the only feasible point, so the optimum.
        report.status = STATUS_CONVERGED
        return PowerAllocation(eta=eta_scale * v), report

    status = STATUS_MAX_ITER
    for _ in range(MAX_OUTER_ITERS):
        # Subproblem objective, scaled by 1/bandwidth to stay order one.
        lam_hat = lam / bandwidth
        water = _water_level(prelog, lam_hat * d_hat, rho_hat, lower)
        if np.max(theta_hat @ water) < 1.0:
            v = water
            step_solved = True
        else:
            # Rows: per-AP load and the QoS floors v >= lower.
            constraints = ConstraintSet(
                np.zeros((theta.shape[0] + k, k)),
                np.vstack([theta_hat, -np.eye(k)]),
                np.concatenate([np.ones(theta.shape[0]), -lower]),
            )
            # Each fallback starts from the interior point, not from the previous
            # optimum next to a binding row; that iterate (value 0 here) is kept
            # when the solve, exact only to tolerance, ends below it. Dividing
            # by min(1, sum rate at v) makes inner.TOL relative to the rate
            # where the rate is below one, as sca_step does with F.
            objective = subproblem(lam_hat, 1.0 / min(1.0, sum_rate(v)))
            v_new, kkt = solve_inner(objective, constraints, start)
            if objective[0](v_new) >= objective[0](v):
                v = v_new
            report.inner_reports.append(kkt)
            step_solved = kkt.status == STATUS_CONVERGED
        report.ee_trajectory.append(energy_efficiency(eta_scale * v, zf0, params))
        report.iterates.append(eta_scale * v)

        numer = bandwidth * sum_rate(v)
        denom = denominator(v)
        gap = numer - lam * denom
        lam_prev = lam
        lam = numer / denom
        report.lambdas.append(lam)
        # Relative parametric gap: |N - lam D| <= tol * lam * D, i.e. the
        # ratio moved by less than tol relative.
        if abs(gap) <= GAP_TOL * max(lam_prev, lam) * denom:
            status = STATUS_CONVERGED if step_solved else STATUS_MAX_ITER
            break

    report.status = status
    return PowerAllocation(eta=eta_scale * v), report


def _water_level(weight: float, cost: np.ndarray, rho_hat: float, lower: np.ndarray) -> np.ndarray:
    """Maximizer of sum_k weight * log2(1 + rho_hat v_k) - cost_k v_k over v >= lower.

    Each term is concave in its own v_k, so the stationary point
    weight / (ln2 cost_k) - 1/rho_hat clipped at the floor is the optimum.
    """
    return np.maximum(lower, weight / (np.log(2.0) * cost) - 1.0 / rho_hat)
