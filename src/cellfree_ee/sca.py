"""Path-following solver for the imperfect-CSI energy-efficiency problem.

With estimation error the rate terms couple through the interference
coefficients and the ratio is no longer concave/affine. Working in
square-root power coefficients z (so eta = z^2), the objective

    F(z) = sum_k ln(1 + x_k(z)) / t(z),
    x_k(z) = rho_f z_k^2 / (1 + rho_f (gamma @ z^2)_k),   t(z) = reduced power,

is maximized by iterating concave models that are tight at the current
point. The model combines the tangent bound of ln(1+1/x)/t (convex in x,
t > 0) with the tangent of x^2/t; the leftover convex quadratic in the model
and the difference-of-convex QoS rows are linearized with the same tangent
trick, which keeps every iterate feasible for the original problem.

The model is tight to first order at the expansion point (same value and
gradient) but is not a global minorant of F: the 1/x_k term enters with a
negative sign, so bounding it needs an upper bound on z_j^2/z_k^2, and the
tangent of the quadratic-over-linear z_j^2/t at t = z_k^2 is a lower bound.
A step can therefore lower the true EE. `SolveReport.minorant_violations`
counts the steps whose new point the as-written model overestimates, and
`ascent_violations` the steps that lowered the true EE.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .inner import ConstraintSet, feasible_point, solve_inner
from .power import (
    PowerAllocation,
    PowerParams,
    QosSpec,
    check_feasibility,
    energy_efficiency,
    equal_power_allocation,
    reduced_power,
)
from .reports import (
    STATUS_ASCENT_FLAG,
    STATUS_CONVERGED,
    STATUS_INFEASIBLE,
    STATUS_MAX_ITER,
    SolveReport,
)
from .zfstats import ZfStatistics

# Interior floor on the square-root coefficients, relative to the equal-power
# scale: the 1/z^2 model terms are rebuilt each iteration and blow up at zero.
SCA_FLOOR = 1e-6
# Relative change of the true EE at which the iteration stops.
EE_TOL = 1e-6
# KKT tolerance of each model solve, in the scaled units.
INNER_TOL = 1e-6
MAX_OUTER_ITERS = 50
# Weight of the feasible_point start in a warm start: any positive weight
# keeps the blend strictly inside every row that the warm point satisfies.
WARM_BLEND = 1e-3
_MINORANT_TOL = 1e-9
_ASCENT_TOL = 1e-8


@dataclass(frozen=True)
class Surrogate:
    """Concave-model coefficients expanded at one feasible point."""

    expansion: np.ndarray  # (K,), square-root coefficients z_bar
    a: np.ndarray  # (K,), all positive
    b: np.ndarray
    c: np.ndarray
    x_n: np.ndarray  # (K,), SINR values at the expansion point
    t_n: float  # reduced power at the expansion point, W


def _floor_z(theta: np.ndarray) -> float:
    eta_scale = float(equal_power_allocation(theta).eta[0])
    return SCA_FLOOR * np.sqrt(eta_scale)


def fractional_objective(z: np.ndarray, zf: ZfStatistics, params: PowerParams) -> float:
    """F(z): sum of natural-log rates over the reduced power, 1/(W s)-scale."""
    z = np.asarray(z, dtype=float)
    u = z * z
    sinr = params.rho_f * u / (1.0 + params.rho_f * (zf.gamma @ u))
    return float(np.sum(np.log1p(sinr))) / reduced_power(u, zf.theta, params)


def build_surrogate(z_bar: np.ndarray, zf: ZfStatistics, params: PowerParams) -> Surrogate:
    """Expand the model at z_bar (strictly positive, feasible); tight there to first order."""
    z_bar = np.asarray(z_bar, dtype=float)
    floor = _floor_z(zf.theta)
    if np.any(z_bar < floor * (1.0 - 1e-9)):
        raise ValueError(f"expansion point below the interior floor {floor:.3e}")
    u_bar = z_bar * z_bar
    x_n = params.rho_f * u_bar / (1.0 + params.rho_f * (zf.gamma @ u_bar))
    t_n = reduced_power(u_bar, zf.theta, params)
    log_term = np.log1p(x_n)
    a = 2.0 * log_term / t_n + x_n / (t_n * (x_n + 1.0))
    b = x_n**2 / (t_n * (x_n + 1.0))
    c = log_term / t_n**2
    if not (np.all(a > 0) and np.all(b > 0) and np.all(c > 0)):
        raise ValueError("surrogate coefficients must be positive; expansion point too close to zero power")
    return Surrogate(expansion=z_bar, a=a, b=b, c=c, x_n=x_n, t_n=float(t_n))


def surrogate_value(surr: Surrogate, z: np.ndarray, zf: ZfStatistics, params: PowerParams) -> float:
    """The model F^(n)(z) as constructed, cross terms included (not a global minorant of F)."""
    z = np.asarray(z, dtype=float)
    u = z * z
    z_bar = surr.expansion
    u_bar = z_bar * z_bar
    t = reduced_power(u, zf.theta, params)
    cross_lin = 2.0 * (zf.gamma @ (z_bar * z)) / u_bar
    cross_quad = (zf.gamma @ u_bar) * u / u_bar**2
    per_user = (
        surr.a
        - surr.b / (params.rho_f * u)
        - surr.b * cross_lin
        + surr.b * cross_quad
        - surr.c * t
    )
    return float(np.sum(per_user))


def concave_model(surr: Surrogate, zf: ZfStatistics, params: PowerParams):
    """Value/gradient/Hessian closures of the concavified model in z units.

    The positively-signed quadratic left in the model (from the x^2/t bound)
    is replaced by its tangent 2 z_bar z - z_bar^2, which lower-bounds it,
    preserves tightness at the expansion point, and makes the model concave.
    """
    z_bar = surr.expansion
    u_bar = z_bar * z_bar
    rho_f = params.rho_f
    q = surr.b * (zf.gamma @ u_bar) / u_bar**2
    # Linear coefficient on z_j collected over all users' cross terms.
    lin = -2.0 * z_bar * (zf.gamma.T @ (surr.b / u_bar)) + 2.0 * q * z_bar
    c_total = float(np.sum(surr.c))
    w = rho_f * params.n0_watts * (params.alpha @ zf.theta)  # t(z) = w . z^2 + p_fixed
    const = float(np.sum(surr.a) - np.sum(q * u_bar) - c_total * params.p_fixed)

    def value(z):
        return (
            const
            - float(np.sum(surr.b / (rho_f * z * z)))
            + float(lin @ z)
            - c_total * float(w @ (z * z))
        )

    def gradient(z):
        return 2.0 * surr.b / (rho_f * z**3) + lin - 2.0 * c_total * w * z

    def hessian(z):
        return np.diag(-6.0 * surr.b / (rho_f * z**4) - 2.0 * c_total * w)

    return value, gradient, hessian


def sca_step(
    surr: Surrogate,
    zf: ZfStatistics,
    params: PowerParams,
    qos: QosSpec,
) -> tuple:
    """Maximize the concavified model over the convexified constraint set.

    QoS rows are difference-of-convex in z; their signal side rho_f z_k^2 is
    replaced by the tangent rho_f (2 z_bar_k z_k - z_bar_k^2), so any point of
    the model's feasible set satisfies the original constraints. Per-AP rows
    are convex and kept exact. Returns (z_new, KktReport); the expansion point
    is returned unchanged when it is already optimal for its own model.
    """
    theta = zf.theta
    k = theta.shape[1]
    eta_scale = float(equal_power_allocation(theta).eta[0])
    z_scale = np.sqrt(eta_scale)
    rho_hat = params.rho_f * eta_scale
    v_bar = surr.expansion / z_scale
    sinr_floor = qos.sinr_floor

    # Rows: linearized QoS, per-AP load, and the interior floor v >= SCA_FLOOR.
    n_aps = theta.shape[0]
    constraints = ConstraintSet(
        np.vstack([sinr_floor[:, None] * rho_hat * zf.gamma, theta * eta_scale, np.zeros((k, k))]),
        np.vstack([np.diag(-2.0 * rho_hat * v_bar), np.zeros((n_aps, k)), -np.eye(k)]),
        np.concatenate([-sinr_floor - rho_hat * v_bar**2, np.ones(n_aps), np.full(k, -SCA_FLOOR)]),
    )

    value_z, grad_z, hess_z = concave_model(surr, zf, params)

    def value(v):
        return value_z(z_scale * v)

    objective = (
        value,
        lambda v: z_scale * grad_z(z_scale * v),
        lambda v: z_scale**2 * hess_z(z_scale * v),
    )

    v_new, report = solve_inner(objective, constraints, v_bar, tol=INNER_TOL)
    if value(v_new) <= value(v_bar) + 1e-12 * max(1.0, abs(value(v_bar))):
        return surr.expansion, report
    return z_scale * v_new, report


def solve_ipce(zf: ZfStatistics, params: PowerParams, qos: QosSpec, warm=None):
    """Power control under imperfect CSI by successive concave models.

    Starts from the interior point of feasible_point, iterates build_surrogate
    and sca_step until the true energy efficiency stabilizes, and returns the
    best-EE iterate with the full trajectory. The status is `converged` only
    when the EE change closed and the last model solve converged, `max-iter`
    otherwise. A step that decreases the true EE (beyond relative 1e-8) is
    recorded and flags the report status instead; steps where the model
    overestimates the true objective are counted as minorant violations.

    warm, optional, is a power-coefficient vector to start next to, such as
    the optimum at a smaller per-AP power cap scaled by the ratio of the caps
    (which keeps every SINR and lowers every AP load). feasible_point still
    runs first, so an infeasible problem is still reported as such. When warm
    satisfies every QoS and per-AP row, the start is the blend
    (1 - WARM_BLEND) warm + WARM_BLEND feasible_point, which is strictly
    inside; otherwise (say, floors that rose with the cap) the cold start is
    used.

    Returns (PowerAllocation or None, SolveReport).
    """
    t0 = time.perf_counter()
    report = SolveReport()

    start = feasible_point(zf, params, qos)
    if start is None:
        report.status = STATUS_INFEASIBLE
        report.wall_time_s = time.perf_counter() - t0
        return None, report
    eta0 = start.eta
    if warm is not None and check_feasibility(warm, zf, params, qos, tol=0.0).feasible:
        eta0 = (1.0 - WARM_BLEND) * warm + WARM_BLEND * start.eta

    floor = _floor_z(zf.theta)
    z = np.maximum(np.sqrt(eta0), 1.5 * floor)
    ee = energy_efficiency(z * z, zf, params)
    report.ee_trajectory.append(ee)
    report.iterates.append(z * z)
    best_z, best_ee = z, ee

    status = STATUS_MAX_ITER
    for _ in range(MAX_OUTER_ITERS):
        surr = build_surrogate(z, zf, params)
        z_new, kkt = sca_step(surr, zf, params, qos)
        report.inner_reports.append(kkt)
        report.outer_iterations += 1

        truth = fractional_objective(z_new, zf, params)
        if surrogate_value(surr, z_new, zf, params) > truth + _MINORANT_TOL * max(1.0, abs(truth)):
            report.minorant_violations += 1

        ee_new = energy_efficiency(z_new * z_new, zf, params)
        report.ee_trajectory.append(ee_new)
        report.iterates.append(z_new * z_new)
        if ee_new < ee * (1.0 - _ASCENT_TOL):
            report.ascent_violations += 1
        if ee_new > best_ee:
            best_z, best_ee = z_new, ee_new

        if z_new is surr.expansion or abs(ee_new - ee) <= EE_TOL * max(abs(ee), 1e-30):
            status = STATUS_CONVERGED if kkt.status == STATUS_CONVERGED else STATUS_MAX_ITER
            z = z_new
            break
        z, ee = z_new, ee_new

    if report.ascent_violations > 0:
        status = STATUS_ASCENT_FLAG
    report.status = status
    report.wall_time_s = time.perf_counter() - t0
    return PowerAllocation(eta=best_z * best_z), report
