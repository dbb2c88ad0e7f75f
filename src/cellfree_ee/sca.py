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
A step can therefore overshoot; since the model's gradient matches F's at
the expansion point, the step is still an ascent direction, and solve_ipce
halves it along its segment until F does not fall (`SolveReport.backtracks`
counts the halvings). The full EE increases with F, so it never falls
either. `SolveReport.minorant_violations` counts the steps whose new point
the as-written model overestimates.

Each model solve runs in v = z / z_scale, with the model divided by
min(1, F(z_bar)), so the inner solver's tolerance is relative to F wherever
F < 1 and stays the absolute one (which is then tighter) elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inner import ConstraintSet, feasible_point, solve_inner
from .power import (
    PowerAllocation,
    PowerParams,
    QosSpec,
    energy_efficiency,
    equal_power_allocation,
    reduced_power,
)
from .reports import STATUS_CONVERGED, STATUS_INFEASIBLE, STATUS_MAX_ITER, SolveReport
from .zfstats import ZfStatistics

# Interior floor on the square-root coefficients, relative to the equal-power
# scale: the 1/z^2 model terms are rebuilt each iteration and blow up at zero.
SCA_FLOOR = 1e-6
# Relative change of the true EE at which the iteration stops.
EE_TOL = 1e-6
MAX_OUTER_ITERS = 50
# Halvings of a step that lowered F before the iterate stays where it was.
MAX_HALVINGS = 30
# Weight of the feasible_point start in a warm start: the start is strictly
# inside and the point it is blended with is on every row, so any positive
# weight keeps the blend strictly inside.
WARM_BLEND = 1e-3
_MINORANT_TOL = 1e-9


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


def concave_model(
    surr: Surrogate,
    zf: ZfStatistics,
    params: PowerParams,
    z_scale: float = 1.0,
    f_scale: float = 1.0,
):
    """Value/gradient/Hessian-diagonal closures of the concavified model.

    The closures take v = z / z_scale and return f_scale times the model and
    its derivatives in v; the defaults give the model itself in z units. The
    model is separable in z, so the Hessian is returned as its diagonal. Its
    coefficients are computed once here, so a call costs a few array
    operations.

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
    # With z = z_scale v the model reads const - b / (rho_f z_scale^2) . v^-2
    # + z_scale lin . v - c_total z_scale^2 w . v^2; every coefficient carries f_scale.
    recip = f_scale * surr.b / (rho_f * z_scale**2)
    lin_v = f_scale * z_scale * lin
    quad_v = f_scale * c_total * z_scale**2 * w
    const_v = f_scale * const
    recip_2, recip_6, quad_2 = 2.0 * recip, -6.0 * recip, 2.0 * quad_v

    def value(v):
        v2 = v * v
        return const_v - float((recip / v2).sum()) + float(lin_v @ v) - float(quad_v @ v2)

    def gradient(v):
        return recip_2 / v**3 + lin_v - quad_2 * v

    def hessian(v):
        return recip_6 / v**4 - quad_2

    return value, gradient, hessian


def sca_step(surr: Surrogate, zf: ZfStatistics, params: PowerParams, qos: QosSpec) -> tuple:
    """Maximize the concavified model over the convexified constraint set.

    QoS rows are difference-of-convex in z; their signal side rho_f z_k^2 is
    replaced by the tangent rho_f (2 z_bar_k z_k - z_bar_k^2), so any point of
    the model's feasible set satisfies the original constraints. Per-AP rows
    are convex and kept exact. The model is handed to solve_inner in
    v = z / z_scale, z_scale^2 the equal-power coefficient, and divided by
    min(1, F(z_bar)), F(z_bar) being the model's value at its expansion
    point: inner.TOL is then relative to F when F < 1, and the absolute
    tolerance, which is the tighter one, when F >= 1. The rows are built here
    from the expansion point, in the order: the K linearized QoS rows, the
    per-AP loads and the interior floor v >= SCA_FLOOR.
    Returns (z_new, KktReport).
    """
    theta = zf.theta
    n_aps, k = theta.shape
    eta_scale = float(equal_power_allocation(theta).eta[0])
    z_scale, rho_hat = float(np.sqrt(eta_scale)), params.rho_f * eta_scale
    v_bar = surr.expansion / z_scale
    constraints = ConstraintSet(
        np.vstack([qos.sinr_floor[:, None] * rho_hat * zf.gamma, theta * eta_scale, np.zeros((k, k))]),
        np.vstack([np.diag(-2.0 * rho_hat * v_bar), np.zeros((n_aps, k)), -np.eye(k)]),
        np.concatenate([-qos.sinr_floor - rho_hat * v_bar**2, np.ones(n_aps), np.full(k, -SCA_FLOOR)]),
    )

    # The model is tight at its expansion point, so its value there is F(z_bar) > 0.
    f_bar = float(np.log1p(surr.x_n).sum()) / surr.t_n
    objective = concave_model(surr, zf, params, z_scale=z_scale, f_scale=1.0 / min(1.0, f_bar))
    v_new, report = solve_inner(objective, constraints, v_bar)
    return z_scale * v_new, report


def solve_ipce(zf: ZfStatistics, params: PowerParams, qos: QosSpec, warm=None):
    """Power control under imperfect CSI by successive concave models.

    Starts from the interior point of feasible_point, iterates build_surrogate
    and sca_step until the true energy efficiency stabilizes, and returns the
    last iterate with the full trajectory. When the model's maximizer lowers
    F, the step is halved along the segment from the current point, which
    stays in the convex model set, until F does not fall; after
    MAX_HALVINGS halvings the iterate stays where it was, so the EE change is
    0 and the iteration ends. F never falls, so neither does the EE and the
    last iterate is the best. The status is `converged` only when the EE
    change closed and the last model solve converged, `max-iter` otherwise.
    Steps where the model overestimates the true objective are counted as
    minorant violations.

    warm, optional, is a power-coefficient vector to start next to, such as
    the optimum at another per-AP power cap scaled by the ratio of the caps
    (which keeps every SINR and scales every AP load by that ratio, so a
    larger previous cap can overload an AP). feasible_point still
    runs first, so an infeasible problem is still reported as such, and a
    start it reports as the only feasible point (not interior) is returned
    as `converged` after 0 iterations. With s
    the feasible_point start and t in [0, 1] the largest step from s towards
    warm that stays on every QoS, per-AP and sign row, the start is
    (1 - WARM_BLEND) (t warm + (1 - t) s) + WARM_BLEND s, which is strictly
    inside. When warm meets every row, t = 1 and the start is the blend
    (1 - WARM_BLEND) warm + WARM_BLEND s; when warm misses a floor or
    overloads an AP, the step stops where the first row binds. Without warm
    the start is s.

    Returns (PowerAllocation or None, SolveReport).
    """
    report = SolveReport()

    start, interior = feasible_point(zf, params, qos)
    if start is None:
        report.status = STATUS_INFEASIBLE
        return None, report
    s = eta0 = start.eta
    if not interior:
        # The start is the only feasible point, so the optimum.
        report.status = STATUS_CONVERGED
        report.ee_trajectory.append(energy_efficiency(s, zf, params))
        report.iterates.append(s)
        return start, report
    if warm is not None:
        # t: the largest step from s towards warm on every row. In eta each
        # row is linear: rho_f (f_k (gamma eta)_k - eta_k) <= -f_k, theta
        # eta <= 1 and -eta <= 0, so t is one ratio test.
        f, k = qos.sinr_floor, s.size
        rows = np.vstack([params.rho_f * (f[:, None] * zf.gamma - np.eye(k)), zf.theta, -np.eye(k)])
        slack = np.concatenate([-f, np.ones(zf.n_aps), np.zeros(k)]) - rows @ s
        rate = rows @ (warm - s)
        t = float(np.clip(np.min(slack[rate > 0.0] / rate[rate > 0.0], initial=1.0), 0.0, 1.0))
        eta0 = (1.0 - WARM_BLEND) * (t * warm + (1.0 - t) * s) + WARM_BLEND * s

    floor = _floor_z(zf.theta)
    z = np.maximum(np.sqrt(eta0), 1.5 * floor)
    f = fractional_objective(z, zf, params)
    ee = energy_efficiency(z * z, zf, params)
    report.ee_trajectory.append(ee)
    report.iterates.append(z * z)

    status = STATUS_MAX_ITER
    for _ in range(MAX_OUTER_ITERS):
        surr = build_surrogate(z, zf, params)
        z_new, kkt = sca_step(surr, zf, params, qos)
        report.inner_reports.append(kkt)

        truth = fractional_objective(z_new, zf, params)
        if surrogate_value(surr, z_new, zf, params) > truth + _MINORANT_TOL * max(1.0, abs(truth)):
            report.minorant_violations += 1
        # The model is tight to first order at z, so z_new - z is an ascent
        # direction of F; both ends lie in the convex model set, so the whole
        # segment is feasible. Halve the step until F does not fall.
        step = z_new - z
        halvings = 0
        while truth < f and halvings < MAX_HALVINGS:
            halvings += 1
            z_new = z + 0.5**halvings * step
            truth = fractional_objective(z_new, zf, params)
        report.backtracks += halvings
        if truth < f:
            z_new, truth = surr.expansion, f

        ee_new = energy_efficiency(z_new * z_new, zf, params)
        report.ee_trajectory.append(ee_new)
        report.iterates.append(z_new * z_new)
        if abs(ee_new - ee) <= EE_TOL * max(abs(ee), 1e-30):
            status = STATUS_CONVERGED if kkt.status == STATUS_CONVERGED else STATUS_MAX_ITER
            break
        z, ee, f = z_new, ee_new, truth

    report.status = status
    return PowerAllocation(eta=report.iterates[-1]), report
