"""Small dense concave maximization under linear and convex quadratic rows.

A logarithmic-barrier interior method with damped Newton steps: maximize
t*f(x) + sum_i log(-g_i(x)) for an increasing barrier parameter t, where every
constraint row is g_i(x) = q_i . x^2 + a_i . x - b_i <= 0 with q_i >= 0
elementwise. Problem sizes here are tiny (tens of variables), so Hessians are
formed densely and factored directly.

Callers are expected to scale variables and objective to order one; the
tolerances below are absolute in that scaling.
"""

from __future__ import annotations

import numpy as np

from .power import PowerAllocation, PowerParams, QosSpec, equal_power_allocation
from .reports import STATUS_CONVERGED, STATUS_MAX_ITER, KktReport
from .zfstats import ZfStatistics

DEFAULT_TOL = 1e-6
# Entries of the solution this close to zero are reported as exact zeros.
ZERO_CLIP = 1e-8
# Barrier parameter growth per stage.
BARRIER_GROWTH = 10.0
_STAGE_DECREMENT = 1e-4  # Newton decrement^2 / 2 target for interior stages
_MAX_STAGE_ITERS = 200
_MAX_TOTAL_ITERS = 5000
_ARMIJO_SLOPE = 0.25
_BACKTRACK = 0.5


class InfeasibleStartError(ValueError):
    """The supplied start point is not strictly inside the constraint set."""


class NonConcaveObjectiveError(RuntimeError):
    """Positive curvature of the objective detected along a Newton step."""


class ConstraintSet:
    """Rows quad[i] . x^2 + lin[i] . x <= bound[i], from stacked (rows, n) arrays."""

    def __init__(self, quad, lin, bound):
        self.quad = np.asarray(quad, dtype=float)
        self.lin = np.asarray(lin, dtype=float)
        self.bound = np.asarray(bound, dtype=float)
        if self.quad.ndim != 2 or self.lin.shape != self.quad.shape or self.bound.shape != self.quad.shape[:1]:
            raise ValueError("quad and lin must be (rows, n_vars) and bound (rows,)")
        bad = np.flatnonzero(np.any(self.quad < 0, axis=1))
        if bad.size:
            raise ValueError(f"row {bad[0]}: negative quadratic coefficient makes the row non-convex")

    def __len__(self) -> int:
        return self.bound.size

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """g(x) per row; feasible points give nonpositive values."""
        return self.quad @ (x * x) + self.lin @ x - self.bound

    def row_grads(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * self.quad * x[None, :] + self.lin


def solve_inner(
    objective,
    constraints: ConstraintSet,
    start: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> tuple:
    """Maximize a smooth concave objective over the constraint set.

    Parameters
    ----------
    objective : (value, gradient, hessian) callables of x
    constraints : ConstraintSet
    start : strictly feasible point (every row slack positive)
    tol : absolute KKT tolerance on stationarity and the duality-gap proxy

    Returns (x, KktReport). Raises InfeasibleStartError for a bad start and
    NonConcaveObjectiveError if the objective shows positive curvature along
    a step.
    """
    value, gradient, hessian = objective
    x = np.asarray(start, dtype=float).copy()
    m = len(constraints)
    if m == 0:
        raise ValueError("constraint set is empty; the barrier needs at least one row")
    if np.min(-constraints.residuals(x)) <= 0.0:
        worst = float(np.max(constraints.residuals(x)))
        raise InfeasibleStartError(f"start violates a constraint by {worst:.3e}")

    t = 1.0
    t_final = m / tol
    total_iters = 0
    f_start = value(x)

    while True:
        final_stage = t >= t_final
        x, iters = _newton_stage(
            value, gradient, hessian, constraints, x, t,
            tol if final_stage else None,
        )
        total_iters += iters
        if final_stage or total_iters > _MAX_TOTAL_ITERS:
            break
        t = min(t * BARRIER_GROWTH, t_final)

    report = _kkt_report(value, gradient, constraints, x, t, tol, total_iters)
    if report.status == STATUS_CONVERGED and value(x) < f_start - tol * max(1.0, abs(f_start)):
        # A converged barrier path cannot end materially below a feasible start.
        raise NonConcaveObjectiveError("objective decreased along the barrier path; check concavity")
    return _clip_zeros(x, constraints), report


def _newton_stage(value, gradient, hessian, constraints, x, t, stationarity_tol):
    """Damped Newton on the barrier objective at fixed t.

    Interior stages stop in the quadratic-convergence zone; the final stage
    (stationarity_tol set) iterates until the measured KKT stationarity of the
    original problem is within tolerance.
    """
    for it in range(_MAX_STAGE_ITERS):
        s = -constraints.residuals(x)
        inv_s = 1.0 / s
        rows = constraints.row_grads(x)
        grad_phi = t * gradient(x) - rows.T @ inv_s
        if stationarity_tol is not None and np.max(np.abs(grad_phi)) / t <= stationarity_tol:
            return x, it
        hess_obj = hessian(x)
        hess_phi = t * hess_obj
        hess_phi = hess_phi - np.diag(2.0 * (constraints.quad.T @ inv_s))
        hess_phi -= (rows * (inv_s**2)[:, None]).T @ rows

        step = _solve_newton(hess_phi, grad_phi)
        curv = float(step @ hess_obj @ step)
        if curv > 1e-8 * float(step @ step) * max(1.0, abs(value(x))):
            raise NonConcaveObjectiveError(
                f"objective curvature {curv:.3e} > 0 along the Newton step"
            )
        decrement = float(grad_phi @ step)
        if stationarity_tol is None and decrement / 2.0 <= _STAGE_DECREMENT:
            return x, it
        if decrement <= 0.0 or not np.isfinite(decrement):
            return x, it

        x_new = _line_search(value, constraints, x, step, t, decrement)
        if x_new is None:
            return x, it + 1
        x = x_new
    return x, _MAX_STAGE_ITERS


def _barrier_value(value, constraints, x, t):
    s = -constraints.residuals(x)
    if np.min(s) <= 0.0:
        return -np.inf
    return t * value(x) + float(np.sum(np.log(s)))


def _line_search(value, constraints, x, step, t, decrement):
    phi0 = _barrier_value(value, constraints, x, t)
    alpha = 1.0
    for _ in range(60):
        x_new = x + alpha * step
        phi = _barrier_value(value, constraints, x_new, t)
        if np.isfinite(phi) and phi >= phi0 + _ARMIJO_SLOPE * alpha * decrement:
            return x_new
        alpha *= _BACKTRACK
    return None


def _solve_newton(hess_phi, grad_phi):
    """Solve (-H) d = grad for the ascent direction, with a ridge fallback."""
    neg_h = -hess_phi
    ridge = 0.0
    scale = max(float(np.trace(neg_h)) / neg_h.shape[0], 1e-12)
    for _ in range(12):
        try:
            chol = np.linalg.cholesky(neg_h + ridge * np.eye(neg_h.shape[0]))
            y = np.linalg.solve(chol, grad_phi)
            return np.linalg.solve(chol.T, y)
        except np.linalg.LinAlgError:
            ridge = max(ridge * 10.0, 1e-14 * scale)
    raise NonConcaveObjectiveError("barrier Hessian could not be factored; constraint rows may be degenerate")


def _kkt_report(value, gradient, constraints, x, t, tol, iterations):
    s = -constraints.residuals(x)
    mu = 1.0 / (t * s)
    stationarity = float(np.max(np.abs(gradient(x) - constraints.row_grads(x).T @ mu)))
    comp = float(np.sum(mu * s))
    status = STATUS_CONVERGED if (stationarity <= tol and comp <= tol * (1 + 1e-12)) else STATUS_MAX_ITER
    return KktReport(
        objective=float(value(x)),
        stationarity=stationarity,
        max_violation=float(max(np.max(constraints.residuals(x)), 0.0)),
        comp_slackness=comp,
        iterations=iterations,
        status=status,
        multipliers=mu,
    )


def _clip_zeros(x, constraints):
    """Report coordinates parked at the interior floor as exact zeros."""
    clipped = np.where((x >= 0.0) & (x < ZERO_CLIP), 0.0, x)
    if np.array_equal(clipped, x):
        return x
    if np.max(constraints.residuals(clipped)) <= 1e-9:
        return clipped
    return x


def feasible_point(zf: ZfStatistics, params: PowerParams, qos: QosSpec):
    """Strictly feasible power allocation for the QoS-constrained problem, or None.

    In the scaled units w = eta / eta_scale, with f the SINR floors and
    rho_hat = rho_f * eta_scale, user k's QoS row rho_f eta_k >= f_k (1 +
    rho_f gamma[k] . eta) reads ((I - diag(f) gamma) w)_k >= f_k / rho_hat, and
    the per-AP rows read theta_hat @ w <= 1; see _minimal_power_start.
    """
    theta = zf.theta
    eta_scale = float(equal_power_allocation(theta).eta[0])
    sinr_floor = qos.sinr_floor
    w = _minimal_power_start(
        theta * eta_scale, sinr_floor[:, None] * zf.gamma, sinr_floor / (params.rho_f * eta_scale)
    )
    return None if w is None else PowerAllocation(eta=eta_scale * w)


def _minimal_power_start(theta_hat, coupling, floor):
    """Interior point of (I - coupling) w >= floor, theta_hat @ w <= 1, w >= 0.

    coupling and theta_hat are elementwise nonnegative. With u the solution of
    (I - coupling) u = 1, a positive u exists iff the spectral radius of
    coupling is below one (Collatz-Wielandt: coupling u < u); then
    (I - coupling)^-1 = sum_n coupling^n >= 0, so w_min = (I - coupling)^-1 floor
    is below every feasible w componentwise, and an interior point exists iff
    the load L = max(theta_hat @ w_min) is below one. theta_hat is scaled so
    that its largest row sum is 1, hence theta_hat @ u <= max(u), and the
    returned w_min + (1 - L) / (2 max(u)) u leaves every floor row slack by
    the same margin and every per-AP load at most (1 + L) / 2. Returns None
    when no interior point exists.
    """
    if np.any(theta_hat.max(axis=0) <= 0.0):
        raise ValueError("theta has an all-zero column; a user consumes no power at any AP")
    k = floor.size
    try:
        w_min, u = np.linalg.solve(np.eye(k) - coupling, np.column_stack([floor, np.ones(k)])).T
    except np.linalg.LinAlgError:  # coupling has eigenvalue 1: spectral radius at least one
        return None
    if not np.all(u > 0.0):
        return None
    load = float(np.max(theta_hat @ w_min))
    if not load < 1.0:
        return None
    return w_min + (1.0 - load) / (2.0 * float(np.max(u))) * u
