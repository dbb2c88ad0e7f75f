"""Small dense concave maximization under linear and convex quadratic rows.

A feasible primal-dual interior method: every constraint row is
g_i(x) = q_i . x^2 + a_i . x - b_i <= 0 with q_i >= 0 elementwise, the iterate
x stays strictly inside (slacks s = -g(x) > 0) next to dual estimates
lambda > 0, and Newton steps on the perturbed KKT system
grad f = J^T lambda, lambda_i s_i = mu are damped by a fraction-to-boundary
rule and an Armijo search on f + mu sum log s, while mu falls linearly.
Problem sizes here are tiny (tens of variables) and every objective is
separable, so the objective's Hessian is passed as its diagonal and the
Newton matrix is formed densely and factored directly. Each step costs a
few dozen numpy calls of that size, which sets the solver's speed.

Callers are expected to scale variables and objective to order one; the
tolerances below are absolute in that scaling.
"""

from __future__ import annotations

import math

import numpy as np

from .power import PowerAllocation, PowerParams, QosSpec, equal_power_allocation
from .reports import STATUS_CONVERGED, STATUS_MAX_ITER, KktReport
from .zfstats import ZfStatistics

# KKT tolerance on stationarity and on the duality-gap proxy sum(lambda s).
TOL = 1e-6
# Newton steps per solve before it reports max-iter.
_MAX_ITERS = 200
# mu falls by _MU_DECREASE once the KKT error of the current mu-problem,
# max(stationarity, max |lambda s - mu|), is within _MU_TARGET * mu.
_MU_DECREASE = 0.2
_MU_TARGET = 10.0
_ARMIJO_SLOPE = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 60
# Minimal load within this times max(u) of one is one (read only by _minimal_power_start).
LOAD_ROUNDOFF = 1e-12


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

    def slacks(self, x: np.ndarray) -> np.ndarray:
        """-g(x) per row, bound - quad . x^2 - lin . x; strictly feasible points give positive values."""
        return self.bound - self.quad @ (x * x) - self.lin @ x

    def row_grads(self, x: np.ndarray) -> np.ndarray:
        """The Jacobian of g at x, one row per constraint."""
        rows = self.quad * (2.0 * x)
        rows += self.lin
        return rows


def solve_inner(objective, constraints: ConstraintSet, start: np.ndarray) -> tuple:
    """Maximize a smooth, separable concave objective over the constraint set.

    Parameters
    ----------
    objective : (value, gradient, hessian) callables of x. The objective must
        be separable, f(x) = sum_j f_j(x_j), so `hessian(x)` returns the
        diagonal of the Hessian as a 1-D array (every objective handed to this
        solver in the package is: the SCA model, the Dinkelbach subproblem).
    constraints : ConstraintSet
    start : strictly feasible point (every row slack positive)

    Duals start at lambda = 1/s with mu = 1. Each Newton step solves
    N dx = grad f - mu J^T (1/s) with the Newton matrix
    N = J^T diag(lambda/s) J + diag(2 quad^T lambda - h), h the Hessian
    diagonal, then sets ds = -J dx and dlambda = mu/s - lambda - lambda ds/s.
    N is factored once by Cholesky as the positive-definiteness test, with a
    growing ridge only if that fails. mu shrinks by _MU_DECREASE whenever
    max(stationarity, max |lambda s - mu|) <= _MU_TARGET mu, down to
    TOL / (10 rows). The solve stops when stationarity <= TOL and
    sum(lambda s) <= TOL, or after _MAX_ITERS steps. The returned point never
    has a lower objective than the start.

    Returns (x, KktReport). Raises InfeasibleStartError for a bad start and
    NonConcaveObjectiveError if the objective shows positive curvature along
    a step.
    """
    value, gradient, hessian = objective
    start = np.asarray(start, dtype=float)
    x = start.copy()
    m = len(constraints)
    if m == 0:
        raise ValueError("constraint set is empty; the interior method needs at least one row")
    s = constraints.slacks(x)
    if s.min() <= 0.0:
        raise InfeasibleStartError(f"start violates a constraint by {float(-s.min()):.3e}")

    quad = constraints.quad
    diagonal = slice(None, None, x.size + 1)  # the diagonal of a flattened (n, n) matrix
    lam = 1.0 / s
    mu = 1.0
    mu_min = TOL / (10.0 * m)
    f_start = f_x = value(x)
    log_s = float(np.log(s).sum())
    iterations = 0
    while True:
        rows = constraints.row_grads(x)
        grad_f = gradient(x)
        stationarity = float(np.abs(grad_f - lam @ rows).max())
        comp = lam * s
        gap = float(comp.sum())
        converged = stationarity <= TOL and gap <= TOL * (1 + 1e-12)
        if converged or iterations == _MAX_ITERS:
            break
        while (
            mu > mu_min
            and stationarity <= _MU_TARGET * mu
            and float(np.abs(comp - mu).max()) <= _MU_TARGET * mu
        ):
            mu = max(mu_min, _MU_DECREASE * mu)

        h = hessian(x)
        inv_s = 1.0 / s
        weight = lam * inv_s
        newton = (rows * weight[:, None]).T @ rows
        newton.ravel()[diagonal] += 2.0 * (lam @ quad) - h
        grad_phi = grad_f - mu * (inv_s @ rows)
        step = _solve_newton(newton, grad_phi)
        curv = float((h * step) @ step)
        if curv > 0.0 and curv > 1e-8 * float(step @ step) * max(1.0, abs(f_x)):
            raise NonConcaveObjectiveError(
                f"objective curvature {curv:.3e} > 0 along the Newton step"
            )
        slope = float(grad_phi @ step)
        if not 0.0 < slope < math.inf:
            break

        lin_step = rows @ step  # -ds
        d_lam = mu * inv_s - lam + weight * lin_step
        # Fraction to the boundary: s and lambda keep at least 1 - tau of their value.
        tau = max(0.99, 1.0 - mu)
        alpha = _primal_step_limit(s, lin_step, quad @ (step * step), tau)
        shrinking = d_lam < 0.0
        alpha_dual = 1.0
        if shrinking.any():
            alpha_dual = min(1.0, float((-tau * lam[shrinking] / d_lam[shrinking]).min()))

        phi = f_x + mu * log_s
        for _ in range(_MAX_BACKTRACKS):
            x_new = x + alpha * step
            s_new = constraints.slacks(x_new)
            if s_new.min() > 0.0:
                f_new = value(x_new)
                log_new = float(np.log(s_new).sum())
                if f_new + mu * log_new >= phi + _ARMIJO_SLOPE * alpha * slope:
                    break
            alpha *= _BACKTRACK
        else:
            break
        x, s, f_x, log_s = x_new, s_new, f_new, log_new
        lam = lam + alpha_dual * d_lam
        iterations += 1

    if converged and f_x < f_start - TOL * max(1.0, abs(f_start)):
        # A converged interior path cannot end materially below a feasible start.
        raise NonConcaveObjectiveError("objective decreased along the interior path; check concavity")
    # The KKT fields describe the last iterate; the objective, the returned point.
    report = KktReport(
        objective=float(max(f_x, f_start)),
        stationarity=stationarity,
        comp_slackness=gap,
        iterations=iterations,
        status=STATUS_CONVERGED if converged else STATUS_MAX_ITER,
        multipliers=lam,
    )
    if f_x < f_start:
        return start.copy(), report
    return x, report


def _primal_step_limit(s, lin_step, quad_step, tau):
    """Largest alpha <= 1 with -g(x + alpha dx) >= (1 - tau) s on every row.

    Along the step a row's slack is s - alpha lin_step - alpha^2 quad_step with
    quad_step >= 0, so tau s - lin_step alpha - quad_step alpha^2 is concave in
    alpha and positive at 0; its positive root, in the cancellation-free form
    2 tau s / (lin_step + sqrt(lin_step^2 + 4 quad_step tau s)), bounds the
    step. Rows with no root (lin_step <= 0 and quad_step = 0) never do.
    """
    reserve = tau * s
    denom = lin_step + np.sqrt(lin_step * lin_step + 4.0 * quad_step * reserve)
    limiting = denom > 0.0
    if not limiting.any():
        return 1.0
    return min(1.0, float((2.0 * reserve[limiting] / denom[limiting]).min()))


def _solve_newton(newton, grad_phi):
    """Solve newton d = grad_phi for the ascent direction, with a ridge fallback.

    The Cholesky factorization is the positive-definiteness test; np.eye and
    the trace are built only when it fails and a ridge is added.
    """
    ridge = 0.0
    shifted = newton
    for _ in range(12):
        try:
            np.linalg.cholesky(shifted)
            return np.linalg.solve(shifted, grad_phi)
        except np.linalg.LinAlgError:
            scale = max(float(np.trace(newton)) / newton.shape[0], 1e-12)
            ridge = max(ridge * 10.0, 1e-14 * scale)
            shifted = newton + ridge * np.eye(newton.shape[0])
    raise NonConcaveObjectiveError("Newton matrix could not be factored; constraint rows may be degenerate")


def feasible_point(zf: ZfStatistics, params: PowerParams, qos: QosSpec):
    """Start for the QoS-constrained problem: (PowerAllocation or None, interior).

    In the scaled units w = eta / eta_scale, with f the SINR floors and
    rho_hat = rho_f * eta_scale, user k's QoS row rho_f eta_k >= f_k (1 +
    rho_f gamma[k] . eta) reads ((I - diag(f) gamma) w)_k >= f_k / rho_hat, and
    the per-AP rows read theta_hat @ w <= 1; _minimal_power_start gives both.
    """
    theta = zf.theta
    eta_scale = float(equal_power_allocation(theta).eta[0])
    sinr_floor = qos.sinr_floor
    w, interior = _minimal_power_start(
        theta * eta_scale, sinr_floor[:, None] * zf.gamma, sinr_floor / (params.rho_f * eta_scale)
    )
    return (None if w is None else PowerAllocation(eta=eta_scale * w)), interior


def _minimal_power_start(theta_hat, coupling, floor):
    """Start for (I - coupling) w >= floor, theta_hat @ w <= 1, w >= 0: (w or None, interior).

    coupling and theta_hat are elementwise nonnegative. With u the solution of
    (I - coupling) u = 1, a positive u exists iff the spectral radius of
    coupling is below one (Collatz-Wielandt: coupling u < u); then
    (I - coupling)^-1 = sum_n coupling^n >= 0, so w_min = (I - coupling)^-1 floor
    is below every feasible w componentwise, and an interior point exists iff
    the load L = max(theta_hat @ w_min) is below one. theta_hat is scaled so
    that its largest row sum is 1, hence theta_hat @ u <= max(u), and the
    returned w_min + (1 - L) / (2 max(u)) u leaves every floor row slack by
    the same margin and every per-AP load at most (1 + L) / 2.

    The solve amplifies relative roundoff in floor by up to max(u) =
    ||(I - coupling)^-1||_inf, so |1 - L| <= LOAD_ROUNDOFF max(u) counts as
    L = 1: theta_hat > 0 entrywise and every feasible w >= w_min, so w_min is
    the only feasible point, and w_min / L (busiest load 1) is returned with
    interior False. Returns (None, False) above that band.
    """
    if np.any(theta_hat.max(axis=0) <= 0.0):
        raise ValueError("theta has an all-zero column; a user consumes no power at any AP")
    k = floor.size
    try:
        w_min, u = np.linalg.solve(np.eye(k) - coupling, np.column_stack([floor, np.ones(k)])).T
    except np.linalg.LinAlgError:  # coupling has eigenvalue 1: spectral radius at least one
        return None, False
    if not np.all(u > 0.0):
        return None, False
    load, u_max = float(np.max(theta_hat @ w_min)), float(np.max(u))
    if load > 1.0 + LOAD_ROUNDOFF * u_max:
        return None, False
    if load >= 1.0 - LOAD_ROUNDOFF * u_max:
        return w_min / load, False
    return w_min + (1.0 - load) / (2.0 * u_max) * u, True
