import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize

from conftest import build_instance

from cellfree_ee import dinkelbach, inner, sca
from cellfree_ee.harness import ExperimentConfig, build_instance as build_harness_instance, run_point, run_seed
from cellfree_ee.inner import (
    ConstraintSet,
    InfeasibleStartError,
    NonConcaveObjectiveError,
    feasible_point,
    solve_inner,
)
from cellfree_ee.power import (
    QosSpec,
    ZfStatistics,
    check_feasibility,
    equal_power_allocation,
    make_power_params,
    per_user_rate,
)
from cellfree_ee.reports import STATUS_CONVERGED, STATUS_MAX_ITER, KktReport
from cellfree_ee.sca import solve_ipce


def reference_solve_inner(objective, constraints, start, tol=inner.TOL):
    """solve_inner's iteration written out plainly, kept as an oracle.

    Same rules and constants, but the objective's Hessian is a full matrix,
    the Newton matrix is formed by subtracting matrices, the step comes from
    the Cholesky factor by two solves, and the slacks and the barrier's
    sum log s are recomputed afresh each step.
    """
    value, gradient, hessian = objective
    start = np.asarray(start, dtype=float)
    x = start.copy()
    m = len(constraints)
    s = constraints.slacks(x)
    if np.min(s) <= 0.0:
        raise InfeasibleStartError(f"start violates a constraint by {float(np.max(-s)):.3e}")
    quad = constraints.quad
    lam = 1.0 / s
    mu = 1.0
    mu_min = tol / (10.0 * m)
    f_start = f_x = value(x)
    iterations = 0
    while True:
        rows = constraints.row_grads(x)
        grad_f = gradient(x)
        stationarity = float(np.max(np.abs(grad_f - rows.T @ lam)))
        comp = lam * s
        converged = stationarity <= tol and float(np.sum(comp)) <= tol * (1 + 1e-12)
        if converged or iterations == inner._MAX_ITERS:
            break
        while mu > mu_min and max(stationarity, float(np.max(np.abs(comp - mu)))) <= inner._MU_TARGET * mu:
            mu = max(mu_min, inner._MU_DECREASE * mu)
        hess_obj = hessian(x)
        hess_phi = hess_obj - np.diag(2.0 * (quad.T @ lam)) - (rows * (lam / s)[:, None]).T @ rows
        grad_phi = grad_f - mu * (rows.T @ (1.0 / s))
        neg_h = -hess_phi
        ridge = 0.0
        scale = max(float(np.trace(neg_h)) / neg_h.shape[0], 1e-12)
        for _ in range(12):
            try:
                chol = np.linalg.cholesky(neg_h + ridge * np.eye(neg_h.shape[0]))
                step = np.linalg.solve(chol.T, np.linalg.solve(chol, grad_phi))
                break
            except np.linalg.LinAlgError:
                ridge = max(ridge * 10.0, 1e-14 * scale)
        else:
            raise NonConcaveObjectiveError("Newton matrix could not be factored")
        curv = float(step @ hess_obj @ step)
        if curv > 1e-8 * float(step @ step) * max(1.0, abs(f_x)):
            raise NonConcaveObjectiveError(f"objective curvature {curv:.3e} > 0 along the Newton step")
        slope = float(grad_phi @ step)
        if slope <= 0.0 or not np.isfinite(slope):
            break
        lin_step = rows @ step
        d_lam = mu / s - lam + lam * lin_step / s
        tau = max(0.99, 1.0 - mu)
        reserve = tau * s
        denom = lin_step + np.sqrt(lin_step * lin_step + 4.0 * (quad @ (step * step)) * reserve)
        limiting = denom > 0.0
        alpha = min(1.0, float(np.min(2.0 * reserve[limiting] / denom[limiting], initial=np.inf)))
        shrinking = d_lam < 0.0
        alpha_dual = min(1.0, float(np.min(-tau * lam[shrinking] / d_lam[shrinking], initial=np.inf)))
        phi = f_x + mu * float(np.sum(np.log(s)))
        for _ in range(inner._MAX_BACKTRACKS):
            x_new = x + alpha * step
            s_new = constraints.slacks(x_new)
            if np.min(s_new) > 0.0:
                f_new = value(x_new)
                if f_new + mu * float(np.sum(np.log(s_new))) >= phi + inner._ARMIJO_SLOPE * alpha * slope:
                    break
            alpha *= inner._BACKTRACK
        else:
            break
        x, s, f_x = x_new, s_new, f_new
        lam = lam + alpha_dual * d_lam
        iterations += 1
    if converged and f_x < f_start - tol * max(1.0, abs(f_start)):
        raise NonConcaveObjectiveError("objective decreased along the interior path; check concavity")
    report = KktReport(
        objective=float(max(f_x, f_start)),
        stationarity=stationarity,
        comp_slackness=float(np.sum(comp)),
        iterations=iterations,
        status=STATUS_CONVERGED if converged else STATUS_MAX_ITER,
        multipliers=lam,
    )
    if f_x < f_start:
        return start.copy(), report
    return x, report


def assert_matches_reference(objective, constraints, start):
    """solve_inner against the reference loop on identical inputs.

    Both loops do the same mathematics in a different floating-point order.
    The first Newton matrix, with duals 1/s at the start, has a condition
    number above 1/s_min^2; when that number times machine epsilon exceeds
    1e-3 (a start within about 1e-8 of a row), the first step carries
    more roundoff than the 1% fraction-to-boundary margin in either loop, the
    paths part, and both results are only optimal to the KKT tolerance. Then
    the statuses must agree and the objectives within inner.TOL. Otherwise the
    statuses must agree, x within 1e-7 relative and the objective within 1e-9
    relative. Returns (strict, iterations, reference iterations).
    """
    x, report = solve_inner(objective, constraints, start)
    value, gradient, hessian = objective
    x_ref, ref = reference_solve_inner((value, gradient, lambda v: np.diag(hessian(v))), constraints, start)
    assert report.status == ref.status
    s = constraints.slacks(start)
    rows = constraints.row_grads(start)
    first = (rows / (s * s)[:, None]).T @ rows + np.diag(2.0 * (constraints.quad.T @ (1.0 / s)) - hessian(start))
    strict = np.linalg.cond(first) * np.finfo(float).eps <= 1e-3
    if strict:
        assert np.max(np.abs(x - x_ref)) <= 1e-7 * np.max(np.abs(x_ref))
        assert abs(report.objective - ref.objective) <= 1e-9 * abs(ref.objective)
    else:
        assert abs(report.objective - ref.objective) <= inner.TOL * max(1.0, abs(ref.objective))
    return strict, report.iterations, ref.iterations


def box_constraints(n, lo=0.0, hi=1.0):
    eye = np.eye(n)
    return ConstraintSet(np.zeros((2 * n, n)), np.vstack([-eye, eye]), np.concatenate([np.full(n, -lo), np.full(n, hi)]))


def quadratic_objective(center):
    center = np.asarray(center, float)
    return (
        lambda x: -float(np.sum((x - center) ** 2)),
        lambda x: -2.0 * (x - center),
        lambda x: np.full(center.size, -2.0),
    )


class TestSolveInner:
    def test_separable_projection(self):
        center = np.array([0.3, -0.2, 1.5])
        x, report = solve_inner(quadratic_objective(center), box_constraints(3), np.full(3, 0.5))
        assert report.status == STATUS_CONVERGED
        assert np.allclose(x, np.clip(center, 0.0, 1.0), atol=2e-6)

    def test_interior_stationary_point(self):
        cs = box_constraints(1)
        objective = (
            lambda x: float(np.log(1 + 2 * x[0]) - x[0]),
            lambda x: np.array([2.0 / (1 + 2 * x[0]) - 1.0]),
            lambda x: np.array([-4.0 / (1 + 2 * x[0]) ** 2]),
        )
        x, report = solve_inner(objective, cs, np.array([0.1]))
        assert x[0] == pytest.approx(0.5, abs=2e-6)
        assert report.stationarity <= 1e-6

    def test_active_constraint_multiplier(self):
        cs = ConstraintSet(np.zeros((2, 1)), np.array([[-1.0], [1.0]]), np.array([1.0, 0.3]))
        objective = (lambda x: float(x[0]), lambda x: np.ones(1), lambda x: np.zeros(1))
        x, report = solve_inner(objective, cs, np.array([0.0]))
        assert x[0] == pytest.approx(0.3, abs=2e-6)
        assert report.multipliers[1] == pytest.approx(1.0, abs=1e-5)

    def test_matches_closed_form_quadratic(self):
        # Equality-free QP oracle: minimize |x - c|^2 over the simplex-ish box;
        # c interior, so the optimum is c itself.
        rng = np.random.default_rng(4)
        for _ in range(5):
            center = rng.uniform(0.2, 0.8, size=4)
            x, _ = solve_inner(quadratic_objective(center), box_constraints(4), np.full(4, 0.5))
            assert np.max(np.abs(x - center)) <= 1e-6 * max(1.0, np.max(np.abs(center)))

    def test_deterministic(self):
        center = np.array([0.4, 0.9])
        a, _ = solve_inner(quadratic_objective(center), box_constraints(2), np.full(2, 0.5))
        b, _ = solve_inner(quadratic_objective(center), box_constraints(2), np.full(2, 0.5))
        assert np.array_equal(a, b)

    def test_feasibility_of_returned_point(self):
        cs = ConstraintSet(
            np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 2.0]]),
            np.array([[-1.0, 0.0], [0.0, -1.0], [0.1, 0.0]]),
            np.array([0.0, 0.0, 1.0]),
        )
        x, _ = solve_inner(quadratic_objective([2.0, 2.0]), cs, np.array([0.1, 0.1]))
        assert np.max(-cs.slacks(x)) <= 1e-9

    def test_infeasible_start_raises(self):
        with pytest.raises(InfeasibleStartError):
            solve_inner(quadratic_objective([0.5]), box_constraints(1), np.array([2.0]))

    def test_non_concave_objective_detected(self):
        convex = (
            lambda x: float(np.sum(x**2)),
            lambda x: 2.0 * x,
            lambda x: np.full(2, 2.0),
        )
        with pytest.raises(NonConcaveObjectiveError):
            solve_inner(convex, box_constraints(2), np.full(2, 0.5))

    def test_non_convex_row_rejected_at_build(self):
        with pytest.raises(ValueError, match="row 1: negative quadratic coefficient makes the row non-convex"):
            ConstraintSet(np.array([[1.0, 0.5], [1.0, -0.5]]), np.zeros((2, 2)), np.ones(2))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 6),
    n_quad=st.integers(0, 3),
    n_lin=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_inner_matches_slsqp(n, n_quad, n_lin, seed):
    # Separable concave objective sum w log(1 + c x) - d x - e x^2 over random
    # nonnegative-quad rows, linear rows and a box, all slack at the start.
    rng = np.random.default_rng(seed)
    start = rng.uniform(0.2, 1.0, n)
    w, c, e = rng.uniform(0.1, 2.0, n), rng.uniform(0.5, 5.0, n), rng.uniform(0.0, 1.0, n)
    d = rng.uniform(-1.0, 2.0, n)
    quad = np.vstack([rng.uniform(0.0, 1.0, (n_quad, n)), np.zeros((n_lin + 2 * n, n))])
    lin = np.vstack([rng.uniform(-1.0, 1.0, (n_quad + n_lin, n)), -np.eye(n), np.eye(n)])
    lower, upper = start * rng.uniform(0.1, 0.9, n), start + rng.uniform(0.1, 2.0, n)
    general = quad[: n_quad + n_lin] @ start**2 + lin[: n_quad + n_lin] @ start
    bound = np.concatenate([general + rng.uniform(0.05, 1.0, n_quad + n_lin), -lower, upper])
    cs = ConstraintSet(quad, lin, bound)
    objective = (
        lambda x: float(np.sum(w * np.log1p(c * x) - d * x - e * x * x)),
        lambda x: w * c / (1.0 + c * x) - d - 2.0 * e * x,
        lambda x: -w * c * c / (1.0 + c * x) ** 2 - 2.0 * e,
    )

    x, report = solve_inner(objective, cs, start)
    assert np.max(-cs.slacks(x)) < 0.0
    assert report.status == STATUS_CONVERGED
    assert report.stationarity <= 1e-6 and report.comp_slackness <= 1e-6
    assert np.all(report.multipliers > 0.0)
    assert objective[0](x) >= objective[0](start)
    assert_matches_reference(objective, cs, start)

    oracle = minimize(
        lambda y: -objective[0](y),
        start,
        jac=lambda y: -objective[1](y),
        method="SLSQP",
        constraints={"type": "ineq", "fun": cs.slacks, "jac": lambda y: -cs.row_grads(y)},
        options={"ftol": 1e-10, "maxiter": 500},
    )
    # SLSQP may stop with "positive directional derivative" next to the
    # optimum, so its answer is checked for feasibility rather than success.
    assert np.max(-cs.slacks(oracle.x)) <= 1e-6
    best = -oracle.fun
    assert abs(objective[0](x) - best) <= 1e-6 * max(1.0, abs(best))


def _captured_subproblems(config, m, powers):
    """Every (objective, constraints, start) that the IPCE and PCE solves
    of cold run_point calls hand to solve_inner on one instance."""
    instance = build_harness_instance(config, m, run_seed(config, 0))
    captured = []

    def record(objective, constraints, start):
        captured.append((objective, constraints, np.array(start, dtype=float)))
        return solve_inner(objective, constraints, start)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sca, "solve_inner", record)
        patch.setattr(dinkelbach, "solve_inner", record)
        for rho_f_w in powers:
            run_point(config, instance, rho_f_w)
    return captured


@pytest.mark.parametrize(
    "config, m, powers",
    [
        # sweep_rhof (M=100, K=16); at 0.01 W the water level breaks a per-AP
        # row, so the Dinkelbach fallback runs too.
        (ExperimentConfig(m_list=[100], k=16, rho_f_w_list=[0.2], qos="1.0", n_mc=400, n_topologies=1,
                          master_seed=300000), 100, (0.01, 0.2, 1.0, 2.2)),
        # solver_k2 (K=2, equal-power-rate floors), where the fallback runs at 0.2 W.
        (ExperimentConfig(m_list=[8, 12, 16], k=2, rho_f_w_list=[0.2], n_mc=1500, n_topologies=1,
                          master_seed=300001), 12, (0.2,)),
    ],
    ids=["sweep_rhof", "solver_k2"],
)
def test_captured_subproblems_match_reference(config, m, powers):
    captured = _captured_subproblems(config, m, powers)
    is_sca = [objective[0].__qualname__.startswith("concave_model") for objective, *_ in captured]
    assert any(is_sca) and not all(is_sca)  # both solvers' subproblems are there
    for objective, constraints, start in captured:
        strict, _, _ = assert_matches_reference(objective, constraints, start)
        # Every solve captured here is well conditioned at its start; the
        # Dinkelbach fallbacks start from the closed-form interior point.
        assert strict


def _zf_for_feasibility(theta_scale=1e9, gamma_level=0.1, m=4, k=1, seed=0):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.5, 2.0, size=(m, k)) * theta_scale
    gamma = np.full((k, k), gamma_level / theta_scale / 3e11) if k > 1 else np.array([[gamma_level]])
    return ZfStatistics(gamma=gamma, theta=theta, n_realizations=1)


class TestFeasiblePoint:
    def test_zero_floor_returns_equal_power(self):
        # Zero floors give w_min = 0 and u = 1 whatever the coupling, so the
        # start is the equal-power baseline at half load.
        params = make_power_params(m=4, tau_u=3)
        zf = _zf_for_feasibility(k=3, gamma_level=0.3)
        qos = QosSpec.from_floor(np.zeros(3), params)
        alloc, _ = feasible_point(zf, params, qos)
        np.testing.assert_allclose(alloc.eta, 0.5 * equal_power_allocation(zf.theta).eta, rtol=1e-12)

    def test_huge_floor_is_infeasible(self):
        params = make_power_params(m=4, tau_u=2)
        zf = _zf_for_feasibility(k=1)
        qos = QosSpec.from_floor(np.full(1, 1e3), params)
        alloc, _ = feasible_point(zf, params, qos)
        assert alloc is None

    @pytest.mark.parametrize("seed", range(8))
    def test_single_user_closed_form_oracle(self, seed):
        # Closed form: feasible iff the capped power meets the SINR floor,
        # rho_f * u / (1 + rho_f * gamma * u) >= 2^r_tilde - 1 at u = 1/max theta.
        rng = np.random.default_rng(seed)
        params = make_power_params(m=5, tau_u=2)
        theta = rng.uniform(0.5, 3.0, size=(5, 1)) * 10.0 ** rng.uniform(8, 10)
        gamma = np.array([[rng.uniform(0.0, 0.3)]])
        zf = ZfStatistics(gamma=gamma, theta=theta, n_realizations=1)
        u_cap = 1.0 / theta.max()
        sinr_cap = params.rho_f * u_cap / (1.0 + params.rho_f * gamma[0, 0] * u_cap)
        # pick floors straddling the cap, away from the boundary
        for fraction, expect_feasible in ((0.5, True), (1.5, False)):
            r_bar = params.prelog * np.log2(1.0 + fraction * sinr_cap)
            qos = QosSpec.from_floor(np.array([r_bar]), params)
            alloc, _ = feasible_point(zf, params, qos)
            if expect_feasible:
                assert alloc is not None
                assert check_feasibility(alloc.eta, zf, params, qos).feasible
            else:
                assert alloc is None

    def test_returned_point_strictly_feasible(self, small_instance):
        from conftest import loose_qos

        _, _, zf, params = small_instance
        qos = loose_qos(zf, params)
        alloc, _ = feasible_point(zf, params, qos)
        report = check_feasibility(alloc.eta, zf, params, qos)
        assert report.feasible
        assert report.ap_margin.min() > 0.0
        assert report.qos_margin.min() > 0.0


def _floors_at(zf, params, eta):
    """QoS spec whose SINR floors are the SINRs at eta, so eta is w_min."""
    return QosSpec.from_floor(per_user_rate(eta, zf.gamma, params), params)


@pytest.mark.parametrize("c", [1.0 - 1e-9, 1.0 - 1e-7, 1.0 + 1e-9])
def test_feasibility_boundary_is_exact_with_interference(c):
    # Floors at the SINRs of c * equal power make that point the minimal one,
    # with the busiest AP at load c: feasible strictly below one, not above.
    _, _, zf, params = build_instance(12, 4, seed=4, n_mc=300)
    assert np.all(zf.gamma > 0.0)
    eta_eq = equal_power_allocation(zf.theta).eta
    qos = _floors_at(zf, params, c * eta_eq)
    alloc, _ = feasible_point(zf, params, qos)
    if c > 1.0:
        assert alloc is None
        return
    report = check_feasibility(alloc.eta, zf, params, qos)
    assert report.feasible
    assert report.ap_margin.min() > 0.0
    assert report.qos_margin.min() > 0.0
    np.testing.assert_array_less(c * eta_eq * (1.0 - 1e-12), alloc.eta)


def _max_min_slack(zf, params, qos):
    """LP oracle: the largest s with every row of the scaled problem slack by s."""
    theta = zf.theta
    m, k = theta.shape
    eta_scale = float(equal_power_allocation(theta).eta[0])
    f = qos.sinr_floor
    qos_rows = np.eye(k) - f[:, None] * zf.gamma
    a_ub = np.vstack([-qos_rows, theta * eta_scale, -np.eye(k)])
    b_ub = np.concatenate([-f / (params.rho_f * eta_scale), np.ones(m), np.zeros(k)])
    a_ub = np.hstack([a_ub, np.ones((a_ub.shape[0], 1))])
    cost = np.zeros(k + 1)
    cost[-1] = -1.0
    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * k + [(None, 1.0)], method="highs")
    assert result.status == 0, result.message
    return -result.fun


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 4),
    extra_aps=st.integers(1, 8),
    seed=st.integers(0, 10_000),
    p_tx_watts=st.sampled_from([0.02, 0.2, 1.0]),
    scale=st.floats(0.0, 2.5),
)
def test_closed_form_agrees_with_max_min_slack_lp(k, extra_aps, seed, p_tx_watts, scale):
    _, _, zf, params = build_instance(k + extra_aps, k, seed, n_mc=200, p_tx_watts=p_tx_watts)
    weights = np.random.default_rng(seed).uniform(0.0, 1.0, size=k)
    qos = _floors_at(zf, params, scale * weights * equal_power_allocation(zf.theta).eta)
    slack = _max_min_slack(zf, params, qos)
    assume(abs(slack) > 1e-9)
    alloc, _ = feasible_point(zf, params, qos)
    assert (alloc is not None) == (slack > 0.0)
    if alloc is None:
        return
    report = check_feasibility(alloc.eta, zf, params, qos)
    assert report.feasible
    assert report.ap_margin.min() > 0.0
    assert report.qos_margin.min() > 0.0

    # Every feasible point, the IPCE optimum included, dominates w_min.
    eta_scale = float(equal_power_allocation(zf.theta).eta[0])
    f = qos.sinr_floor
    w_min = np.linalg.solve(np.eye(k) - f[:, None] * zf.gamma, f / (params.rho_f * eta_scale))
    best, _ = solve_ipce(zf, params, qos)
    assert np.all(best.eta >= eta_scale * w_min * (1.0 - 1e-9))
