import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize

from conftest import build_instance

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
from cellfree_ee.reports import STATUS_CONVERGED
from cellfree_ee.sca import solve_ipce


def box_constraints(n, lo=0.0, hi=1.0):
    eye = np.eye(n)
    return ConstraintSet(np.zeros((2 * n, n)), np.vstack([-eye, eye]), np.concatenate([np.full(n, -lo), np.full(n, hi)]))


def quadratic_objective(center):
    center = np.asarray(center, float)
    return (
        lambda x: -float(np.sum((x - center) ** 2)),
        lambda x: -2.0 * (x - center),
        lambda x: -2.0 * np.eye(center.size),
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
            lambda x: np.array([[-4.0 / (1 + 2 * x[0]) ** 2]]),
        )
        x, report = solve_inner(objective, cs, np.array([0.1]))
        assert x[0] == pytest.approx(0.5, abs=2e-6)
        assert report.stationarity <= 1e-6

    def test_active_constraint_multiplier(self):
        cs = ConstraintSet(np.zeros((2, 1)), np.array([[-1.0], [1.0]]), np.array([1.0, 0.3]))
        objective = (lambda x: float(x[0]), lambda x: np.ones(1), lambda x: np.zeros((1, 1)))
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
        assert np.max(cs.residuals(x)) <= 1e-9

    def test_infeasible_start_raises(self):
        with pytest.raises(InfeasibleStartError):
            solve_inner(quadratic_objective([0.5]), box_constraints(1), np.array([2.0]))

    def test_non_concave_objective_detected(self):
        convex = (
            lambda x: float(np.sum(x**2)),
            lambda x: 2.0 * x,
            lambda x: 2.0 * np.eye(2),
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
        lambda x: np.diag(-w * c * c / (1.0 + c * x) ** 2 - 2.0 * e),
    )

    x, report = solve_inner(objective, cs, start)
    assert np.max(cs.residuals(x)) < 0.0
    assert report.status == STATUS_CONVERGED
    assert report.stationarity <= 1e-6 and report.comp_slackness <= 1e-6
    assert np.all(report.multipliers > 0.0)
    assert objective[0](x) >= objective[0](start)

    oracle = minimize(
        lambda y: -objective[0](y),
        start,
        jac=lambda y: -objective[1](y),
        method="SLSQP",
        constraints={"type": "ineq", "fun": lambda y: -cs.residuals(y), "jac": lambda y: -cs.row_grads(y)},
        options={"ftol": 1e-10, "maxiter": 500},
    )
    # SLSQP may stop with "positive directional derivative" next to the
    # optimum, so its answer is checked for feasibility rather than success.
    assert np.max(cs.residuals(oracle.x)) <= 1e-6
    best = -oracle.fun
    assert abs(objective[0](x) - best) <= 1e-6 * max(1.0, abs(best))


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
        alloc = feasible_point(zf, params, qos)
        np.testing.assert_allclose(alloc.eta, 0.5 * equal_power_allocation(zf.theta).eta, rtol=1e-12)

    def test_huge_floor_is_infeasible(self):
        params = make_power_params(m=4, tau_u=2)
        zf = _zf_for_feasibility(k=1)
        qos = QosSpec.from_floor(np.full(1, 1e3), params)
        assert feasible_point(zf, params, qos) is None

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
            alloc = feasible_point(zf, params, qos)
            if expect_feasible:
                assert alloc is not None
                assert check_feasibility(alloc.eta, zf, params, qos).feasible
            else:
                assert alloc is None

    def test_returned_point_strictly_feasible(self, small_instance):
        from conftest import loose_qos

        _, _, zf, params = small_instance
        qos = loose_qos(zf, params)
        alloc = feasible_point(zf, params, qos)
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
    alloc = feasible_point(zf, params, qos)
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
    alloc = feasible_point(zf, params, qos)
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
