import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import build_instance, grid_best_ee, loose_qos, perfect_view

from cellfree_ee import dinkelbach
from cellfree_ee.dinkelbach import solve_pce
from cellfree_ee.inner import NonConcaveObjectiveError
from cellfree_ee.power import (
    QosSpec,
    ZfStatistics,
    check_feasibility,
    energy_efficiency,
    equal_power_allocation,
    make_power_params,
)
from cellfree_ee.reports import STATUS_CONVERGED, STATUS_INFEASIBLE


def test_single_user_matches_golden_section():
    # 1-D oracle: bounded scalar search over the only power coefficient.
    zf = ZfStatistics(gamma=np.zeros((1, 1)), theta=np.ones((1, 1)), n_realizations=1)
    params = make_power_params(m=1, tau_u=1)
    qos = QosSpec.from_floor(np.zeros(1), params)
    alloc, report = solve_pce(zf, params, qos)
    assert report.status == STATUS_CONVERGED

    oracle = minimize_scalar(
        lambda e: -energy_efficiency(np.array([e]), zf, params),
        bounds=(1e-12, 1.0),
        method="bounded",
        options={"xatol": 1e-13},
    )
    ee = energy_efficiency(alloc.eta, zf, params)
    assert ee == pytest.approx(-oracle.fun, rel=1e-3)
    assert abs(ee - (-oracle.fun)) <= 1e-3 * abs(oracle.fun)


@pytest.mark.parametrize("seed", [0, 5])
def test_two_user_grid_oracle(seed):
    _, _, zf, params = build_instance(8, 2, seed=seed)
    qos = loose_qos(zf, params)
    zf0 = perfect_view(zf)
    alloc, report = solve_pce(zf, params, qos)
    assert report.status == STATUS_CONVERGED
    ee = energy_efficiency(alloc.eta, zf0, params)
    best = grid_best_ee(zf0, params, qos)
    assert abs(ee - best) <= 0.01 * best


def test_infeasible_floor_reported():
    _, _, zf, params = build_instance(6, 2, seed=1, n_mc=500)
    qos = QosSpec.from_floor(np.full(2, 1e3), params)
    alloc, report = solve_pce(zf, params, qos)
    assert alloc is None
    assert report.status == STATUS_INFEASIBLE


def test_lambda_trajectory_monotone_and_short(small_instance):
    _, _, zf, params = small_instance
    qos = loose_qos(zf, params)
    _, report = solve_pce(zf, params, qos)
    lams = np.array(report.lambdas)
    assert np.all(np.diff(lams) >= -1e-9 * lams[:-1])
    assert report.outer_iterations <= 15
    assert report.ee_trajectory[-1] >= report.ee_trajectory[0]


def test_constraints_hold_at_solution(small_instance):
    _, _, zf, params = small_instance
    qos = loose_qos(zf, params)
    alloc, _ = solve_pce(zf, params, qos)
    assert check_feasibility(alloc.eta, perfect_view(zf), params, qos).feasible


def test_beats_equal_power_when_baseline_feasible(small_instance):
    _, _, zf, params = small_instance
    params_qos = loose_qos(zf, params)
    zf0 = perfect_view(zf)
    equal = equal_power_allocation(zf.theta)
    assert check_feasibility(equal.eta, zf0, params, params_qos).feasible
    alloc, _ = solve_pce(zf, params, params_qos)
    assert energy_efficiency(alloc.eta, zf0, params) >= energy_efficiency(equal.eta, zf0, params)


def test_full_power_variant_agrees_on_maximizer(small_instance):
    # The traffic term only adds a constant to the reciprocal ratio, so
    # iterating on the full consumption model must land on the same point.
    _, _, zf, params = small_instance
    qos = loose_qos(zf, params)
    reduced, _ = solve_pce(zf, params, qos)
    full, report = solve_pce(zf, params, qos, use_full_power=True)
    assert report.status == STATUS_CONVERGED
    zf0 = perfect_view(zf)
    assert energy_efficiency(full.eta, zf0, params) == pytest.approx(
        energy_efficiency(reduced.eta, zf0, params), rel=1e-6
    )


def test_uncertified_curvature_raises_typed_error(small_instance, monkeypatch):
    # The concavity guard is a raise, not an assert that `python -O` strips:
    # curvature that cannot be shown negative (NaN here) must stop the solve.
    _, _, zf, params = small_instance

    def probe_hessian(objective, constraints, start, tol):
        objective[2](np.full_like(start, np.nan))

    monkeypatch.setattr(dinkelbach, "solve_inner", probe_hessian)
    with pytest.raises(NonConcaveObjectiveError, match="concavity"):
        solve_pce(zf, params, loose_qos(zf, params))
