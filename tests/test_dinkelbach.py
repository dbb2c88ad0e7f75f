from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from conftest import build_instance, grid_best_ee, loose_qos, perfect_view

from cellfree_ee import dinkelbach
from cellfree_ee.dinkelbach import solve_pce
from cellfree_ee.harness import ExperimentConfig, build_instance as build_harness_instance, run_point, run_seed
from cellfree_ee.inner import NonConcaveObjectiveError
from cellfree_ee.power import (
    QosSpec,
    ZfStatistics,
    check_feasibility,
    energy_efficiency,
    equal_power_allocation,
    make_power_params,
    reduced_energy_efficiency,
    transmit_power_watts,
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
    # At M=8 the EE-optimal powers overload an AP, so the interior-point fallback ran.
    assert report.inner_reports
    assert np.max(zf.theta @ alloc.eta) > 1.0 - 1e-6
    assert check_feasibility(alloc.eta, zf0, params, qos).feasible
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


def test_uncertified_curvature_raises_typed_error(small_instance, monkeypatch):
    # The concavity guard is a raise, not an assert that `python -O` strips:
    # curvature that cannot be shown negative (NaN here) must stop the solve.
    _, _, zf, params = small_instance

    def probe_hessian(objective, constraints, start):
        objective[2](np.full_like(start, np.nan))

    monkeypatch.setattr(dinkelbach, "solve_inner", probe_hessian)
    with pytest.raises(NonConcaveObjectiveError, match="concavity"):
        solve_pce(zf, params, loose_qos(zf, params))


def test_slack_optimum_is_the_water_level():
    # Forty APs for four users under a 1 W cap: no per-AP row binds.
    _, _, zf, params = build_instance(40, 4, seed=2, n_mc=300, p_tx_watts=1.0)
    qos = loose_qos(zf, params)
    alloc, report = solve_pce(zf, params, qos)
    assert report.status == STATUS_CONVERGED
    assert not report.inner_reports
    assert np.max(zf.theta @ alloc.eta) < 1.0

    # Stationarity of B * sum_k r_k - lam * P(eta) in the original units, at
    # the lambda of the last Dinkelbach step.
    lam = report.lambdas[-2]
    cost = params.rho_f * params.n0_watts * (params.alpha @ zf.theta)  # W per unit eta_k
    floor = qos.sinr_floor / params.rho_f
    level = params.bandwidth_hz * params.prelog / (np.log(2.0) * lam * cost) - 1.0 / params.rho_f
    np.testing.assert_allclose(alloc.eta, np.maximum(floor, level), rtol=1e-12)
    grad = params.bandwidth_hz * params.prelog * params.rho_f / (np.log(2.0) * (1.0 + params.rho_f * alloc.eta))
    grad -= lam * cost
    free = alloc.eta > floor
    assert np.any(free)
    assert np.all(np.abs(grad[free]) <= 1e-9 * lam * cost[free])
    assert np.all(grad[~free] <= 1e-9 * lam * cost[~free])


@pytest.mark.parametrize("load", [1.0 - 1e-9, 1.0 + 1e-9])
def test_feasibility_boundary_is_exact(load):
    # SINR floors at `load` times the equal-power SINR put the busiest AP at
    # exactly `load` when every user sits on its floor.
    _, _, zf, params = build_instance(12, 4, seed=4, n_mc=300)
    eta_eq = equal_power_allocation(zf.theta).eta
    qos = QosSpec.from_floor(params.prelog * np.log2(1.0 + load * params.rho_f * eta_eq), params)
    floor_load = np.max(zf.theta @ (qos.sinr_floor / params.rho_f))
    assert floor_load == pytest.approx(load, rel=1e-12, abs=0.0)

    alloc, report = solve_pce(zf, params, qos)
    if load < 1.0:
        assert report.status != STATUS_INFEASIBLE
        assert check_feasibility(alloc.eta, perfect_view(zf), params, qos).feasible
    else:
        assert alloc is None
        assert report.status == STATUS_INFEASIBLE


@pytest.mark.parametrize("load", [0.99, 0.999, 0.99999])
def test_fallback_converges_with_floors_near_full_load(load):
    # Floors that put the busiest AP at `load` leave the per-AP rows binding
    # next to floor rows with tiny slack: every fallback solve must converge.
    _, _, zf, params = build_instance(12, 4, seed=4, n_mc=300)
    eta_eq = equal_power_allocation(zf.theta).eta
    qos = QosSpec.from_floor(params.prelog * np.log2(1.0 + load * params.rho_f * eta_eq), params)
    alloc, report = solve_pce(zf, params, qos)
    assert report.status == STATUS_CONVERGED
    assert report.inner_reports
    assert all(kkt.status == STATUS_CONVERGED for kkt in report.inner_reports)
    assert check_feasibility(alloc.eta, perfect_view(zf), params, qos).feasible


def test_every_fallback_starts_well_inside():
    # solver_k2 benchmark op, master seed 300001, M=12 at 0.2 W: three
    # Dinkelbach steps fall back to the interior-point solver. A restart
    # from the previous fallback's optimum sits within about 1e-8 of its
    # binding per-AP row, where the first Newton matrix is roundoff noise.
    config = ExperimentConfig(m_list=[8, 12, 16], k=2, rho_f_w_list=[0.2], n_mc=1500, n_topologies=1,
                              master_seed=300001, schemes=("pce",))
    instance = build_harness_instance(config, 12, run_seed(config, 0))
    slacks = []
    solve = dinkelbach.solve_inner

    def spy(objective, constraints, start):
        slacks.append(float(constraints.slacks(start).min()))
        return solve(objective, constraints, start)

    with mock.patch.object(dinkelbach, "solve_inner", spy):
        (row,) = run_point(config, instance, 0.2)
    assert row.status == STATUS_CONVERGED
    assert len(slacks) >= 2  # restarts, not only the first fallback
    assert min(slacks) >= 1e-3


def test_fallback_tolerance_is_relative_at_a_small_rate():
    # K = 1 at 0.02 W: both Dinkelbach steps fall back to the interior-point
    # solver. With an absolute KKT tolerance on this small objective the
    # fallback stopped short of the binding per-AP row, 5.6e-5 below equal power.
    _, _, zf, params = build_instance(2, 1, seed=7560, n_mc=200, p_tx_watts=0.02)
    alloc, report = solve_pce(zf, params, loose_qos(zf, params, 0.5))
    assert report.status == STATUS_CONVERGED and report.inner_reports
    zf0 = perfect_view(zf)
    ee_equal = energy_efficiency(equal_power_allocation(zf.theta).eta, zf0, params)
    assert energy_efficiency(alloc.eta, zf0, params) >= ee_equal * (1.0 - dinkelbach.GAP_TOL)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 4),
    extra_aps=st.integers(1, 8),
    seed=st.integers(0, 10_000),
    p_tx_watts=st.sampled_from([0.02, 0.2, 1.0]),
    fraction=st.sampled_from([0.0, 0.5, 0.9]),
)
def test_closed_form_never_below_barrier_only(k, extra_aps, seed, p_tx_watts, fraction):
    _, _, zf, params = build_instance(k + extra_aps, k, seed, n_mc=200, p_tx_watts=p_tx_watts)
    qos = loose_qos(zf, params, fraction)
    alloc, _ = solve_pce(zf, params, qos)
    # An overloaded water level on every step sends each one to the interior-point solver.
    with mock.patch.object(dinkelbach, "_water_level", lambda weight, cost, rho_hat, lower: lower + np.inf):
        barrier, _ = solve_pce(zf, params, qos)
    zf0 = perfect_view(zf)
    assert check_feasibility(alloc.eta, zf0, params, qos).feasible
    ee, ee_barrier = energy_efficiency(alloc.eta, zf0, params), energy_efficiency(barrier.eta, zf0, params)
    assert ee >= ee_barrier * (1.0 - 1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 4),
    extra_aps=st.integers(1, 8),
    seed=st.integers(0, 10_000),
    p_tx_watts=st.sampled_from([0.2, 1.0, 2.0]),
    fraction=st.sampled_from([0.0, 0.5, 0.9]),
)
def test_closed_form_optimum_is_stationary(k, extra_aps, seed, p_tx_watts, fraction):
    # Without a fallback every per-AP multiplier is zero, so at lambda = the
    # reduced EE each user above its floor has dN/deta_k = lambda dD/deta_k,
    # and each user at its floor has dN/deta_k <= lambda dD/deta_k.
    _, _, zf, params = build_instance(k + extra_aps, k, seed, n_mc=200, p_tx_watts=p_tx_watts)
    qos = loose_qos(zf, params, fraction)
    alloc, report = solve_pce(zf, params, qos)
    if report.inner_reports:
        return
    assert report.status == STATUS_CONVERGED
    eta = alloc.eta
    lam = reduced_energy_efficiency(eta, perfect_view(zf), params)
    d_numer = params.bandwidth_hz * params.prelog * params.rho_f / ((1.0 + params.rho_f * eta) * np.log(2.0))
    d_denom = lam * params.rho_f * params.n0_watts * (params.alpha @ zf.theta)
    excess = d_numer - d_denom
    eta_eq = equal_power_allocation(zf.theta).eta[0]
    at_floor = eta <= qos.sinr_floor / params.rho_f * (1.0 + 1e-9) + 1e-9 * eta_eq
    assert np.all(np.abs(excess[~at_floor]) <= 1e-5 * d_denom[~at_floor])
    assert np.all(excess[at_floor] <= 1e-5 * d_denom[at_floor])


def test_amplifier_power_matches_criterion_9_formula():
    # With max load < 1 and no QoS floor binding, stationarity gives the
    # amplifier power K B prelog / (ln2 EE_red) - alpha N0 sum_k c_k with
    # c_k = sum_m theta_mk. The cap rho_f drops out, so it is the same at 0.2 W
    # and 1.0 W: the criterion-9 shape (M=100, K=16, 1 bit/s/Hz floors).
    _, _, zf, _ = build_instance(100, 16, seed=0, n_mc=400)
    zf0 = perfect_view(zf)
    watts = []
    for p_tx_watts in (0.2, 1.0):
        params = make_power_params(m=100, tau_u=16, p_tx_watts=p_tx_watts)
        qos = QosSpec.from_floor(np.full(16, 1.0), params)
        alloc, report = solve_pce(zf, params, qos)
        assert report.status == STATUS_CONVERGED
        assert np.max(zf.theta @ alloc.eta) < 1.0
        assert np.all(alloc.eta > qos.sinr_floor / params.rho_f)
        ee_red = reduced_energy_efficiency(alloc.eta, zf0, params)
        predicted = 16 * params.bandwidth_hz * params.prelog / (np.log(2.0) * ee_red) - params.n0_watts * np.sum(
            params.alpha @ zf.theta
        )
        amplifier = transmit_power_watts(alloc.eta, zf.theta, params)
        assert amplifier == pytest.approx(predicted, rel=1e-6)
        watts.append(amplifier)
    assert watts[1] == pytest.approx(watts[0], rel=1e-6)
