import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_instance, grid_best_ee, loose_qos, perfect_view

from cellfree_ee import sca
from cellfree_ee.dinkelbach import GAP_TOL, solve_pce
from cellfree_ee.harness import ExperimentConfig, build_instance as build_harness_instance, run_seed
from cellfree_ee.inner import feasible_point, solve_inner
from cellfree_ee.power import (
    QosSpec,
    ZfStatistics,
    check_feasibility,
    energy_efficiency,
    equal_power_allocation,
    make_power_params,
    per_user_rate,
    reduced_power,
)
from cellfree_ee.reports import STATUS_CONVERGED, STATUS_INFEASIBLE, STATUS_MAX_ITER, SolveReport
from cellfree_ee.sca import (
    build_surrogate,
    concave_model,
    fractional_objective,
    sca_step,
    solve_ipce,
    surrogate_value,
)


def _unit_instance():
    """Contrived single-user instance with x_bar = 1 and t_bar = 1.

    rho_f * z^2 = 1 at the expansion point and the reduced power is pinned
    to one watt by choosing the amplifier term and the fixed power as halves.
    """
    params = make_power_params(m=1, tau_u=1, p_cir_watts=0.5, p_cm_watts=0.0, p_0m_watts=0.0)
    eta = 1.0 / params.rho_f  # so rho_f * eta = 1
    # amplifier term: rho_f * n0 * alpha * theta * eta == 0.5
    theta_val = 0.5 / (params.rho_f * params.n0_watts * params.alpha[0] * eta)
    zf = ZfStatistics(gamma=np.zeros((1, 1)), theta=np.array([[theta_val]]), n_realizations=1)
    return params, zf, np.array([np.sqrt(eta)])


class TestBuildSurrogate:
    def test_coefficients_at_unit_point(self):
        params, zf, z = _unit_instance()
        surr = build_surrogate(z, zf, params)
        assert surr.x_n[0] == pytest.approx(1.0, rel=1e-12)
        assert surr.t_n == pytest.approx(1.0, rel=1e-12)
        assert surr.a[0] == pytest.approx(2 * np.log(2) + 0.5, rel=1e-12)
        assert surr.b[0] == pytest.approx(0.5, rel=1e-12)
        assert surr.c[0] == pytest.approx(np.log(2), rel=1e-12)

    def test_tight_at_expansion_point(self, small_instance):
        _, _, zf, params = small_instance
        rng = np.random.default_rng(0)
        eq = equal_power_allocation(zf.theta)
        for _ in range(10):
            z = np.sqrt(eq.eta * rng.uniform(0.3, 1.0, size=2))
            surr = build_surrogate(z, zf, params)
            truth = fractional_objective(z, zf, params)
            assert surrogate_value(surr, z, zf, params) == pytest.approx(truth, rel=1e-10)
            assert concave_model(surr, zf, params)[0](z) == pytest.approx(truth, rel=1e-10)

    def test_positive_coefficients(self, small_instance):
        _, _, zf, params = small_instance
        eq = equal_power_allocation(zf.theta)
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = np.sqrt(eq.eta * rng.uniform(0.05, 1.0, size=2))
            surr = build_surrogate(z, zf, params)
            assert np.all(surr.a > 0) and np.all(surr.b > 0) and np.all(surr.c > 0)

    def test_no_interference_drops_cross_terms(self):
        # With gamma = 0 the model reduces to a - b/(rho eta) - c * power.
        params, zf, z = _unit_instance()
        surr = build_surrogate(z, zf, params)
        probe = z * 1.3
        expected = (
            surr.a[0]
            - surr.b[0] / (params.rho_f * probe[0] ** 2)
            - surr.c[0] * reduced_power(probe**2, zf.theta, params)
        )
        assert surrogate_value(surr, probe, zf, params) == pytest.approx(expected, rel=1e-12)
        assert concave_model(surr, zf, params)[0](probe) == pytest.approx(expected, rel=1e-12)

    def test_rejects_point_below_floor(self, small_instance):
        _, _, zf, params = small_instance
        with pytest.raises(ValueError, match="floor"):
            build_surrogate(np.array([1e-30, 1e-30]), zf, params)


class TestConcaveModelGradient:
    def test_gradient_matches_central_differences(self, small_instance):
        _, _, zf, params = small_instance
        eq = equal_power_allocation(zf.theta)
        rng = np.random.default_rng(5)
        z_bar = np.sqrt(eq.eta * 0.7)
        surr = build_surrogate(z_bar, zf, params)
        value, gradient, hessian = concave_model(surr, zf, params)
        for _ in range(5):
            z = np.sqrt(eq.eta * rng.uniform(0.3, 0.95, size=2))
            grad = gradient(z)
            for j in range(2):
                h = 1e-6 * z[j]
                zp, zm = z.copy(), z.copy()
                zp[j] += h
                zm[j] -= h
                numeric = (value(zp) - value(zm)) / (2 * h)
                assert grad[j] == pytest.approx(numeric, rel=1e-6)
            diag = hessian(z)
            assert np.all(diag < 0.0)


class TestScaStep:
    def test_fixed_point_returns_expansion(self, small_instance):
        _, _, zf, params = small_instance
        qos = loose_qos(zf, params)
        alloc, _ = solve_ipce(zf, params, qos)
        z_star = np.sqrt(alloc.eta)
        surr = build_surrogate(z_star, zf, params)
        z_next, _ = sca_step(surr, zf, params, qos)
        model = concave_model(surr, zf, params)[0]
        assert model(z_next) - model(z_star) <= 1e-9 * max(1.0, abs(model(z_star)))

    def test_step_stays_feasible_for_original_problem(self, small_instance):
        _, _, zf, params = small_instance
        qos = loose_qos(zf, params)
        start, _ = feasible_point(zf, params, qos)
        z = np.sqrt(start.eta)
        surr = build_surrogate(z, zf, params)
        z_next, _ = sca_step(surr, zf, params, qos)
        assert check_feasibility(z_next**2, zf, params, qos).feasible

    def test_step_ascends_its_model_and_model_ordering(self, small_instance):
        # Two structural guarantees: the step cannot decrease the concave
        # model, and the concavified model never exceeds the as-written one
        # (its leftover convex quadratic was replaced by a tangent from below).
        # Whether the as-written model stays below the true ratio far from the
        # expansion point is the monitored open question, not asserted here.
        _, _, zf, params = small_instance
        qos = loose_qos(zf, params)
        eq = equal_power_allocation(zf.theta)
        start, _ = feasible_point(zf, params, qos)
        anchor = start.eta
        rng = np.random.default_rng(17)
        for _ in range(5):
            # the constraint set is a polytope in eta, so blends stay feasible
            s = rng.uniform(0.0, 1.0)
            z = np.sqrt((1.0 - s) * anchor + s * 0.98 * eq.eta)
            surr = build_surrogate(z, zf, params)
            z_next, _ = sca_step(surr, zf, params, qos)
            model = concave_model(surr, zf, params)[0]
            assert model(z_next) >= model(z) - 1e-12 * max(1.0, abs(model(z)))
            probe = np.sqrt(eq.eta * rng.uniform(0.2, 1.0, size=2))
            assert model(probe) <= surrogate_value(surr, probe, zf, params) + 1e-12


class TestSolveIpce:
    def test_matches_perfect_solver_without_interference(self, small_instance):
        _, _, zf, params = small_instance
        qos = loose_qos(zf, params)
        zf0 = perfect_view(zf)
        pce_alloc, _ = solve_pce(zf, params, qos)
        ipce_alloc, report = solve_ipce(zf0, params, qos)
        assert report.status == STATUS_CONVERGED
        ee_pce = energy_efficiency(pce_alloc.eta, zf0, params)
        ee_ipce = energy_efficiency(ipce_alloc.eta, zf0, params)
        assert abs(ee_ipce - ee_pce) <= 5e-3 * ee_pce

    @pytest.mark.parametrize("seed", [2, 9])
    def test_two_user_grid_oracle(self, seed):
        _, _, zf, params = build_instance(8, 2, seed=seed)
        qos = loose_qos(zf, params)
        alloc, report = solve_ipce(zf, params, qos)
        ee = energy_efficiency(alloc.eta, zf, params)
        assert ee >= 0.98 * grid_best_ee(zf, params, qos)
        assert report.ascent_violations == 0

    def test_trajectory_nondecreasing_and_feasible(self, small_instance):
        _, _, zf, params = small_instance
        qos = loose_qos(zf, params)
        alloc, report = solve_ipce(zf, params, qos)
        traj = np.array(report.ee_trajectory)
        assert np.all(np.diff(traj) >= -1e-8 * traj[:-1])
        assert check_feasibility(alloc.eta, zf, params, qos).feasible
        assert report.outer_iterations <= 50

    def test_returns_the_last_iterate(self, small_instance):
        # F never falls, so the last iterate is the best one.
        _, _, zf, params = small_instance
        alloc, report = solve_ipce(zf, params, loose_qos(zf, params))
        assert alloc.eta is report.iterates[-1]
        assert report.ee_trajectory[-1] >= max(report.ee_trajectory) * (1.0 - 1e-12)

    def test_infeasible_floor_reported(self):
        _, _, zf, params = build_instance(6, 2, seed=4, n_mc=500)
        qos = QosSpec.from_floor(np.full(2, 1e3), params)
        alloc, report = solve_ipce(zf, params, qos)
        assert alloc is None and report.status == STATUS_INFEASIBLE

    def test_beats_equal_power_baseline(self, small_instance):
        _, _, zf, params = small_instance
        qos = loose_qos(zf, params)
        equal = equal_power_allocation(zf.theta)
        alloc, _ = solve_ipce(zf, params, qos)
        assert energy_efficiency(alloc.eta, zf, params) >= energy_efficiency(equal.eta, zf, params) - 1e-6

    @pytest.mark.parametrize("stalled_call", ["earlier", "last"])
    def test_converged_needs_the_last_model_solve_converged(self, small_instance, monkeypatch, stalled_call):
        # Mark one model solve as stopped at its iteration cap, leaving the
        # iterates untouched: only a stalled last solve may demote the status.
        _, _, zf, params = small_instance
        qos = loose_qos(zf, params)
        _, report = solve_ipce(zf, params, qos)
        assert report.status == STATUS_CONVERGED
        n_calls = len(report.inner_reports)
        assert n_calls >= 2
        stalled = n_calls if stalled_call == "last" else n_calls - 1
        calls = []

        def inner(*args, **kwargs):
            x, kkt = solve_inner(*args, **kwargs)
            calls.append(None)
            if len(calls) == stalled:
                kkt = dataclasses.replace(kkt, status=STATUS_MAX_ITER)
            return x, kkt

        monkeypatch.setattr(sca, "solve_inner", inner)
        _, flagged = solve_ipce(zf, params, qos)
        assert flagged.ee_trajectory == report.ee_trajectory
        assert flagged.status == (STATUS_MAX_ITER if stalled_call == "last" else STATUS_CONVERGED)


def test_model_solves_converge_at_the_sca_fixed_point():
    # The solver_k2 benchmark op (K=2, n_mc=1500, equal-power-rate floors) at
    # master seed 300004, M=12: the model solves end next to the fixed point,
    # where a pure primal barrier stalled at stationarity 2e-6-1e-5.
    config = ExperimentConfig(m_list=[8, 12, 16], k=2, rho_f_w_list=[0.2], n_mc=1500, n_topologies=1,
                              master_seed=300004)
    zf = build_harness_instance(config, 12, run_seed(config, 0)).zf
    params = make_power_params(m=12, tau_u=2, p_tx_watts=0.2)
    equal = equal_power_allocation(zf.theta)
    floor = float(np.min(per_user_rate(equal.eta, zf.gamma, params)))
    _, report = solve_ipce(zf, params, QosSpec.from_floor(np.full(2, floor), params))
    assert report.status == STATUS_CONVERGED
    assert all(kkt.status == STATUS_CONVERGED for kkt in report.inner_reports)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 4),
    extra_aps=st.integers(1, 8),
    seed=st.integers(0, 10_000),
    p_tx_watts=st.sampled_from([0.02, 0.2, 1.0]),
    ratio=st.sampled_from([1.1, 2.0, 5.0]),
    fraction=st.sampled_from([0.0, 0.5, 0.9]),
)
def test_warm_start_from_smaller_cap(k, extra_aps, seed, p_tx_watts, ratio, fraction):
    # The optimum at the smaller cap, scaled by the ratio of the caps, keeps
    # every SINR and the watts drawn, so the warm start is feasible and its EE
    # is the EE found at the smaller cap.
    m = k + extra_aps
    _, _, zf, params = build_instance(m, k, seed, n_mc=200, p_tx_watts=p_tx_watts)
    qos = loose_qos(zf, params, fraction)
    first, _ = solve_ipce(zf, params, qos)
    larger = make_power_params(m=m, tau_u=k, p_tx_watts=p_tx_watts * ratio)
    cold, _ = solve_ipce(zf, larger, qos)
    warm, _ = solve_ipce(zf, larger, qos, warm=first.eta / ratio)
    assert check_feasibility(warm.eta, zf, larger, qos).feasible
    ee_first = energy_efficiency(first.eta, zf, params)
    ee_cold, ee_warm = energy_efficiency(cold.eta, zf, larger), energy_efficiency(warm.eta, zf, larger)
    assert ee_warm >= ee_first * (1.0 - 1e-6)
    assert ee_warm == pytest.approx(ee_cold, rel=1e-6)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 4),
    extra_aps=st.integers(1, 8),
    seed=st.integers(0, 10_000),
    p_tx_watts=st.sampled_from([0.02, 0.2, 1.0]),
    fraction=st.sampled_from([0.0, 0.5, 0.9]),
)
@example(k=4, extra_aps=7, seed=7534, p_tx_watts=1.0, fraction=0.5)  # a full step here lowers the EE by 7.4%
def test_ee_trajectory_never_falls(k, extra_aps, seed, p_tx_watts, fraction):
    # A step that lowers F is halved back along the segment, so with
    # interference, where the model is not a minorant, the true EE still
    # never falls from one iterate to the next.
    _, _, zf, params = build_instance(k + extra_aps, k, seed, n_mc=200, p_tx_watts=p_tx_watts)
    assert np.all(zf.gamma > 0.0)
    _, report = solve_ipce(zf, params, loose_qos(zf, params, fraction))
    trajectory = np.array(report.ee_trajectory)
    assert np.all(trajectory[1:] >= trajectory[:-1] * (1.0 - 1e-12))
    assert report.ascent_violations == 0


def test_single_user_floored_at_the_equal_power_rate_gets_equal_power():
    # The floor is the rate at equal power, which loads the busiest AP to
    # one: equal power is the only feasible point, so it is the optimum.
    _, _, zf, params = build_instance(5, 1, seed=2581, n_mc=300, p_tx_watts=1.0)
    eq = equal_power_allocation(zf.theta).eta
    for solve, view in ((solve_ipce, zf), (solve_pce, perfect_view(zf))):
        alloc, report = solve(view, params, loose_qos(view, params, 1.0))
        assert report.status == STATUS_CONVERGED and report.outer_iterations == 0
        ee_equal = energy_efficiency(eq, view, params)
        assert energy_efficiency(alloc.eta, view, params) == pytest.approx(ee_equal, rel=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 4),
    extra_aps=st.integers(1, 8),
    seed=st.integers(0, 10_000),
    p_tx_watts=st.sampled_from([0.02, 0.2, 1.0]),
    fraction=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_returned_allocations_are_feasible(k, extra_aps, seed, p_tx_watts, fraction):
    # Floors at most the worst equal-power rate keep equal power feasible,
    # so both solvers must return an allocation that meets every row.
    _, _, zf, params = build_instance(k + extra_aps, k, seed, n_mc=200, p_tx_watts=p_tx_watts)
    qos = loose_qos(zf, params, fraction)
    for solve, view in ((solve_pce, perfect_view(zf)), (solve_ipce, zf)):
        alloc, _ = solve(zf, params, qos)
        assert alloc is not None
        assert check_feasibility(alloc.eta, view, params, qos).feasible


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 4),
    extra_aps=st.integers(1, 8),
    seed=st.integers(0, 10_000),
    p_tx_watts=st.sampled_from([0.02, 0.2, 1.0]),
    fraction=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_optimized_ee_at_least_equal_power(k, extra_aps, seed, p_tx_watts, fraction):
    # Floors at most the worst equal-power rate keep equal power feasible, so
    # each solver must end at least as high, up to its own stopping tolerance.
    _, _, zf, params = build_instance(k + extra_aps, k, seed, n_mc=200, p_tx_watts=p_tx_watts)
    qos = loose_qos(zf, params, fraction)
    eq = equal_power_allocation(zf.theta).eta
    for solve, view, tol in ((solve_pce, perfect_view(zf), GAP_TOL), (solve_ipce, zf, sca.EE_TOL)):
        alloc, _ = solve(zf, params, qos)
        assert energy_efficiency(alloc.eta, view, params) >= energy_efficiency(eq, view, params) * (1.0 - tol)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 4),
    extra_aps=st.integers(1, 8),
    seed=st.integers(0, 10_000),
    p_tx_watts=st.sampled_from([0.02, 0.2, 1.0]),
    fraction=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_perfect_csi_ee_at_least_imperfect(k, extra_aps, seed, p_tx_watts, fraction):
    # The IPCE optimum meets every PCE row (interference only lowers a rate),
    # and its EE rises when the interference is zeroed, so the PCE optimum,
    # found to GAP_TOL, is at least the IPCE EE.
    _, _, zf, params = build_instance(k + extra_aps, k, seed, n_mc=200, p_tx_watts=p_tx_watts)
    qos = loose_qos(zf, params, fraction)
    pce, _ = solve_pce(zf, params, qos)
    ipce, _ = solve_ipce(zf, params, qos)
    ee_ipce = energy_efficiency(ipce.eta, zf, params)
    assert energy_efficiency(pce.eta, perfect_view(zf), params) >= ee_ipce * (1.0 - GAP_TOL)


def test_ascent_violations_count_falls_in_the_trajectory():
    assert SolveReport(ee_trajectory=[1.0, 0.5, 0.6]).ascent_violations == 1
    assert SolveReport(ee_trajectory=[1.0, 1.0 - 1e-9, 2.0]).ascent_violations == 0
    assert SolveReport().ascent_violations == 0


def test_model_solve_tolerance_is_relative_on_a_small_objective():
    # F is about 5e-5 here; against an absolute tolerance the model solve
    # stopped at AP load 0.99, 1% below the best EE on a grid over eta.
    _, _, zf, params = build_instance(2, 1, seed=0, p_tx_watts=0.022)
    qos = QosSpec.from_floor(np.zeros(1), params)
    alloc, report = solve_ipce(zf, params, qos)
    assert report.status == STATUS_CONVERGED
    cap = 1.0 / zf.theta.max()
    grid_best = max(energy_efficiency(np.array([eta]), zf, params) for eta in np.linspace(0.0, cap, 2001)[1:])
    assert energy_efficiency(alloc.eta, zf, params) >= grid_best * (1.0 - 1e-4)


def test_warm_point_violating_a_row_starts_strictly_inside(small_instance):
    # Twice equal power overloads the busiest AP; the start steps towards it
    # only as far as every row allows, then blends with the interior point.
    _, _, zf, params = small_instance
    qos = loose_qos(zf, params)
    cold, _ = solve_ipce(zf, params, qos)
    overloaded = 2.0 * equal_power_allocation(zf.theta).eta
    warm, report = solve_ipce(zf, params, qos, warm=overloaded)
    start = check_feasibility(report.iterates[0], zf, params, qos)
    assert start.qos_margin.min() > 0.0 and start.ap_margin.min() > 0.0 and report.iterates[0].min() > 0.0
    assert report.status == STATUS_CONVERGED
    ee_cold = energy_efficiency(cold.eta, zf, params)
    assert energy_efficiency(warm.eta, zf, params) == pytest.approx(ee_cold, rel=sca.EE_TOL)


def test_warm_point_meeting_every_row_is_blended_unchanged(small_instance):
    _, _, zf, params = small_instance
    qos = loose_qos(zf, params)
    warm = 0.9 * equal_power_allocation(zf.theta).eta
    assert check_feasibility(warm, zf, params, qos, tol=0.0).feasible
    _, report = solve_ipce(zf, params, qos, warm=warm)
    start, _ = feasible_point(zf, params, qos)
    blend = (1.0 - sca.WARM_BLEND) * warm + sca.WARM_BLEND * start.eta
    z = np.maximum(np.sqrt(blend), 1.5 * sca._floor_z(zf.theta))
    assert np.array_equal(report.iterates[0], z * z)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 4),
    extra_aps=st.integers(1, 8),
    seed=st.integers(0, 10_000),
    p_tx_watts=st.sampled_from([0.02, 0.2, 1.0]),
    fraction=st.sampled_from([0.0, 0.5, 0.9]),
)
def test_ap_permutation_leaves_the_solves_unchanged(k, extra_aps, seed, p_tx_watts, fraction):
    # Reordering the APs reorders the rows of theta and nothing else (every
    # per-AP power constant is the same), so both solvers must find the same
    # status and, up to roundoff in the sums over APs, the same EE.
    m = k + extra_aps
    _, _, zf, params = build_instance(m, k, seed, n_mc=200, p_tx_watts=p_tx_watts)
    qos = loose_qos(zf, params, fraction)
    order = np.random.default_rng(seed).permutation(m)
    permuted = dataclasses.replace(zf, theta=zf.theta[order])
    for solve, view in ((solve_pce, perfect_view), (solve_ipce, lambda z: z)):
        alloc, report = solve(zf, params, qos)
        alloc_p, report_p = solve(permuted, params, qos)
        assert report_p.status == report.status
        if alloc is not None:
            ee = energy_efficiency(alloc.eta, view(zf), params)
            assert energy_efficiency(alloc_p.eta, view(permuted), params) == pytest.approx(ee, rel=1e-7)
