"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The heavy trend criteria (8 and 9) drive the same harness
code paths the CLI uses.
"""

import time

import numpy as np
import pytest

from conftest import build_instance, grid_best_ee, loose_qos, perfect_view

from cellfree_ee.harness import ExperimentConfig, rows_to_csv, sweep_m, sweep_rho_f
from cellfree_ee.dinkelbach import solve_pce
from cellfree_ee.power import (
    QosSpec,
    check_feasibility,
    energy_efficiency,
    equal_power_allocation,
    make_power_params,
    per_user_rate,
)
from cellfree_ee.propagation import draw_realization, mmse_stats
from cellfree_ee.sca import build_surrogate, concave_model, fractional_objective, solve_ipce, surrogate_value
from cellfree_ee.zfstats import estimate_zf_statistics, validate_sinr, zf_matrix


def _report(number, passed, detail, started):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} ({elapsed:.1f}s) {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_zf_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for m in (8, 16):
        for k in (2, 4):
            for _ in range(25):
                g = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2)
                b = zf_matrix(g)
                worst = max(worst, float(np.max(np.abs(g.T @ b - np.eye(k)))))
    _report(1, worst <= 1e-8, f"max |G^T B - I| = {worst:.2e} over 100 draws", started)


def test_criterion_2_mmse_statistics():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    beta = 10.0 ** rng.uniform(-12, -8, size=(4, 3))
    stats = mmse_stats(beta, rho_r=1.5e11, tau_u=3)
    exact = bool(np.array_equal(stats.var_hat + stats.var_err, beta))

    n = 100_000
    hat_power = np.zeros_like(beta)
    err_power = np.zeros_like(beta)
    for _ in range(n):
        real = draw_realization(stats, rng)
        hat_power += np.abs(real.g_hat) ** 2
        err_power += np.abs(real.g_err) ** 2
    ok_hat = np.all(np.abs(hat_power / n - stats.var_hat) <= 3.0 * stats.var_hat / np.sqrt(n))
    ok_err = np.all(np.abs(err_power / n - stats.var_err) <= 3.0 * stats.var_err / np.sqrt(n))
    _report(
        2,
        exact and bool(ok_hat) and bool(ok_err),
        f"complementarity exact: {exact}, 1e5-draw variances within 3 se: {bool(ok_hat and ok_err)}",
        started,
    )


def test_criterion_3_signal_level_bridge():
    started = time.perf_counter()
    _, stats, _, params = build_instance(16, 2, seed=8, n_mc=100)
    rng = np.random.default_rng(31)
    zf = estimate_zf_statistics(stats, 10_000, rng)
    eta = equal_power_allocation(zf.theta).eta * 0.8
    out = validate_sinr(stats, zf, eta, params.rho_f, n_mc=100_000, rng=rng)
    desired_exact = np.allclose(out.desired, params.rho_f * eta, rtol=0, atol=0)
    predicted_se = params.rho_f * (zf.gamma_se @ eta)
    combined = 3.0 * np.sqrt(out.interference_se**2 + predicted_se**2)
    gap = np.abs(out.interference - out.predicted_interference)
    _report(
        3,
        desired_exact and bool(np.all(gap <= combined)),
        f"interference gap {gap} vs 3 se {combined}",
        started,
    )


def test_criterion_4_dinkelbach_vs_grid():
    started = time.perf_counter()
    failures = []
    max_iters = 0
    for seed in range(10):
        _, _, zf, params = build_instance(8, 2, seed=seed, n_mc=1500)
        qos = loose_qos(zf, params)
        zf0 = perfect_view(zf)
        alloc, report = solve_pce(zf, params, qos)
        max_iters = max(max_iters, report.outer_iterations)
        ee = energy_efficiency(alloc.eta, zf0, params)
        best = grid_best_ee(zf0, params, qos)
        if abs(ee - best) > 0.01 * best or report.outer_iterations > 15:
            failures.append((seed, ee / best, report.outer_iterations))
    _report(4, not failures, f"10 instances within 1% of 400x400 grid, max outer iters {max_iters}", started)


def test_criterion_5_sca_vs_grid():
    started = time.perf_counter()
    good = 0
    flagged = 0
    feasible_everywhere = True
    ascending = True
    for seed in range(20):
        _, _, zf, params = build_instance(8, 2, seed=seed, n_mc=1500)
        qos = loose_qos(zf, params)
        alloc, report = solve_ipce(zf, params, qos)
        ee = energy_efficiency(alloc.eta, zf, params)
        if ee >= 0.98 * grid_best_ee(zf, params, qos):
            good += 1
        flagged += report.ascent_violations > 0
        for eta in report.iterates:
            if not check_feasibility(eta, zf, params, qos).feasible:
                feasible_everywhere = False
        traj = np.array(report.ee_trajectory)
        if not np.all(np.diff(traj) >= -1e-8 * np.abs(traj[:-1])):
            ascending = False
    detail = f"{good}/20 seeds >= 98% of grid, EE falls in {flagged}/20, iterates feasible: {feasible_everywhere}"
    _report(5, good >= 18 and feasible_everywhere and ascending, detail, started)


def test_criterion_6_cross_solver_consistency():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        _, _, zf, params = build_instance(10, 2, seed=seed, n_mc=800)
        qos = loose_qos(zf, params)
        zf0 = perfect_view(zf)
        pce_alloc, _ = solve_pce(zf, params, qos)
        ipce_alloc, _ = solve_ipce(zf0, params, qos)
        ee_p = energy_efficiency(pce_alloc.eta, zf0, params)
        ee_i = energy_efficiency(ipce_alloc.eta, zf0, params)
        worst = max(worst, abs(ee_i - ee_p) / ee_p)
    _report(6, worst <= 5e-3, f"max relative gap {worst:.2e} over 10 instances", started)


def test_criterion_7_surrogate_contracts():
    started = time.perf_counter()
    _, _, zf, params = build_instance(8, 2, seed=12, n_mc=1500)
    eq = equal_power_allocation(zf.theta)
    rng = np.random.default_rng(5)
    tight = True
    positive = True
    grad_ok = True
    for _ in range(20):
        z = np.sqrt(eq.eta * rng.uniform(0.1, 1.0, size=2))
        surr = build_surrogate(z, zf, params)
        truth = fractional_objective(z, zf, params)
        tight &= abs(surrogate_value(surr, z, zf, params) - truth) <= 1e-10 * abs(truth)
        positive &= bool(np.all(surr.a > 0) and np.all(surr.b > 0) and np.all(surr.c > 0))
        value, gradient, _ = concave_model(surr, zf, params)
        probe = np.sqrt(eq.eta * rng.uniform(0.3, 1.0, size=2))
        grad = gradient(probe)
        for j in range(2):
            h = 1e-6 * probe[j]
            zp, zm = probe.copy(), probe.copy()
            zp[j] += h
            zm[j] -= h
            numeric = (value(zp) - value(zm)) / (2 * h)
            grad_ok &= abs(grad[j] - numeric) <= 1e-6 * max(abs(numeric), 1e-12)
    _report(7, tight and positive and grad_ok, f"tight={tight} positive={positive} gradient={grad_ok}", started)


def test_criterion_8_ee_versus_ap_count():
    started = time.perf_counter()
    config = ExperimentConfig(
        m_list=[20, 40, 60, 80, 100, 120],
        k=16,
        n_topologies=30,
        n_mc=500,
        master_seed=2,
    )
    rows = sweep_m(config)
    means = {}
    for scheme in ("equal", "pce", "ipce"):
        means[scheme] = np.array(
            [np.mean([r.ee_bits_per_joule for r in rows if r.scheme == scheme and r.m == m]) for m in config.m_list]
        )
    dominated = bool(np.all(means["pce"] > means["equal"]) and np.all(means["ipce"] > means["equal"]))
    interior = True
    argmax = {}
    for scheme, curve in means.items():
        idx = int(np.argmax(curve))
        argmax[scheme] = config.m_list[idx]
        interior &= 0 < idx < len(config.m_list) - 1
    step = config.m_list[1] - config.m_list[0]
    ordered = argmax["pce"] <= argmax["ipce"] + step and argmax["ipce"] <= argmax["equal"] + step
    detail = (
        f"optimized>equal at every M: {dominated}, interior maxima: {interior}, "
        f"argmax pce/ipce/equal = {argmax['pce']}/{argmax['ipce']}/{argmax['equal']}"
    )
    _report(8, dominated and interior and ordered, detail, started)


def test_criterion_9_ee_versus_transmit_power():
    started = time.perf_counter()
    rho_list = [round(0.2 + 0.2 * i, 1) for i in range(11)]  # 0.2 .. 2.2 W
    config = ExperimentConfig(
        m_list=[100],
        k=16,
        rho_f_w_list=rho_list,
        qos="1.0",
        n_topologies=30,
        n_mc=400,
        master_seed=3,
    )
    rows = sweep_rho_f(config)
    passed = True
    details = []
    for scheme in ("pce", "ipce"):
        curve = {
            rho: np.mean([r.ee_bits_per_joule for r in rows if r.scheme == scheme and r.rho_f_w == rho])
            for rho in (0.2, 1.0, 2.2)
        }
        growth = curve[1.0] >= 1.10 * curve[0.2]
        saturated = abs(curve[2.2] - curve[1.0]) <= 0.05 * curve[1.0]
        details.append(f"{scheme}: EE(1.0)/EE(0.2)={curve[1.0] / curve[0.2]:.4f} (need >= 1.10), "
                       f"|EE(2.2)-EE(1.0)|/EE(1.0)={abs(curve[2.2] - curve[1.0]) / curve[1.0]:.4f} (need <= 0.05)")
        passed = passed and growth and saturated
    _report(9, passed, "; ".join(details), started)


def test_criterion_10_reproducibility(tmp_path):
    started = time.perf_counter()
    config_text = "m_list = 20\nk = 4\nn_topologies = 3\nn_mc = 200\nmaster_seed = 9\n"
    cfg = tmp_path / "repro.cfg"
    cfg.write_text(config_text, encoding="utf-8")
    first = rows_to_csv(sweep_m(ExperimentConfig.from_file(cfg)))
    second = rows_to_csv(sweep_m(ExperimentConfig.from_file(cfg)))
    _report(10, first.encode() == second.encode(), f"{len(first.encode())} bytes identical", started)
