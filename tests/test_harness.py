import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellfree_ee import harness
from cellfree_ee.cli import EXIT_ALL_INFEASIBLE, EXIT_CONFIG_ERROR, EXIT_OK, main
from cellfree_ee.harness import (
    AGGREGATE_HEADER,
    CSV_HEADER,
    REUSE_MAX_LOAD,
    ConfigError,
    ExperimentConfig,
    aggregate_rows,
    build_instance,
    rows_to_csv,
    run_point,
    run_seed,
    run_topology,
    sweep_m,
    sweep_rho_f,
    write_outputs,
)
from cellfree_ee.inner import InfeasibleStartError
from cellfree_ee.power import QosSpec, check_feasibility, make_power_params
from cellfree_ee.reports import STATUS_CONVERGED, STATUS_MAX_ITER
from cellfree_ee.sca import EE_TOL
from cellfree_ee.zfstats import SingularChannelError


def tiny_config(**overrides):
    base = dict(m_list=[12], k=3, n_topologies=2, n_mc=150, master_seed=11)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_empty_m_list_rejected(self):
        with pytest.raises(ConfigError, match="m_list"):
            tiny_config(m_list=[]).validate()

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            tiny_config(rho_f_w_list=[0.2, 0.0]).validate()

    def test_m_not_exceeding_k_rejected(self):
        with pytest.raises(ConfigError, match="exceed K"):
            tiny_config(m_list=[3]).validate()

    def test_tau_u_rule(self):
        assert tiny_config().tau_u_samples() == 3
        assert tiny_config(tau_u="8").tau_u_samples() == 8

    def test_qos_rules(self):
        assert tiny_config().qos_floor_for(3) is None
        assert np.allclose(tiny_config(qos="1.5").qos_floor_for(3), 1.5)
        assert np.allclose(tiny_config(qos="1,2,3").qos_floor_for(3), [1, 2, 3])
        with pytest.raises(ConfigError):
            tiny_config(qos="1,2").qos_floor_for(3)
        with pytest.raises(ConfigError):
            tiny_config(qos="fast").validate()

    def test_file_round_trip(self, tmp_path):
        # Every field set away from its default, so every annotation's parser runs.
        lines = {
            "m_list": ("12, 16", [12, 16]),
            "k": ("3", 3),
            "area_side_km": ("2.0", 2.0),
            "sigma_shad_db": ("6.0", 6.0),
            "d_min_km": ("0.02", 0.02),
            "tau": ("150", 150),
            "tau_u": ("8", "8"),
            "rho_f_w_list": ("0.1, 0.3", [0.1, 0.3]),
            "rho_r_w": ("0.05", 0.05),
            "qos": ("0.5", "0.5"),
            "bandwidth_hz": ("10e6", 10e6),
            "noise_figure_db": ("7.0", 7.0),
            "drain_efficiency": ("0.3", 0.3),
            "p_cir_w": ("8.0", 8.0),
            "p_cm_w": ("0.1", 0.1),
            "p_0m_w": ("0.3", 0.3),
            "p_bt_w_per_gbps": ("0.5", 0.5),
            "n_topologies": ("1", 1),
            "n_mc": ("100", 100),
            "master_seed": ("5", 5),
            "schemes": ("equal,pce", ("equal", "pce")),
        }
        fields = dataclasses.fields(ExperimentConfig)
        assert sorted(lines) == sorted(f.name for f in fields)
        default = ExperimentConfig()
        assert all(value != getattr(default, key) for key, (_, value) in lines.items())
        path = tmp_path / "sweep.cfg"
        text = "# comment line\n" + "".join(f"{key} = {raw}  # set\n" for key, (raw, _) in lines.items())
        path.write_text(text, encoding="utf-8")
        config = ExperimentConfig.from_file(path)
        for key, (_, value) in lines.items():
            assert getattr(config, key) == value, key
            assert type(getattr(config, key)) is type(value), key

    def test_readme_config_block_lists_every_field(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Config files", 1)[1]
        block = section.split("```", 2)[1]
        keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line]
        assert keys == [f.name for f in dataclasses.fields(ExperimentConfig)]

    def test_record_timings_is_an_unknown_key(self, tmp_path):
        path = tmp_path / "old.cfg"
        path.write_text("record_timings = true\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown key 'record_timings'"):
            ExperimentConfig.from_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("m_lisp = 10\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown key"):
            ExperimentConfig.from_file(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        # Left to the last line, a repeated key silently overrides the first.
        path = tmp_path / "twice.cfg"
        path.write_text("n_mc = 50\n# comment\nn_mc = 60\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"twice.cfg:3: key 'n_mc' repeats line 1"):
            ExperimentConfig.from_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="key=value"):
            ExperimentConfig.from_file(path)


class TestRunPoint:
    def test_rows_deterministic(self):
        config = tiny_config()
        seed = run_seed(config, 0)
        a = run_point(config, build_instance(config, 12, seed), 0.2)
        b = run_point(config, build_instance(config, 12, seed), 0.2)
        assert a == b

    def test_equal_row_always_converged(self):
        config = tiny_config()
        rows = run_point(config, build_instance(config, 12, run_seed(config, 0)), 0.2)
        equal = next(r for r in rows if r.scheme == "equal")
        assert equal.status == "converged"
        assert equal.iters == 0

    def test_optimizers_beat_baseline(self):
        config = tiny_config()
        for t in range(2):
            rows = {r.scheme: r for r in run_point(config, build_instance(config, 12, run_seed(config, t)), 0.2)}
            for scheme in ("pce", "ipce"):
                assert rows[scheme].ee_bits_per_joule >= rows["equal"].ee_bits_per_joule - 1e-6

    def test_scheme_subset_respected(self):
        config = tiny_config(schemes=("equal", "ipce"))
        rows = run_point(config, build_instance(config, 12, run_seed(config, 0)), 0.2)
        assert sorted(r.scheme for r in rows) == ["equal", "ipce"]


class TestSweeps:
    def test_csv_schema_and_order(self):
        rows = sweep_m(tiny_config())
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(rows)
        keys = [(r.m, r.rho_f_w, r.scheme, r.seed) for r in rows]
        assert keys == sorted(keys)

    def test_rerun_is_byte_identical(self):
        config = tiny_config()
        first = rows_to_csv(sweep_m(config))
        second = rows_to_csv(sweep_m(tiny_config()))
        assert first.encode() == second.encode()

    def test_single_topology_aggregate_equals_run(self):
        config = tiny_config(n_topologies=1)
        rows = sweep_m(config)
        agg = aggregate_rows(rows)
        for row in rows:
            line = next(l for l in agg.splitlines() if l.startswith(f"{row.scheme},{row.m},"))
            assert format(row.ee_bits_per_joule, ".10g") in line

    def test_rho_sweep_uses_first_m(self):
        config = tiny_config(m_list=[12, 64], rho_f_w_list=[0.2, 0.4], n_topologies=1)
        rows = sweep_rho_f(config)
        assert {r.m for r in rows} == {12}
        assert {r.rho_f_w for r in rows} == {0.2, 0.4}

    def test_rho_sweep_estimates_once_per_topology(self, monkeypatch):
        calls = []
        estimate = harness.estimate_zf_statistics

        def counted(*args, **kwargs):
            calls.append(args)
            return estimate(*args, **kwargs)

        monkeypatch.setattr(harness, "estimate_zf_statistics", counted)
        config = tiny_config(rho_f_w_list=[0.2, 0.4, 0.8], n_topologies=2)
        rows = sweep_rho_f(config)
        assert len(calls) == 2
        # A fresh instance per topology, each power warm-started from the
        # rows of the power before it.
        chained = []
        for t in range(config.n_topologies):
            instance = build_instance(config, 12, run_seed(config, t))
            warm = None
            for rho in config.rho_f_w_list:
                warm = run_point(config, instance, rho, warm=warm)
                chained.extend(warm)
        assert rows == sorted(chained, key=lambda r: (r.m, r.rho_f_w, r.scheme, r.seed))

    def test_descending_powers_warm_start_on_benchmark_seed(self):
        # A power after a larger one scales the larger power's optimum up by
        # the ratio of the powers. On this seed the scaled point leaves every
        # per-AP row slack down to 0.2 W, so every power after 2.2 W reuses
        # it; test_power_breaking_the_reuse_rule_is_solved covers a scaled
        # point that overloads an AP.
        config, instance = self._benchmark_seed_instance()
        config = dataclasses.replace(config, rho_f_w_list=config.rho_f_w_list[::-1], schemes=("ipce",))
        chained = run_topology(config, [100], 0, config.rho_f_w_list)
        cold = [run_point(config, instance, rho)[0] for rho in config.rho_f_w_list]
        assert [r.status for r in chained] == ["converged"] * len(cold)
        assert sum(r.iters for r in chained) < sum(r.iters for r in cold)
        for warm, ref in zip(chained, cold):
            assert warm.ee_bits_per_joule == pytest.approx(ref.ee_bits_per_joule, rel=EE_TOL)

    @staticmethod
    def _spy_ipce(monkeypatch, fail_first=False, max_iter_first=False):
        """Record the warm argument of every solve_ipce call; optionally raise on the first or report it max-iter."""
        warms = []
        solve = harness.solve_ipce

        def spy(zf, params, qos, warm=None):
            warms.append(warm)
            if fail_first and len(warms) == 1:
                raise InfeasibleStartError("start violates a constraint by 1.000e-16")
            alloc, report = solve(zf, params, qos, warm=warm)
            if max_iter_first and len(warms) == 1:
                report.status = STATUS_MAX_ITER
            return alloc, report

        monkeypatch.setattr(harness, "solve_ipce", spy)
        return warms

    def test_power_after_infeasible_row_cold_starts(self, monkeypatch):
        # A 1.0 bit/s/Hz floor cannot be met at 0.01 W but can at 0.2 W,
        # where no per-AP row binds, so 0.4 W reuses the 0.2 W optimum.
        config = tiny_config(rho_f_w_list=[0.01, 0.2, 0.4], qos="1.0", n_topologies=1)
        warms = self._spy_ipce(monkeypatch)
        rows = run_topology(config, [12], 0, config.rho_f_w_list)
        ipce = [r for r in rows if r.scheme == "ipce"]
        assert [r.status for r in ipce] == ["infeasible", "converged", "converged"]
        assert warms == [None, None]
        cold = run_point(config, build_instance(config, 12, run_seed(config, 0)), 0.2)
        assert rows[len(config.schemes):2 * len(config.schemes)] == cold
        assert ipce[2].iters == 0
        assert ipce[2].ee_bits_per_joule == pytest.approx(ipce[1].ee_bits_per_joule, rel=1e-12)

    # Each case breaks one condition of the reuse rule, so the second power's
    # IPCE row is solved again, warm-started from the first. slack says
    # whether the first power's busiest load is at most REUSE_MAX_LOAD before
    # and after scaling it to the second power.
    @pytest.mark.parametrize("qos, caps, max_iter_first, slack", [
        ("equal-power-rate", [0.4, 0.8], False, (True, True)),
        ("1.0", [0.2, 0.4], True, (True, True)),
        ("0", [0.001, 0.002], False, (False, True)),
        ("1.0", [1.0, 0.05], False, (True, False)),
    ], ids=["equal-power-rate-floors", "max-iter-source", "binding-source", "descending-overload"])
    def test_power_breaking_the_reuse_rule_is_solved(self, monkeypatch, qos, caps, max_iter_first, slack):
        config = tiny_config(rho_f_w_list=caps, qos=qos, n_topologies=1, schemes=("ipce",))
        warms = self._spy_ipce(monkeypatch, max_iter_first=max_iter_first)
        source, row = run_topology(config, [12], 0, caps)
        load = np.max(build_instance(config, 12, run_seed(config, 0)).zf.theta @ source.eta)
        assert (load <= REUSE_MAX_LOAD, load * caps[0] / caps[1] <= REUSE_MAX_LOAD) == slack
        assert source.status == (STATUS_MAX_ITER if max_iter_first else STATUS_CONVERGED)
        assert len(warms) == 2 and warms[1] is not None
        assert row.iters > 0

    def test_power_after_error_row_cold_starts(self, monkeypatch):
        config = tiny_config(rho_f_w_list=[0.2, 0.4, 0.8], n_topologies=1)
        warms = self._spy_ipce(monkeypatch, fail_first=True)
        rows = run_topology(config, [12], 0, config.rho_f_w_list)
        ipce = [r for r in rows if r.scheme == "ipce"]
        assert ipce[0].status == "error:InfeasibleStartError"
        assert warms[1] is None and warms[2] is not None
        monkeypatch.undo()
        cold = run_point(config, build_instance(config, 12, run_seed(config, 0)), 0.4)
        assert rows[len(config.schemes):2 * len(config.schemes)] == cold

    def test_rising_floors_keep_warm_starts_converged(self):
        # Under the equal-power-rate rule the floors rise with the power, so
        # the scaled optimum of the smaller power can miss a floor; the warm
        # start then steps towards it only as far as every row allows.
        config = tiny_config(rho_f_w_list=[0.2, 0.4, 0.8], n_topologies=3)
        rows = sweep_rho_f(config)
        assert all(r.status == "converged" for r in rows)

    def test_rising_floors_warm_start_on_benchmark_seed(self):
        # The sweep_rhof benchmark op with equal-power-rate floors, master
        # seed 300000: every scaled optimum misses a risen floor, and the
        # partial step towards it still saves outer iterations.
        config = ExperimentConfig(m_list=[100], k=16, rho_f_w_list=[round(0.2 * i, 1) for i in range(1, 12)],
                                  qos="equal-power-rate", n_mc=400, n_topologies=1, master_seed=300000,
                                  schemes=("ipce",))
        chained = run_topology(config, [100], 0, config.rho_f_w_list)
        instance = build_instance(config, 100, run_seed(config, 0))
        cold = [run_point(config, instance, rho)[0] for rho in config.rho_f_w_list]
        assert [r.status for r in chained] == ["converged"] * len(cold)
        assert sum(r.iters for r in chained) < sum(r.iters for r in cold)
        for warm, ref in zip(chained, cold):
            assert warm.ee_bits_per_joule == pytest.approx(ref.ee_bits_per_joule, rel=EE_TOL)

    @staticmethod
    def _benchmark_seed_instance():
        # The sweep_rhof benchmark op at master seed 300042: cold solves at
        # 1.2-2.2 W take SCA steps that lower the true EE unless halved.
        config = ExperimentConfig(m_list=[100], k=16, rho_f_w_list=[round(0.2 * i, 1) for i in range(1, 12)],
                                  qos="1.0", n_mc=400, n_topologies=1, master_seed=300042)
        return config, build_instance(config, 100, run_seed(config, 0))

    def test_warm_starts_converge_on_benchmark_seed(self):
        config, instance = self._benchmark_seed_instance()
        warm, statuses = None, []
        for rho in config.rho_f_w_list:
            warm = run_point(config, instance, rho, warm=warm)
            statuses.append(next(r for r in warm if r.scheme == "ipce").status)
        assert statuses == ["converged"] * len(config.rho_f_w_list)

    def test_cold_solves_converge_on_benchmark_seed(self):
        config, instance = self._benchmark_seed_instance()
        powers = [rho for rho in config.rho_f_w_list if rho >= 1.2]
        statuses = [next(r for r in run_point(config, instance, rho) if r.scheme == "ipce").status for rho in powers]
        assert statuses == ["converged"] * 6

    def test_outputs_without_csv_suffix(self, tmp_path):
        out = str(tmp_path / "rows")
        assert write_outputs([], out) == (out, out + "_agg.csv")
        assert (tmp_path / "rows").read_text().startswith(CSV_HEADER)
        assert (tmp_path / "rows_agg.csv").read_text().startswith(AGGREGATE_HEADER)

    def test_aggregate_counts_infeasible(self):
        config = tiny_config(qos="50.0", schemes=("equal", "pce"), n_topologies=1)
        rows = sweep_m(config)
        agg = aggregate_rows(rows)
        pce_line = next(l for l in agg.splitlines() if l.startswith("pce,"))
        fields = pce_line.split(",")
        assert fields[5] == "1" and fields[6] == "0" and fields[7] == "1"
        assert fields[8] == "nan"

    def test_aggregate_counts_only_converged_rows_as_converged(self):
        nan = float("nan")
        rows = [
            harness._row(tiny_config(), 12, 0.2, seed, "ipce", ee_bits_per_joule=ee, sum_se=se, iters=3, status=status)
            for seed, ee, se, status in ((1, 2.0e6, 4.0, "converged"), (2, 1.0e6, 2.0, "max-iter"),
                                          (3, nan, nan, "infeasible"))
        ]
        fields = aggregate_rows(rows).splitlines()[1].split(",")
        assert fields[5:8] == ["3", "1", "1"]
        assert fields[8] == "1500000"  # the max-iter row's EE enters the mean

    def test_raising_solve_becomes_an_error_row(self, monkeypatch):
        config = tiny_config()
        clean = sweep_m(config)

        def broken(zf, params, qos, warm=None):
            raise InfeasibleStartError("start violates a constraint by 1.000e-16")

        monkeypatch.setattr(harness, "solve_ipce", broken)
        rows = sweep_m(tiny_config())
        assert [r for r in rows if r.scheme != "ipce"] == [r for r in clean if r.scheme != "ipce"]
        failed = [r for r in rows if r.scheme == "ipce"]
        assert len(failed) == config.n_topologies
        assert all(r.status == "error:InfeasibleStartError" and np.isnan(r.ee_bits_per_joule) for r in failed)
        ipce_line = next(l for l in aggregate_rows(rows).splitlines() if l.startswith("ipce,"))
        assert ipce_line.split(",")[5:8] == ["2", "0", "2"]

    def test_singular_topology_becomes_error_rows(self, monkeypatch):
        config = tiny_config(rho_f_w_list=[0.2, 0.4], n_topologies=2)
        clean = sweep_rho_f(config)
        estimate = harness.estimate_zf_statistics
        calls = []

        def singular_first(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise SingularChannelError("rejection rate 2.00% exceeds 1% (20/1000)")
            return estimate(*args, **kwargs)

        monkeypatch.setattr(harness, "estimate_zf_statistics", singular_first)
        rows = sweep_rho_f(config)
        bad_seed = run_seed(config, 0)
        failed = [r for r in rows if r.seed == bad_seed]
        assert len(failed) == len(config.rho_f_w_list) * len(config.schemes)
        assert all(r.status == "error:SingularChannelError" and np.isnan(r.ee_bits_per_joule) for r in failed)
        assert [r for r in rows if r.seed != bad_seed] == [r for r in clean if r.seed != bad_seed]
        for line in aggregate_rows(rows).splitlines()[1:]:
            assert line.split(",")[5:8] == ["2", "1", "1"]


# ROADMAP direction 5's draw: one user floored at its equal-power rate, whose
# 30.1 W rows have the floor met only at full load at M=8 and at M=21.
SINGLE_USER_AT_FULL_LOAD = ExperimentConfig(
    m_list=[8, 21], k=1, area_side_km=0.13947866999574365, sigma_shad_db=1.4638014478193195, d_min_km=0.01,
    tau=152, rho_f_w_list=[0.0012012485269906352, 0.0021761310899917545, 30.114561630967305],
    rho_r_w=0.0014318700412615357, qos="equal-power-rate", p_cir_w=100.0, p_cm_w=0.2, p_0m_w=0.0,
    p_bt_w_per_gbps=0.0, n_topologies=1, n_mc=115, master_seed=4147082304,
)
# ROADMAP direction 4's draw: no fixed consumption, so the optimum is the floor point.
QOS_FACE = ExperimentConfig(
    m_list=[13, 23], k=1, area_side_km=2.4177619879425154, sigma_shad_db=19.2636343347947, d_min_km=0.001,
    tau=137, rho_f_w_list=[0.00013123549676573917, 0.0002188558423363407, 3.501292610842143],
    rho_r_w=0.0002620981569145874, qos="0.0225", p_cir_w=0.0, p_cm_w=0.0, p_0m_w=0.0, p_bt_w_per_gbps=0.25,
    n_topologies=1, n_mc=267, master_seed=599982113,
)
# One user at a sum SE near 1e-8 bit/s/Hz, floored at its equal-power rate:
# log2(1 + x) and 2**r - 1 each lose about eps/SINR there, which once made
# both 1.41 mW ipce rows read infeasible next to a converged equal row.
SINGLE_USER_AT_TINY_SINR = ExperimentConfig(
    m_list=[5, 10], k=1, area_side_km=6.020026082688569, sigma_shad_db=2.313207474395127, tau=45,
    rho_f_w_list=[0.0014135322446902898, 0.011717630361922212, 0.029329042859641094], rho_r_w=0.0483622036179605,
    qos="equal-power-rate", p_cir_w=9.0, n_topologies=1, n_mc=210, master_seed=4137740519,
)
KNOWN_STATUSES = {"converged", "max-iter", "infeasible"} | {
    f"error:{name}" for name in ("NonConcaveObjectiveError", "InfeasibleStartError", "SingularChannelError")
}


def test_single_user_floored_at_full_load_is_its_only_feasible_point():
    # The floor is met only where the busiest AP is at load 1, so the IPCE
    # optimum is the equal-power point itself, found without iterating.
    config = SINGLE_USER_AT_FULL_LOAD
    rows = run_topology(config, config.m_list, 0, config.rho_f_w_list)
    at_cap = {(r.m, r.scheme): r for r in rows if r.rho_f_w == config.rho_f_w_list[-1]}
    for m in config.m_list:
        ipce, equal = at_cap[m, "ipce"], at_cap[m, "equal"]
        assert (ipce.status, ipce.iters) == ("converged", 0)
        assert ipce.ee_bits_per_joule == pytest.approx(equal.ee_bits_per_joule, rel=1e-12)


def test_single_user_at_tiny_sinr_meets_its_equal_power_floor():
    # The equal-power point meets every equal-power-rate floor, so the ipce
    # row is feasible and ends at that point's EE.
    config = SINGLE_USER_AT_TINY_SINR
    rows = run_topology(config, config.m_list, 0, config.rho_f_w_list)
    at_low = {(r.m, r.scheme): r for r in rows if r.rho_f_w == config.rho_f_w_list[0]}
    for m in config.m_list:
        ipce, equal = at_low[m, "ipce"], at_low[m, "equal"]
        assert equal.status == ipce.status == "converged"
        assert ipce.ee_bits_per_joule == pytest.approx(equal.ee_bits_per_joule, rel=1e-6)


@st.composite
def valid_configs(draw, qos=None):
    """One-topology configs that validate() accepts, over ROADMAP direction 5's ranges."""
    k = draw(st.integers(1, 6))
    m_list = draw(st.lists(st.integers(k + 1, k + 24), min_size=1, max_size=2, unique=True))
    caps = draw(st.lists(st.floats(-4.0, np.log10(30.0)).map(lambda e: 10**e), min_size=3, max_size=3, unique=True))
    qos = qos or draw(st.one_of(st.just("0"), st.just("equal-power-rate"), st.floats(-3.0, 1.0).map(lambda e: str(10**e))))
    return ExperimentConfig(
        m_list=m_list, k=k, area_side_km=10 ** draw(st.floats(np.log10(0.03), 1.0)),
        sigma_shad_db=draw(st.floats(0.0, 20.0)), d_min_km=draw(st.sampled_from([0.001, 0.01])),
        tau=draw(st.integers(k + 1, 200)), rho_f_w_list=caps,
        rho_r_w=10 ** draw(st.floats(-4.0, 0.0)), qos=qos, p_cir_w=draw(st.sampled_from([0.0, 9.0, 100.0])),
        p_cm_w=draw(st.sampled_from([0.0, 0.2])), p_0m_w=draw(st.sampled_from([0.0, 0.2])),
        p_bt_w_per_gbps=draw(st.sampled_from([0.0, 0.25])), n_topologies=1, n_mc=draw(st.integers(20, 300)),
        master_seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(config=valid_configs())
@example(config=SINGLE_USER_AT_FULL_LOAD)
@example(config=QOS_FACE)
def test_any_valid_config_gives_one_known_status_row_per_point(config):
    # One bad topology or solve gives a status row and the sweep goes on.
    config.validate()
    rows = run_topology(config, config.m_list, 0, config.rho_f_w_list)
    assert len(rows) == len(config.m_list) * len(config.rho_f_w_list) * len(config.schemes)
    assert {r.status for r in rows} <= KNOWN_STATUSES


@settings(max_examples=40, deadline=None, derandomize=True)
@given(config=valid_configs(qos="equal-power-rate"))
@example(config=SINGLE_USER_AT_TINY_SINR)
def test_equal_power_rate_floors_are_never_infeasible(config):
    # The equal-power point meets each user's equal-power rate, so neither
    # optimizer may call the problem infeasible.
    rows = run_topology(config, config.m_list, 0, config.rho_f_w_list)
    assert not [(r.m, r.rho_f_w, r.scheme) for r in rows if r.scheme != "equal" and r.status == "infeasible"]


# Relative EE gap allowed between a reused row and a cold solve at its cap.
# Reuse is exact in theory, but both sides stop within the solvers'
# tolerances, and converged rows on a face can stop up to 25 EE_TOL short
# (ROADMAP direction 4), so the two can differ by a few times that.
# perfbench's reference check uses the same 1e-4.
REUSE_EE_BOUND = 1e-4


@st.composite
def fixed_floor_chains(draw):
    """One-topology configs with fixed floors, zero included, and an ascending or descending cap list."""
    k = draw(st.integers(1, 4))
    caps = draw(st.lists(st.floats(-1.5, np.log10(3.0)).map(lambda e: 10**e), min_size=3, max_size=3, unique=True))
    qos = draw(st.one_of(st.just("0"), st.floats(-3.0, 0.0).map(lambda e: str(10**e))))
    return ExperimentConfig(
        m_list=[draw(st.integers(k + 1, 12))], k=k, rho_f_w_list=sorted(caps, reverse=draw(st.booleans())),
        qos=qos, n_topologies=1, n_mc=draw(st.integers(50, 200)), master_seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(config=fixed_floor_chains())
# Zero floors, ascending then descending: the IPCE rows at 1.0 and 0.5 W and
# the PCE row at 0.5 W are reused, from a 0.2 W IPCE row that stopped about
# 2e-6 short of the EE a warm re-solve at those caps reaches.
@example(config=ExperimentConfig(m_list=[10], k=3, rho_f_w_list=[0.01, 0.05, 0.2, 1.0, 0.5], qos="0",
                                 n_topologies=1, n_mc=1000, master_seed=33))
def test_reused_rows_are_feasible_optima_at_their_cap(config):
    # Wherever the rule holds the row is the scaled source: it keeps the
    # source's status, takes 0 iterations, meets every row at its own cap,
    # and its EE is a cold solve's there.
    m = config.m_list[0]
    rows = {(r.rho_f_w, r.scheme): r for r in run_topology(config, config.m_list, 0, config.rho_f_w_list)}
    instance = build_instance(config, m, run_seed(config, 0))
    zf = instance.zf
    views = {"ipce": zf, "pce": dataclasses.replace(zf, gamma=np.zeros_like(zf.gamma))}
    for prev, rho in zip(config.rho_f_w_list, config.rho_f_w_list[1:]):
        cold = {r.scheme: r for r in run_point(config, instance, rho)}
        for scheme, view in views.items():
            source, row = rows[prev, scheme], rows[rho, scheme]
            if source.status != STATUS_CONVERGED:
                continue
            load = np.max(zf.theta @ source.eta)
            if max(load, load * prev / rho) > REUSE_MAX_LOAD:
                continue
            assert (row.status, row.iters) == (source.status, 0)
            assert np.array_equal(row.eta, source.eta * (prev / rho))
            params = make_power_params(m=m, bandwidth_hz=config.bandwidth_hz, p_tx_watts=rho,
                                       noise_figure_db=config.noise_figure_db, tau=config.tau, tau_u=config.k)
            qos = QosSpec.from_floor(config.qos_floor_for(config.k), params)
            assert check_feasibility(row.eta, view, params, qos).feasible
            assert row.ee_bits_per_joule == pytest.approx(cold[scheme].ee_bits_per_joule, rel=REUSE_EE_BOUND)


def _per_instance_rows(config):
    """sweep_m's rows from one instance per (M, topology), each drawing its own normals."""
    rows = [r for t in range(config.n_topologies) for m in config.m_list
            for r in run_point(config, build_instance(config, m, run_seed(config, t)), config.rho_f_w_list[0])]
    return sorted(rows, key=lambda r: (r.m, r.rho_f_w, r.scheme, r.seed))


class TestSharedNormalsSweep:
    # Every M of a topology reads one normal stream; the rows must be those of
    # instances that draw their normals alone.
    @pytest.mark.parametrize("config", [
        tiny_config(m_list=[6, 12, 20]),
        # n_mc = 1500 > ZF_BATCH: every M reads past the pre-drawn first batch.
        ExperimentConfig(m_list=[8, 12, 16], k=2, n_mc=1500, n_topologies=2, master_seed=300001),
    ], ids=["tiny", "k2-past-prefix"])
    def test_rows_equal_per_instance_draws(self, config):
        rows, want = sweep_m(config), _per_instance_rows(config)
        assert rows == want
        assert rows_to_csv(rows) == rows_to_csv(want)

    # n_mc = 1500 > ZF_BATCH: the instance reads past the pre-drawn first batch.
    @pytest.mark.parametrize("n_mc", [150, 1500])
    def test_single_equals_first_power_of_sweep_rhof(self, tmp_path, n_mc):
        # single runs the sweeps' path: its rows are topology 0's at the
        # first power, which is a cold solve in every sweep.
        config = tiny_config(m_list=[12, 20], rho_f_w_list=[0.2, 0.4], n_mc=n_mc)
        cfg = tmp_path / "single.cfg"
        cfg.write_text(f"m_list = 12,20\nk = 3\nrho_f_w_list = 0.2,0.4\nn_topologies = 2\nn_mc = {n_mc}\n"
                       "master_seed = 11\n", encoding="utf-8")
        out = tmp_path / "single.csv"
        assert main(["single", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        want = [r for r in sweep_rho_f(config) if r.seed == run_seed(config, 0) and r.rho_f_w == 0.2]
        assert len(want) == len(config.schemes)
        assert out.read_text(encoding="utf-8") == rows_to_csv(want)

    def test_singular_instance_leaves_the_others_unchanged(self, monkeypatch):
        config = tiny_config(m_list=[6, 12, 20])
        clean = _per_instance_rows(config)
        estimate = harness.estimate_zf_statistics
        calls_at_12 = []

        def singular_second_at_12(stats, *args, **kwargs):
            if stats.shape[0] == 12:
                calls_at_12.append(None)
                if len(calls_at_12) == 2:  # topology 1
                    raise SingularChannelError("rejection rate 2.00% exceeds 1% (20/1000)")
            return estimate(stats, *args, **kwargs)

        monkeypatch.setattr(harness, "estimate_zf_statistics", singular_second_at_12)
        rows = sweep_m(config)
        bad = (12, run_seed(config, 1))
        failed = [r for r in rows if (r.m, r.seed) == bad]
        assert len(failed) == len(config.schemes)
        assert all(r.status == "error:SingularChannelError" and np.isnan(r.ee_bits_per_joule) for r in failed)
        assert [r for r in rows if (r.m, r.seed) != bad] == [r for r in clean if (r.m, r.seed) != bad]


class TestCli:
    def test_single_prints_csv(self, capsys):
        code = main(["single", "--schemes", "equal", "--mc", "100"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.out.startswith(CSV_HEADER)

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("unknown_key = 1\n", encoding="utf-8")
        assert main(["single", "--config", str(bad)]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize(
        "line, extra",
        [
            ("area_side_km = 0", []),
            ("sigma_shad_db = -1", []),
            ("d_min_km = -0.1", []),
            ("bandwidth_hz = 0", []),
            ("drain_efficiency = 0", []),
            ("noise_figure_db = nan", []),
            ("p_cm_w = -0.2", []),
            ("rho_f_w_list = 0.2,inf", []),
            ("qos = nan", []),
            ("", ["--seed", "-1"]),
            ("k = abc", []),
            ("tau_u = abc", []),
            ("m_list = 20,20", []),
            ("rho_f_w_list = 0.2,0.2", []),
            ("schemes = ipce,ipce", []),
            ("", ["--schemes", "pce,pce"]),
            ("n_mc = 50\nn_mc = 60", []),
        ],
    )
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, line, extra):
        # Rejected before the run: left to it, these raise deep inside
        # (ZeroDivisionError, LinAlgError, ValueError), give rows of a
        # meaningless model, or give rows under one key that aggregate_rows
        # counts as separate runs.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert main(["single", "--config", str(cfg), *extra]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("error:")

    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys):
        # UnicodeDecodeError is a ValueError raised while reading, before any
        # value is parsed; left alone it ends the command with a traceback.
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"# caf\xe9\nn_mc = 50\n")
        assert main(["single", "--config", str(cfg)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and "latin1.cfg" in err and "UTF-8" in err

    @pytest.mark.parametrize("argv", [["sweep-m", "--seed", "abc"], ["single", "--topologies", "5"]])
    def test_usage_error_is_a_config_error(self, capsys, argv):
        # argparse's own code 2 would read as "every optimized run failed".
        assert main(argv) == EXIT_CONFIG_ERROR

    def test_help_exits_ok(self, capsys):
        assert main(["single", "--help"]) == EXIT_OK
        assert "--topologies" not in capsys.readouterr().out

    def test_missing_out_directory_is_rejected_before_solving(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "build_instance", lambda *args: pytest.fail("an instance was built"))
        out = tmp_path / "missing" / "x.csv"
        assert main(["single", "--mc", "50", "--schemes", "equal", "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("error:")

    def test_unwritable_out_path_is_a_config_error(self, tmp_path, capsys):
        # The directory exists but the path names a directory, so opening it
        # for writing raises IsADirectoryError after the run.
        assert main(["single", "--mc", "50", "--schemes", "equal", "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("error:")

    def test_failed_aggregate_write_leaves_no_csv(self, tmp_path, monkeypatch, capsys):
        # The aggregate path names a directory, so its write fails; the
        # per-run CSV, written last, must not be left behind.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x_agg.csv").mkdir()
        assert main(["single", "--mc", "50", "--schemes", "equal", "--out", "x.csv"]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "x.csv").exists()

    def test_missing_config_file_exit_code(self):
        assert main(["single", "--config", "/nonexistent.cfg"]) == EXIT_CONFIG_ERROR

    def test_single_singular_topology_exit_code(self, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise SingularChannelError("rejection rate 2.00% exceeds 1% (20/1000)")

        monkeypatch.setattr(harness, "estimate_zf_statistics", singular)
        code = main(["single", "--schemes", "equal,ipce", "--mc", "100"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert code == EXIT_ALL_INFEASIBLE
        assert lines[0] == CSV_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["equal", "ipce"]
        assert all(line.split(",")[9] == "error:SingularChannelError" for line in lines[1:])

    def test_all_infeasible_exit_code(self, tmp_path):
        cfg = tmp_path / "hard.cfg"
        cfg.write_text(
            "m_list = 12\nk = 3\nqos = 50.0\nn_topologies = 1\nn_mc = 100\nschemes = pce,ipce\n",
            encoding="utf-8",
        )
        assert main(["single", "--config", str(cfg)]) == EXIT_ALL_INFEASIBLE

    def test_sweep_writes_files_byte_identical(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "m_list = 12\nk = 3\nn_topologies = 2\nn_mc = 120\nmaster_seed = 4\n",
            encoding="utf-8",
        )
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["sweep-m", "--config", str(cfg), "--out", str(out_a)]) == EXIT_OK
        assert main(["sweep-m", "--config", str(cfg), "--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        agg_a = tmp_path / "a_agg.csv"
        agg_b = tmp_path / "b_agg.csv"
        assert agg_a.read_bytes() == agg_b.read_bytes()
        assert agg_a.read_text().startswith("scheme,M,K,rho_f_w,qos_rule,n_runs")
