import numpy as np
import pytest

from cellfree_ee.power import (
    QosSpec,
    ZfStatistics,
    check_feasibility,
    energy_efficiency,
    equal_power_allocation,
    make_power_params,
    noise_power_watts,
    per_user_rate,
    reduced_energy_efficiency,
    reduced_power,
    total_power,
)

NONFINITE = [np.nan, np.inf, -np.inf]


def _zf(gamma, theta):
    return ZfStatistics(gamma=np.asarray(gamma, float), theta=np.asarray(theta, float), n_realizations=1)


def test_noise_power_at_default_constants():
    # 290 K * k_B * 20 MHz * 9 dB noise figure.
    n0 = noise_power_watts(20e6, 9.0)
    assert n0 == pytest.approx(290 * 1.380649e-23 * 20e6 * 10**0.9, rel=1e-12)
    assert n0 == pytest.approx(6.36e-13, rel=5e-3)


class TestPerUserRate:
    def test_zero_power_gives_zero_rate(self):
        params = make_power_params(m=2, tau_u=4)
        rates = per_user_rate(np.zeros(4), np.zeros((4, 4)), params)
        assert np.all(rates == 0.0)

    def test_inverts_cleanly_without_interference(self):
        params = make_power_params(m=2, tau_u=4)
        z = np.array([1.0, 2.5, 7.0, 0.25])
        eta = (2.0**z - 1.0) / params.rho_f
        rates = per_user_rate(eta, np.zeros((4, 4)), params)
        assert np.allclose(rates, params.prelog * z, rtol=1e-12)

    def test_single_user_substitution(self):
        # Signal power 2 against unit noise plus unit interference: rate is
        # one payload bit per symbol.
        params = make_power_params(m=2, tau_u=4)
        eta = np.array([2.0 / params.rho_f])
        gamma = np.array([[0.5]])  # rho_f * gamma * eta == 1
        rate = per_user_rate(eta, gamma, params)
        assert rate[0] == pytest.approx(params.prelog * np.log2(1 + 2.0 / 2.0), rel=1e-12)

    def test_monotone_in_own_power_decreasing_in_others(self):
        params = make_power_params(m=4, tau_u=2)
        gamma = np.array([[0.2, 0.5], [0.1, 0.3]])  # O(1) interference coupling
        eta = np.array([3.0, 1.0]) / params.rho_f
        h = 1e-4 / params.rho_f
        for k in range(2):
            bump = eta.copy()
            bump[k] += h
            diff = per_user_rate(bump, gamma, params) - per_user_rate(eta, gamma, params)
            assert diff[k] > 0
            assert diff[1 - k] < 0


class TestTotalPower:
    def test_static_floor_at_zero_power(self):
        params = make_power_params(m=100, tau_u=16)
        theta = np.ones((100, 16))
        assert total_power(np.zeros(16), theta, params, 0.0) == pytest.approx(params.p_fixed)
        # default constants: 9 W static + 100 APs * (0.2 + 0.2) W
        assert params.p_fixed == pytest.approx(49.0)

    def test_traffic_term_is_linear(self):
        params = make_power_params(m=100, tau_u=16)
        theta = np.ones((100, 16))
        eta = np.zeros(16)
        base = total_power(eta, theta, params, 0.0)
        plus_gbit = total_power(eta, theta, params, 1e9)
        assert plus_gbit - base == pytest.approx(100 * 0.25, rel=1e-12)

    def test_affine_in_eta_with_positive_coefficients(self):
        params = make_power_params(m=3, tau_u=2)
        theta = np.array([[2.0, 1.0], [0.5, 3.0], [1.0, 1.0]]) / params.rho_f
        e1, e2 = np.array([1.0, 2.0]), np.array([0.5, 0.1])
        lhs = reduced_power(0.3 * e1 + 0.7 * e2, theta, params)
        rhs = 0.3 * reduced_power(e1, theta, params) + 0.7 * reduced_power(e2, theta, params)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert reduced_power(e1, theta, params) > reduced_power(np.zeros(2), theta, params)


class TestEnergyEfficiency:
    def test_zero_rate_gives_zero(self):
        params = make_power_params(m=2, tau_u=2)
        zf = _zf(np.zeros((2, 2)), np.ones((2, 2)))
        assert energy_efficiency(np.zeros(2), zf, params) == 0.0

    def test_ratio_identity_against_reciprocal_form(self):
        # The direct ratio and its rewritten reciprocal (reduced ratio plus
        # the traffic coefficient) must agree to machine precision.
        rng = np.random.default_rng(8)
        params = make_power_params(m=5, tau_u=3)
        for _ in range(100):
            theta = rng.uniform(0.5, 2.0, size=(5, 3)) / params.rho_f * params.rho_f
            gamma = rng.uniform(0.0, 0.5, size=(3, 3)) / params.rho_f
            zf = _zf(gamma, theta)
            eta = rng.uniform(0.01, 0.3, size=3) / theta.sum(axis=1).max()
            direct = energy_efficiency(eta, zf, params)
            via_reduced = 1.0 / (1.0 / reduced_energy_efficiency(eta, zf, params) + np.sum(params.p_btm))
            assert direct == pytest.approx(via_reduced, rel=1e-12)

    def test_shared_maximizer_with_reduced_ratio(self):
        # Grid oracle: on a 2-user grid the argmax of the full ratio matches
        # the argmax of the reduced ratio.
        rng = np.random.default_rng(21)
        params = make_power_params(m=4, tau_u=2)
        theta = rng.uniform(0.5, 2.0, size=(4, 2)) * 1e9
        gamma = rng.uniform(0.0, 0.2, size=(2, 2)) / params.rho_f
        zf = _zf(gamma, theta)
        ub = 1.0 / theta.max(axis=0)
        g1 = np.linspace(1e-14, ub[0], 120)
        g2 = np.linspace(1e-14, ub[1], 120)
        full = np.full((120, 120), -np.inf)
        red = np.full((120, 120), -np.inf)
        for i, a in enumerate(g1):
            for j, b in enumerate(g2):
                eta = np.array([a, b])
                if np.all(theta @ eta <= 1.0):
                    full[i, j] = energy_efficiency(eta, zf, params)
                    red[i, j] = reduced_energy_efficiency(eta, zf, params)
        assert np.unravel_index(np.argmax(full), full.shape) == np.unravel_index(np.argmax(red), red.shape)

    def test_no_traffic_cost_makes_both_ratios_equal(self):
        params = make_power_params(m=3, tau_u=2, p_bt_watts_per_gbps=0.0)
        zf = _zf(np.zeros((2, 2)), np.full((3, 2), 2e9))
        eta = np.array([1e-10, 2e-10])
        assert energy_efficiency(eta, zf, params) == pytest.approx(
            reduced_energy_efficiency(eta, zf, params), rel=1e-12
        )


class TestEqualPower:
    def test_unit_row_sums(self):
        alloc = equal_power_allocation(np.full((3, 4), 0.25))
        assert np.allclose(alloc.eta, 1.0)

    def test_worst_ap_exactly_loaded(self):
        rng = np.random.default_rng(2)
        theta = rng.uniform(0.1, 1.0, size=(6, 3))
        alloc = equal_power_allocation(theta)
        loads = theta @ alloc.eta
        assert loads.max() == pytest.approx(1.0, rel=1e-12)

    def test_single_user_scalar(self):
        alloc = equal_power_allocation(np.array([[0.25], [0.1]]))
        assert alloc.eta[0] == pytest.approx(4.0)

    def test_degenerate_theta_rejected(self):
        with pytest.raises(ValueError, match="positive row sum"):
            equal_power_allocation(np.zeros((2, 2)))


class TestCheckFeasibility:
    def _setup(self):
        params = make_power_params(m=3, tau_u=2)
        theta = np.array([[2.0, 1.0], [1.0, 2.0], [0.5, 0.5]]) * 1e9
        gamma = np.array([[0.01, 0.02], [0.005, 0.03]]) / params.rho_f
        return params, _zf(gamma, theta)

    def test_zero_power_zero_floor_is_feasible(self):
        params, zf = self._setup()
        qos = QosSpec.from_floor(np.zeros(2), params)
        assert check_feasibility(np.zeros(2), zf, params, qos).feasible

    def test_zero_power_positive_floor_lists_violations(self):
        params, zf = self._setup()
        qos = QosSpec.from_floor(np.ones(2), params)
        report = check_feasibility(np.zeros(2), zf, params, qos)
        assert not report
        assert len(report.violations) == 2
        assert all("rate short" in v for v in report.violations)

    def test_equal_power_tight_against_its_own_rates(self):
        params, zf = self._setup()
        alloc = equal_power_allocation(zf.theta)
        rates = per_user_rate(alloc.eta, zf.gamma, params)
        qos = QosSpec.from_floor(rates, params)
        report = check_feasibility(alloc.eta, zf, params, qos)
        assert report.feasible
        assert np.all(np.abs(report.qos_margin) <= 1e-12)
        assert report.ap_margin.min() == pytest.approx(0.0, abs=1e-12)

    def test_budget_violation_reported(self):
        params, zf = self._setup()
        qos = QosSpec.from_floor(np.zeros(2), params)
        alloc = equal_power_allocation(zf.theta)
        report = check_feasibility(alloc.eta * 1.5, zf, params, qos)
        assert not report.feasible
        assert any("budget" in v for v in report.violations)


class TestQosSpec:
    def test_tilde_floor_scaling(self):
        params = make_power_params(m=2, tau=200, tau_u=16)
        qos = QosSpec.from_floor(np.full(3, 1.0), params)
        assert np.allclose(qos.r_tilde, 200.0 / 184.0)
        assert np.allclose(qos.sinr_floor, 2.0 ** (200.0 / 184.0) - 1.0)

    def test_derived_floors_are_required_at_construction(self):
        # Built without them, the spec would fail only when a solver reads
        # its SINR floor.
        with pytest.raises(TypeError):
            QosSpec(r_bar=np.array([1.0]))

    def test_rejects_negative_floor(self):
        params = make_power_params(m=2, tau_u=2)
        with pytest.raises(ValueError):
            QosSpec.from_floor(np.array([-0.1]), params)

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_rejects_nonfinite_floor(self, bad):
        params = make_power_params(m=2, tau_u=2)
        with pytest.raises(ValueError, match="QoS floors must be nonnegative"):
            QosSpec.from_floor([bad, 1.0], params)


class TestPowerParamsRange:
    @pytest.mark.parametrize("bad", NONFINITE + [0.0, -1.0])
    @pytest.mark.parametrize("name", ["p_tx_watts", "p_ul_watts"])
    def test_rejects_nonpositive_or_nonfinite_power(self, name, bad):
        with pytest.raises(ValueError, match="normalized powers must be positive"):
            make_power_params(m=4, **{name: bad})
