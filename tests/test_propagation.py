import numpy as np
import pytest

from cellfree_ee.propagation import (
    draw_realization,
    generate_topology,
    large_scale_fading,
    mmse_stats,
    pairwise_wrapped_distances,
    wrapped_distance,
)

NONFINITE = [np.nan, np.inf, -np.inf]


class TestGenerateTopology:
    def test_points_inside_square(self):
        topo = generate_topology(4, 2, 1.0, seed=7)
        pts = np.vstack([topo.ap_positions, topo.user_positions])
        assert pts.shape == (6, 2)
        assert np.all(pts >= 0.0) and np.all(pts < 1.0)

    def test_deterministic_given_seed(self):
        a = generate_topology(4, 2, 1.0, seed=7)
        b = generate_topology(4, 2, 1.0, seed=7)
        assert np.array_equal(a.ap_positions, b.ap_positions)
        assert np.array_equal(a.user_positions, b.user_positions)

    def test_rejects_fewer_aps_than_users(self):
        with pytest.raises(ValueError, match="m >= k"):
            generate_topology(1, 2, 1.0, seed=0)

    @pytest.mark.parametrize("m,k,side", [(0, 1, 1.0), (1, 0, 1.0), (2, 1, 0.0)])
    def test_rejects_bad_parameters(self, m, k, side):
        with pytest.raises(ValueError):
            generate_topology(m, k, side, seed=0)

    @pytest.mark.parametrize("side", NONFINITE)
    def test_rejects_nonfinite_side(self, side):
        with pytest.raises(ValueError, match="area_side must be positive"):
            generate_topology(2, 1, side, seed=0)


class TestWrappedDistance:
    def test_identical_points(self):
        assert wrapped_distance((0.3, 0.4), (0.3, 0.4), 1.0) == 0.0

    def test_wraps_across_edge(self):
        assert wrapped_distance((0.0, 0.0), (0.9, 0.0), 1.0) == pytest.approx(0.1)

    def test_interior_pair(self):
        assert wrapped_distance((0.0, 0.0), (0.5, 0.5), 1.0) == pytest.approx(np.sqrt(0.5))

    def test_symmetry_triangle_and_bound(self):
        rng = np.random.default_rng(11)
        side = 2.0
        pts = rng.uniform(0, side, size=(40, 2))
        bound = side * np.sqrt(0.5)
        for _ in range(300):
            i, j, l = rng.integers(0, len(pts), size=3)
            dij = wrapped_distance(pts[i], pts[j], side)
            assert dij == pytest.approx(wrapped_distance(pts[j], pts[i], side))
            assert dij <= bound + 1e-12
            assert dij <= wrapped_distance(pts[i], pts[l], side) + wrapped_distance(pts[l], pts[j], side) + 1e-12


class TestLargeScaleFading:
    def _single_link_beta(self, d):
        # Side 4 km keeps the torus metric out of the way for d <= 2 km.
        topo = generate_topology(1, 1, 4.0, seed=0)
        topo.ap_positions[0] = (0.0, 0.0)
        topo.user_positions[0] = (d, 0.0)
        return large_scale_fading(topo, sigma_shad_db=0.0, rng=0)[0, 0]

    def test_one_km_reference(self):
        assert self._single_link_beta(1.0) == pytest.approx(10.0**-13.6, rel=1e-12)

    def test_hundred_meters(self):
        assert self._single_link_beta(0.1) == pytest.approx(10.0**-10.1, rel=1e-12)

    def test_shadowing_scales_by_decibels(self):
        # An X-dB shadowing draw must multiply the unshadowed gain by 10^(X/10);
        # reproduce the generator's normals to know X for every link.
        topo = generate_topology(3, 2, 1.0, seed=5)
        base = large_scale_fading(topo, sigma_shad_db=0.0, rng=1)
        shadow_db = np.random.default_rng(1).normal(0.0, 8.0, size=base.shape)
        shadowed = large_scale_fading(topo, sigma_shad_db=8.0, rng=np.random.default_rng(1))
        assert np.allclose(shadowed, base * 10.0 ** (shadow_db / 10.0), rtol=1e-12)
        eight = base * 10.0**0.8
        assert np.all((shadowed > eight) == (shadow_db > 8.0))

    def test_distance_floor(self):
        assert self._single_link_beta(0.0) == pytest.approx(10.0 ** (-13.6 - 3.5 * np.log10(0.01)), rel=1e-12)

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_rejects_nonfinite_shadowing(self, bad):
        topo = generate_topology(2, 1, 1.0, seed=0)
        with pytest.raises(ValueError, match="shadowing standard deviation must be nonnegative"):
            large_scale_fading(topo, sigma_shad_db=bad, rng=0)

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_rejects_nonfinite_distance_floor(self, bad):
        topo = generate_topology(2, 1, 1.0, seed=0)
        with pytest.raises(ValueError, match="distance floor must be nonnegative"):
            large_scale_fading(topo, sigma_shad_db=8.0, d_min_km=bad, rng=0)

    def test_decreasing_in_distance_without_shadowing(self):
        ds = np.linspace(0.02, 1.4, 50)
        betas = [self._single_link_beta(d) for d in ds]
        assert np.all(np.diff(betas) < 0)
        assert np.all(np.array(betas) > 0)


class TestMmseStats:
    def test_zero_channel(self):
        beta = np.array([[0.0], [1.0]])
        stats = mmse_stats(beta, rho_r=1.0, tau_u=1)
        assert stats.var_hat[0, 0] == 0.0
        assert stats.var_err[0, 0] == 0.0

    def test_unit_snr_split(self):
        stats = mmse_stats(np.array([[1.0]]), rho_r=1.0, tau_u=1)
        assert stats.var_hat[0, 0] == pytest.approx(0.5)
        assert stats.var_err[0, 0] == pytest.approx(0.5)

    def test_asymptotically_perfect(self):
        stats = mmse_stats(np.array([[1.0]]), rho_r=1e12, tau_u=1)
        assert stats.var_hat[0, 0] == pytest.approx(1.0, rel=1e-9)
        assert stats.var_err[0, 0] == pytest.approx(1e-12, rel=1e-3)

    def test_complementarity_is_exact(self):
        rng = np.random.default_rng(3)
        beta = 10.0 ** rng.uniform(-14, -6, size=(60, 16))
        stats = mmse_stats(beta, rho_r=1.5e11, tau_u=16)
        assert np.array_equal(stats.var_hat + stats.var_err, beta)
        assert np.all(stats.var_hat >= 0) and np.all(stats.var_err >= 0)

    def test_rejects_short_pilots(self):
        with pytest.raises(ValueError, match="tau_u"):
            mmse_stats(np.ones((4, 3)), rho_r=1.0, tau_u=2)

    @pytest.mark.parametrize("rho_r", NONFINITE + [0.0, -1.0])
    def test_rejects_nonpositive_or_nonfinite_rho_r(self, rho_r):
        with pytest.raises(ValueError, match="rho_r must be positive"):
            mmse_stats(np.ones((4, 3)), rho_r=rho_r, tau_u=3)


class TestDrawRealization:
    def test_perfect_csi_has_zero_error(self):
        beta = np.full((3, 2), 1e-10)
        stats = mmse_stats(beta, rho_r=1.0, tau_u=2)
        exact = type(stats)(var_hat=stats.var_hat + stats.var_err, var_err=np.zeros_like(beta))
        real = draw_realization(exact, rng=0)
        assert np.all(real.g_err == 0.0)
        assert np.array_equal(real.g, real.g_hat)

    def test_deterministic_given_seed(self):
        stats = mmse_stats(np.full((2, 2), 1.0), rho_r=1.0, tau_u=2)
        a = draw_realization(stats, rng=42)
        b = draw_realization(stats, rng=42)
        assert np.array_equal(a.g_hat, b.g_hat) and np.array_equal(a.g_err, b.g_err)

    def test_same_stream_and_bits_as_two_draws_per_matrix(self):
        # The real and imaginary parts come from one rng call per matrix and
        # must equal the literal scale * (re + 1j * im) of two calls, bit for bit.
        beta = 10.0 ** np.random.default_rng(3).uniform(-13.0, -9.0, size=(7, 3))
        stats = mmse_stats(beta, rho_r=1e11, tau_u=3)
        real = draw_realization(stats, rng=5)
        rng = np.random.default_rng(5)
        for var, got in ((stats.var_hat, real.g_hat), (stats.var_err, real.g_err)):
            want = np.sqrt(var / 2.0) * (rng.standard_normal(var.shape) + 1j * rng.standard_normal(var.shape))
            assert got.tobytes() == want.tobytes()

    def test_sample_variance_matches_statistics(self):
        # Monte-Carlo oracle: the sample second moment of n complex-Gaussian
        # draws has standard error var / sqrt(n) (|g|^2 is exponential).
        beta = np.array([[2.0, 0.5], [1.0, 3.0]])
        stats = mmse_stats(beta, rho_r=2.0, tau_u=2)
        n = 100_000
        rng = np.random.default_rng(9)
        hat_power = np.zeros_like(beta)
        err_power = np.zeros_like(beta)
        for _ in range(n):
            real = draw_realization(stats, rng)
            hat_power += np.abs(real.g_hat) ** 2
            err_power += np.abs(real.g_err) ** 2
        for sample_var, target in ((hat_power / n, stats.var_hat), (err_power / n, stats.var_err)):
            se = target / np.sqrt(n)
            assert np.all(np.abs(sample_var - target) <= 3.0 * se)


def test_pairwise_distances_match_scalar_metric():
    topo = generate_topology(5, 4, 1.5, seed=2)
    mat = pairwise_wrapped_distances(topo)
    for m in range(5):
        for k in range(4):
            assert mat[m, k] == pytest.approx(
                wrapped_distance(topo.ap_positions[m], topo.user_positions[k], 1.5)
            )
