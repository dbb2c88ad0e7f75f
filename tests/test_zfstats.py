import numpy as np
import pytest

from cellfree_ee.propagation import MmseStats, mmse_stats
from cellfree_ee.zfstats import (
    CONDITION_LIMIT,
    SingularChannelError,
    _batched_zf,
    estimate_zf_statistics,
    validate_sinr,
    zf_matrix,
)


class TestZfMatrix:
    def test_orthonormal_columns_are_fixed(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        b = zf_matrix(q)
        assert np.allclose(b, q, atol=1e-12)
        assert np.allclose(q.T @ b, np.eye(3), atol=1e-12)

    def test_scalar_inverse(self):
        assert zf_matrix(np.array([[2.0]]))[0, 0] == pytest.approx(0.5)

    def test_inverse_identity_on_random_draws(self):
        rng = np.random.default_rng(1)
        g = (rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))) / np.sqrt(2)
        b = zf_matrix(g)
        assert np.max(np.abs(g.T @ b - np.eye(4))) <= 1e-10

    def test_rank_deficiency_raises(self):
        g = np.ones((5, 2), dtype=complex)  # identical columns
        with pytest.raises(SingularChannelError):
            zf_matrix(g)


def _batch_with_planted_singular_draw():
    rng = np.random.default_rng(21)
    g = (rng.standard_normal((64, 12, 4)) + 1j * rng.standard_normal((64, 12, 4))) / np.sqrt(2)
    g[17, :, 3] = g[17, :, 1]  # two equal columns: rank deficient
    return g


class TestBatchedZf:
    def test_acceptance_mask_matches_svd_condition_number(self):
        g = _batch_with_planted_singular_draw()
        gram = np.swapaxes(g, 1, 2) @ g.conj()
        expected = np.linalg.cond(gram) <= CONDITION_LIMIT
        _, ok = _batched_zf(g)
        assert not expected[17]
        assert np.array_equal(ok, expected)

    def test_precoders_match_explicit_inverse(self):
        g = _batch_with_planted_singular_draw()
        precoder, ok = _batched_zf(g)
        assert precoder.shape == (int(ok.sum()), 12, 4)
        for b, draw in zip(precoder, g[ok]):
            reference = draw.conj() @ np.linalg.inv(draw.T @ draw.conj())
            assert np.max(np.abs(b - reference)) <= 1e-12 * np.max(np.abs(reference))


def _stats(m, k, scale=1.0, seed=0):
    rng = np.random.default_rng(seed)
    beta = scale * 10.0 ** rng.uniform(-1.0, 0.0, size=(m, k))
    return mmse_stats(beta, rho_r=5.0, tau_u=k)


class TestEstimateZfStatistics:
    def test_perfect_csi_kills_interference(self):
        base = _stats(6, 2)
        exact = MmseStats(var_hat=base.beta, var_err=np.zeros((6, 2)))
        zf = estimate_zf_statistics(exact, 200, rng=0)
        assert np.all(zf.gamma == 0.0)
        assert np.all(zf.theta > 0.0)

    def test_entries_nonnegative_and_finite(self):
        zf = estimate_zf_statistics(_stats(8, 3), 500, rng=1)
        for mat in (zf.gamma, zf.theta):
            assert np.all(mat >= 0.0) and np.all(np.isfinite(mat))
        assert zf.n_realizations == 500

    def test_requires_more_aps_than_users(self):
        with pytest.raises(ValueError, match="M > K"):
            estimate_zf_statistics(_stats(3, 3), 10, rng=0)

    def test_independent_runs_agree_on_theta(self):
        # Self-consistency oracle: two estimates from independent streams
        # must agree within three combined standard errors.
        stats = _stats(2, 1, seed=5)
        ss = np.random.SeedSequence(77)
        s1, s2 = ss.spawn(2)
        a = estimate_zf_statistics(stats, 1_000_000, np.random.default_rng(s1), batch_size=20_000)
        b = estimate_zf_statistics(stats, 1_000_000, np.random.default_rng(s2), batch_size=20_000)
        combined = np.sqrt(a.theta_se**2 + b.theta_se**2)
        assert np.all(np.abs(a.theta - b.theta) <= 3.0 * combined)
        assert np.all(combined > 0.0)

    def test_deterministic_given_seed(self):
        stats = _stats(6, 2)
        a = estimate_zf_statistics(stats, 300, rng=9)
        b = estimate_zf_statistics(stats, 300, rng=9)
        assert np.array_equal(a.gamma, b.gamma) and np.array_equal(a.theta, b.theta)

    def test_persistent_singularity_aborts(self):
        # A user with zero estimate variance makes every Gram matrix singular;
        # the estimator must give up rather than spin on rejections.
        var_hat = np.column_stack([np.full(6, 1e-10), np.zeros(6)])
        stats = MmseStats(var_hat=var_hat, var_err=np.full((6, 2), 1e-12))
        with pytest.raises(SingularChannelError):
            estimate_zf_statistics(stats, 50, rng=0)

    def test_scaling_beta_leaves_gamma_invariant_in_structure(self):
        # Zero forcing normalizes the gain: doubling every variance rescales
        # theta by 1/2 and leaves gamma unchanged (error and precoder scale
        # cancel), both up to Monte-Carlo noise from shared structure.
        stats = _stats(8, 2, seed=3)
        doubled = MmseStats(var_hat=2 * stats.var_hat, var_err=2 * stats.var_err)
        a = estimate_zf_statistics(stats, 4000, rng=4)
        b = estimate_zf_statistics(doubled, 4000, rng=4)
        assert np.allclose(b.theta, a.theta / 2.0, rtol=0.05)
        assert np.allclose(b.gamma, a.gamma, rtol=0.05)


class TestValidateSinr:
    def test_perfect_csi_measures_zero_interference(self):
        base = _stats(6, 2)
        exact = MmseStats(var_hat=base.beta, var_err=np.zeros((6, 2)))
        zf = estimate_zf_statistics(exact, 200, rng=0)
        eta = np.array([0.05, 0.02])
        out = validate_sinr(exact, zf, eta, rho_f=3.0, n_mc=500, rng=1)
        assert np.all(out.interference == 0.0)
        assert np.allclose(out.desired, 3.0 * eta, rtol=0, atol=0)

    def test_interference_matches_gamma_model(self):
        # Bridge oracle: signal-level interference power against the
        # expectation model, within three combined standard errors.
        stats = _stats(16, 2, seed=11)
        rng = np.random.default_rng(13)
        zf = estimate_zf_statistics(stats, 10_000, rng)
        eta = np.array([0.04, 0.01])
        out = validate_sinr(stats, zf, eta, rho_f=5.0, n_mc=20_000, rng=rng)
        predicted_se = 5.0 * (zf.gamma_se @ eta)
        tolerance = 3.0 * np.sqrt(out.interference_se**2 + predicted_se**2)
        assert np.all(np.abs(out.interference - out.predicted_interference) <= tolerance)
