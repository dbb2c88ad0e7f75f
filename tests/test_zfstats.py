import multiprocessing
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellfree_ee import zfstats
from cellfree_ee.propagation import MmseStats, _complex_from_normals, mmse_stats
from cellfree_ee.zfstats import (
    CONDITION_LIMIT,
    SharedNormals,
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
        a = estimate_zf_statistics(stats, 1_000_000, np.random.default_rng(s1))
        b = estimate_zf_statistics(stats, 1_000_000, np.random.default_rng(s2))
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


class TestValidateSinrInputs:
    def setup_method(self):
        self.stats = _stats(6, 2)
        self.zf = estimate_zf_statistics(self.stats, 50, rng=0)

    def test_rejects_no_draws(self):
        with pytest.raises(ValueError, match="n_mc"):
            validate_sinr(self.stats, self.zf, np.array([0.1, 0.1]), rho_f=1.0, n_mc=0, rng=0)

    def test_rejects_eta_of_wrong_length(self):
        with pytest.raises(ValueError, match="eta"):
            validate_sinr(self.stats, self.zf, np.array([0.1, 0.1, 0.1]), rho_f=1.0, n_mc=10, rng=0)

    def test_rejects_statistics_of_another_shape(self):
        other = estimate_zf_statistics(_stats(7, 2), 50, rng=0)
        with pytest.raises(ValueError, match="shape"):
            validate_sinr(self.stats, other, np.array([0.1, 0.1]), rho_f=1.0, n_mc=10, rng=0)

    @pytest.mark.parametrize("eta", [[0.1, -0.1], [0.1, np.nan], [np.inf, 0.1]])
    def test_rejects_negative_or_nonfinite_eta(self, eta):
        # Left to run, these give NaN interference with no error.
        with pytest.raises(ValueError, match="eta must be finite and nonnegative"):
            validate_sinr(self.stats, self.zf, np.array(eta), rho_f=1.0, n_mc=10, rng=0)

    @pytest.mark.parametrize("rho_f", [-5.0, 0.0, np.nan, np.inf])
    def test_rejects_nonpositive_or_nonfinite_rho_f(self, rho_f):
        with pytest.raises(ValueError, match="rho_f must be finite and positive"):
            validate_sinr(self.stats, self.zf, np.array([0.1, 0.1]), rho_f=rho_f, n_mc=10, rng=0)


# Reference implementation: the per-batch Monte Carlo as it was before the
# chunked rewrite (names and error messages shortened), kept as the bitwise
# oracle. It reads zfstats.CONDITION_LIMIT at call time, so a patched limit
# reaches both.


def _oracle_complex_gaussian(var, rng, extra_shape=()):
    shape = extra_shape + var.shape
    scale = np.sqrt(var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _oracle_batched_zf(g_hat):
    gram = np.swapaxes(g_hat, 1, 2) @ g_hat.conj()
    eig = np.abs(np.linalg.eigvalsh(gram))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = eig.max(axis=1) / eig.min(axis=1)
    ok = np.isfinite(cond) & (cond <= zfstats.CONDITION_LIMIT)
    if not ok.all():
        g_hat, gram = g_hat[ok], gram[ok]
    precoder = g_hat.conj() @ np.linalg.inv(gram)
    residual = np.swapaxes(g_hat, 1, 2) @ precoder
    residual -= np.eye(g_hat.shape[2])
    worst = np.max(np.abs(residual)) if residual.size else 0.0
    if worst > zfstats.ZF_IDENTITY_TOL:
        raise SingularChannelError(f"precoder identity residual {worst:.3e}")
    return precoder, ok


def _oracle_batches(stats, n_mc, rng, batch_size, with_error=False):
    accepted = 0
    attempts = 0
    max_attempts = 2 * n_mc + 1000
    while accepted < n_mc:
        b = min(batch_size, n_mc - accepted)
        g_hat = _oracle_complex_gaussian(stats.var_hat, rng, extra_shape=(b,))
        g_err = _oracle_complex_gaussian(stats.var_err, rng, extra_shape=(b,)) if with_error else None
        attempts += b
        precoder, ok = _oracle_batched_zf(g_hat)
        accepted += precoder.shape[0]
        yield precoder, (g_err[ok] if with_error else None), b
        if attempts > max_attempts:
            raise SingularChannelError("rejection cap hit")


def _oracle_estimate(stats, n_mc, rng, batch_size=512):
    m, k = stats.shape
    rng = np.random.default_rng(rng)
    theta_sum = np.zeros((m, k))
    theta_sq = np.zeros((m, k))
    gamma_sum = np.zeros((k, k))
    gamma_sq = np.zeros((k, k))
    accepted = 0
    attempts = 0
    for precoder, _, drawn in _oracle_batches(stats, n_mc, rng, batch_size):
        abs_b2 = np.abs(precoder) ** 2
        gamma_draw = stats.var_err.T @ abs_b2
        theta_sum += abs_b2.sum(axis=0)
        theta_sq += (abs_b2**2).sum(axis=0)
        gamma_sum += gamma_draw.sum(axis=0)
        gamma_sq += (gamma_draw**2).sum(axis=0)
        accepted += abs_b2.shape[0]
        attempts += drawn
    rejected = attempts - accepted
    if rejected / attempts > 0.01:
        raise SingularChannelError("rejection rate exceeds 1%")
    return zfstats.ZfStatistics(
        gamma=gamma_sum / accepted,
        theta=theta_sum / accepted,
        n_realizations=accepted,
        n_rejected=rejected,
        gamma_se=zfstats._mean_se(gamma_sum, gamma_sq, accepted),
        theta_se=zfstats._mean_se(theta_sum, theta_sq, accepted),
    )


def _oracle_validate(stats, zf, eta, rho_f, n_mc, rng, batch_size=512):
    eta = np.asarray(eta, dtype=float)
    rng = np.random.default_rng(rng)
    k = stats.shape[1]
    amp = np.sqrt(eta)
    interf_sum = np.zeros(k)
    interf_sq = np.zeros(k)
    accepted = 0
    for precoder, g_err, _ in _oracle_batches(stats, n_mc, rng, batch_size, with_error=True):
        nb = precoder.shape[0]
        symbols = np.exp(2j * np.pi * rng.random((nb, k)))
        leak = np.swapaxes(g_err, 1, 2) @ precoder
        interf_amp = np.sqrt(rho_f) * (leak @ (amp * symbols)[:, :, None])[:, :, 0]
        p = np.abs(interf_amp) ** 2
        interf_sum += p.sum(axis=0)
        interf_sq += (p**2).sum(axis=0)
        accepted += nb
    return interf_sum / accepted, zfstats._mean_se(interf_sum, interf_sq, accepted), accepted


def _assert_validate_matches(stats, n_est, n_val):
    """validate_sinr after an estimate on one Generator equals the per-batch oracle's."""
    rng = np.random.default_rng(13)
    zf = estimate_zf_statistics(stats, n_est, rng)
    eta = np.geomspace(0.04, 0.01, stats.shape[1])
    got = validate_sinr(stats, zf, eta, rho_f=5.0, n_mc=n_val, rng=rng)
    oracle_rng = np.random.default_rng(13)
    _oracle_estimate(stats, n_est, oracle_rng)
    interference, interference_se, n = _oracle_validate(stats, zf, eta, 5.0, n_val, oracle_rng)
    assert np.array_equal(got.interference, interference)
    assert np.array_equal(got.interference_se, interference_se)
    assert got.n_realizations == n
    # both consumed the same stream
    assert rng.random() == oracle_rng.random()


def _spy_exact_test(monkeypatch):
    """Record the number of draws of every call to the exact eigenvalue test."""
    seen = []
    condition_ok = zfstats._condition_ok
    monkeypatch.setattr(zfstats, "_condition_ok", lambda gram: seen.append(len(gram)) or condition_ok(gram))
    return seen


def _assert_same_statistics(got, want):
    for name in ("gamma", "theta", "gamma_se", "theta_se", "n_realizations", "n_rejected"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.fixture
def two_cpus(monkeypatch):
    """Pair the chunks of a batch on a worker thread even where one CPU is usable."""
    monkeypatch.setattr(zfstats, "_usable_cpus", lambda: 2)


@pytest.mark.usefixtures("two_cpus")
class TestBitwiseAgainstPerBatchLoop:
    # (M, K, n_mc, batch_size): 30 and 20 chunks in one batch at M=120 and
    # M=100, two full batches of six chunks and a short last batch at M=20,
    # ten small batches at M=13, one chunk per batch at M=16, K=2, and at
    # K=1, where numpy sums the one-value gamma rows pairwise, one chunk per
    # batch at M=20. At M=100 with batches of 100, every batch holds an odd
    # number of chunks (5, 5, then 3 in the short last batch), so each
    # batch's last chunk runs in the caller with no partner.
    @pytest.mark.parametrize(
        "m, k, n_mc, batch_size",
        [
            (120, 16, 500, 512),
            (100, 16, 400, 512),
            (20, 16, 1100, 512),
            (13, 4, 1000, 100),
            (16, 2, 10000, 512),
            (20, 1, 1000, 512),
            (100, 16, 250, 100),
        ],
    )
    def test_estimate_matches(self, monkeypatch, m, k, n_mc, batch_size):
        stats = _stats(m, k, seed=m + k)
        monkeypatch.setattr(zfstats, "ZF_BATCH", batch_size)
        got = estimate_zf_statistics(stats, n_mc, np.random.default_rng(5))
        want = _oracle_estimate(stats, n_mc, np.random.default_rng(5), batch_size=batch_size)
        _assert_same_statistics(got, want)

    def test_validate_matches(self):
        # One chunk per batch at M=16, K=2.
        _assert_validate_matches(_stats(16, 2, seed=11), 10_000, 20_000)

    def test_validate_matches_several_chunks_per_batch(self):
        # At M=60, K=16 a chunk holds 34 draws, so each batch is re-assembled
        # from 16 chunks, and the validation ends on a short batch.
        _assert_validate_matches(_stats(60, 16, seed=11), 600, 1100)

    def test_validate_matches_one_user(self):
        # At K=1 the power rows hold one value each and are summed pairwise,
        # so a zero-started batch sum shifts the pairwise blocks and changes
        # the bits at this seed; at M=20 each batch is one chunk.
        _assert_validate_matches(_stats(20, 1, seed=3), 1000, 2000)

    def test_reject_and_redraw_path(self, monkeypatch):
        # Near-square channels with a limit low enough that a small share of
        # draws is rejected: the rejected draws go through the exact
        # eigenvalue test and are redrawn in a second batch.
        stats = _stats(17, 16, seed=2)
        monkeypatch.setattr(zfstats, "CONDITION_LIMIT", 7e3)
        exact_calls = _spy_exact_test(monkeypatch)
        got = estimate_zf_statistics(stats, 3000, np.random.default_rng(8))
        want = _oracle_estimate(stats, 3000, np.random.default_rng(8))
        assert 0 < want.n_rejected <= 30  # 14 of 3014 attempts
        assert exact_calls
        _assert_same_statistics(got, want)
        eta = np.full(16, 1e-3)
        out = validate_sinr(stats, got, eta, rho_f=2.0, n_mc=3000, rng=np.random.default_rng(9))
        interference, interference_se, n = _oracle_validate(stats, got, eta, 2.0, 3000, np.random.default_rng(9))
        assert np.array_equal(out.interference, interference)
        assert np.array_equal(out.interference_se, interference_se)
        assert out.n_realizations == n == 3000

    def test_shared_stream_matches(self, monkeypatch):
        # A stream whose prefix is the first batch at a larger M: the reader
        # serves the first batches from it and draws the rest, the redrawn
        # second batch included, past its end.
        stats = _stats(17, 16, seed=2)
        monkeypatch.setattr(zfstats, "CONDITION_LIMIT", 7e3)
        got = estimate_zf_statistics(stats, 3000, SharedNormals(8, 2 * zfstats.ZF_BATCH * 40 * 16))
        _assert_same_statistics(got, _oracle_estimate(stats, 3000, np.random.default_rng(8)))


class TestWorkerThread:
    # At M=100, K=16 a chunk holds 20 draws: a batch of 200 has 10 chunks.
    M, K, N_MC = 100, 16, 200

    def _stats(self):
        return _stats(self.M, self.K, seed=4)

    def _fail_chunk_one(self, monkeypatch, stats, seed):
        """Make _batched_zf raise on chunk 1 of the first batch; returns the raising threads."""
        chunk = zfstats.CHUNK_BYTES // (16 * self.M * self.K)
        normals = np.random.default_rng(seed).standard_normal((2, self.N_MC, self.M, self.K))
        target = _complex_from_normals(np.sqrt(stats.var_hat / 2.0), normals[:, chunk : 2 * chunk])
        batched_zf = zfstats._batched_zf
        threads = []

        def failing(g_hat):
            if g_hat.shape == target.shape and np.array_equal(g_hat, target):
                threads.append(threading.current_thread())
                raise SingularChannelError(f"precoder identity residual {abs(g_hat[0, 0, 0]):.3e} exceeds 1e-08")
            return batched_zf(g_hat)

        monkeypatch.setattr(zfstats, "_batched_zf", failing)
        return threads

    def test_one_cpu_computes_every_chunk_inline(self, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        stats = self._stats()
        paired = estimate_zf_statistics(stats, self.N_MC, 3)
        monkeypatch.setattr(zfstats, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(ThreadPoolExecutor, "submit", lambda *args: pytest.fail("a chunk was handed off"))
        _assert_same_statistics(estimate_zf_statistics(stats, self.N_MC, 3), paired)

    def test_one_batch_call_starts_no_thread(self, monkeypatch, two_cpus):
        # Every gated sweep estimate is one batch; at M=16, K=2 it is also
        # one chunk, so nothing is handed off.
        from concurrent.futures import ThreadPoolExecutor

        monkeypatch.setattr(ThreadPoolExecutor, "submit", lambda *args: pytest.fail("work was handed off"))
        stats = _stats(16, 2, seed=11)
        before = threading.active_count()
        zf = estimate_zf_statistics(stats, zfstats.ZF_BATCH, 3)
        validate_sinr(stats, zf, np.array([0.04, 0.01]), rho_f=5.0, n_mc=zfstats.ZF_BATCH, rng=4)
        assert threading.active_count() == before
        # Nor does an estimate mark its position, which only a worker's draw
        # could need to go back to; validate_sinr marks one per batch, as its
        # symbol rows follow the accepted draws.
        monkeypatch.setattr(zfstats._Reader, "tell", lambda self: pytest.fail("a position was marked"))
        estimate_zf_statistics(stats, zfstats.ZF_BATCH, 3)
        estimate_zf_statistics(stats, 300, SharedNormals(3, 2 * 300 * 20 * 2))

    def test_one_chunk_batches_hand_their_draws_to_the_worker(self, monkeypatch, two_cpus):
        # At M=16, K=2 each batch is one chunk, so the worker gets no chunk,
        # only the next batch's draws: one hand-off per batch after the first.
        from concurrent.futures import ThreadPoolExecutor

        handed = []
        submit = ThreadPoolExecutor.submit

        def spy(pool, fn, *args):
            handed.append(fn.__name__)
            return submit(pool, fn, *args)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", spy)
        _assert_validate_matches(_stats(16, 2, seed=11), 2000, 3000)
        assert handed == ["draw_batch"] * (3 + 5)

    def test_worker_error_reaches_the_caller(self, monkeypatch, two_cpus):
        # The error of a chunk the worker computed is raised where the
        # sequential loop raises it, with the same message.
        stats = self._stats()
        before = threading.active_count()
        threads = self._fail_chunk_one(monkeypatch, stats, seed=6)
        with pytest.raises(SingularChannelError) as paired:
            estimate_zf_statistics(stats, self.N_MC, 6)
        assert len(threads) == 1 and threads[0] is not threading.current_thread()
        assert threading.active_count() == before
        monkeypatch.setattr(zfstats, "_usable_cpus", lambda: 1)
        with pytest.raises(SingularChannelError) as inline:
            estimate_zf_statistics(stats, self.N_MC, 6)
        assert threads[1] is threading.current_thread()
        assert str(paired.value) == str(inline.value)
        assert "identity residual" in str(inline.value)

    def test_short_switch_interval_changes_no_bit(self, two_cpus):
        # Threads switching every microsecond interleave the two threads' work
        # at many points; the sums must still be those of the per-batch loop.
        stats = self._stats()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = estimate_zf_statistics(stats, 3 * self.N_MC, np.random.default_rng(10))
        finally:
            sys.setswitchinterval(interval)
        _assert_same_statistics(got, _oracle_estimate(stats, 3 * self.N_MC, np.random.default_rng(10)))

    def test_no_thread_outlives_a_call(self, two_cpus):
        stats = self._stats()
        before = threading.active_count()
        zf = estimate_zf_statistics(stats, self.N_MC, 7)
        assert threading.active_count() == before
        validate_sinr(stats, zf, np.full(self.K, 1e-3), rho_f=2.0, n_mc=self.N_MC, rng=8)
        assert threading.active_count() == before
        # A pool kept across calls would have started its thread in an
        # earlier test, so the count alone would not see it.
        assert not [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
    def test_child_forked_after_an_estimate_finishes_its_own(self, two_cpus):
        stats = self._stats()
        want = estimate_zf_statistics(stats, self.N_MC, 9)
        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)

        def child():
            zf = estimate_zf_statistics(stats, self.N_MC, 9)
            sender.send((zf.gamma, zf.theta, zf.gamma_se, zf.theta_se))

        process = ctx.Process(target=child)
        process.start()
        try:
            assert receiver.poll(60), "the forked child did not finish its estimate"
            got = receiver.recv()
        finally:
            process.join(10)
            if process.is_alive():
                process.kill()
                process.join()
        for g, w in zip(got, (want.gamma, want.theta, want.gamma_se, want.theta_se)):
            assert np.array_equal(g, w)
        assert process.exitcode == 0


class TestDrawAhead:
    """The next batch drawn on the worker, as if every draw were accepted, and taken back where one was not."""

    @staticmethod
    def _assert_estimate_matches(stats, n_mc, rng_seed):
        rng = np.random.default_rng(rng_seed)
        got = estimate_zf_statistics(stats, n_mc, rng)
        oracle_rng = np.random.default_rng(rng_seed)
        want = _oracle_estimate(stats, n_mc, oracle_rng)
        _assert_same_statistics(got, want)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        return got

    @staticmethod
    def _first_batch(stats, n_mc, seed):
        precoder, _, drawn = next(_oracle_batches(stats, n_mc, np.random.default_rng(seed), zfstats.ZF_BATCH))
        return precoder.shape[0], drawn

    def test_rejection_before_a_short_last_batch(self, monkeypatch, two_cpus):
        # One of 512 draws of the first batch is rejected, so the last batch
        # holds 489 draws where the worker drew 488.
        stats = _stats(3, 2, seed=5)
        monkeypatch.setattr(zfstats, "CONDITION_LIMIT", 200.0)
        assert self._first_batch(stats, 1000, 0) == (511, 512)
        assert self._assert_estimate_matches(stats, 1000, 0).n_rejected == 1

    @staticmethod
    def _assert_validate_matches(stats, zf, n_mc, rng_seed):
        eta = np.geomspace(0.04, 0.01, stats.shape[1])
        rng = np.random.default_rng(rng_seed)
        out = validate_sinr(stats, zf, eta, rho_f=5.0, n_mc=n_mc, rng=rng)
        oracle_rng = np.random.default_rng(rng_seed)
        interference, interference_se, n = _oracle_validate(stats, zf, eta, 5.0, n_mc, oracle_rng)
        assert np.array_equal(out.interference, interference)
        assert np.array_equal(out.interference_se, interference_se)
        assert out.n_realizations == n == n_mc
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_rejections_in_validation_batches(self, monkeypatch, two_cpus):
        # About 5% of the draws are rejected, in every batch: each batch's
        # symbol rows and the next batch's size differ from the worker's.
        stats = _stats(3, 2, seed=5)
        zf = estimate_zf_statistics(stats, 1000, 0)
        monkeypatch.setattr(zfstats, "CONDITION_LIMIT", 30.0)
        self._assert_validate_matches(stats, zf, 3000, 0)

    def test_shared_stream_with_a_rejection(self, monkeypatch, two_cpus):
        # The prefix is a first batch at M=5: the worker's second batch reads
        # past it on a fresh copy of the generator, and the rejection in the
        # first batch sends the reader back inside the prefix.
        stats = _stats(3, 2, seed=5)
        monkeypatch.setattr(zfstats, "CONDITION_LIMIT", 200.0)
        got = estimate_zf_statistics(stats, 1000, SharedNormals(0, 2 * zfstats.ZF_BATCH * 5 * 2))
        _assert_same_statistics(got, _oracle_estimate(stats, 1000, np.random.default_rng(0)))

    @pytest.mark.parametrize("limit", [CONDITION_LIMIT, 200.0])
    def test_caller_generator_ends_where_the_loop_leaves_it(self, monkeypatch, two_cpus, limit):
        # An estimate then a validation on one Generator, as the criterion-3
        # check runs them, with and without rejections.
        monkeypatch.setattr(zfstats, "CONDITION_LIMIT", limit)
        stats = _stats(3, 2, seed=5)
        rng = np.random.default_rng(7)
        zf = estimate_zf_statistics(stats, 1500, rng)
        oracle_rng = np.random.default_rng(7)
        _oracle_estimate(stats, 1500, oracle_rng)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        validate_sinr(stats, zf, np.array([0.04, 0.01]), rho_f=5.0, n_mc=1500, rng=rng)
        _oracle_validate(stats, zf, np.array([0.04, 0.01]), 5.0, 1500, oracle_rng)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_rejection_cap_leaves_the_generator_after_the_last_batch(self, two_cpus):
        # Every draw is rejected; the loop raises after the batch that passes
        # 2 * n_mc + 1000 attempts, with the worker's draw taken back.
        var_hat = np.column_stack([np.full(6, 1e-10), np.zeros(6)])
        stats = MmseStats(var_hat=var_hat, var_err=np.full((6, 2), 1e-12))
        rng = np.random.default_rng(3)
        before = threading.active_count()
        with pytest.raises(SingularChannelError, match="rejection cap"):
            estimate_zf_statistics(stats, 600, rng)
        assert threading.active_count() == before
        oracle_rng = np.random.default_rng(3)
        with pytest.raises(SingularChannelError):
            list(_oracle_batches(stats, 600, oracle_rng, zfstats.ZF_BATCH))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_worker_draw_error_reaches_the_caller(self, monkeypatch, two_cpus):
        caller = threading.current_thread()
        read = zfstats._Reader.__call__
        raised = []

        def failing(reader, shape):
            if threading.current_thread() is not caller:
                raised.append(shape)
                raise MemoryError("draw failed")
            return read(reader, shape)

        monkeypatch.setattr(zfstats._Reader, "__call__", failing)
        stats = _stats(16, 2, seed=11)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="draw failed"):
            estimate_zf_statistics(stats, 2000, 3)
        assert raised == [(2, 512, 16, 2)]
        assert threading.active_count() == before

    def test_short_switch_interval_changes_no_bit(self, monkeypatch, two_cpus):
        # Threads switching every microsecond interleave the worker's draws
        # with the caller's work at many points.
        stats = _stats(3, 2, seed=5)
        zf = estimate_zf_statistics(stats, 1000, 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self._assert_estimate_matches(_stats(16, 2, seed=11), 3000, 10)
            monkeypatch.setattr(zfstats, "CONDITION_LIMIT", 30.0)
            self._assert_validate_matches(stats, zf, 3000, 2)
        finally:
            sys.setswitchinterval(interval)

    def test_no_thread_outlives_a_call(self, two_cpus):
        stats = _stats(16, 2, seed=11)
        before = threading.active_count()
        zf = estimate_zf_statistics(stats, 2000, 7)
        assert threading.active_count() == before
        validate_sinr(stats, zf, np.array([0.04, 0.01]), rho_f=2.0, n_mc=2000, rng=8)
        assert threading.active_count() == before
        assert not [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
    def test_child_forked_after_an_estimate_finishes_its_own(self, two_cpus):
        stats = _stats(16, 2, seed=11)
        want = estimate_zf_statistics(stats, 2000, 9)
        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)

        def child():
            zf = estimate_zf_statistics(stats, 2000, 9)
            sender.send((zf.gamma, zf.theta, zf.gamma_se, zf.theta_se))

        process = ctx.Process(target=child)
        process.start()
        try:
            assert receiver.poll(60), "the forked child did not finish its estimate"
            got = receiver.recv()
        finally:
            process.join(10)
            if process.is_alive():
                process.kill()
                process.join()
        for g, w in zip(got, (want.gamma, want.theta, want.gamma_se, want.theta_se)):
            assert np.array_equal(g, w)
        assert process.exitcode == 0


_SHAPES = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 7)), max_size=6)


class TestSharedNormals:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), prefix=st.integers(0, 40), first=_SHAPES, second=_SHAPES,
           order=st.lists(st.booleans(), max_size=12))
    def test_each_reader_reads_the_generator_stream(self, seed, prefix, first, second, order):
        # Two readers drawing in any interleaving, with shapes that end
        # before, at or across the end of the prefix, each read the stream
        # of a fresh Generator from its start.
        stream = SharedNormals(seed, prefix)
        readers = [(stream.reader(), list(first), []), (stream.reader(), list(second), [])]
        for pick in order + [False] * len(first) + [True] * len(second):
            draw, shapes, got = readers[pick]
            if shapes:
                shape = shapes.pop(0)
                values = draw(shape)
                assert values.shape == shape
                got.append(values.ravel())
        for _, _, got in readers:
            values = np.concatenate(got) if got else np.empty(0)
            assert np.array_equal(values, np.random.default_rng(seed).standard_normal(values.size))

    def test_prefix_views_are_read_only(self):
        draw = SharedNormals(3, 10).reader()
        with pytest.raises(ValueError):
            draw((2, 3))[0, 0] = 1.0


def _grams_with_condition(kappas, k=4, seed=3):
    """Hermitian positive definite U diag(s) U^H with 2-norm condition numbers kappas."""
    rng = np.random.default_rng(seed)
    grams = []
    for kappa in kappas:
        u, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        s = np.geomspace(1.0, 1.0 / kappa, k) * rng.uniform(0.5, 2.0)
        grams.append((u * s) @ u.conj().T)
    return np.array(grams)


class TestConditionShortcut:
    LIMIT = CONDITION_LIMIT
    KAPPAS = (LIMIT / 4, LIMIT / 2 * (1 - 1e-3), LIMIT / 2 * (1 + 1e-3), LIMIT * (1 - 1e-3), LIMIT * (1 + 1e-3), 4 * LIMIT)

    @staticmethod
    def _check_mask(gram, ok, inverse):
        eig = np.abs(np.linalg.eigvalsh(gram))
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = eig.max(axis=1) / eig.min(axis=1)
        assert np.array_equal(ok, np.isfinite(cond) & (cond <= CONDITION_LIMIT))
        assert np.array_equal(ok, np.linalg.cond(gram) <= CONDITION_LIMIT)
        assert np.array_equal(inverse, np.linalg.inv(gram[ok]))

    def test_bound_settles_far_draws_and_exact_test_the_near_ones(self, monkeypatch):
        gram = _grams_with_condition(self.KAPPAS * 3)
        seen = _spy_exact_test(monkeypatch)
        ok, inverse = zfstats._accepted_inverse(gram)
        self._check_mask(gram, ok, inverse)
        assert np.array_equal(ok, np.tile([True, True, True, True, False, False], 3))
        # the draws from LIMIT/2 up, and not those at LIMIT/4, took the exact test
        assert seen == [12]

    def test_singular_draw_sends_the_whole_batch_to_the_exact_test(self, monkeypatch):
        gram = _grams_with_condition(self.KAPPAS * 2)
        gram[4, 2, :] = gram[4, :, 2] = 0.0  # an exact zero pivot
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(gram)
        seen = _spy_exact_test(monkeypatch)
        ok, inverse = zfstats._accepted_inverse(gram)
        self._check_mask(gram, ok, inverse)
        assert not ok[4]
        assert seen == [len(gram)]
