"""Zero-forcing precoder and the Monte-Carlo statistics that drive power control.

The precoder B satisfies G_hat^T B = I, so the residual interference seen by a
user comes only from the estimation error. Two expectation matrices summarize
everything the optimizers need:

  gamma[k, i] = E[ sum_m var_err[m, k] * |B[m, i]|^2 ]   (interference coupling)
  theta[m, i] = E[ |B[m, i]|^2 ]                         (per-AP power usage)

Both are averaged over independent draws of the estimated channel; the inner
error expectation is taken analytically, which lowers the estimator variance.
"""

from __future__ import annotations

import contextlib
import copy
import math
import os
from dataclasses import dataclass

import numpy as np

from .propagation import MmseStats, _complex_from_normals

# Draws whose Gram matrix is worse-conditioned than this are discarded.
CONDITION_LIMIT = 1e10
# Precoder identity G_hat^T B = I must hold to this tolerance on every draw.
ZF_IDENTITY_TOL = 1e-8
# Draws per Monte-Carlo batch: each batch takes its normals in one call.
ZF_BATCH = 512
# Complex draws per zero-forcing chunk, in bytes: a chunk and its temporaries
# stay in cache, where a whole batch would stream through memory. Two chunks
# are in flight at once. At K = 1 a batch splits into chunks only for M > 64.
CHUNK_BYTES = 1 << 19


class SingularChannelError(RuntimeError):
    """Estimated channel too close to rank deficiency for zero forcing."""


class SharedNormals:
    """One standard-normal stream that any number of readers read from its start.

    A reader returns exactly what rng.standard_normal would for the same
    sequence of shapes: a Generator fills its output value by value, so a
    draw split into pieces equals one call. The first `prefix` values are
    drawn once and served as read-only views. Past them, each reader draws
    from its own copy of the generator, advanced to the end of the prefix, so
    memory beyond the prefix is that of a lone caller.
    """

    def __init__(self, rng, prefix: int):
        self._rng = np.random.default_rng(rng)
        self._prefix = self._rng.standard_normal(prefix)
        self._prefix.flags.writeable = False

    def reader(self) -> "_Reader":
        """A draw callable, shape -> array, reading the stream from position 0."""
        return _Reader(self._prefix, origin=self._rng)


class _Reader:
    """A draw callable, shape -> standard normals: `prefix`, then a generator.

    The generator is `rng`, or where that is None a copy of `origin` made at
    the first read past the prefix. tell marks the position (values read and
    the generator's state) and seek returns to a mark, so draws made ahead
    can be taken back.
    """

    def __init__(self, prefix: np.ndarray, rng=None, origin=None):
        self._prefix = prefix
        self._rng = rng
        self._origin = origin
        self._pos = 0

    def __call__(self, shape):
        prefix = self._prefix
        start, self._pos = self._pos, self._pos + math.prod(shape)
        if self._pos <= prefix.size:
            return prefix[start : self._pos].reshape(shape)
        out = np.empty(self._pos - start)
        head = prefix[start:]
        out[: head.size] = head
        if self._rng is None:
            self._rng = copy.deepcopy(self._origin)
        self._rng.standard_normal(out=out[head.size :])
        return out.reshape(shape)

    def tell(self) -> tuple:
        return self._pos, None if self._rng is None else self._rng.bit_generator.state

    def seek(self, mark: tuple) -> None:
        self._pos, state = mark
        if state is None:
            self._rng = None
        else:
            self._rng.bit_generator.state = state


_NO_PREFIX = np.empty(0)


@dataclass(frozen=True)
class ZfStatistics:
    """Monte-Carlo expectations parameterizing the power-control problem."""

    gamma: np.ndarray  # (K, K), residual-interference coefficients
    theta: np.ndarray  # (M, K), per-AP power-usage coefficients
    n_realizations: int
    n_rejected: int = 0
    gamma_se: np.ndarray | None = None  # standard errors of the means
    theta_se: np.ndarray | None = None

    @property
    def n_aps(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class SinrValidation:
    """Signal-level measurement of the desired and interference powers."""

    desired: np.ndarray  # (K,), per-realization desired power (deterministic)
    interference: np.ndarray  # (K,), empirical interference power
    interference_se: np.ndarray  # (K,), standard error of the mean
    predicted_interference: np.ndarray  # rho_f * (gamma @ eta)
    n_realizations: int


def zf_matrix(g_hat: np.ndarray) -> np.ndarray:
    """Zero-forcing precoder B = conj(G_hat) (G_hat^T conj(G_hat))^{-1}.

    Raises SingularChannelError when the K x K Gram matrix is
    ill-conditioned beyond CONDITION_LIMIT.
    """
    precoder, ok = _batched_zf(np.asarray(g_hat)[None])
    if not ok[0]:
        raise SingularChannelError(f"Gram matrix condition number exceeds {CONDITION_LIMIT:.0e}")
    return precoder[0]


def estimate_zf_statistics(stats: MmseStats, n_mc: int, rng) -> ZfStatistics:
    """Estimate gamma and theta over n_mc independent channel draws.

    rng is a seed, a Generator, or a SharedNormals stream, which gives the
    same result as a Generator seeded alike while sharing its draws with the
    other readers of the stream. Singular draws (Gram condition number above
    CONDITION_LIMIT) are redrawn and counted; the estimation aborts if more
    than 1% of attempts are rejected. Requires M > K so the Gram matrix is
    invertible almost surely.

    Returns the means together with their standard errors.
    """
    m, k = stats.shape
    if m <= k:
        raise ValueError(f"need M > K for invertibility, got M={m}, K={k}")
    if n_mc < 1:
        raise ValueError("n_mc must be at least 1")
    draw = rng.reader() if isinstance(rng, SharedNormals) else _Reader(_NO_PREFIX, np.random.default_rng(rng))

    def terms(precoder, *_):
        abs_b2 = np.abs(precoder) ** 2  # (b', M, K)
        # gamma draw for row k: sum_m var_err[m, k] |B[m, i]|^2
        gamma_draw = stats.var_err.T @ abs_b2
        return abs_b2, abs_b2**2, gamma_draw, gamma_draw**2

    (theta_sum, theta_sq, gamma_sum, gamma_sq), accepted, attempts = _zf_sums(stats, n_mc, draw, terms)

    rejected = attempts - accepted
    if rejected / attempts > 0.01:
        raise SingularChannelError(
            f"rejection rate {rejected / attempts:.2%} exceeds 1% ({rejected}/{attempts})"
        )

    return ZfStatistics(
        gamma=gamma_sum / accepted,
        theta=theta_sum / accepted,
        n_realizations=accepted,
        n_rejected=rejected,
        gamma_se=_mean_se(gamma_sum, gamma_sq, accepted),
        theta_se=_mean_se(theta_sum, theta_sq, accepted),
    )


def validate_sinr(
    stats: MmseStats,
    zf: ZfStatistics,
    eta: np.ndarray,
    rho_f: float,
    n_mc: int,
    rng,
) -> SinrValidation:
    """Measure per-user desired and interference powers at the signal level.

    Each realization transmits independent unit-modulus symbols through the
    zero-forcing precoder at power coefficients eta (noise-normalized scale,
    unit receiver noise). The desired term is deterministic and equals
    rho_f * eta_k per realization; the interference term is averaged and
    returned with its standard error for comparison against the gamma model.

    rng gives each batch the normals of the estimated channel, then of the
    error channel, then one row of symbol phases per accepted draw. A batch
    drawn ahead on a worker thread (see _zf_sums) is taken back where that
    guessed wrong, so rng ends where drawing the batches in turn leaves it.
    """
    eta = np.asarray(eta, dtype=float)
    k = stats.shape[1]
    if n_mc < 1:
        raise ValueError("n_mc must be at least 1")
    if eta.shape != (k,):
        raise ValueError(f"eta must have shape ({k},), got {eta.shape}")
    if not np.all(np.isfinite(eta) & (eta >= 0)):
        raise ValueError(f"eta must be finite and nonnegative, got {eta}")
    if not (math.isfinite(rho_f) and rho_f > 0):
        raise ValueError(f"rho_f must be finite and positive, got {rho_f}")
    if zf.theta.shape != stats.shape:
        raise ValueError(f"zf statistics are for shape {zf.theta.shape}, the channel is {stats.shape}")
    rng = np.random.default_rng(rng)
    amp = np.sqrt(eta)

    def draw_symbols(b):
        return np.exp(2j * np.pi * rng.random((b, k)))

    def terms(precoder, g_err, symbols):
        # error channel of user k through the precoder columns: (b', K, K)
        leak = np.swapaxes(g_err, 1, 2) @ precoder
        interf_amp = np.sqrt(rho_f) * (leak @ (amp * symbols)[:, :, None])[:, :, 0]
        p = np.abs(interf_amp) ** 2
        return p, p**2

    (interf_sum, interf_sq), accepted, _ = _zf_sums(
        stats, n_mc, _Reader(_NO_PREFIX, rng), terms, with_error=True, draw_symbols=draw_symbols
    )

    return SinrValidation(
        desired=rho_f * eta,
        interference=interf_sum / accepted,
        interference_se=_mean_se(interf_sum, interf_sq, accepted),
        predicted_interference=rho_f * (zf.gamma @ eta),
        n_realizations=accepted,
    )


def _zf_sums(stats: MmseStats, n_mc: int, draw, terms, with_error: bool = False, draw_symbols=None) -> tuple:
    """Sums of per-draw terms over zero-forcing draws until n_mc are accepted.

    Each batch of at most ZF_BATCH draws takes the normals of g_hat, then of
    g_err when with_error is set, with one call each of draw (a _Reader),
    then draw_symbols(b), where given, for one row per draw of the batch; the
    stream then goes on after the rows of the accepted draws alone, so a
    batch with a rejected draw rewinds to its mark and redraws those rows.
    Each batch runs _batched_zf on chunks of at most CHUNK_BYTES of complex
    draws (at least one draw).

    Where the process may use two CPUs, one worker thread helps. If a batch
    holds several chunks, it computes the odd chunks' precoders while the
    caller computes the even ones. If batches are one chunk and there are
    several, it draws batch i+1, sized as if every draw of batch i is
    accepted, while the caller works on batch i; after a rejection the
    caller waits for that draw, rewinds to batch i's mark and draws batch
    i+1 itself. Either way the values and the stream's final position are
    those of drawing in turn. An error in the worker is raised where its
    result is taken, and no thread outlives the call. A call of one batch of
    one chunk starts no thread.

    terms(precoder, g_err, symbols) returns arrays with one row per accepted
    draw of the chunk; g_err holds those draws' error channels and symbols
    their symbol rows, or None. terms runs in the caller, chunk by chunk in
    order. Each batch sums its rows in order over its chunks, and the batch
    sums are added up. Returns (sums, accepted, attempted). Raises
    SingularChannelError once more than 2 * n_mc + 1000 draws have been
    attempted.
    """
    m, k = stats.shape
    chunk = max(1, CHUNK_BYTES // (np.dtype(complex).itemsize * m * k))
    scale_hat = np.sqrt(stats.var_hat / 2.0)
    scale_err = np.sqrt(stats.var_err / 2.0)
    # No batch is larger than the first, so where the first is one chunk no
    # batch hands off chunks, and the worker draws ahead instead where there
    # is more than one batch (queued with odd chunks, a draw only delays
    # them). concurrent.futures is imported only where a worker runs: it
    # takes 0.6 MB, and at module top it would slow the package import.
    paired = chunk < min(ZF_BATCH, n_mc) and _usable_cpus() > 1
    draw_ahead = chunk >= ZF_BATCH and n_mc > ZF_BATCH and _usable_cpus() > 1
    if paired or draw_ahead:
        from concurrent.futures import ThreadPoolExecutor
    sums = None
    accepted = 0
    attempts = 0
    max_attempts = 2 * n_mc + 1000

    def draw_batch(b):
        normals_hat = draw((2, b, m, k))
        normals_err = draw((2, b, m, k)) if with_error else None
        mark = draw.tell() if draw_ahead or draw_symbols else None
        return b, normals_hat, normals_err, mark, draw_symbols(b) if draw_symbols else None

    def precoders(normals_hat, start):
        return _batched_zf(_complex_from_normals(scale_hat, normals_hat[:, start : start + chunk]))

    with ThreadPoolExecutor(max_workers=1) if paired or draw_ahead else contextlib.nullcontext() as pool:
        drawn = draw_batch(min(ZF_BATCH, n_mc))
        while True:
            b, normals_hat, normals_err, mark, symbols = drawn
            attempts += b
            starts = range(0, b, chunk)
            handoff = paired and len(starts) > 1
            ahead = pool.submit(precoders, normals_hat, starts[1]) if handoff else None
            guess = min(ZF_BATCH, n_mc - accepted - b)
            upcoming = pool.submit(draw_batch, guess) if draw_ahead and guess > 0 else None
            batch = None
            taken = 0
            for j, start in enumerate(starts):
                if handoff and j % 2:
                    # The worker's chunk; queue its next one before waiting,
                    # so the worker never idles while the caller sums.
                    done = ahead
                    if j + 2 < len(starts):
                        ahead = pool.submit(precoders, normals_hat, starts[j + 2])
                    precoder, ok = done.result()
                else:
                    precoder, ok = precoders(normals_hat, start)
                n_ok = precoder.shape[0]
                stop = start + chunk
                g_err = _complex_from_normals(scale_err, normals_err[:, start:stop][:, ok]) if with_error else None
                rows = terms(precoder, g_err, None if symbols is None else symbols[taken : taken + n_ok])
                taken += n_ok
                if batch is None:
                    batch = [r.sum(axis=0) for r in rows]
                else:
                    batch = [_carry_sum(c, r) for c, r in zip(batch, rows)]
            accepted += taken
            sums = batch if sums is None else [s + c for s, c in zip(sums, batch)]
            if mark is not None and (taken < b or attempts > max_attempts):
                # Take back what was drawn as if every draw were accepted:
                # the worker's next batch (waited for, any error dropped) and
                # the symbol rows of the rejected draws.
                if upcoming is not None:
                    upcoming.exception()
                    upcoming = None
                draw.seek(mark)
                if draw_symbols:
                    draw_symbols(taken)
            if attempts > max_attempts:
                raise SingularChannelError(f"rejection cap hit: {attempts - accepted} rejected in {attempts} attempts")
            if accepted >= n_mc:
                return sums, accepted, attempts
            drawn = upcoming.result() if upcoming is not None else draw_batch(min(ZF_BATCH, n_mc - accepted))


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _batched_zf(g_hat: np.ndarray) -> tuple:
    """Precoders for a batch of draws (B, M, K) plus the acceptance mask."""
    g_conj = g_hat.conj()
    ok, inverse = _accepted_inverse(np.swapaxes(g_hat, 1, 2) @ g_conj)
    if not ok.all():  # copy only when a draw is dropped
        g_hat, g_conj = g_hat[ok], g_conj[ok]
    precoder = g_conj @ inverse
    residual = np.swapaxes(g_hat, 1, 2) @ precoder
    residual -= np.eye(g_hat.shape[2])
    worst = np.max(np.abs(residual)) if residual.size else 0.0
    if worst > ZF_IDENTITY_TOL:
        raise SingularChannelError(f"precoder identity residual {worst:.3e} exceeds {ZF_IDENTITY_TOL:.0e}")
    return precoder, ok


def _accepted_inverse(gram: np.ndarray) -> tuple:
    """Acceptance mask cond_2(gram) <= CONDITION_LIMIT, and the accepted inverses.

    The Frobenius bound ||A||_F ||A^-1||_F >= cond_2(A) settles almost every
    draw from the inverse that the precoder needs anyway. Only draws whose
    bound exceeds CONDITION_LIMIT / 2, or every draw of a batch where `inv`
    meets an exactly singular matrix, take the exact eigenvalue test, so the
    mask is always that of _condition_ok.
    """
    try:
        inverse = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        ok = _condition_ok(gram)
        return ok, np.linalg.inv(gram[ok])
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.linalg.norm(gram, axis=(1, 2)) * np.linalg.norm(inverse, axis=(1, 2))
    ok = bound <= CONDITION_LIMIT / 2
    near = ~ok
    if near.any():
        ok[near] = _condition_ok(gram[near])
        inverse = inverse[ok]
    return ok, inverse


def _condition_ok(gram: np.ndarray) -> np.ndarray:
    """cond_2(gram) <= CONDITION_LIMIT per draw, from the eigenvalues.

    The Gram matrix is Hermitian, so its 2-norm condition number is
    max|lambda| / min|lambda|; a zero eigenvalue rejects the draw.
    """
    eig = np.abs(np.linalg.eigvalsh(gram))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = eig.max(axis=1) / eig.min(axis=1)
    return np.isfinite(cond) & (cond <= CONDITION_LIMIT)


def _carry_sum(carry: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """carry + rows[0] + rows[1] + ..., added in that order; rows[0] is overwritten.

    numpy's axis-0 sum adds rows one after another when a row holds more
    than one value, so carrying a chunk's sum into the next gives the bits of
    one sum over the batch. A one-value row (gamma at K = 1, validate_sinr's
    power at K = 1) is summed pairwise instead, so a batch split into several
    chunks, which at K = 1 happens only for M > 64, can differ in the last
    bits from one pass.
    """
    if not len(rows):
        return carry
    rows[0] += carry
    return rows.sum(axis=0)


def _mean_se(total: np.ndarray, total_sq: np.ndarray, n: int) -> np.ndarray:
    """Standard error of the sample mean from running sums."""
    if n < 2:
        return np.zeros_like(total)
    mean = total / n
    var = np.maximum(total_sq / n - mean**2, 0.0) * n / (n - 1)
    return np.sqrt(var / n)
