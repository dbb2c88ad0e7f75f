"""Network geometry, large-scale fading, and channel-estimation statistics.

Distances are in kilometers, gains are linear power ratios, and all
randomness flows through explicit numpy Generators (or seeds) so that every
operation is reproducible and safe to parallelize with spawned streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Floor on AP-user distance: the path-loss law diverges at zero range, and a
# 10 m floor is negligible at km scale.
MIN_DISTANCE_KM = 0.01


@dataclass(frozen=True)
class Topology:
    """AP and user coordinates on a square service area with torus metric."""

    ap_positions: np.ndarray  # (M, 2), km
    user_positions: np.ndarray  # (K, 2), km
    area_side: float  # km


@dataclass(frozen=True)
class MmseStats:
    """Per-link variances of the MMSE channel estimate and its error.

    var_hat + var_err equals the large-scale gain beta exactly (the two
    matrices are constructed so the identity holds bitwise).
    """

    var_hat: np.ndarray  # (M, K)
    var_err: np.ndarray  # (M, K)

    @property
    def beta(self) -> np.ndarray:
        return self.var_hat + self.var_err

    @property
    def shape(self) -> tuple:
        return self.var_hat.shape


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the estimated channel and the independent estimation error."""

    g_hat: np.ndarray  # (M, K) complex
    g_err: np.ndarray  # (M, K) complex

    @property
    def g(self) -> np.ndarray:
        """True channel, reconstructed as estimate plus error."""
        return self.g_hat + self.g_err


def generate_topology(m: int, k: int, area_side: float, seed) -> Topology:
    """Place m APs and k users i.i.d. uniformly on the square.

    Rejects m < k: zero-forcing needs at least as many APs as users.
    """
    if m < 1 or k < 1:
        raise ValueError(f"need at least one AP and one user, got m={m}, k={k}")
    if m < k:
        raise ValueError(f"need m >= k for zero-forcing, got m={m} < k={k}")
    if not (math.isfinite(area_side) and area_side > 0):
        raise ValueError(f"area_side must be positive, got {area_side}")
    rng = np.random.default_rng(seed)
    ap = rng.uniform(0.0, area_side, size=(m, 2))
    users = rng.uniform(0.0, area_side, size=(k, 2))
    return Topology(ap_positions=ap, user_positions=users, area_side=float(area_side))


def wrapped_distance(p, q, area_side: float) -> float:
    """Minimum Euclidean distance between p and q over the 9 torus images of q."""
    d = np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float))
    d = np.minimum(d, area_side - d)
    return float(np.hypot(d[..., 0], d[..., 1]))


def pairwise_wrapped_distances(topo: Topology) -> np.ndarray:
    """(M, K) matrix of torus distances between every AP and every user."""
    diff = np.abs(topo.ap_positions[:, None, :] - topo.user_positions[None, :, :])
    diff = np.minimum(diff, topo.area_side - diff)
    return np.hypot(diff[..., 0], diff[..., 1])


def large_scale_fading(
    topo: Topology,
    sigma_shad_db: float,
    d_min_km: float = MIN_DISTANCE_KM,
    rng=None,
) -> np.ndarray:
    """Large-scale gain beta per (AP, user) link.

    Log-distance path loss with intercept -136 dB at 1 km and slope
    35 dB/decade, plus i.i.d. log-normal shadowing with standard deviation
    sigma_shad_db (in dB). Distances below d_min_km are clamped.
    """
    if not (math.isfinite(sigma_shad_db) and sigma_shad_db >= 0):
        raise ValueError("shadowing standard deviation must be nonnegative")
    if not (math.isfinite(d_min_km) and d_min_km >= 0):
        raise ValueError("distance floor must be nonnegative")
    rng = np.random.default_rng(rng)
    d = np.maximum(pairwise_wrapped_distances(topo), d_min_km)
    shadow_db = rng.normal(0.0, sigma_shad_db, size=d.shape) if sigma_shad_db > 0 else 0.0
    beta_db = -136.0 - 35.0 * np.log10(d) + shadow_db
    return 10.0 ** (beta_db / 10.0)


def mmse_stats(beta: np.ndarray, rho_r: float, tau_u: int) -> MmseStats:
    """Estimate/error variances of MMSE channel estimation from orthonormal pilots.

    var_hat = rho_r*tau_u*beta^2 / (1 + rho_r*tau_u*beta) and
    var_err = beta - var_hat. Requires tau_u >= K (number of users) so the
    pilot set can be orthonormal. rho_r is the noise-normalized uplink power.
    """
    beta = np.asarray(beta, dtype=float)
    k = beta.shape[1]
    if tau_u < k:
        raise ValueError(f"orthonormal pilots need tau_u >= K, got tau_u={tau_u} < K={k}")
    if not (math.isfinite(rho_r) and rho_r > 0):
        raise ValueError("rho_r must be positive")
    q = rho_r * tau_u * beta
    var_hat = np.where(beta > 0, q * beta / (1.0 + q), 0.0)
    # Re-subtraction makes var_hat + var_err == beta hold bitwise.
    var_err = beta - var_hat
    var_hat = beta - var_err
    return MmseStats(var_hat=var_hat, var_err=var_err)


def draw_realization(stats: MmseStats, rng) -> ChannelRealization:
    """Draw one channel realization from the estimation statistics.

    Entries are independent circularly-symmetric complex Gaussians with the
    per-link variances in stats; the estimate and error matrices are drawn
    independently of each other.
    """
    rng = np.random.default_rng(rng)
    g_hat = _complex_gaussian(stats.var_hat, rng)
    g_err = _complex_gaussian(stats.var_err, rng)
    return ChannelRealization(g_hat=g_hat, g_err=g_err)


def _complex_gaussian(var: np.ndarray, rng) -> np.ndarray:
    return _complex_from_normals(np.sqrt(var / 2.0), rng.standard_normal((2,) + var.shape))


def _complex_from_normals(scale: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """scale * (normals[0] + 1j * normals[1]) without complex temporaries.

    The values are bit for bit those of the literal expression; only where
    scale is exactly zero can the sign of a zero part differ. One rng call of
    shape (2,) + shape draws the real parts, then the imaginary parts: the
    same stream as two calls of shape `shape`.
    """
    out = np.empty(normals.shape[1:], dtype=complex)
    np.multiply(scale, normals[0], out=out.real)
    np.multiply(scale, normals[1], out=out.imag)
    return out
