"""Random network realizations and per-realization SINR tables.

Squared channel magnitudes |g|^2 and |h|^2 are drawn directly as
unit-mean exponentials (|CN(0,1)|^2), which is distributionally
identical to drawing complex Gaussians and cheaper.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, NetworkConfig


@dataclass(frozen=True)
class FadingRealization:
    """One draw of all squared channel gains."""

    g_sq: np.ndarray   # (M, N) secondary-link gains
    h_sq: np.ndarray   # (M, N, max K_m) primary-interference gains


@dataclass(frozen=True)
class SinrTable:
    """SINR of every (band, user) pair."""

    sinr: np.ndarray      # (M, N)


def draw_realization(cfg: NetworkConfig, trial_index: int) -> FadingRealization:
    """Draw one fading realization.

    Deterministic for fixed (cfg.seed, trial_index); distinct trial
    indices use independent counter-derived substreams.
    """
    if trial_index < 0:
        raise ConfigError("trial_index must be non-negative")
    rng = np.random.default_rng((cfg.seed, trial_index))
    m, n, k = cfg.num_bands, cfg.num_secondary, cfg.k_max()
    g_sq = rng.exponential(size=(m, n))
    h_sq = rng.exponential(size=(m, n, k)) if k else np.zeros((m, n, 0))
    g_sq.setflags(write=False)
    h_sq.setflags(write=False)
    return FadingRealization(g_sq=g_sq, h_sq=h_sq)


def _interference(cfg: NetworkConfig, real: FadingRealization,
                  weights: np.ndarray) -> np.ndarray:
    """(M, N) per-band interference sums, sum_j weights[n, j] * |h_mnj|^2.

    Bands with fewer primary users than max K_m only see their first
    K_m interference terms.
    """
    m, n, k = cfg.num_bands, cfg.num_secondary, cfg.k_max()
    if real.g_sq.shape != (m, n) or real.h_sq.shape != (m, n, k):
        raise ConfigError(
            f"realization shape {real.g_sq.shape}/{real.h_sq.shape} does not "
            f"match config ({m}, {n}, {k})"
        )
    if len(set(cfg.primary_count)) == 1:   # every band sees all k terms
        return np.sum(real.h_sq * weights, axis=2)
    sums = np.zeros((m, n))
    for band, k_m in enumerate(cfg.primary_count):
        if k_m:
            sums[band] = np.sum(real.h_sq[band, :, :k_m] * weights[:, :k_m], axis=1)
    return sums


def compute_sinr(cfg: NetworkConfig, real: FadingRealization) -> SinrTable:
    """SINR table for one realization."""
    interference = _interference(cfg, real, cfg.gamma)
    sinr = (cfg.power_secondary * cfg.eta[None, :] * real.g_sq) / (
        cfg.noise_power + cfg.power_primary * interference
    )
    sinr.setflags(write=False)
    return SinrTable(sinr=sinr)


def sinr_bounds(cfg: NetworkConfig,
                real: FadingRealization) -> tuple[np.ndarray, np.ndarray]:
    """Analytic bound variables (S_l, S_u) with S_l <= SINR <= S_u.

    Each uses the extreme path-loss factors (eta_min with gamma_max, and
    eta_max with gamma_min), so its entries are i.i.d. across users.
    Only the validation of the analysis needs them.
    """
    raw = _interference(cfg, real, np.ones_like(cfg.gamma))
    rho = cfg.snr()
    ratio = cfg.pp_over_ps()
    s_lower = real.g_sq / (1.0 / (rho * cfg.eta_min()) + ratio * cfg.gamma_max() * raw)
    s_upper = real.g_sq / (1.0 / (rho * cfg.eta_max()) + ratio * cfg.gamma_min() * raw)
    return s_lower, s_upper
