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


def draw_block(cfg: NetworkConfig, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked fading draws of trials ``start`` to ``start + count - 1``.

    Returns the (count, M, N) secondary-link and (count, M, N, max K_m)
    interference gains.  Each trial is drawn from its own counter-derived
    substream (cfg.seed, trial_index), so slice b is trial start + b
    whatever the block it sits in.
    """
    if start < 0:
        raise ConfigError("trial_index must be non-negative")
    m, n, k = cfg.num_bands, cfg.num_secondary, cfg.k_max()
    g_sq = np.empty((count, m, n))
    h_sq = np.empty((count, m, n, k))
    for b in range(count):
        rng = np.random.default_rng((cfg.seed, start + b))
        rng.standard_exponential(out=g_sq[b])
        if k:
            rng.standard_exponential(out=h_sq[b])
    return g_sq, h_sq


def draw_realization(cfg: NetworkConfig, trial_index: int) -> FadingRealization:
    """Draw one fading realization: trial ``trial_index`` of ``draw_block``."""
    g_sq, h_sq = (a[0] for a in draw_block(cfg, trial_index, 1))
    g_sq.setflags(write=False)
    h_sq.setflags(write=False)
    return FadingRealization(g_sq=g_sq, h_sq=h_sq)


def _check_shapes(cfg: NetworkConfig, g_sq: np.ndarray, h_sq: np.ndarray) -> None:
    m, n, k = cfg.num_bands, cfg.num_secondary, cfg.k_max()
    if g_sq.shape[-2:] != (m, n) or h_sq.shape[-3:] != (m, n, k) \
            or g_sq.shape[:-2] != h_sq.shape[:-3]:
        raise ConfigError(
            f"realization shape {g_sq.shape}/{h_sq.shape} does not "
            f"match config ({m}, {n}, {k})"
        )


def _interference(cfg: NetworkConfig, h_sq: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(..., M, N) per-band interference sums, sum_j weights[n, j] * |h_mnj|^2.

    Bands with fewer primary users than max K_m only see their first
    K_m interference terms.
    """
    if len(set(cfg.primary_count)) == 1:   # every band sees all k terms
        return _sum_terms(h_sq * weights)
    sums = np.zeros(h_sq.shape[:-1])
    for band, k_m in enumerate(cfg.primary_count):
        if k_m:
            sums[..., band, :] = _sum_terms(h_sq[..., band, :, :k_m] * weights[:, :k_m])
    return sums


def _sum_terms(terms: np.ndarray) -> np.ndarray:
    """``np.sum(terms, axis=-1)``, bit for bit.

    Below 8 terms np.sum adds them left to right, and adding whole slices
    in that order is several times faster than its short reductions;
    from 8 terms on it adds pairwise, so np.sum itself runs.
    """
    k = terms.shape[-1]
    if not 0 < k < 8:
        return np.sum(terms, axis=-1)
    total = terms[..., 0].copy()
    for j in range(1, k):
        total += terms[..., j]
    return total


def sinr_block(cfg: NetworkConfig, g_sq: np.ndarray, h_sq: np.ndarray) -> np.ndarray:
    """(..., M, N) SINR of stacked realizations (leading axes are trials).

    Every operation is elementwise or a sum over the last axis, so each
    trial's slice equals its one-trial table bit for bit.
    """
    _check_shapes(cfg, g_sq, h_sq)
    interference = _interference(cfg, h_sq, cfg.gamma)
    return (cfg.power_secondary * cfg.eta * g_sq) / (
        cfg.noise_power + cfg.power_primary * interference
    )


def compute_sinr(cfg: NetworkConfig, real: FadingRealization) -> SinrTable:
    """SINR table for one realization."""
    sinr = sinr_block(cfg, real.g_sq, real.h_sq)
    sinr.setflags(write=False)
    return SinrTable(sinr=sinr)


def sinr_bounds(cfg: NetworkConfig,
                real: FadingRealization) -> tuple[np.ndarray, np.ndarray]:
    """Analytic bound variables (S_l, S_u) with S_l <= SINR <= S_u.

    SINR = g / (slope_n + sum_j coeff_nj |h_j|^2) with the coefficients of
    ``cfg.link_law``; each bound puts in their extremes
    (``cfg.bound_law``), so its entries are i.i.d. across users.  Only
    the validation of the analysis needs them.
    """
    _check_shapes(cfg, real.g_sq, real.h_sq)
    raw = _interference(cfg, real.h_sq, np.ones_like(cfg.gamma))
    (slope_l, c_l), (slope_u, c_u) = cfg.bound_law(upper=False), cfg.bound_law(upper=True)
    return real.g_sq / (slope_l + c_l * raw), real.g_sq / (slope_u + c_u * raw)
