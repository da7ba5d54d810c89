"""Closed-form SINR distributions, order statistics and threshold solver.

All CDFs below describe the per-(band, user) SINR or its i.i.d. bound
variables.  Rates are in bits/s/Hz (base-2 logs).
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable

import numpy as np

from .channel import _sum_terms
from .config import ConfigError, NetworkConfig, _filled, as_int, as_population, as_real

LN2 = math.log(2.0)


def _check_x(x):
    x = _filled("x", x)
    if np.any(x < 0):
        raise ConfigError("x must be non-negative")
    return x


def _check_index(name: str, index, size: int):
    """``index``, an int or an integer index array, if every entry is in [0, size)."""
    arr = np.asarray(index)
    if arr.dtype.kind not in "iu" or np.any((arr < 0) | (arr >= size)):
        raise ConfigError(f"{name} index {index} must be integers in [0, {size})")
    return index


def _log_survival(x, slope, coeff):
    """-log(1 - T(x)), the one SINR law every CDF and the solver evaluate.

    ``coeff``'s last axis runs over the K_m primary users of the band;
    ``x`` broadcasts against ``slope`` and the other axes of ``coeff``.
    Its terms are summed one at a time by ``channel._sum_terms``, the
    ``np.sum`` of the stacked terms bit for bit.
    """
    terms = _sum_terms(coeff.shape[-1], lambda s: np.log1p(coeff[..., s] * x[..., None]))
    return x * slope + terms


def _bound_cdf(x, m: int, cfg: NetworkConfig, upper: bool):
    slope, c = cfg.bound_law(upper)
    k_m = cfg.primary_count[as_int("band", m, 0, cfg.num_bands - 1)]
    return -np.expm1(-_log_survival(_check_x(x), slope, np.full(k_m, c)))


def cdf_lower(x, m: int, cfg: NetworkConfig):
    """CDF of the lower-bound variable S_l on band m.

    The law of ``cdf_exact`` with the largest slope and coefficient of
    any user (``NetworkConfig.bound_law``).
    """
    return _bound_cdf(x, m, cfg, upper=False)


def cdf_upper(x, m: int, cfg: NetworkConfig):
    """CDF of the upper-bound variable S_u on band m (smallest slope and coefficient)."""
    return _bound_cdf(x, m, cfg, upper=True)


def cdf_exact(x, m: int, n, cfg: NetworkConfig):
    """Exact SINR CDF T(x; m, n) of user n on band m.

    Exponential secondary gain conditioned on the Gamma-type
    interference mix gives

        T(x) = 1 - e^{-x/(rho*eta_n)} * prod_j 1/(1 + (Pp/Ps)(gamma_nj/eta_n) x)

    with the product over the K_m primary users of band m.  ``n`` may be
    an index array of users; ``x`` then broadcasts against it, so
    ``cdf_exact(grid[:, None], m, users, cfg)`` has one column per user.
    """
    slope, coeff = cfg.link_law
    n = _check_index("user", n, cfg.num_secondary)
    k_m = cfg.primary_count[as_int("band", m, 0, cfg.num_bands - 1)]
    return -np.expm1(-_log_survival(_check_x(x), slope[n], coeff[n, :k_m]))


def partial_binomial_sum(p, big_n: int, i: int):
    """f(p, i) = sum_{j<=i} C(N,j) p^{N-j} (1-p)^j for p in [0, 1].

    Evaluated through the regularized-incomplete-beta binomial CDF,
    which stays stable for N up to 1e5.
    """
    from scipy.stats import binom   # here, since no trial path needs scipy.stats

    big_n = as_population(big_n)
    i, p = as_int("i", i, 0, big_n - 1), _filled("p", p)
    if np.any((p < 0) | (p > 1)):
        raise ConfigError("p must be in [0, 1]")
    return binom.cdf(i, big_n, 1.0 - p)


def order_stat_cdf(parent: Callable, i: int, big_n: int, x):
    """CDF of the i-th largest of big_n i.i.d. draws from the parent CDF.

    ``parent`` maps x to a CDF value, for example
    ``functools.partial(cdf_lower, m=0, cfg=cfg)``.
    """
    big_n = as_population(big_n)
    i = as_int("rank", i, 1, big_n)
    return partial_binomial_sum(parent(x), big_n, i - 1)


def _newton_log_survival(slope: np.ndarray, coeff: np.ndarray, log_n: float) -> np.ndarray:
    """Row-wise root of g(x) = _log_survival(x, slope, coeff) - log_n.

    ``slope`` is (R,) and ``coeff`` (R, K).  g is increasing and concave
    with g(0) < 0, so Newton's method from x = 0 rises monotonically to
    the root; a row stops at its first iterate that does not increase.
    Rows are independent, so a row's result does not depend on the
    others it is solved with.
    """
    x = np.zeros(slope.shape)
    active = np.ones(slope.shape, dtype=bool)
    while True:
        g = _log_survival(x, slope, coeff) - log_n
        rate = _sum_terms(coeff.shape[-1],
                          lambda s: coeff[:, s] / (1.0 + coeff[:, s] * x[:, None]))
        step = x - g / (slope + rate)
        active &= step > x
        if not active.any():
            return x
        x = np.where(active, step, x)


@functools.lru_cache(maxsize=1024)
def _law_threshold(slope: float, coeff: tuple[float, ...], big_n: int) -> float:
    """The (1 - 1/big_n)-quantile of one law, solved once per process.

    One ``_newton_log_survival`` row, so it equals that row of an array pass.
    """
    return float(_newton_log_survival(np.array([slope]), np.array([coeff]), math.log(big_n))[0])


def build_threshold_table(cfg: NetworkConfig, big_n: int | None = None) -> np.ndarray:
    """The read-only (M, N) thresholds lambda(m, n): T(x; m, n) = 1 - 1/big_n
    (big_n = N by default), solved as -log(1 - T(x)) = ln big_n.

    Bands with the same K_m share their thresholds.  When every user has
    the same eta and gamma row (``cfg.one_law``), a band's thresholds are
    its law's ``_law_threshold``, solved once per process for each
    distinct K_m, and no per-user law is built.  Otherwise each distinct K_m costs one array
    Newton pass over the users.  Either way every entry equals its own
    law's ``_law_threshold``.
    """
    big_n = (as_int("num_secondary", cfg.num_secondary, 2) if big_n is None
             else as_population(big_n, 2))
    lam = np.empty((cfg.num_bands, cfg.num_secondary))
    eta, gamma = cfg.eta, cfg.gamma
    if cfg.one_law:
        # link_law's row 0, in its order of operations.
        eta_0 = float(eta[0])
        slope = 1.0 / (cfg.snr() * eta_0)
        coeff = (cfg.pp_over_ps() * gamma[0] / eta_0).tolist()
        lam[...] = [[_law_threshold(slope, tuple(coeff[:k_m]), big_n)]
                    for k_m in cfg.primary_count]
    else:
        slope, coeff = cfg.link_law
        counts = np.asarray(cfg.primary_count)
        for k_m in set(cfg.primary_count):
            lam[counts == k_m] = _newton_log_survival(slope, coeff[:, :k_m], math.log(big_n))
    lam.setflags(write=False)
    return lam


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 32-node Gauss-Legendre rule on [0, 1]."""
    from numpy.polynomial import legendre   # here, so that importing cogdiv does not load it

    nodes, weights = legendre.leggauss(32)
    return (nodes + 1.0) / 2.0, weights / 2.0


def expected_log_max(a: float, big_n: int) -> float:
    """E[log2(1 + a * X)] where X is the max of big_n unit exponentials.

    Integrates P(a X > x) = 1 - T(x)^N, with T the K = 0 law
    ``_log_survival(x, 1/a)``, over t = log1p(x) by composite 32-node
    Gauss-Legendre: 16 panels uniform in t up to x = a, then 16 whose
    edges are uniform in x/a from 1 to ln N + 45, which resolve the
    Gumbel edge near x = a ln N.  Within 1e-14 of a 30-digit reference
    for a in [1e-6, 3e8] and N up to 1e12, and within 2e-14 relative of
    the closed forms at a = 1e300 and 1e-300.  Tends to
    log2 log2 N + log2 a for large N.
    """
    a, big_n = as_real("a", a), as_population(big_n)
    if not (0 < a and 1 / a < math.inf and a * (math.log(big_n) + 45.0) < math.inf):
        raise ConfigError(f"need a > 0 with 1/a and a (ln N + 45) finite; "
                          f"got a = {a!r}, N = {big_n}")
    nodes, weights = _gauss_legendre()
    edges = np.concatenate([np.linspace(0.0, math.log1p(a), 17)[:-1],
                            np.log1p(a * np.linspace(1.0, math.log(big_n) + 45.0, 17))])
    width = np.diff(edges)
    s = _log_survival(np.expm1(edges[:-1, None] + width[:, None] * nodes), 1 / a, np.empty(0))
    with np.errstate(divide="ignore"):   # log T(x) = log(1 - e^-s), on its accurate branch
        log_t = np.where(s > LN2, np.log1p(-np.exp(-s)), np.log(-np.expm1(-s)))
    return float(width @ (-np.expm1(big_n * log_t) @ weights)) / LN2


#: ``harmonic_moments`` adds its terms up to here and takes the rest from
#: their Euler-Maclaurin tails, so its memory does not grow with N.
HARMONIC_CUTOFF = 1 << 20


def harmonic_moments(big_n: int) -> tuple[float, float]:
    """Mean and variance of the max of big_n unit exponentials.

    (sum 1/n, sum 1/n^2) for n = 1..N.  Beyond ``HARMONIC_CUTOFF`` terms,
    the sums from a = cutoff + 1 to N are the Euler-Maclaurin expansions
    ln(N/a) + (1/a + 1/N)/2 + (1/a^2 - 1/N^2)/12 and
    1/a - 1/N + (1/a^2 + 1/N^2)/2 + (1/a^3 - 1/N^3)/6, whose next terms
    are below 1/a^4.
    """
    big_n = as_population(big_n)
    n = np.arange(1, min(big_n, HARMONIC_CUTOFF) + 1, dtype=float)
    mean, var = float(np.sum(1.0 / n)), float(np.sum(1.0 / n**2))
    if big_n > HARMONIC_CUTOFF:
        a, b = 1.0 / (HARMONIC_CUTOFF + 1), 1.0 / big_n
        mean += math.log1p((big_n - HARMONIC_CUTOFF - 1) * a) + (a + b) / 2 + (a**2 - b**2) / 12
        var += a - b + (a**2 + b**2) / 2 + (a**3 - b**3) / 6
    return mean, var
