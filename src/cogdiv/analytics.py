"""Closed-form SINR distributions, order statistics and threshold solver.

All CDFs below describe the per-(band, user) SINR or its i.i.d. bound
variables.  Rates are in bits/s/Hz (base-2 logs).
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.stats import binom

from .config import ConfigError, NetworkConfig

LN2 = math.log(2.0)


def _check_x(x):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be non-negative")
    return x


def cdf_lower(x, m: int, cfg: NetworkConfig):
    """CDF of the lower-bound variable S_l on band m.

    1 - exp(-x / (rho * eta_min)) / (1 + (Pp/Ps) * gamma_max * x)^K_m
    """
    x = _check_x(x)
    k_m = cfg.primary_count[m]
    expo = x / (cfg.snr() * cfg.eta_min()) + k_m * np.log1p(cfg.pp_over_ps() * cfg.gamma_max() * x)
    return -np.expm1(-expo)


def cdf_upper(x, m: int, cfg: NetworkConfig):
    """CDF of the upper-bound variable S_u on band m (eta_max, gamma_min)."""
    x = _check_x(x)
    k_m = cfg.primary_count[m]
    expo = x / (cfg.snr() * cfg.eta_max()) + k_m * np.log1p(cfg.pp_over_ps() * cfg.gamma_min() * x)
    return -np.expm1(-expo)


def cdf_exact(x, m: int, n: int, cfg: NetworkConfig):
    """Exact SINR CDF T(x; m, n) of user n on band m.

    Exponential secondary gain conditioned on the Gamma-type
    interference mix gives

        T(x) = 1 - e^{-x/(rho*eta_n)} * prod_j 1/(1 + (Pp/Ps)(gamma_nj/eta_n) x)

    with the product over the K_m primary users of band m.
    """
    x = _check_x(x)
    k_m = cfg.primary_count[m]
    eta_n = cfg.eta[n]
    expo = x / (cfg.snr() * eta_n)
    if k_m:
        coeff = cfg.pp_over_ps() * cfg.gamma[n, :k_m] / eta_n
        expo = expo + np.sum(np.log1p(np.multiply.outer(x, coeff)), axis=-1)
    return -np.expm1(-expo)


def partial_binomial_sum(p, big_n: int, i: int):
    """f(p, i) = sum_{j<=i} C(N,j) p^{N-j} (1-p)^j for p in [0, 1].

    Evaluated through the regularized-incomplete-beta binomial CDF,
    which stays stable for N up to 1e5.
    """
    if not 0 <= i <= big_n - 1:
        raise ValueError(f"i must be in [0, {big_n - 1}], got {i}")
    p = np.asarray(p, dtype=float)
    return binom.cdf(i, big_n, 1.0 - p)


def order_stat_cdf(parent: Callable, i: int, big_n: int, x):
    """CDF of the i-th largest of big_n i.i.d. draws from the parent CDF.

    ``parent`` maps x to a CDF value, for example
    ``functools.partial(cdf_lower, m=0, cfg=cfg)``.
    """
    if not 1 <= i <= big_n:
        raise ValueError(f"rank must be in [1, {big_n}], got {i}")
    return partial_binomial_sum(parent(x), big_n, i - 1)


def solve_threshold(m: int, n: int, cfg: NetworkConfig, big_n: int) -> float:
    """Threshold lambda(m, n): the (1 - 1/N)-quantile of T(.; m, n).

    T(x) = 1 - 1/N is solved in log-survival form, without the
    cancellation in 1 - 1/N:

        g(x) = x / (rho * eta_n) + sum_j log1p(c_j x) - ln N = 0,

    with c_j = (Pp/Ps) gamma_nj / eta_n.  g is increasing and concave
    with g(0) < 0, so Newton's method from x = 0 rises monotonically to
    the root; it stops at the first iterate that does not increase.
    """
    if big_n < 2:
        raise ConfigError("population size must be at least 2")
    slope = 1.0 / (cfg.snr() * cfg.eta[n])
    coeff = cfg.pp_over_ps() * cfg.gamma[n, :cfg.primary_count[m]] / cfg.eta[n]
    log_n = math.log(big_n)
    x = 0.0
    while True:
        g = x * slope + float(np.sum(np.log1p(coeff * x))) - log_n
        step = x - g / (slope + float(np.sum(coeff / (1.0 + coeff * x))))
        if not step > x:
            return float(x)
        x = step


@dataclass(frozen=True)
class ThresholdTable:
    """lambda(m, n) for every band and user, solved for one population size."""

    lam: np.ndarray           # (M, N)
    population_size: int


def build_threshold_table(cfg: NetworkConfig, big_n: int | None = None) -> ThresholdTable:
    """Solve the threshold equation for all (m, n).

    Results are cached per distinct (K_m, eta_n, gamma row), so a
    homogeneous network costs M solves instead of M * N.
    """
    if big_n is None:
        big_n = cfg.num_secondary
    lam = np.empty((cfg.num_bands, cfg.num_secondary))
    cache: dict[tuple, float] = {}
    for m, k_m in enumerate(cfg.primary_count):
        for n in range(cfg.num_secondary):
            key = (k_m, float(cfg.eta[n]), cfg.gamma[n, :k_m].tobytes())
            if key not in cache:
                cache[key] = solve_threshold(m, n, cfg, big_n)
            lam[m, n] = cache[key]
    lam.setflags(write=False)
    return ThresholdTable(lam=lam, population_size=big_n)


def expected_log_max(a: float, big_n: int) -> float:
    """E[log2(1 + a * X)] where X is the max of big_n unit exponentials.

    Integrates the survival function 1 - (1 - e^{-x})^N against the
    derivative of log2(1 + a x); absolute accuracy ~1e-6.  Tends to
    log2 log2 N + log2 a for large N.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if big_n < 1:
        raise ValueError("population size must be at least 1")

    def integrand(x):
        t = math.exp(-x)
        surv = 1.0 if t >= 1.0 else -math.expm1(big_n * math.log1p(-t))
        return a * surv / ((1.0 + a * x) * LN2)

    upper = math.log(big_n) + 60.0 if big_n > 1 else 60.0
    value, _ = integrate.quad(integrand, 0.0, upper, epsabs=1e-9, epsrel=1e-9, limit=200)
    return value


def harmonic_moments(big_n: int) -> tuple[float, float]:
    """Mean and variance of the max of big_n unit exponentials.

    (sum 1/n, sum 1/n^2) for n = 1..N.
    """
    if big_n < 1:
        raise ValueError("population size must be at least 1")
    n = np.arange(1, big_n + 1, dtype=float)
    return float(np.sum(1.0 / n)), float(np.sum(1.0 / n**2))
