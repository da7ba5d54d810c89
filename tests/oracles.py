"""Brute-force references that the tests compare the package against.

``optimal_assignment_exhaustive`` is the centralized optimum by searching
every injective band -> user map; ``resolve_contention`` is one band's
backoff contention, one timer per candidate; ``weighted_sinr`` is the
SINR formula written out.  None runs on a package path: the engine's own
implementations are ``centralized.matched_users``,
``distributed.contention_winners`` and ``channel.sinr_block``.
``exact_q2`` and ``exact_exp1_ks`` are ``validate``'s chi-square p-value and
Exp(1) KS distance in 60-digit ``decimal`` arithmetic.
"""
from __future__ import annotations

import decimal
import itertools
import math
from decimal import Decimal

import numpy as np

from cogdiv.centralized import Assignment, _rates
from cogdiv.channel import SinrTable

#: Size guard for the exhaustive search (N!/(N-M)! arrangements).
EXHAUSTIVE_MAX_USERS = 12
EXHAUSTIVE_MAX_BANDS = 4
SIXTY_DIGITS = decimal.Context(prec=60)


class CapacityError(ValueError):
    """Instance too large for exhaustive search."""


def optimal_assignment_exhaustive(t: SinrTable) -> Assignment:
    """Globally optimal assignment by enumerating every injective map.

    Retained as the correctness oracle for the matching solver; guarded
    against factorial blow-up.
    """
    m, n = t.sinr.shape
    if n > EXHAUSTIVE_MAX_USERS or m > EXHAUSTIVE_MAX_BANDS:
        raise CapacityError(
            f"exhaustive search limited to N <= {EXHAUSTIVE_MAX_USERS}, "
            f"M <= {EXHAUSTIVE_MAX_BANDS} (got N={n}, M={m}); "
            "use optimal_assignment_matching instead"
        )
    rates = _rates(t.sinr)
    best_users = None
    best_rate = -np.inf
    for users in itertools.permutations(range(n), m):
        rate = float(rates[np.arange(m), users].sum())
        if rate > best_rate:
            best_rate = rate
            best_users = users
    pairs = tuple((band, user) for band, user in enumerate(best_users))
    return Assignment(pairs=pairs, sum_rate=best_rate)


def resolve_contention(candidates, rng: np.random.Generator) -> int:
    """Backoff-timer contention: every candidate draws a uniform timer,
    the earliest expiry wins.  The winner is uniform over the set."""
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("cannot resolve contention over an empty candidate set")
    return candidates[int(np.argmin(rng.random(len(candidates))))]


def weighted_sinr(cfg, g_sq, h_sq):
    """SINR of stacked (..., M, N) draws with no package code: every |h|^2
    times its gamma, 1.0 included, summed left to right below 8 terms and
    by np.sum from 8 on, as np.sum adds them."""
    interference = np.zeros(h_sq.shape[:-1])
    for band, k_m in enumerate(cfg.primary_count):
        terms = h_sq[..., band, :, :k_m] * cfg.gamma[:, :k_m]
        if k_m >= 8:
            interference[..., band, :] = np.sum(terms, axis=-1)
        else:
            for j in range(k_m):
                interference[..., band, :] += terms[..., j]
    denominator = interference * cfg.power_primary + cfg.noise_power
    return cfg.power_secondary * cfg.eta * g_sq / denominator


def exact_q2(h):
    """Q(2, h) = e^-h (1 + h) at 60 digits: the chi-square law's survival
    function at four degrees of freedom and the statistic 2 h."""
    with decimal.localcontext(SIXTY_DIGITS):
        return (-Decimal(h)).exp() * (1 + Decimal(h))


def q2_error_bound(h, q):
    """How far a float Q(2, h) may be from the exact ``q``: 4 ulp, and past
    h = 708, where e^-h can be subnormal, (1 + h) of its 2^-1074 steps too."""
    return Decimal(4 * math.ulp(float(q)) + ((1 + h) * 2.0 ** -1074 if h > 708 else 0.0))


def half_statistic_counts(x):
    """Five counts whose chi-square statistic is exact in floats, and half
    that statistic, h, near ``x`` in [0, 2^25]: m + a, m - a, m, m, m with
    m = 2^k and an integer a <= 2^25, so every sum and square in any order
    is an integer below 2^53 and h = a^2 / m exactly."""
    k = 50 - max(0, math.ceil(math.log2(x))) if x > 0 else 50
    m = 2.0 ** k
    a = round(math.sqrt(x * m))
    return np.array([m + a, m - a, m, m, m]), a * a / m


def exact_exp1_ks(x):
    """The two-sided KS distance of the sample ``x`` from Exp(1), with the
    CDF 1 - e^-x and the ranks i / n at 60 digits.  A term in floats is
    within 1e-15 of its exact value, so only the terms within 1e-12 of the
    largest float term are taken exactly: no other can be the largest."""
    x = np.sort(x)
    n = x.size
    c, i = -np.expm1(-x), np.arange(n, dtype=float)
    terms = np.maximum((i + 1.0) / n - c, c - i / n)
    with decimal.localcontext(SIXTY_DIGITS):
        exact = []
        for j in np.flatnonzero(terms >= np.max(terms) - 1e-12).tolist():
            cdf = 1 - (-Decimal(x[j])).exp()
            exact += [Decimal(j + 1) / n - cdf, cdf - Decimal(j) / n]
        return max(exact)
