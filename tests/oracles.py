"""Brute-force references that the tests compare the package against.

``optimal_assignment_exhaustive`` is the centralized optimum by searching
every injective band -> user map; ``resolve_contention`` is one band's
backoff contention, one timer per candidate; ``weighted_sinr`` is the
SINR formula written out.  None runs on a package path: the engine's own
implementations are ``centralized.matched_users``,
``distributed.contention_winners`` and ``channel.sinr_block``.
"""
from __future__ import annotations

import itertools

import numpy as np

from cogdiv.centralized import Assignment, _rates
from cogdiv.channel import SinrTable

#: Size guard for the exhaustive search (N!/(N-M)! arrangements).
EXHAUSTIVE_MAX_USERS = 12
EXHAUSTIVE_MAX_BANDS = 4


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
