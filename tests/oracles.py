"""Brute-force references that the tests compare the package against.

``optimal_assignment_exhaustive`` is the centralized optimum by searching
every injective band -> user map; ``resolve_contention`` is one band's
backoff contention, one timer per candidate.  Neither runs on a package
path: the engine's own implementations are ``centralized.matched_users``
and ``distributed.contention_winners``.
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
