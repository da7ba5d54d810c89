"""Centralized optimal user-channel assignment."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .channel import SinrTable

#: Size guard for the exhaustive search (N!/(N-M)! arrangements).
EXHAUSTIVE_MAX_USERS = 12
EXHAUSTIVE_MAX_BANDS = 4


class CapacityError(ValueError):
    """Instance too large for exhaustive search."""


@dataclass(frozen=True)
class Assignment:
    """Injective band -> user map with its sum rate in bits/s/Hz."""

    pairs: tuple[tuple[int, int], ...]   # (band, user), bands unique, users unique
    sum_rate: float


def _rates(t: SinrTable) -> np.ndarray:
    return np.log2(1.0 + t.sinr)


def favorites(t: SinrTable) -> list[int]:
    """Most favorable user per band (ties go to the lowest user index)."""
    return t.sinr.argmax(axis=1).tolist()


def event_d(fav: list[int]) -> bool:
    """True iff all bands have distinct most favorable users."""
    return len(set(fav)) == len(fav)


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
    rates = _rates(t)
    best_users = None
    best_rate = -np.inf
    for users in itertools.permutations(range(n), m):
        rate = float(rates[np.arange(m), users].sum())
        if rate > best_rate:
            best_rate = rate
            best_users = users
    pairs = tuple((band, user) for band, user in enumerate(best_users))
    return Assignment(pairs=pairs, sum_rate=best_rate)


def optimal_assignment_matching(t: SinrTable) -> Assignment:
    """Optimal assignment via max-weight bipartite matching.

    The sum-rate objective is a linear assignment over per-pair rates,
    so Hungarian-style matching reaches the exhaustive optimum in
    polynomial time.  Under event D the matching is skipped: every band
    gets its most favorable user, which is optimal because each band
    then has its largest rate.
    """
    m = t.sinr.shape[0]
    users = t.sinr.argmax(axis=1)
    if len(set(users.tolist())) < m:
        _, users = linear_sum_assignment(_rates(t), maximize=True)
    return Assignment(pairs=tuple(enumerate(users.tolist())),
                      sum_rate=float(np.log2(1.0 + t.sinr[np.arange(m), users]).sum()))
