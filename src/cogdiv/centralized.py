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


def _rates(sinr: np.ndarray) -> np.ndarray:
    return np.log2(1.0 + sinr)


def favorite_users(sinr: np.ndarray) -> np.ndarray:
    """(..., M) most favorable user per band (ties go to the lowest user index)."""
    return sinr.argmax(axis=-1)


def all_distinct(fav: np.ndarray) -> np.ndarray:
    """(...) event D of each row of favorites: every band's favorite differs."""
    ordered = np.sort(fav, axis=-1)
    return np.all(ordered[..., 1:] != ordered[..., :-1], axis=-1)


def favorites(t: SinrTable) -> list[int]:
    """Most favorable user per band (ties go to the lowest user index)."""
    return favorite_users(t.sinr).tolist()


def event_d(fav: list[int]) -> bool:
    """True iff all bands have distinct most favorable users."""
    return bool(all_distinct(np.asarray(fav)))


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


def matched_users(sinr: np.ndarray, fav: np.ndarray) -> np.ndarray:
    """(B, M) optimal user per band of each (M, N) table in ``sinr``,
    given the tables' favorites ``fav``.

    The sum-rate objective is a linear assignment over per-pair rates,
    so Hungarian-style matching reaches the exhaustive optimum in
    polynomial time.  Under event D the matching is skipped: every band
    gets its most favorable user, which is optimal because each band
    then has its largest rate.
    """
    users = fav.copy()
    for b in np.flatnonzero(~all_distinct(fav)).tolist():
        users[b] = linear_sum_assignment(_rates(sinr[b]), maximize=True)[1]
    return users


def assignment_rates(sinr: np.ndarray, users: np.ndarray) -> np.ndarray:
    """(...) sum rate of giving band m to ``users[..., m]``; a band whose
    user is -1 is idle and adds 0."""
    picked = np.take_along_axis(sinr, users[..., None], axis=-1)[..., 0]
    return np.where(users >= 0, _rates(picked), 0.0).sum(axis=-1)


def optimal_assignment_matching(t: SinrTable) -> Assignment:
    """Optimal assignment via max-weight bipartite matching (``matched_users``)."""
    users = matched_users(t.sinr[None], favorite_users(t.sinr)[None])[0]
    return Assignment(pairs=tuple(enumerate(users.tolist())),
                      sum_rate=float(assignment_rates(t.sinr, users)))
