"""Centralized optimal user-channel assignment."""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .channel import SinrTable

#: Largest M whose matching enumerates the M**M choices of one of each
#: band's M best users; a larger M runs scipy's assignment solver.
ENUMERATED_MAX_BANDS = 4


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


@functools.cache
def _choices(m: int):
    """(M, M**M) flat (band, rank) index of each band's pick in every choice
    of one of its M best users, and the band pairs that may pick alike."""
    ranks = np.array(list(itertools.product(range(m), repeat=m))).T
    return ranks + m * np.arange(m)[:, None], np.triu_indices(m, 1)


def matched_users(sinr: np.ndarray, fav: np.ndarray, distinct: np.ndarray) -> np.ndarray:
    """(B, M) optimal user per band of each (M, N) table in ``sinr``,
    given the tables' favorites ``fav`` and their event D ``distinct``.

    Under event D each band takes its favorite, its largest rate.
    Otherwise an optimal assignment still gives each band one of its own
    M best users: were band m's user another, one of those M would be
    free (the other bands hold M - 1 users), and moving m to it would
    raise the sum.  For M <= ``ENUMERATED_MAX_BANDS`` the best of those
    M**M choices that repeats no user is found for the whole block at
    once; a larger M runs scipy's ``linear_sum_assignment`` per table.
    """
    users = fav.copy()
    rest = np.flatnonzero(~distinct)
    if not rest.size:
        return users
    m, n = sinr.shape[-2:]
    if m > ENUMERATED_MAX_BANDS:
        from scipy.optimize import linear_sum_assignment   # here: it adds about 24 MB of RSS
        for b in rest.tolist():
            users[b] = linear_sum_assignment(_rates(sinr[b]), maximize=True)[1]
        return users
    picks, (first, second) = _choices(m)
    tables = sinr[rest]
    top = np.argpartition(tables, n - m, axis=-1)[..., n - m:]
    rates = _rates(np.take_along_axis(tables, top, axis=-1)).reshape(rest.size, -1)
    totals = rates[:, picks].sum(axis=1)   # band by band, as assignment_rates adds
    chosen = top.reshape(rest.size, -1)[:, picks]
    totals[(chosen[:, first] == chosen[:, second]).any(axis=1)] = -np.inf
    users[rest] = chosen[np.arange(rest.size), :, totals.argmax(axis=1)]
    return users


def assignment_rates(sinr: np.ndarray, users: np.ndarray) -> np.ndarray:
    """(...) sum rate of giving band m to ``users[..., m]``; a band whose
    user is -1 is idle and adds 0."""
    flat = np.arange(users.size).reshape(users.shape) * sinr.shape[-1] + users
    return busy_rates(np.take(sinr, flat), users >= 0)


def busy_rates(link_sinr: np.ndarray, busy: np.ndarray) -> np.ndarray:
    """(...) sum over the bands, the last axis, of log2(1 + ``link_sinr``)
    where ``busy``; an idle band adds 0."""
    return np.where(busy, _rates(link_sinr), 0.0).sum(axis=-1)


def optimal_assignment_matching(t: SinrTable) -> Assignment:
    """Optimal assignment via max-weight bipartite matching (``matched_users``)."""
    fav = favorite_users(t.sinr)[None]
    users = matched_users(t.sinr[None], fav, all_distinct(fav))[0]
    return Assignment(pairs=tuple(enumerate(users.tolist())),
                      sum_rate=float(assignment_rates(t.sinr, users)))
