"""Threshold-based distributed spectrum allocation.

Each user picks the band maximizing its normalized SINR
(SINR / lambda), claims it if the threshold is met, and per-band
contention is resolved by random backoff timers (uniform winner).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .centralized import Assignment, assignment_rates
from .channel import SinrTable
from .config import as_int


@dataclass(frozen=True)
class CandidateSets:
    """Per-band candidate users H_m plus the raw per-user claims."""

    sets: tuple[tuple[int, ...], ...]   # H_m per band, pairwise disjoint
    claims: np.ndarray                  # (N,) claimed band per user, -1 for none


@dataclass(frozen=True)
class AllocationOutcome:
    """Result of one distributed allocation round."""

    assignment: Assignment
    candidate_sets: CandidateSets
    info_bits: float                    # claimants * log2(M)
    idle_bands: tuple[int, ...]         # bands with empty H_m


def claim_bands(sinr: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """(..., N) band each user claims, -1 for none.

    User n claims the band maximizing SINR / lambda (ties to the lowest
    band index) if SINR >= lambda there, and claims nothing otherwise.
    """
    ratio = sinr / lam
    claims = np.full(ratio.shape[:-2] + ratio.shape[-1:], -1)
    claimants = np.nonzero(np.any(ratio >= 1.0, axis=-2))
    claims[claimants] = np.argmax(np.swapaxes(ratio, -1, -2)[claimants], axis=-1)
    return claims


def membership(claims: np.ndarray, num_bands: int) -> np.ndarray:
    """(..., M, N) mask of the candidate sets: user n is in H_m."""
    return claims[..., None, :] == np.arange(num_bands)[:, None]


def build_candidate_sets(t: SinrTable, lam: np.ndarray) -> CandidateSets:
    """Group all users' claims against ``lam`` by band; sets are disjoint by construction."""
    claims = claim_bands(t.sinr, lam)
    claims.setflags(write=False)
    sets = tuple(tuple(np.flatnonzero(row).tolist())
                 for row in membership(claims, t.sinr.shape[0]))
    return CandidateSets(sets=sets, claims=claims)


def first_expiry(timers: np.ndarray) -> np.ndarray:
    """Position of the earliest backoff timer along the last axis (the winner)."""
    return np.argmin(timers, axis=-1)


def resolve_contention(candidates, rng: np.random.Generator) -> int:
    """Backoff-timer contention: every candidate draws a uniform timer,
    the earliest expiry wins.  The winner is uniform over the set."""
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("cannot resolve contention over an empty candidate set")
    return candidates[int(first_expiry(rng.random(len(candidates))))]


def contention_winners(claims: np.ndarray, num_bands: int, contention) -> np.ndarray:
    """(B, M) winning user of every band of each trial of the (B, N)
    ``claims``, -1 where the band is idle.

    Trial b, if it has a contested band, draws one backoff timer per
    claimant from the generator ``contention(b)``, in (band, user) order,
    which is the order of per-band ``resolve_contention`` calls; each
    band's winner is its first earliest timer.  A lone claimant wins
    whatever its timer, so a trial without a contested band draws none.
    """
    member = membership(claims, num_bands)
    per_band = member.sum(axis=-1)
    per_trial = per_band.sum(axis=-1)
    timers = np.zeros(int(per_trial.sum()))
    stops = np.cumsum(per_trial).tolist()
    for b in np.flatnonzero(np.any(per_band > 1, axis=-1)).tolist():
        count = int(per_trial[b])
        timers[stops[b] - count:stops[b]] = contention(b).random(count)
    # A stable sort by (cell, timer) puts each (trial, band) cell's winner first in its run.
    cell, users = np.divmod(np.flatnonzero(member), member.shape[-1])
    first = np.lexsort((timers, cell))[np.flatnonzero(np.diff(cell, prepend=-1))]
    winners = np.full(member.shape[:-1], -1)
    winners.flat[cell[first]] = users[first]
    return winners


def allocate_distributed(t: SinrTable, lam: np.ndarray,
                         rng: np.random.Generator) -> AllocationOutcome:
    """Run one full round of the distributed algorithm on the thresholds
    ``lam``, with ``rng`` as the contention stream of ``contention_winners``."""
    cs = build_candidate_sets(t, lam)
    num_bands = t.sinr.shape[0]
    winners = contention_winners(cs.claims[None], num_bands, lambda _: rng)[0]
    return AllocationOutcome(
        assignment=Assignment(
            pairs=tuple((m, w) for m, w in enumerate(winners.tolist()) if w >= 0),
            sum_rate=float(assignment_rates(t.sinr, winners))),
        candidate_sets=cs,
        info_bits=int(np.count_nonzero(cs.claims >= 0)) * math.log2(num_bands),
        idle_bands=tuple(np.flatnonzero(winners < 0).tolist()),
    )


def candidacy_probability(big_n: int, num_bands: int) -> float:
    """Probability that a given user claims any band: 1 - (1 - 1/N)^M."""
    big_n, num_bands = as_int("population size", big_n), as_int("num_bands", num_bands)
    if big_n < 1 or num_bands < 1:
        raise ValueError("population and band count must be positive")
    if big_n == 1:
        return 1.0
    return -math.expm1(num_bands * math.log1p(-1.0 / big_n))
