"""Threshold-based distributed spectrum allocation.

Each user picks the band maximizing its normalized SINR
(SINR / lambda), claims it if the threshold is met, and per-band
contention is resolved by random backoff timers (uniform winner).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .centralized import Assignment
from .channel import SinrTable


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


def contention_winners(member: np.ndarray, timers: np.ndarray) -> np.ndarray:
    """(..., M) winning user of every band, -1 where the band is idle.

    ``member`` is the (..., M, N) candidate mask and ``timers`` holds one
    timer per member in the mask's C order (trial, band, user), which is
    the order of per-band ``resolve_contention`` calls.  Each band's
    winner is its first earliest timer: a stable sort by (band, timer)
    puts it first in its band's run.
    """
    cell, users = np.divmod(np.flatnonzero(member), member.shape[-1])
    first = np.lexsort((timers, cell))[np.flatnonzero(np.diff(cell, prepend=-1))]
    winners = np.full(member.shape[:-1], -1)
    winners.flat[cell[first]] = users[first]
    return winners


def winner_rates(sinr: np.ndarray, winners: np.ndarray) -> np.ndarray:
    """(...) sum over bands of log2(1 + SINR) of each band's winner.

    The terms are ``math.log2`` values added in band order from 0.0 (an
    idle band adds 0.0), one arithmetic for a trial and for a block.
    """
    won = np.nonzero(winners >= 0)
    terms = np.zeros(winners.shape)
    terms[won] = [math.log2(1.0 + x) for x in sinr[won + (winners[won],)].tolist()]
    return np.add.accumulate(terms, axis=-1)[..., -1]


def allocate_distributed(t: SinrTable, lam: np.ndarray,
                         rng: np.random.Generator) -> AllocationOutcome:
    """Run one full round of the distributed algorithm on the thresholds ``lam``.

    Every claimant's timer comes from one draw, in band order, which is
    the stream that per-band ``resolve_contention`` calls would use.
    """
    cs = build_candidate_sets(t, lam)
    num_bands = t.sinr.shape[0]
    claimants = int(np.count_nonzero(cs.claims >= 0))
    winners = contention_winners(membership(cs.claims, num_bands), rng.random(claimants))
    info_bits = claimants * math.log2(num_bands) if num_bands > 1 else 0.0
    return AllocationOutcome(
        assignment=Assignment(
            pairs=tuple((m, w) for m, w in enumerate(winners.tolist()) if w >= 0),
            sum_rate=float(winner_rates(t.sinr, winners))),
        candidate_sets=cs,
        info_bits=info_bits,
        idle_bands=tuple(np.flatnonzero(winners < 0).tolist()),
    )


def candidacy_probability(big_n: int, num_bands: int) -> float:
    """Probability that a given user claims any band: 1 - (1 - 1/N)^M."""
    if big_n < 1 or num_bands < 1:
        raise ValueError("population and band count must be positive")
    if big_n == 1:
        return 1.0
    return -math.expm1(num_bands * math.log1p(-1.0 / big_n))
