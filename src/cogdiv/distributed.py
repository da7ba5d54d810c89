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
from .config import as_int, as_population


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


def claimants(sinr: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (trial, user, band) of every claimant of stacked (B, M, N) SINR
    tables, in (trial, user) order.

    User n claims the band maximizing SINR / lambda (ties to the lowest
    band index) if SINR >= lambda there, and claims nothing otherwise.
    """
    ratio = sinr / lam
    trial, user = np.nonzero(np.any(ratio >= 1.0, axis=-2))
    return trial, user, np.argmax(ratio[trial, :, user], axis=-1)


def build_candidate_sets(t: SinrTable, lam: np.ndarray) -> CandidateSets:
    """Group all users' claims against ``lam`` by band; sets are disjoint by construction."""
    num_bands, n = t.sinr.shape
    _, users, bands = claimants(t.sinr[None], lam)
    claims = np.full(n, -1)
    claims[users] = bands
    claims.setflags(write=False)
    sets = tuple(tuple(users[bands == m].tolist()) for m in range(num_bands))
    return CandidateSets(sets=sets, claims=claims)


def contention_winners(trials: np.ndarray, bands: np.ndarray, num_bands: int,
                       timers) -> tuple[np.ndarray, np.ndarray]:
    """The claimed (trial, band) cells of a claimant table and their winners.

    ``trials`` and ``bands`` are the claimants' trials and bands, the
    claimants in (trial, user) order.  Each trial with a contested band
    draws one backoff timer per claimant, in (band, user) order, which is
    the order of per-band calls of the test oracle ``resolve_contention``
    (``tests/oracles.py``): ``timers(contested, counts)`` gives counts[i]
    timers of trial contested[i], for the contested trials in increasing
    order, concatenated.  Each cell's winner is its first earliest timer.
    A lone claimant wins whatever its timer, so a trial without a
    contested band draws none.

    Returns the cells trial * num_bands + band, increasing, and the index
    among the claimants of each cell's winner.
    """
    cell = trials * num_bands + bands
    order = np.argsort(cell, kind="stable")   # the timer order
    cell = cell[order]
    heads = np.flatnonzero(np.diff(cell, prepend=-1))   # each cell's first claimant
    sizes = np.diff(heads, append=cell.size)
    per_trial = np.bincount(trials)
    contested = np.zeros(per_trial.size, dtype=bool)
    contested[trials[order[heads[sizes > 1]]]] = True
    timer = np.zeros(cell.size)
    if contested.any():
        drawn = np.flatnonzero(contested)
        timer[contested[trials[order]]] = timers(drawn, per_trial[drawn])
    # Every cell holds its earliest timer, so the first such timer at or
    # after a cell's head is that cell's winner.
    earliest = np.flatnonzero(timer == np.repeat(np.minimum.reduceat(timer, heads), sizes))
    return cell[heads], order[earliest[np.searchsorted(earliest, heads)]]


def allocate_distributed(t: SinrTable, lam: np.ndarray,
                         rng: np.random.Generator) -> AllocationOutcome:
    """Run one full round of the distributed algorithm on the thresholds
    ``lam``, with ``rng`` giving the timers of ``contention_winners``."""
    cs = build_candidate_sets(t, lam)
    num_bands = t.sinr.shape[0]
    users = np.flatnonzero(cs.claims >= 0)
    cells, won = contention_winners(np.zeros_like(users), cs.claims[users], num_bands,
                                    lambda _, counts: rng.random(counts[0]))
    winners = np.full(num_bands, -1)
    winners[cells] = users[won]
    return AllocationOutcome(
        assignment=Assignment(
            pairs=tuple((m, w) for m, w in enumerate(winners.tolist()) if w >= 0),
            sum_rate=float(assignment_rates(t.sinr, winners))),
        candidate_sets=cs,
        info_bits=users.size * math.log2(num_bands),
        idle_bands=tuple(np.flatnonzero(winners < 0).tolist()),
    )


def candidacy_probability(big_n: int, num_bands: int) -> float:
    """Probability that a given user claims any band: 1 - (1 - 1/N)^M."""
    big_n, num_bands = as_population(big_n), as_int("num_bands", num_bands, 1)
    if big_n == 1:
        return 1.0
    return -math.expm1(num_bands * math.log1p(-1.0 / big_n))
