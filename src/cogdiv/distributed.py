"""Threshold-based distributed spectrum allocation.

Each user picks the band maximizing its normalized SINR
(SINR / lambda), claims it if the threshold is met, and per-band
contention is resolved by random backoff timers (uniform winner).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import ThresholdTable
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


def build_candidate_sets(t: SinrTable, th: ThresholdTable) -> CandidateSets:
    """Group all users' claims by band; sets are disjoint by construction.

    User n claims the band maximizing SINR / lambda (ties to the lowest
    band index) if SINR >= lambda there, and claims nothing otherwise.
    """
    num_bands, num_users = t.sinr.shape
    ratio = t.sinr / th.lam
    m_dag = np.argmax(ratio, axis=0)
    passed = ratio[m_dag, np.arange(num_users)] >= 1.0
    claims = np.where(passed, m_dag, -1)
    sets = tuple(tuple(int(u) for u in np.flatnonzero(claims == m))
                 for m in range(num_bands))
    claims.setflags(write=False)
    return CandidateSets(sets=sets, claims=claims)


def resolve_contention(candidates, rng: np.random.Generator) -> int:
    """Backoff-timer contention: every candidate draws a uniform timer,
    the earliest expiry wins.  The winner is uniform over the set."""
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("cannot resolve contention over an empty candidate set")
    timers = rng.random(len(candidates))
    return candidates[int(np.argmin(timers))]


def allocate_distributed(t: SinrTable, th: ThresholdTable,
                         rng: np.random.Generator) -> AllocationOutcome:
    """Run one full round of the distributed algorithm."""
    cs = build_candidate_sets(t, th)
    num_bands = t.sinr.shape[0]
    pairs = []
    sum_rate = 0.0
    idle = []
    for m, members in enumerate(cs.sets):
        if not members:
            idle.append(m)
            continue
        winner = resolve_contention(members, rng)
        pairs.append((m, winner))
        sum_rate += math.log2(1.0 + t.sinr[m, winner])
    claimants = int(np.count_nonzero(cs.claims >= 0))
    info_bits = claimants * math.log2(num_bands) if num_bands > 1 else 0.0
    return AllocationOutcome(
        assignment=Assignment(pairs=tuple(pairs), sum_rate=sum_rate),
        candidate_sets=cs,
        info_bits=info_bits,
        idle_bands=tuple(idle),
    )


def candidacy_probability(big_n: int, num_bands: int) -> float:
    """Probability that a given user claims any band: 1 - (1 - 1/N)^M."""
    if big_n < 1 or num_bands < 1:
        raise ValueError("population and band count must be positive")
    if big_n == 1:
        return 1.0
    return -math.expm1(num_bands * math.log1p(-1.0 / big_n))
