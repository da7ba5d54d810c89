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
    claimants = np.flatnonzero(np.any(ratio >= 1.0, axis=0))
    bands = np.argmax(ratio[:, claimants], axis=0)
    claims = np.full(num_users, -1)
    claims[claimants] = bands
    members = [[] for _ in range(num_bands)]
    for user, band in zip(claimants.tolist(), bands.tolist()):
        members[band].append(user)
    sets = tuple(map(tuple, members))
    claims.setflags(write=False)
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


def allocate_distributed(t: SinrTable, th: ThresholdTable,
                         rng: np.random.Generator) -> AllocationOutcome:
    """Run one full round of the distributed algorithm.

    Every claimant's timer comes from one draw, in band order, which is
    the stream that per-band ``resolve_contention`` calls would use.
    """
    cs = build_candidate_sets(t, th)
    num_bands = t.sinr.shape[0]
    claimants = sum(len(members) for members in cs.sets)
    timers = rng.random(claimants)
    pairs = []
    sum_rate = 0.0
    idle = []
    start = 0
    for m, members in enumerate(cs.sets):
        if not members:
            idle.append(m)
            continue
        stop = start + len(members)
        winner = members[int(first_expiry(timers[start:stop]))]
        start = stop
        pairs.append((m, winner))
        sum_rate += math.log2(1.0 + t.sinr[m, winner])
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
