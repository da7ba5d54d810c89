import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cogdiv import (
    NetworkConfig,
    allocate_distributed,
    build_candidate_sets,
    build_threshold_table,
    candidacy_probability,
    compute_sinr,
    draw_realization,
    optimal_assignment_matching,
)
from cogdiv import channel, distributed

from conftest import heterogeneous_config, table_from
from oracles import resolve_contention


def test_claim_picks_largest_normalized():
    # ratios [0.5, 1.3] -> claims band 1
    t = table_from([[1.0], [1.3]])
    lam = np.array([[2.0], [1.0]])
    assert list(build_candidate_sets(t, lam).claims) == [1]


def test_no_claim_when_all_below_threshold():
    t = table_from([[0.5], [0.9]])
    lam = np.array([[1.0], [1.0]])
    assert list(build_candidate_sets(t, lam).claims) == [-1]


def test_single_band_claim_probability():
    cfg = NetworkConfig.homogeneous(50, 1, 4, 10.0, seed=21)
    lam = build_threshold_table(cfg)
    trials = 2000
    claims = 0
    for t_idx in range(trials):
        table = compute_sinr(cfg, draw_realization(cfg, t_idx))
        claims += int(np.count_nonzero(build_candidate_sets(table, lam).claims >= 0))
    total = trials * cfg.num_secondary
    p_hat = claims / total
    sigma = math.sqrt(0.02 * 0.98 / total)
    assert abs(p_hat - 1.0 / 50.0) <= 3 * sigma


def test_candidate_sets_hand_case():
    # 3 users, 2 bands; ratios: u0 -> band0 (1.5), u1 -> none, u2 -> band1 (2.0)
    t = table_from([[1.5, 0.4, 0.3], [1.0, 0.8, 2.0]])
    lam = np.ones((2, 3))
    cs = build_candidate_sets(t, lam)
    assert cs.sets == ((0,), (2,))
    assert list(cs.claims) == [0, -1, 1]


def test_candidate_sets_disjoint_and_consistent(hetero_cfg):
    lam = build_threshold_table(hetero_cfg)
    for t_idx in range(100):
        table = compute_sinr(hetero_cfg, draw_realization(hetero_cfg, t_idx))
        cs = build_candidate_sets(table, lam)
        ratio = table.sinr / lam
        seen = set()
        for m, members in enumerate(cs.sets):
            for n in members:
                assert n not in seen
                seen.add(n)
                assert table.sinr[m, n] >= lam[m, n]
                assert m == int(np.argmax(ratio[:, n]))
                assert cs.claims[n] == m
        assert len(seen) == np.count_nonzero(cs.claims >= 0)
        for n in np.flatnonzero(cs.claims == -1):
            assert ratio[:, n].max() < 1.0


def test_resolve_contention_singleton():
    rng = np.random.default_rng(0)
    assert resolve_contention({7}, rng) == 7


def test_resolve_contention_uniform():
    rng = np.random.default_rng(5)
    wins = {1: 0, 2: 0, 3: 0}
    for _ in range(30_000):
        wins[resolve_contention((1, 2, 3), rng)] += 1
    sigma = math.sqrt(30_000 * (1 / 3) * (2 / 3))
    for count in wins.values():
        assert abs(count - 10_000) <= 3 * sigma


def test_resolve_contention_deterministic():
    a = resolve_contention((4, 9, 2), np.random.default_rng(99))
    b = resolve_contention((4, 9, 2), np.random.default_rng(99))
    assert a == b


def test_resolve_contention_empty_rejected():
    with pytest.raises(ValueError):
        resolve_contention((), np.random.default_rng(0))


def test_contention_winners_equal_per_band_contention_when_every_user_claims():
    # N = 300 users all claim, so each trial draws 300 timers through the
    # array step, and trial 2 puts every user on band 1.
    num_bands, n, trials, seed = 4, 300, 5, 77
    claims = np.random.default_rng(3).integers(0, num_bands, (trials, n))
    claims[2] = 1
    trial, user = np.nonzero(claims >= 0)
    cfg = NetworkConfig.homogeneous(n, num_bands, 1, 10.0, seed=seed)
    [(_, timers, _)] = channel.trial_passes([cfg], trials)
    cells, won = distributed.contention_winners(trial, claims[trial, user], num_bands, timers)
    expected = {}
    for t in range(trials):
        rng = np.random.default_rng((seed, t, 1))
        for m in range(num_bands):
            members = np.flatnonzero(claims[t] == m)
            if members.size:
                expected[t * num_bands + m] = resolve_contention(members, rng)
    assert dict(zip(cells.tolist(), user[won].tolist())) == expected


def _lexsort_winners(trials, bands, num_bands, timers):
    """``contention_winners`` by its earlier rule: a stable lexsort by
    (cell, timer) puts each cell's first earliest timer first in its run."""
    cell = trials * num_bands + bands
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    heads = np.flatnonzero(np.diff(cell, prepend=-1))
    per_trial = np.bincount(trials)
    contested = np.zeros(per_trial.size, dtype=bool)
    contested[cell[heads[np.diff(heads, append=cell.size) > 1]] // num_bands] = True
    timer = np.zeros(cell.size)
    if contested.any():
        drawn = np.flatnonzero(contested)
        timer[contested[cell // num_bands]] = timers(drawn, per_trial[drawn])
    return cell[heads], order[np.lexsort((timer, cell))[heads]]


@st.composite
def claim_tables(draw):
    """(M, (T, N) claims): each user's claimed band, -1 for none."""
    m = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-1, m - 1), min_size=1, max_size=8),
                         min_size=1, max_size=6))
    claims = np.full((len(rows), max(map(len, rows))), -1)
    for t, row in enumerate(rows):
        claims[t, :len(row)] = row
    return m, claims


# Timers from at most three values, so that cells tie often.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(claim_tables(), st.lists(st.sampled_from((0.0, 0.25, 0.5, 0.75)), min_size=1,
                                max_size=3, unique=True), st.integers(0, 2**32 - 1))
@example((3, np.array([[0, 1, 2], [2, -1, 0]])), [0.5], 0)     # lone claimants: no timers
@example((2, np.array([[1, 1, 1, 0], [0, 0, -1, 1]])), [0.5], 1)   # every timer ties
@example((2, np.full((2, 3), -1)), [0.5], 2)                     # no claimant
def test_contention_winners_keep_the_lexsort_tie_rule(table, levels, seed):
    num_bands, claims = table
    trial, user = np.nonzero(claims >= 0)
    calls = []

    def timers(contested, counts):
        calls.append((contested.tolist(), counts.tolist()))
        return np.random.default_rng(seed).choice(levels, int(counts.sum()))

    got = distributed.contention_winners(trial, claims[trial, user], num_bands, timers)
    expected = _lexsort_winners(trial, claims[trial, user], num_bands, timers)
    assert calls[:len(calls) // 2] == calls[len(calls) // 2:]
    for a, b in zip(got, expected):
        assert a.tolist() == b.tolist()


def test_claimants_of_stacked_tables_equal_each_trials_candidate_sets():
    cfg = heterogeneous_config(num_secondary=30, num_bands=3, k=(0, 2, 3))
    lam = build_threshold_table(cfg) * 0.5   # several claimants a trial
    tables = [compute_sinr(cfg, draw_realization(cfg, t)) for t in range(8)]
    trial, user, band = distributed.claimants(np.stack([t.sinr for t in tables]), lam)
    assert trial.size > 8 and np.all(np.diff(trial * cfg.num_secondary + user) > 0)
    for t, table in enumerate(tables):
        cs = build_candidate_sets(table, lam)
        assert np.array_equal(cs.claims[user[trial == t]], band[trial == t])
        assert np.count_nonzero(cs.claims >= 0) == np.count_nonzero(trial == t)


def test_allocate_with_no_claims():
    t = table_from(np.full((3, 5), 0.1))
    lam = np.ones((3, 5))
    out = allocate_distributed(t, lam, np.random.default_rng(0))
    assert out.assignment.sum_rate == 0.0
    assert out.assignment.pairs == ()
    assert out.info_bits == 0.0
    assert out.idle_bands == (0, 1, 2)


class _NoDraws:
    def random(self, *args, **kwargs):
        raise AssertionError("an uncontested allocation drew a timer")


def test_allocate_draws_no_timer_without_contention():
    # Bands 0 and 2 have one claimant each and band 1 none: each lone
    # claimant wins without a timer.
    t = table_from([[3.0, 0.1, 0.2, 0.1], [0.1, 0.2, 0.1, 0.3], [0.2, 0.1, 5.0, 0.1]])
    out = allocate_distributed(t, np.ones((3, 4)), _NoDraws())
    assert out.assignment.pairs == ((0, 0), (2, 2))
    assert out.idle_bands == (1,)
    assert out.assignment.sum_rate == pytest.approx(2.0 + math.log2(6.0), rel=1e-15)


def test_allocation_and_matching_price_equal_pairs_alike():
    # Both schemes price an assignment by the one rate formula, so equal
    # pairs give equal sum rates bit for bit, also at M >= 8 where the
    # band sum is pairwise.
    rng = np.random.default_rng(2024)
    compared = pairwise = 0
    for _ in range(5000):
        m = int(rng.integers(1, 11))
        n = int(rng.integers(m, 5 * m + 1))
        t = table_from(rng.exponential(size=(m, n)) * 10.0 ** rng.uniform(-1, 3))
        # Thresholds at or a little under each band's maximum: mostly the
        # favorites claim, and some bands are contested.
        lam = t.sinr.max(axis=1, keepdims=True) * rng.uniform(0.9, 1.0, (m, 1))
        dist = allocate_distributed(t, lam, np.random.default_rng(int(rng.integers(2**32))))
        cent = optimal_assignment_matching(t)
        if dist.assignment.pairs == cent.pairs:
            compared += 1
            pairwise += m >= 8
            assert dist.assignment.sum_rate == cent.sum_rate
    assert compared > 1500 and pairwise > 100


def test_allocation_feasible_and_dominated(hetero_cfg):
    lam = build_threshold_table(hetero_cfg)
    rng = np.random.default_rng(123)
    for t_idx in range(100):
        table = compute_sinr(hetero_cfg, draw_realization(hetero_cfg, t_idx))
        out = allocate_distributed(table, lam, rng)
        bands = [m for m, _ in out.assignment.pairs]
        users = [u for _, u in out.assignment.pairs]
        assert len(set(bands)) == len(bands)
        assert len(set(users)) == len(users)
        for m, u in out.assignment.pairs:
            assert u in out.candidate_sets.sets[m]
        assert out.assignment.sum_rate <= optimal_assignment_matching(table).sum_rate + 1e-12
        claimants = int(np.count_nonzero(out.candidate_sets.claims >= 0))
        assert out.info_bits == claimants * math.log2(hetero_cfg.num_bands)


def test_info_bits_zero_for_single_band():
    cfg = NetworkConfig.homogeneous(20, 1, 2, 10.0, seed=4)
    lam = build_threshold_table(cfg)
    table = compute_sinr(cfg, draw_realization(cfg, 0))
    out = allocate_distributed(table, lam, np.random.default_rng(0))
    assert out.info_bits == 0.0


def test_candidacy_probability_values():
    assert candidacy_probability(1, 1) == 1.0
    assert candidacy_probability(50, 4) == pytest.approx(1.0 - 0.98**4, rel=1e-12)
    assert candidacy_probability(50, 4) == pytest.approx(0.077632, abs=1e-6)


def test_candidacy_probability_limit():
    n = 10_000
    assert abs(n * candidacy_probability(n, 4) - 4.0) < 0.001
