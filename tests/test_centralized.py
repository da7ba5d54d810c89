import math

import numpy as np
import pytest

from cogdiv import (
    compute_sinr,
    draw_realization,
    event_d,
    favorites,
    optimal_assignment_matching,
)
from cogdiv.centralized import assignment_rates

from conftest import table_from
from oracles import CapacityError, optimal_assignment_exhaustive


def random_table(rng, m, n):
    return table_from(rng.exponential(size=(m, n)) * 10.0)


def test_favorites_single_band():
    assert favorites(table_from([[0.2, 3.1, 1.0]])) == [1]


def test_favorites_two_bands():
    assert favorites(table_from([[3, 1], [2, 4]])) == [0, 1]


def test_favorites_tie_breaks_low():
    assert favorites(table_from([[1.0, 1.0, 1.0]])) == [0]


def test_event_d():
    assert event_d([2])
    assert not event_d([3, 3])
    assert event_d([3, 1, 2])


def test_exhaustive_single_band():
    t = table_from([[0.2, 3.1, 1.0]])
    a = optimal_assignment_exhaustive(t)
    assert a.pairs == ((0, 1),)
    assert a.sum_rate == pytest.approx(math.log2(4.1), rel=1e-12)


def test_exhaustive_hand_case():
    t = table_from([[3, 1], [2, 4]])
    a = optimal_assignment_exhaustive(t)
    assert set(a.pairs) == {(0, 0), (1, 1)}
    assert a.sum_rate == pytest.approx(math.log2(4) + math.log2(5), rel=1e-12)


def test_exhaustive_size_guard():
    rng = np.random.default_rng(0)
    with pytest.raises(CapacityError):
        optimal_assignment_exhaustive(random_table(rng, 2, 13))


def test_matching_bounded_by_per_band_maxima(hetero_cfg):
    for t_idx in range(50):
        table = compute_sinr(hetero_cfg, draw_realization(hetero_cfg, t_idx))
        a = optimal_assignment_matching(table)
        bound = np.log2(1.0 + table.sinr.max(axis=1)).sum()
        assert a.sum_rate <= bound + 1e-12


def test_matching_beats_random_feasible_assignments():
    rng = np.random.default_rng(7)
    t = random_table(rng, 4, 30)
    rates = np.log2(1.0 + t.sinr)
    best = optimal_assignment_matching(t).sum_rate
    for _ in range(100):
        users = rng.choice(30, size=4, replace=False)
        assert rates[np.arange(4), users].sum() <= best + 1e-12


def test_sum_rate_recomputable(hetero_cfg):
    table = compute_sinr(hetero_cfg, draw_realization(hetero_cfg, 0))
    a = optimal_assignment_matching(table)
    recomputed = sum(math.log2(1.0 + table.sinr[m, u]) for m, u in a.pairs)
    assert a.sum_rate == pytest.approx(recomputed, rel=1e-12)
    users = np.array([u for _, u in a.pairs])
    assert assignment_rates(table.sinr, users) == a.sum_rate
    # A band whose user is -1 is idle and adds 0.
    users[1] = -1
    kept = [table.sinr[m, u] for m, u in a.pairs if m != 1]
    assert assignment_rates(table.sinr, users) == np.log2(1.0 + np.array(kept)).sum()
    assert assignment_rates(table.sinr, np.full(4, -1)) == 0.0
