"""Property-based tests over random network configurations.

Configurations mix primary counts K_m per band, bands with K_m = 0 among
them, and spread-out path-loss factors.  Examples are derandomized so the
suite gives the same verdict on every run.
"""
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from cogdiv import (
    NetworkConfig,
    compute_sinr,
    draw_realization,
    optimal_assignment_exhaustive,
    optimal_assignment_matching,
    solve_threshold,
)
from cogdiv.channel import sinr_bounds

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def network_configs(draw, max_users=60, homogeneous=False):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m, max_users))
    counts = tuple(draw(st.lists(st.integers(0, 6), min_size=m, max_size=m)))
    snr_db = draw(st.floats(-10.0, 30.0))
    pp_over_ps = draw(st.floats(0.1, 10.0))
    seed = draw(st.integers(0, 2**32 - 1))
    if homogeneous:
        return NetworkConfig.homogeneous(
            n, m, counts, snr_db, pp_over_ps=pp_over_ps,
            eta=draw(st.floats(0.1, 10.0)), gamma=draw(st.floats(0.1, 10.0)), seed=seed)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_s = 10.0 ** (snr_db / 10.0)
    return NetworkConfig(
        num_secondary=n, num_bands=m, primary_count=counts,
        power_secondary=p_s, power_primary=pp_over_ps * p_s, noise_power=1.0,
        eta=10.0 ** rng.uniform(-1.0, 1.0, n),
        gamma=10.0 ** rng.uniform(-1.0, 1.0, (n, max(counts))),
        seed=seed,
    )


@PROPERTY_SETTINGS
@given(network_configs(), st.integers(0, 1000))
def test_bounds_sandwich_and_interleave_sinr(cfg, trial):
    real = draw_realization(cfg, trial)
    sinr = compute_sinr(cfg, real).sinr
    s_lower, s_upper = sinr_bounds(cfg, real)
    assert np.all(np.isfinite(sinr)) and np.all(sinr >= 0)
    tol = 1e-9 * np.abs(sinr)
    assert np.all(s_lower <= sinr + tol)
    assert np.all(sinr <= s_upper + tol)
    lo, mid, hi = (-np.sort(-a, axis=1) for a in (s_lower, sinr, s_upper))
    tol = 1e-9 * np.abs(mid)
    assert np.all(lo <= mid + tol)
    assert np.all(mid <= hi + tol)


@PROPERTY_SETTINGS
@given(network_configs(homogeneous=True), st.integers(0, 1000))
def test_homogeneous_bounds_equal_sinr(cfg, trial):
    real = draw_realization(cfg, trial)
    sinr = compute_sinr(cfg, real).sinr
    s_lower, s_upper = sinr_bounds(cfg, real)
    assert np.allclose(s_lower, sinr, rtol=1e-12, atol=0.0)
    assert np.allclose(s_upper, sinr, rtol=1e-12, atol=0.0)


@PROPERTY_SETTINGS
@given(network_configs(max_users=8), st.integers(0, 1000))
def test_matching_equals_exhaustive(cfg, trial):
    table = compute_sinr(cfg, draw_realization(cfg, trial))
    exact = optimal_assignment_exhaustive(table)
    fast = optimal_assignment_matching(table)
    assert math.isclose(fast.sum_rate, exact.sum_rate, rel_tol=1e-12, abs_tol=1e-300)
    assert len({u for _, u in fast.pairs}) == cfg.num_bands


@PROPERTY_SETTINGS
@given(network_configs(max_users=10), st.data(), st.floats(math.log(2.0), 690.0))
def test_threshold_solves_log_survival_equation(cfg, data, log_n):
    m = data.draw(st.integers(0, cfg.num_bands - 1))
    n = data.draw(st.integers(0, cfg.num_secondary - 1))
    big_n = max(2, int(math.exp(log_n)))
    lam = solve_threshold(m, n, cfg, big_n)
    coeff = cfg.pp_over_ps() * cfg.gamma[n, :cfg.primary_count[m]] / cfg.eta[n]
    log_surv = lam / (cfg.snr() * cfg.eta[n]) + float(np.sum(np.log1p(coeff * lam)))
    assert lam > 0
    assert abs(log_surv - math.log(big_n)) <= 1e-12 * math.log(big_n)
