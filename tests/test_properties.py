"""Property-based tests over random network configurations.

Configurations mix primary counts K_m per band, bands with K_m = 0 among
them, and spread-out path-loss factors.  Examples are derandomized so the
suite gives the same verdict on every run.
"""
import math
import sys
import threading
import warnings
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st
from scipy import special, stats
from scipy.optimize import linear_sum_assignment
from scipy.stats import binom

from cogdiv import (
    ConfigError,
    NetworkConfig,
    SinrTable,
    allocate_distributed,
    build_threshold_table,
    candidacy_probability,
    cdf_exact,
    cdf_lower,
    cdf_upper,
    compute_sinr,
    draw_realization,
    event_d,
    favorites,
    optimal_assignment_matching,
    run_schemes,
    run_trials,
    scaling_sweep,
    validate,
)
from cogdiv import analytics, centralized, channel, harness
from cogdiv.channel import sinr_bounds
from cogdiv.cli import parse_config, render_config
from cogdiv.harness import json_data

from conftest import forced_prefetch, heterogeneous_config
from oracles import (exact_exp1_ks, exact_q2, half_statistic_counts, optimal_assignment_exhaustive,
                     q2_error_bound, resolve_contention, weighted_sinr)

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def _per_n_seed(master_seed: int, n: int) -> int:
    """The seed of a scaling sweep's point N, by its definition."""
    return int(np.random.SeedSequence((master_seed, n)).generate_state(1)[0])


@st.composite
def network_configs(draw, max_users=60, homogeneous=False, min_users=1, equal_k=False):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(max(m, min_users), max_users))
    if equal_k:
        counts = (draw(st.integers(0, 6)),) * m
    else:
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


def _engine_table(cfg, trial):
    """Trial ``trial``'s SINR table, from its stream's draws as
    ``draw_realization`` takes them.  No package code runs: it is built
    as the module is collected, and a fault must fail a test, not that."""
    rng = np.random.default_rng((cfg.seed, trial))
    g_sq = rng.standard_exponential((cfg.num_bands, cfg.num_secondary))
    h_sq = rng.standard_exponential((cfg.num_bands, cfg.num_secondary, cfg.k_max()))
    return SinrTable(sinr=weighted_sinr(cfg, g_sq, h_sq))


@PROPERTY_SETTINGS
@given(network_configs(), st.integers(0, 1000))
@example(heterogeneous_config(), 0)
def test_bounds_sandwich_and_interleave_sinr(cfg, trial):
    real = draw_realization(cfg, trial)
    sinr = compute_sinr(cfg, real).sinr
    s_lower, s_upper = sinr_bounds(cfg, real.g_sq, real.h_sq)
    assert np.all(np.isfinite(sinr)) and np.all(sinr >= 0)
    tol = 1e-9 * np.abs(sinr)
    assert np.all(s_lower <= sinr + tol)
    assert np.all(sinr <= s_upper + tol)
    lo, mid, hi = (-np.sort(-a, axis=1) for a in (s_lower, sinr, s_upper))
    tol = 1e-9 * np.abs(mid)
    assert np.all(lo <= mid + tol)
    assert np.all(mid <= hi + tol)


@PROPERTY_SETTINGS
@given(st.integers(0, 10), st.integers(1, 5), st.integers(1, 40), st.booleans(),
       st.integers(0, 2**32 - 1))
@example(3, 1, 1, False, 0)     # np.sum's own reduction loop runs over the terms
def test_sum_terms_equals_np_sum(k, rows, cols, fortran, seed):
    # Terms of either sign spread over 1e-8..1e8, where adding them in
    # another order rounds differently: stored, and made as the broadcast
    # products (rows, 1) x (cols, k) that the SINR law's terms are.
    rng = np.random.default_rng(seed)

    def spread(size):
        values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8.0, 8.0, size)
        return np.asfortranarray(values) if fortran else values

    terms, a, b = spread((rows, cols, k)), spread((rows, 1)), spread((cols, k))
    for term in (lambda s: terms[..., s], lambda s: a[..., None] * b[..., s]):
        total, expected = channel._sum_terms(k, term), np.sum(term(slice(None)), axis=-1)
        assert total.shape == expected.shape
        assert total.tobytes() == expected.tobytes()


@PROPERTY_SETTINGS
@given(st.lists(st.sampled_from([0, 1, 2, 3, 7, 8, 9]), min_size=1, max_size=4),
       st.integers(0, 5), st.sampled_from(["unit", "half", "spread", "one-off"]),
       st.booleans(), st.floats(0.1, 10.0), st.sampled_from([(), (1,), (3,), (2, 2)]),
       st.integers(0, 2**32 - 1))
@example([4, 9, 0], 2, "one-off", False, 1.0, (3,), 0)   # one gamma of 2.0 among 1.0s
def test_sinr_block_equals_the_weighted_oracle(counts, extra_users, gamma, spread_eta,
                                               pp_over_ps, lead, seed):
    # Unit gamma skips the products, and the engine's sums start from two
    # terms: neither may move a bit on any gamma, eta, Pp/Ps or band mix.
    rng = np.random.default_rng(seed)
    m, k_max = len(counts), max(counts)
    n = m + extra_users
    weights = {"unit": np.ones((n, k_max)), "half": np.full((n, k_max), 0.5),
               "spread": 10.0 ** rng.uniform(-1.0, 1.0, (n, k_max)),
               "one-off": np.ones((n, k_max))}[gamma]
    if gamma == "one-off" and k_max:
        weights[rng.integers(n), rng.integers(k_max)] = 2.0
    cfg = NetworkConfig.homogeneous(
        n, m, counts, 10.0, pp_over_ps=pp_over_ps,
        eta=10.0 ** rng.uniform(-1.0, 1.0, n) if spread_eta else 0.7, gamma=weights)
    assert (cfg.interference_weights is None) == bool(np.all(weights == 1.0))
    g_sq = rng.standard_exponential(lead + (m, n))
    h_sq = rng.standard_exponential(lead + (m, n, k_max))
    g_in, h_in = g_sq.copy(), h_sq.copy()
    sinr = channel.sinr_block(cfg, g_sq, h_sq)
    expected = weighted_sinr(cfg, g_sq, h_sq)
    assert sinr.shape == expected.shape
    assert sinr.tobytes() == expected.tobytes()
    # validate reads the same draws again for sinr_bounds.
    assert g_sq.tobytes() == g_in.tobytes() and h_sq.tobytes() == h_in.tobytes()
    assert not np.shares_memory(sinr, g_sq) and not np.shares_memory(sinr, h_sq)


@pytest.mark.parametrize("k", range(11))
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("x_shape, users", [((500, 1), 64), ((100_000,), None), ((400, 64), 64)],
                         ids=["grid-by-users", "samples", "grid-of-users"])
def test_log_survival_equals_the_stacked_formula(k, order, x_shape, users):
    # The law summed term by term is the one-array formula bit for bit, at
    # every term count and memory layout (np.sum adds pairwise from 8 terms,
    # but left to right when the terms' axis is not the innermost one).
    rng = np.random.default_rng(k)
    lead = () if users is None else (users,)
    x = np.asarray(rng.uniform(0.0, 1e3, x_shape), order=order)
    coeff = np.asarray(rng.uniform(0.0, 1e3, lead + (k,)), order=order)
    slope = rng.uniform(0.1, 1.0, lead)
    expected = x * slope + np.sum(np.log1p(coeff * x[..., None]), axis=-1)
    total = analytics._log_survival(x, slope, coeff)
    assert total.shape == expected.shape
    assert total.tobytes() == expected.tobytes()


@PROPERTY_SETTINGS
@given(network_configs(homogeneous=True), st.integers(0, 1000))
@example(NetworkConfig.homogeneous(50, 4, 4, 10.0, seed=11), 3)
def test_homogeneous_bounds_equal_sinr(cfg, trial):
    real = draw_realization(cfg, trial)
    sinr = compute_sinr(cfg, real).sinr
    s_lower, s_upper = sinr_bounds(cfg, real.g_sq, real.h_sq)
    assert np.allclose(s_lower, sinr, rtol=1e-12, atol=0.0)
    assert np.allclose(s_upper, sinr, rtol=1e-12, atol=0.0)


@PROPERTY_SETTINGS
@given(network_configs(homogeneous=True), st.integers(0, 3), st.integers(0, 59))
@example(NetworkConfig.homogeneous(50, 4, 4, 10.0, seed=11), 0, 17)
def test_homogeneous_user_law_equals_bound_laws(cfg, m, n):
    # Equal bit for bit, not within a tolerance: one law, one coefficient source.
    m, n = m % cfg.num_bands, n % cfg.num_secondary
    grid = np.logspace(-3, 3, 500)
    exact = cdf_exact(grid, m, n, cfg)
    assert np.array_equal(exact, cdf_lower(grid, m, cfg))
    assert np.array_equal(exact, cdf_upper(grid, m, cfg))


# No shrinking: each example runs the whole validation suite, and shrinking a
# failure through it takes minutes.
@settings(PROPERTY_SETTINGS, max_examples=8, phases=(Phase.explicit, Phase.generate))
@given(network_configs(homogeneous=True))
def test_validate_homogeneous_cdf_checks_read_zero(cfg):
    checks = {c.name: c for c in validate(cfg, samples=10_000).checks}
    assert checks["homogeneous_cdf_identity"].statistic == 0.0
    assert checks["cdf_dominance"].statistic == 0.0


@PROPERTY_SETTINGS
@given(network_configs(max_users=10), st.data(), st.floats(math.log(2.0), 690.0))
def test_threshold_solves_log_survival_equation(cfg, data, log_n):
    m = data.draw(st.integers(0, cfg.num_bands - 1))
    n = data.draw(st.integers(0, cfg.num_secondary - 1))
    big_n = max(2, int(math.exp(log_n)))
    lam = build_threshold_table(cfg, big_n)[m, n]
    coeff = cfg.pp_over_ps() * cfg.gamma[n, :cfg.primary_count[m]] / cfg.eta[n]
    log_surv = lam / (cfg.snr() * cfg.eta[n]) + float(np.sum(np.log1p(coeff * lam)))
    assert lam > 0
    assert abs(log_surv - math.log(big_n)) <= 1e-12 * math.log(big_n)


@st.composite
def sinr_tables(draw, max_users, max_bands=4):
    """SINR tables; about half are built to fail event D (repeated favorites)."""
    m = draw(st.integers(1, max_bands))
    n = draw(st.integers(m, max_users))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sinr = rng.exponential(size=(m, n)) * 10.0 ** rng.uniform(-1.0, 2.0, (m, n))
    if m > 1 and draw(st.booleans()):
        shared = rng.choice(m, size=draw(st.integers(2, m)), replace=False)
        star = draw(st.integers(0, n - 1))
        sinr[shared, star] = sinr[shared].max(axis=1) * rng.uniform(1.01, 2.0, shared.size)
    return SinrTable(sinr=sinr)


def _full_matching_sum(table):
    rates = np.log2(1.0 + table.sinr)
    rows, cols = linear_sum_assignment(rates, maximize=True)
    return float(rates[rows, cols].sum())


def _check_injective(table, assignment):
    m = table.sinr.shape[0]
    assert [b for b, _ in assignment.pairs] == list(range(m))
    assert len({u for _, u in assignment.pairs}) == m


@PROPERTY_SETTINGS
@given(sinr_tables(max_users=12))
@example(_engine_table(heterogeneous_config(8, 4, (0, 3, 6, 2)), 0))   # no event D
def test_matching_equals_exhaustive_search_with_and_without_event_d(table):
    fast = optimal_assignment_matching(table)
    _check_injective(table, fast)
    assert fast.sum_rate == optimal_assignment_exhaustive(table).sum_rate
    assert fast.sum_rate == _full_matching_sum(table)


@PROPERTY_SETTINGS
@given(sinr_tables(max_users=80))
@example(_engine_table(heterogeneous_config(), 0))   # event D
def test_matching_equals_full_matching_with_and_without_event_d(table):
    fast = optimal_assignment_matching(table)
    _check_injective(table, fast)
    assert fast.sum_rate == _full_matching_sum(table)
    if event_d(favorites(table)):
        assert [u for _, u in fast.pairs] == favorites(table)


@PROPERTY_SETTINGS
@given(sinr_tables(max_users=80, max_bands=6))
@example(SinrTable(sinr=np.array([[9.0, 1.0, 2.0, 3.0], [8.0, 7.0, 1.0, 2.0],
                                  [5.0, 1.0, 4.0, 2.0], [6.0, 2.0, 3.0, 1.0]])))
def test_matched_users_equal_full_matching(table):
    # M <= 4 enumerates each band's M best users (N = M is argpartition's
    # kth = 0), M = 5 and 6 run scipy's solver.  The block holds the table
    # and its band-reversed copy, whose matching is the reverse.
    cols = linear_sum_assignment(np.log2(1.0 + table.sinr), maximize=True)[1]
    sinr = np.stack([table.sinr, table.sinr[::-1]])
    fav = centralized.favorite_users(sinr)
    users = centralized.matched_users(sinr, fav, centralized.all_distinct(fav))
    assert users.tolist() == [cols.tolist(), cols[::-1].tolist()]
    assert centralized.assignment_rates(table.sinr, users[0]) == _full_matching_sum(table)


def _scalar_newton(m, n, cfg, big_n):
    """One user's Newton iteration on the log-survival equation, in Python floats."""
    slope = 1.0 / (cfg.snr() * cfg.eta[n])
    coeff = cfg.pp_over_ps() * cfg.gamma[n, :cfg.primary_count[m]] / cfg.eta[n]
    x = 0.0
    while True:
        g = x * slope + float(np.sum(np.log1p(coeff * x))) - math.log(big_n)
        step = x - g / (slope + float(np.sum(coeff / (1.0 + coeff * x))))
        if not step > x:
            return x
        x = step


@PROPERTY_SETTINGS
@given(st.one_of(network_configs(max_users=30, min_users=2),
                 network_configs(max_users=30, min_users=2, homogeneous=True)),
       st.floats(math.log(2.0), math.log(1e17)))
def test_threshold_table_equals_scalar_solver(cfg, log_n):
    # Every entry is also its own law's cached one-row solve, bit for bit,
    # whether the table came from the cache or from an array pass.
    big_n = max(2, int(math.exp(log_n)))
    lam = build_threshold_table(cfg, big_n)
    slope, coeff = cfg.link_law
    for m, k_m in enumerate(cfg.primary_count):
        for n in range(cfg.num_secondary):
            expected = _scalar_newton(m, n, cfg, big_n)
            cached = analytics._law_threshold(float(slope[n]), tuple(coeff[n, :k_m].tolist()),
                                              big_n)
            assert lam[m, n] == cached == expected


@PROPERTY_SETTINGS
@given(st.one_of(network_configs(), network_configs(homogeneous=True)),
       st.one_of(st.integers(2, 1000), st.integers(2, 10**17)))
def test_threshold_table_equals_uncached_array_pass(cfg, big_n):
    # Homogeneous tables come from the per-process law cache; every row must
    # still equal the one array pass over all users that solves it uncached.
    slope, coeff = cfg.link_law
    lam = build_threshold_table(cfg, big_n)
    for m, k_m in enumerate(cfg.primary_count):
        expected = analytics._newton_log_survival(slope, coeff[:, :k_m], math.log(big_n))
        assert lam[m].tobytes() == expected.tobytes()


@PROPERTY_SETTINGS
@given(network_configs(max_users=40, min_users=2), st.integers(0, 1000),
       st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
def test_allocation_draws_the_per_band_contention_stream(cfg, trial, scale, seed):
    # Lowered thresholds give crowded bands; the one timer draw must pick
    # the winners that per-band resolve_contention calls pick.
    table = compute_sinr(cfg, draw_realization(cfg, trial))
    lam = build_threshold_table(cfg) * scale
    out = allocate_distributed(table, lam, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    assert out.assignment.pairs == tuple(
        (m, resolve_contention(members, rng))
        for m, members in enumerate(out.candidate_sets.sets) if members)


@st.composite
def sweeps(draw):
    """(template, n_values, trials) of a small scaling sweep."""
    template = draw(network_configs(max_users=12))
    low = max(2, template.num_bands)
    n_values = sorted(draw(st.sets(st.integers(low, 40), min_size=1, max_size=3)))
    return template, n_values, draw(st.integers(1, 25))


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(sweeps())
# A master seed of seven 32-bit words takes SeedSequence's extra mixing rounds.
@example((NetworkConfig.homogeneous(4, 2, (0, 3), 10.0, seed=2**200 + 7), [2, 17, 40], 6))
def test_paired_sweep_equals_one_scheme_runs(sweep):
    template, n_values, trials = sweep
    report = scaling_sweep(template, n_values, trials)
    for i, n in enumerate(report.n_values):
        cfg_n = template.with_population(n, seed=_per_n_seed(template.seed, n))
        for scheme, paired in (("centralized", report.centralized[i]),
                               ("distributed", report.distributed[i])):
            alone = run_trials(cfg_n, scheme, trials)
            assert json_data(paired) == json_data(alone)
            assert np.array_equal(paired.trial_sum_rates, alone.trial_sum_rates)
        cent, dist = report.centralized[i], report.distributed[i]
        gap = cent.trial_sum_rates - dist.trial_sum_rates
        assert abs(report.gap_mean[i] - (cent.mean_sum_rate - dist.mean_sum_rate)) <= 1e-12
        assert report.gap_stderr[i] == (
            float(np.std(gap, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0)


def _binomial_two_sided_p(freq, trials, p):
    """Exact two-sided binomial tail of each observed frequency (doubled smaller tail)."""
    k = np.rint(np.asarray(freq) * trials)
    return np.minimum(1.0, 2.0 * np.minimum(binom.cdf(k, trials, p), binom.sf(k - 1, trials, p)))


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(network_configs(max_users=40, min_users=2, equal_k=True))
def test_distributed_statistics_match_analysis(cfg):
    # Each threshold is its own user's (1 - 1/N) quantile, so a user claims
    # with probability omega whatever its path loss; with equal K_m a
    # claimant's band is uniform, so a band is idle w.p. (1 - omega/M)^N.
    # Each count is exactly binomial; a Bonferroni bound over the users
    # (and over the bands) holds each example's false-alarm rate to 2e-6.
    trials, alpha = 400, 1e-6
    agg = run_trials(cfg, "distributed", trials)
    n, m = cfg.num_secondary, cfg.num_bands
    omega = candidacy_probability(n, m)
    assert _binomial_two_sided_p(agg.per_user_candidacy, trials, omega).min() > alpha / n
    idle = (1.0 - omega / m) ** n
    assert _binomial_two_sided_p(agg.idle_band_frequency, trials, idle).min() > alpha / m


def _trial_loop(cfg, trials):
    """run_schemes redone one trial at a time through the one-trial entry points."""
    lam = build_threshold_table(cfg)
    cent, dist, bits = np.empty(trials), np.empty(trials), np.empty(trials)
    claims, idle, hits = np.zeros(cfg.num_secondary), np.zeros(cfg.num_bands), 0
    for t in range(trials):
        table = compute_sinr(cfg, draw_realization(cfg, t))
        hits += event_d(favorites(table))
        cent[t] = optimal_assignment_matching(table).sum_rate
        out = allocate_distributed(table, lam, np.random.default_rng((cfg.seed, t, 1)))
        dist[t], bits[t] = out.assignment.sum_rate, out.info_bits
        claims += out.candidate_sets.claims >= 0
        idle[list(out.idle_bands)] += 1
    return cent, dist, bits, claims / trials, idle / trials, hits / trials


def _check_block_run(cfg, trials):
    cent, dist, bits, candidacy, idle, d_freq = _trial_loop(cfg, trials)
    paired = run_schemes(cfg, harness.SCHEMES, trials)
    for aggs in (paired, {scheme: run_trials(cfg, scheme, trials) for scheme in harness.SCHEMES}):
        c, d = aggs["centralized"], aggs["distributed"]
        assert np.array_equal(c.trial_sum_rates, cent)
        assert np.array_equal(d.trial_sum_rates, dist)
        assert d.mean_info_bits == float(np.mean(bits))
        assert np.array_equal(d.per_user_candidacy, candidacy)
        assert np.array_equal(d.idle_band_frequency, idle)
        assert c.event_d_frequency == d.event_d_frequency == d_freq
        if trials == 1:
            assert c.stderr_sum_rate == d.stderr_sum_rate == 0.0
    return paired


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(network_configs(max_users=40, min_users=2), st.integers(1, 5))
@example(NetworkConfig.homogeneous(30, 3, 0, 10.0, seed=1), 3)              # K = 0
@example(NetworkConfig.homogeneous(20, 1, 4, 0.0, seed=2), 4)               # M = 1
@example(NetworkConfig.homogeneous(4, 4, 2, 20.0, seed=3), 2)               # N = M
@example(NetworkConfig.homogeneous(12, 4, (0, 3, 0, 6), 5.0, seed=4), 5)    # K_m = 0 bands
@example(heterogeneous_config(), 1)                                         # N = 50, spread gamma
def test_block_engine_equals_trial_loop(cfg, block):
    # Blocks of `block` trials; the trial counts put block edges everywhere.
    per_trial = 8 * cfg.num_bands * cfg.num_secondary * max(1, cfg.k_max())
    reference = run_schemes(cfg, harness.SCHEMES, 2 * block + 3)
    with mock.patch.object(channel, "BLOCK_BYTES", block * per_trial):
        assert channel.block_trials(cfg) == block
        for trials in sorted({1, max(1, block - 1), block, block + 1, 2 * block + 3}):
            paired = _check_block_run(cfg, trials)
    for scheme in harness.SCHEMES:   # and the default block size gives the same
        assert np.array_equal(paired[scheme].trial_sum_rates,
                              reference[scheme].trial_sum_rates)
        assert json_data(paired[scheme]) == json_data(reference[scheme])


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(network_configs(max_users=40, min_users=2), st.integers(1, 8))
@example(NetworkConfig.homogeneous(4, 1, 4, 10.0, seed=6), 6)    # chunks of two 3-trial blocks
@example(NetworkConfig.homogeneous(8, 2, 3, 0.0, seed=7), 8)     # chunks of eight 1-trial blocks
@example(NetworkConfig.homogeneous(2, 1, 0, 5.0, seed=8), 1)     # a chunk is one 4-trial block
def test_block_engine_equals_trial_loop_across_seeding_chunks(cfg, words):
    # Seeding chunks of a few trials, so the runs cross chunk edges.
    with mock.patch.object(channel, "BLOCK_BYTES", 64 * words):
        block = channel.block_trials(cfg)
        (_, _, chunk), = next(channel.seeding_passes([cfg], 10**6))
        assert chunk % block == 0
        for trials in (chunk + 1, 2 * chunk + block + 1):
            _check_block_run(cfg, trials)


def _pcg64_image(state: int, inc: int) -> list[int]:
    """The four words (state low, state high, inc low, inc high) of a PCG64 state."""
    return [state & 2**64 - 1, state >> 64, inc & 2**64 - 1, inc >> 64]


PCG64_STREAMS = st.tuples(st.integers(0, 2**128 - 1), st.integers(0, 2**127 - 1))


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(PCG64_STREAMS, st.integers(0, 16)), max_size=8), PCG64_STREAMS)
@example([((0, 0), 0), ((2**128 - 1, 2**127 - 1), 16)], (1, 0))
def test_timer_step_equals_generator_random(streams, long_stream):
    # Any state, any odd increment, 0 to 16 draws a stream, and one stream
    # of 1000 draws, which outgrows every smaller jump table.
    streams = [*streams, (long_stream, 1000)]
    images = np.array([_pcg64_image(state, 2 * k + 1) for (state, k), _ in streams],
                      dtype=np.uint64)
    timers = channel._randoms(images, [count for _, count in streams])
    gen, expected = np.random.Generator(np.random.PCG64()), []
    for (state, k), count in streams:
        gen.bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": 2 * k + 1},
                                   "has_uint32": 0, "uinteger": 0}
        expected.extend(gen.random(count))
    assert timers.tobytes() == np.array(expected).tobytes()


# Seeds of one, two, three and four SeedSequence words, and seeds within 2
# of the powers of 2**32 where a seed takes one word more.
KEY_SEEDS = (0, 2**32 - 1, 2**32, 2**64, 2**96 + 3)
EDGE_SEEDS = st.tuples(st.sampled_from((0, 2**32, 2**64, 2**96)),
                       st.integers(-2, 2)).map(lambda edge: max(0, sum(edge)))


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(KEY_SEEDS) | EDGE_SEEDS,
                          st.sampled_from((0, 2**32, 2**64)), st.integers(-3, 3),
                          st.integers(1, 6)), min_size=1, max_size=6))
@example([(0, 0, 0, 1)])
@example([(seed, 0, 0, 2) for seed in KEY_SEEDS])
@example([(seed, 2**32, -1, 2) for seed in reversed(KEY_SEEDS)])   # t's second word appears
@example([(2**96 + 3, 2**32, 0, 1), (0, 0, 0, 3), (2**96 + 3, 0, 2, 1)])
@example([(2**96, 2**32, 0, 1)])             # the longest keys: 7 words with the tail
@example([(2**64 - 1, 2**32, -2, 4)])        # one pass over one- and two-word t
@example([(5, 2**33, -2, 4)])                # t's high word steps from 1 to 2
@example([(2**32, 2**64, -3, 3)])            # up to t = 2**64 - 1
def test_one_seeding_pass_over_mixed_keys_equals_default_rng(spans):
    # Runs of trials end at t = 2**64 - 1 at the latest.
    keys = [(seed, channel._trials(min(max(0, base + shift), 2**64 - count), count))
            for seed, base, shift, count in spans]
    fading, contention = channel._stream_images(keys)
    contention = np.take(contention, channel._check_seeding(), axis=1)   # _set_stream's order
    rows = [(seed, int(t)) for seed, ts in keys for t in ts]
    assert len(fading) == len(contention) == len(rows)
    for fading_image, contention_image, (seed, t) in zip(fading, contention, rows):
        assert np.array_equal(channel._set_stream(fading_image).standard_exponential(6),
                              np.random.default_rng((seed, t)).standard_exponential(6))
        assert np.array_equal(channel._set_stream(contention_image).random(6),
                              np.random.default_rng((seed, t, 1)).random(6))
    # A stream asked for again starts over.
    assert np.array_equal(channel._set_stream(fading[0]).random(3),
                          np.random.default_rng(rows[0]).random(3))
    # Three 32-bit draws leave half of a 64-bit output buffered; the next
    # stream must start without it, as default_rng does.
    for fading_image, contention_image, (seed, t) in zip(fading, contention, rows):
        channel._set_stream(fading_image).integers(0, 2**32, size=3, dtype=np.uint32)
        assert np.array_equal(
            channel._set_stream(contention_image).integers(0, 2**32, size=5, dtype=np.uint32),
            np.random.default_rng((seed, t, 1)).integers(0, 2**32, size=5, dtype=np.uint32))


@pytest.mark.parametrize("template, n_values, trials, room", [
    (NetworkConfig.homogeneous(10, 2, 3, 10.0, seed=5), (10, 20, 50), 7, 5),
    (NetworkConfig.homogeneous(4, 4, (0, 2, 1, 3), 0.0, seed=2**70 + 1), (4, 9, 16, 30), 5, 3),
    (NetworkConfig.homogeneous(2, 1, 0, 5.0, seed=2**32), (20, 30, 45), 9, 6),
    # Per-user eta and gamma, unequal K with an interference-free band: a
    # point's claim offset or a span's idle rows must land on its own point.
    (heterogeneous_config(5, 3, (2, 0, 3), seed=17), (3, 7, 12, 20), 5, 3),
])
def test_sweep_across_seeding_pass_boundaries(template, n_values, trials, room):
    # Passes of `room` trials: one splits a point's trials, another joins two points.
    cfgs = [template.with_population(n, seed=_per_n_seed(template.seed, n)) for n in n_values]
    with mock.patch.object(channel, "BLOCK_BYTES", 64 * room):
        passes = list(channel.seeding_passes(cfgs, trials))
        assert any(len({point for point, _, _ in spans}) > 1 for spans in passes)
        assert any(start > 0 for spans in passes for _, start, _ in spans)
        # Every trial once, in order; a pass over its room holds one block.
        spans = [span for spans in passes for span in spans]
        assert [point for point, _, _ in spans] == sorted(point for point, _, _ in spans)
        for point, cfg in enumerate(cfgs):
            assert [t for p, start, count in spans if p == point
                    for t in range(start, start + count)] == list(range(trials))
        for spans in passes:
            assert (sum(count for _, _, count in spans) <= room
                    or [count for _, _, count in spans] == [channel.block_trials(cfgs[spans[0][0]])])
        report = scaling_sweep(template, n_values, trials)
    for i, cfg in enumerate(cfgs):
        for scheme, paired in (("centralized", report.centralized[i]),
                               ("distributed", report.distributed[i])):
            alone = run_trials(cfg, scheme, trials)
            assert json_data(paired) == json_data(alone)
            assert np.array_equal(paired.trial_sum_rates, alone.trial_sum_rates)


@pytest.mark.parametrize("cfg", [
    NetworkConfig.homogeneous(30, 3, 2, 10.0, seed=5),
    heterogeneous_config(),
    NetworkConfig.homogeneous(12, 4, (0, 2, 4, 8), 5.0, seed=2),
], ids=["homogeneous", "hetero_cfg", "k_0_2_4_8"])
def test_prefetch_path_leaves_every_result_bit_for_bit(cfg):
    # Forced on, every span of two or more blocks fills the next block on
    # the worker; each call below has such spans (a block holds at most 64
    # trials).
    def schemes():
        aggs = run_schemes(cfg, harness.SCHEMES, 300).values()
        return [json_data(agg) for agg in aggs], [agg.trial_sum_rates.tolist() for agg in aggs]

    runs = (schemes,
            lambda: json_data(scaling_sweep(cfg, (cfg.num_secondary, 2 * cfg.num_secondary), 150)),
            lambda: json_data(validate(cfg, 10_000)))
    for run in runs:
        with forced_prefetch(False) as given:
            inline = run()
        assert not given
        with forced_prefetch(True) as given:
            prefetched = run()
        assert given and prefetched == inline


def test_trial_streams_of_interleaved_threads_equal_default_rng():
    # Each thread runs trial_passes on its own seed, and every thread sets
    # its fading stream, or reaches its timers, before any thread draws.
    seeds, count = (11, 12, 2**70 + 5), 40
    cfgs = [NetworkConfig.homogeneous(4, 2, (1, 3), 10.0, seed=seed) for seed in seeds]
    barrier = threading.Barrier(len(cfgs), timeout=60)
    draw = channel._draw
    drawn = {}
    draws, lock = {}, threading.Lock()   # per thread, the trials that met the barrier

    def draw_when_all_set(rng, row):
        barrier.wait()
        with lock:
            draws[threading.get_ident()] = draws.get(threading.get_ident(), 0) + 1
        draw(rng, row)

    def run(cfg):
        g_rows, h_rows, timers = [], [], []
        for _, pass_timers, blocks in channel.trial_passes([cfg], count):
            for _, start, row, g_sq, h_sq in blocks:
                g_rows.extend(g_sq.copy())    # the next block overwrites g_sq and h_sq
                h_rows.extend(h_sq.copy())
                rows = row + np.arange(len(g_sq))
                barrier.wait()
                timers.extend(pass_timers(rows, np.full(len(rows), 3)).reshape(-1, 3))
                barrier.wait()
        drawn[cfg.seed] = g_rows, h_rows, timers

    with mock.patch.object(channel, "_draw", draw_when_all_set):
        threads = [threading.Thread(target=run, args=(cfg,)) for cfg in cfgs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    assert sorted(draws.values()) == [count] * len(cfgs)
    for cfg in cfgs:
        g_rows, h_rows, timers = drawn[cfg.seed]
        reals = [draw_realization(cfg, t) for t in range(count)]
        assert np.array_equal(g_rows, [real.g_sq for real in reals])
        assert np.array_equal(h_rows, [real.h_sq for real in reals])
        assert np.array_equal(timers, [np.random.default_rng((cfg.seed, t, 1)).random(3)
                                       for t in range(count)])


def test_seeding_check_raises_when_streams_would_diverge():
    channel._check_seeding.__wrapped__()
    with mock.patch.object(channel, "_PCG_MULT", channel._PCG_MULT + 2):
        with pytest.raises(channel.UnsupportedNumpyError):
            channel._check_seeding.__wrapped__()
    # The state written with its 64-bit words in the other order.
    layout = channel._memory_layout(np.random.PCG64(0))
    swapped = tuple(layout[c ^ 1] for c in range(4))
    with mock.patch.object(channel, "_memory_layout", return_value=swapped):
        with pytest.raises(channel.UnsupportedNumpyError):
            channel._check_seeding.__wrapped__()
    # The timer step's output with the wrong rotation.
    with mock.patch.object(channel, "_ROTATE", channel._U64(57)):
        with pytest.raises(channel.UnsupportedNumpyError):
            channel._check_seeding.__wrapped__()
    # State words that are no permutation of the four the setter wrote.
    views = channel._state_views
    with mock.patch.object(channel, "_state_views",
                           lambda bg: (np.zeros(4, np.uint64), views(bg)[1])):
        with pytest.raises(channel.UnsupportedNumpyError):
            channel._memory_layout(np.random.PCG64(0))


def _five_bins(first_four):
    """Five counts summing to 30,000, the last one taking up the rest."""
    return [*first_four, 30_000 - sum(first_four)]


#: Five-bin counts of 30,000 contentions, as validate's chi-square test
#: takes them: any split, and splits near the fair 6000 each.
FIVE_COUNTS = st.one_of(
    st.lists(st.integers(0, 30_000), min_size=4, max_size=4).map(sorted)
    .map(lambda cuts: np.diff([0, *cuts, 30_000]).tolist()),
    st.lists(st.integers(5700, 6300), min_size=4, max_size=4).map(_five_bins))


@PROPERTY_SETTINGS
@given(FIVE_COUNTS)
@example([6000] * 5)                        # equal counts: the statistic is 0
@example([5962, 6059, 5969, 6057, 5953])    # counts a fair contention gives
@example([6000, 6000, 6000, 3939, 8061])    # half the statistic just under 708
@example([0, 0, 0, 0, 30_000])              # every contention in one bin
def test_chisquare_p_within_1e_12_of_scipy(counts):
    # Within 1e-12 of scipy's p-value while both are normal floats; past
    # half a statistic of 708 both are below Q(2, 708) < 2.4e-305.
    counts = np.array(counts)
    p, scipy = harness._chisquare_p(counts), stats.chisquare(counts)
    if scipy.statistic / 2.0 <= 708:
        assert p == pytest.approx(scipy.pvalue, rel=1e-12, abs=0)
    else:
        assert 0.0 <= p < 2.4e-305 and scipy.pvalue < 2.4e-305


# Q(2, h) for half-statistics h over those of five counts of 30,000 (up to
# 60,000) and beyond, through e^-h's subnormal range, and at the smallest
# h > 0 that half_statistic_counts makes, 2^-50.
@PROPERTY_SETTINGS
@given(st.floats(0.0, 1e5) | st.floats(700.0, 750.0) | st.floats(0.0, 1e-6))
@example(0.0)
@example(2.0 ** -50)
@example(708.0)
@example(745.0)
@example(1e5)
def test_chisquare_p_within_4_ulp_of_q2(x):
    # Within 4 ulp of Q(2, h) at 60 digits, with e^-h's own rounding past
    # 708, and within 1e-12 of scipy's gammaincc(2, h) up to 708.
    counts, h = half_statistic_counts(x)
    p, exact = harness._chisquare_p(counts), exact_q2(h)
    assert abs(Decimal(p) - exact) <= q2_error_bound(h, exact)
    if h <= 708:
        assert p == pytest.approx(special.gammaincc(2.0, h), rel=1e-12, abs=0)


@PROPERTY_SETTINGS
@given(FIVE_COUNTS, FIVE_COUNTS, st.integers(1, 10**9))
@example([6000] * 5, [6001, 5999, 6000, 6000, 6000], 1)   # the two smallest statistics
@example([6000, 6000, 6000, 3939, 8061], [6000, 6000, 6000, 3938, 8062], 6000)
@example([0, 0, 0, 0, 30_000], [0, 0, 0, 1, 29_999], 10**9)
def test_chisquare_p_is_a_probability_falling_with_the_statistic(first, second, count):
    # The p-value lies in [0, 1], is 1 exactly at equal counts, and does not
    # rise with the statistic while it is a normal float.  (Past half a
    # statistic of 735.7, e^-h has too few subnormal steps, and e^-h (1 + h)
    # can rise by a step of 2^-1074 as h grows.)
    (q_low, low), (q_high, high) = sorted(
        (sum((c - 6000) ** 2 for c in counts), counts) for counts in (first, second))
    p_low, p_high = (harness._chisquare_p(np.array(c)) for c in (low, high))
    assert 0.0 <= p_low <= 1.0 and 0.0 <= p_high <= 1.0
    if q_low < q_high and p_low >= sys.float_info.min:
        assert p_high <= p_low
    assert harness._chisquare_p(np.full(5, count)) == 1.0


# Samples of Exp(1)'s support, with ties when rounded to 0.1.
@PROPERTY_SETTINGS
@given(st.lists(st.floats(0.0, 40.0), min_size=1, max_size=300), st.booleans())
@example([0.52], False)
@example([0.52, 0.52, 3.0], False)
@example([0.0, 0.5, 0.5, math.nextafter(0.5, 1.0), 40.0], False)
def test_exp1_ks_within_2_52_of_exact(values, ties):
    # Within 2^-52 of the exact distance and 1e-12 of scipy's statistic.
    x = np.round(values, 1) if ties else np.array(values)
    ks = harness._exp1_ks(x.copy())
    assert abs(Decimal(ks) - exact_exp1_ks(x)) <= Decimal(2.0 ** -52)
    assert ks == pytest.approx(stats.kstest(x, "expon", method="asymp").statistic,
                               rel=1e-12, abs=0)


# snr_db over nearly all of the range NetworkConfig accepts (rho and 1/rho
# finite, 64 rho finite), and tenth-dB values.
@PROPERTY_SETTINGS
@given(st.floats(-3080.0, 3060.0) | st.integers(-40, 60).map(lambda tenths: tenths / 10))
@example(3.0)
@example(2.999999999999999)
def test_render_config_round_trips_every_snr_db(snr_db):
    cfg = NetworkConfig.homogeneous(4, 2, 1, snr_db)
    text = render_config(cfg)
    assert parse_config(text) == cfg
    rendered = float(text.split("snr_db = ", 1)[1].split("\n", 1)[0])
    assert len(repr(rendered)) <= len(repr(snr_db))


def _small_doc(**changes):
    """Library arguments of the network N = 20, M = 2, K = 2 at 10 dB, with changes."""
    return dict(num_secondary=20, num_bands=2, primary_count=(2, 2), power_secondary=10.0,
                power_primary=10.0, noise_power=1.0, eta=1.0, gamma=1.0, seed=5) | changes


@st.composite
def extreme_networks(draw):
    """Library arguments at N = 6, M = 2 whose powers, eta and gamma are each
    a power of ten anywhere in the float range, subnormals included."""
    power = st.integers(-320, 308).map(lambda e: 10.0 ** e)
    return dict(num_secondary=6, num_bands=2, primary_count=(draw(st.integers(0, 3)), 1),
                power_secondary=draw(power), power_primary=draw(power),
                noise_power=draw(power), eta=draw(power), gamma=draw(power))


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(extreme_networks())
@example(_small_doc(eta=1e-320))
@example(_small_doc(gamma=1e308))
@example(_small_doc(power_secondary=1e-310, power_primary=1e-310))   # snr_db = -3100
@example(_small_doc(eta=1e308))
@example(_small_doc(gamma=1e306))
# N_0 < 1: rho*eta*|g|^2, which bounds the SINR, overflows at a large draw.
@example(dict(num_secondary=20, num_bands=2, primary_count=(0, 0), power_secondary=1e7,
              power_primary=1.0, noise_power=1e-300, eta=10.0, gamma=1.0))
def test_network_is_rejected_or_runs_without_overflow(kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = NetworkConfig(**kwargs)
        except ConfigError:
            return
        aggs = run_schemes(cfg, harness.SCHEMES, 20)
        lam = build_threshold_table(cfg)
    for agg in aggs.values():
        assert np.all(np.isfinite(agg.trial_sum_rates)) and math.isfinite(agg.mean_sum_rate)
    assert np.all(np.isfinite(lam))


# Templates of both kinds, populations below M and up to 3x the template,
# and seeds of one to three words, negative ones among them.
@PROPERTY_SETTINGS
@given(st.one_of(network_configs(max_users=20, homogeneous=True), network_configs(max_users=20)),
       st.integers(-2, 60), st.one_of(st.none(), st.integers(-3, 2**70)))
@example(NetworkConfig.homogeneous(5, 2, 0, 10.0, seed=3), 12, None)            # every K_m = 0
@example(NetworkConfig.homogeneous(9, 4, (0, 2, 4, 1), 0.0, seed=4), 4, 2**64)  # N = M
# A two-law template whose smaller population has one law.
@example(NetworkConfig.homogeneous(3, 2, 1, 10.0, eta=(1.0, 1.0, 2.0)), 2, None)
def test_with_population_equals_the_constructors_config(template, n, seed):
    template.link_law   # a template's cached law is not the new config's
    if n < template.num_bands or (seed is not None and seed < 0):
        with pytest.raises(ConfigError):
            template.with_population(n, seed=seed)
        return
    cfg = template.with_population(n, seed=seed)
    # Only a one-law or unit-gamma template passes its flag down.
    assert ("one_law" in vars(cfg)) == template.one_law
    assert ("interference_weights" in vars(cfg)) == (template.interference_weights is None)
    built = NetworkConfig(
        num_secondary=n, num_bands=template.num_bands, primary_count=template.primary_count,
        power_secondary=template.power_secondary, power_primary=template.power_primary,
        noise_power=template.noise_power, eta=np.resize(template.eta, n),
        gamma=np.resize(template.gamma, (n, template.k_max())),
        seed=template.seed if seed is None else seed)
    assert cfg == built and built == cfg
    assert type(cfg.num_secondary) is int and type(cfg.seed) is int
    for law, built_law in zip(cfg.link_law, built.link_law):
        assert law.shape == built_law.shape and np.array_equal(law, built_law)
    for arr in (cfg.eta, cfg.gamma, *cfg.link_law):
        assert not arr.flags.writeable
    for upper in (False, True):
        assert cfg.bound_law(upper) == built.bound_law(upper)
    assert cfg.one_law == built.one_law
    assert (cfg.interference_weights is None) == (built.interference_weights is None)
    if n >= 2:   # a table needs two users
        assert build_threshold_table(cfg).tobytes() == build_threshold_table(built).tobytes()
