"""Property-based tests over random network configurations.

Configurations mix primary counts K_m per band, bands with K_m = 0 among
them, and spread-out path-loss factors.  Examples are derandomized so the
suite gives the same verdict on every run.
"""
import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.stats import binom

from cogdiv import (
    ConfigError,
    NetworkConfig,
    SinrTable,
    ThresholdTable,
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
    optimal_assignment_exhaustive,
    optimal_assignment_matching,
    resolve_contention,
    run_schemes,
    run_trials,
    scaling_sweep,
    solve_threshold,
    validate,
)
from cogdiv import analytics, channel, harness
from cogdiv.channel import TrialStreams, sinr_bounds
from cogdiv.harness import _per_n_seed

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


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
@given(network_configs(homogeneous=True), st.data())
def test_homogeneous_user_law_equals_bound_laws(cfg, data):
    # Equal bit for bit, not within a tolerance: one law, one coefficient source.
    m = data.draw(st.integers(0, cfg.num_bands - 1))
    n = data.draw(st.integers(0, cfg.num_secondary - 1))
    grid = np.logspace(-3, 3, 400)
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


@st.composite
def sinr_tables(draw, max_users):
    """SINR tables; about half are built to fail event D (repeated favorites)."""
    m = draw(st.integers(1, 4))
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
def test_matching_equals_exhaustive_search_with_and_without_event_d(table):
    fast = optimal_assignment_matching(table)
    _check_injective(table, fast)
    assert fast.sum_rate == optimal_assignment_exhaustive(table).sum_rate
    assert fast.sum_rate == _full_matching_sum(table)


@PROPERTY_SETTINGS
@given(sinr_tables(max_users=80))
def test_matching_equals_full_matching_with_and_without_event_d(table):
    fast = optimal_assignment_matching(table)
    _check_injective(table, fast)
    assert fast.sum_rate == _full_matching_sum(table)
    if event_d(favorites(table)):
        assert [u for _, u in fast.pairs] == favorites(table)


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
@given(network_configs(max_users=30, min_users=2),
       st.floats(math.log(2.0), math.log(1e17)))
def test_threshold_table_equals_scalar_solver(cfg, log_n):
    big_n = max(2, int(math.exp(log_n)))
    lam = build_threshold_table(cfg, big_n).lam
    for m in range(cfg.num_bands):
        for n in range(cfg.num_secondary):
            expected = _scalar_newton(m, n, cfg, big_n)
            assert lam[m, n] == solve_threshold(m, n, cfg, big_n) == expected


@PROPERTY_SETTINGS
@given(st.one_of(network_configs(), network_configs(homogeneous=True)),
       st.one_of(st.integers(2, 1000), st.integers(2, 10**17)))
def test_threshold_table_equals_uncached_array_pass(cfg, big_n):
    # Homogeneous tables come from the per-process law cache; every row must
    # still equal the one array pass over all users that solves it uncached.
    slope, coeff = cfg.link_law
    lam = build_threshold_table(cfg, big_n).lam
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
    th = ThresholdTable(lam=build_threshold_table(cfg).lam * scale,
                        population_size=cfg.num_secondary)
    out = allocate_distributed(table, th, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    assert out.assignment.pairs == tuple(
        (m, resolve_contention(members, rng))
        for m, members in enumerate(out.candidate_sets.sets) if members)


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(network_configs(max_users=12), st.data())
def test_paired_sweep_equals_one_scheme_runs(template, data):
    low = max(2, template.num_bands)
    n_values = sorted(data.draw(st.sets(st.integers(low, 40), min_size=1, max_size=3)))
    trials = data.draw(st.integers(1, 25))
    report = scaling_sweep(template, n_values, trials)
    for i, n in enumerate(report.n_values):
        cfg_n = template.with_population(n, seed=_per_n_seed(template.seed, n))
        for scheme, paired in (("centralized", report.centralized[i]),
                               ("distributed", report.distributed[i])):
            alone = run_trials(cfg_n, scheme, trials)
            assert paired.to_json_dict() == alone.to_json_dict()
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
    th = build_threshold_table(cfg)
    cent, dist, bits = np.empty(trials), np.empty(trials), np.empty(trials)
    claims, idle, hits = np.zeros(cfg.num_secondary), np.zeros(cfg.num_bands), 0
    for t in range(trials):
        table = compute_sinr(cfg, draw_realization(cfg, t))
        hits += event_d(favorites(table))
        cent[t] = optimal_assignment_matching(table).sum_rate
        out = allocate_distributed(table, th, np.random.default_rng((cfg.seed, t, 1)))
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
    return paired


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(network_configs(max_users=40, min_users=2), st.integers(1, 5))
@example(NetworkConfig.homogeneous(30, 3, 0, 10.0, seed=1), 3)              # K = 0
@example(NetworkConfig.homogeneous(20, 1, 4, 0.0, seed=2), 4)               # M = 1
@example(NetworkConfig.homogeneous(4, 4, 2, 20.0, seed=3), 2)               # N = M
@example(NetworkConfig.homogeneous(12, 4, (0, 3, 0, 6), 5.0, seed=4), 5)    # K_m = 0 bands
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
        assert paired[scheme].to_json_dict() == reference[scheme].to_json_dict()


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(network_configs(max_users=40, min_users=2), st.integers(1, 8))
@example(NetworkConfig.homogeneous(4, 1, 4, 10.0, seed=6), 6)    # chunks of two 3-trial blocks
@example(NetworkConfig.homogeneous(8, 2, 3, 0.0, seed=7), 8)     # chunks of eight 1-trial blocks
@example(NetworkConfig.homogeneous(2, 1, 0, 5.0, seed=8), 1)     # a chunk is one 4-trial block
def test_block_engine_equals_trial_loop_across_seeding_chunks(cfg, words):
    # Seeding chunks of a few trials, so the runs cross chunk edges.
    with mock.patch.object(channel, "BLOCK_BYTES", 64 * words):
        chunk, block = channel.chunk_trials(cfg), channel.block_trials(cfg)
        assert chunk % block == 0
        for trials in (chunk + 1, 2 * chunk + block + 1):
            _check_block_run(cfg, trials)


# Seeds of one to four SeedSequence words, with trial indices of one or two.
@PROPERTY_SETTINGS
@given(st.sampled_from((0, 2**32, 2**64, 2**96)), st.integers(-2, 2),
       st.sampled_from((0, 2**32)), st.integers(-3, 3), st.integers(1, 6))
@example(0, 0, 0, 0, 1)
@example(2**96, 0, 2**32, 0, 1)               # the longest keys: 7 words with the tail
@example(2**64 - 1, 0, 2**32, -2, 4)          # one pass over one- and two-word t
@example(5, 0, 2**33, -2, 4)                  # t's high word steps from 1 to 2
@example(2**32, 0, 2**64, -3, 3)              # up to t = 2**64 - 1
def test_trial_streams_equal_default_rng(seed_base, seed_shift, t_base, t_shift, count):
    seed, start = max(0, seed_base + seed_shift), max(0, t_base + t_shift)
    streams = TrialStreams(seed, start, count)
    for t in range(start, start + count):
        assert np.array_equal(streams.fading(t).standard_exponential(6),
                              np.random.default_rng((seed, t)).standard_exponential(6))
        assert np.array_equal(streams.contention(t).random(6),
                              np.random.default_rng((seed, t, 1)).random(6))
    # A stream asked for again starts over.
    assert np.array_equal(streams.fading(start).random(3),
                          np.random.default_rng((seed, start)).random(3))
    # Three 32-bit draws leave half of a 64-bit output buffered; the next
    # stream must start without it, as default_rng does.
    for t in range(start, start + count):
        streams.fading(t).integers(0, 2**32, size=3, dtype=np.uint32)
        assert np.array_equal(
            streams.contention(t).integers(0, 2**32, size=5, dtype=np.uint32),
            np.random.default_rng((seed, t, 1)).integers(0, 2**32, size=5, dtype=np.uint32))


def test_trial_streams_of_interleaved_threads_equal_default_rng():
    # Every thread sets its stream before any draws from it.
    seeds, count = (11, 12, 2**70 + 5), 40
    barrier = threading.Barrier(len(seeds), timeout=60)
    drawn = {}

    def run(seed):
        streams, rows = TrialStreams(seed, 0, count), []
        for t in range(count):
            for stream in (streams.fading, streams.contention):
                gen = stream(t)
                barrier.wait()
                rows.append(gen.random(3))
                barrier.wait()
        drawn[seed] = rows

    threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    for seed in seeds:
        expected = [np.random.default_rng(key).random(3)
                    for t in range(count) for key in ((seed, t), (seed, t, 1))]
        assert np.array_equal(drawn[seed], expected)


def test_trial_streams_reject_indices_out_of_range():
    with pytest.raises(ConfigError):
        TrialStreams(0, -1, 2)
    with pytest.raises(ConfigError):
        TrialStreams(0, 2**64 - 1, 2)


def test_seeding_check_raises_when_streams_would_diverge():
    channel._check_seeding.__wrapped__()
    with mock.patch.object(channel, "_PCG_MULT", channel._PCG_MULT + 2):
        with pytest.raises(RuntimeError):
            channel._check_seeding.__wrapped__()
    # The state written with its 64-bit words in the other order.
    layout = channel._memory_layout(np.random.PCG64(0))
    swapped = tuple(layout[c ^ 1] for c in range(4))
    with mock.patch.object(channel, "_memory_layout", return_value=swapped):
        with pytest.raises(RuntimeError):
            channel._check_seeding.__wrapped__()
