import functools
import json
import math
from unittest import mock

import numpy as np
import pytest
from scipy import special, stats

from cogdiv import (
    ConfigError,
    NetworkConfig,
    build_threshold_table,
    cdf_exact,
    compute_sinr,
    draw_realization,
    expected_log_max,
    optimal_assignment_matching,
    run_schemes,
    run_trials,
    scaling_sweep,
    threshold_sweep,
    validate,
)
from cogdiv import channel, harness
from cogdiv.channel import sinr_bounds
from cogdiv.harness import (
    ResourceError,
    fit_double_log,
    json_data,
    write_scaling_csv,
    write_json,
)

from conftest import assert_csv_field, heterogeneous_config


def test_single_trial_matches_realization(hetero_cfg):
    agg = run_trials(hetero_cfg, "centralized", 1)
    table = compute_sinr(hetero_cfg, draw_realization(hetero_cfg, 0))
    direct = optimal_assignment_matching(table).sum_rate
    assert agg.mean_sum_rate == pytest.approx(direct, rel=1e-12)
    assert agg.stderr_sum_rate == 0.0


def test_run_trials_deterministic(hetero_cfg):
    a = run_trials(hetero_cfg, "distributed", 40)
    b = run_trials(hetero_cfg, "distributed", 40)
    assert a.trial_sum_rates.tobytes() == b.trial_sum_rates.tobytes()
    assert a.mean_info_bits == b.mean_info_bits


def test_centralized_dominates_distributed_per_trial(hetero_cfg):
    cent = run_trials(hetero_cfg, "centralized", 60)
    dist = run_trials(hetero_cfg, "distributed", 60)
    assert np.all(dist.trial_sum_rates <= cent.trial_sum_rates + 1e-12)
    assert dist.mean_sum_rate <= cent.mean_sum_rate


def test_distributed_run_sets_only_the_fading_streams():
    # One stream is set per trial, its fading one: every contention timer
    # of a seeding pass comes from the one array step.
    cfg = NetworkConfig.homogeneous(50, 4, 4, 10.0, seed=9)
    channel._check_seeding()
    trials = 300
    with mock.patch.object(channel, "_set_stream", wraps=channel._set_stream) as set_stream:
        run_trials(cfg, "distributed", trials)
    assert set_stream.call_count == trials


def _run_tallies(cfg, trials):
    """Each scheme's sums of ``run_schemes(cfg, both schemes, trials)``."""
    tallies, aggregates = [], harness._Tally.aggregates

    def keep(tally):
        tallies.append(tally)
        return aggregates(tally)

    with mock.patch.object(harness._Tally, "aggregates", keep):
        run_schemes(cfg, ("centralized", "distributed"), trials)
    (tally,) = tallies
    return ([tally.sum_rates[s].tobytes() for s in ("centralized", "distributed")],
            tally.info_bits.tobytes(), tally.claim_counts.tobytes(),
            tally.idle_counts.tobytes(), tally.event_d_count)


@pytest.mark.parametrize("cfg", [
    NetworkConfig.homogeneous(50, 4, 4, 10.0, seed=12),
    NetworkConfig.homogeneous(30, 4, (0, 3, 8, 9), 5.0, pp_over_ps=2.5, eta=0.6, seed=13),
], ids=["paper", "k_0_3_8_9"])
@pytest.mark.parametrize("block_bytes", [channel.BLOCK_BYTES, 3000], ids=["default", "split"])
def test_unit_gamma_run_equals_the_weighted_route(cfg, block_bytes):
    # Unit gamma sums the raw |h|^2; forcing gamma's products back in must
    # not move any trial's rates, information bits, claims, idle bands or
    # event D, also when a run spans many seeding passes.
    trials = 200
    assert cfg.interference_weights is None
    with mock.patch.object(channel, "BLOCK_BYTES", block_bytes):
        assert (len(list(channel.seeding_passes([cfg], trials))) > 1) == (block_bytes == 3000)
        unit = _run_tallies(cfg, trials)
        with mock.patch.object(NetworkConfig, "interference_weights",
                               property(lambda self: self.gamma)):
            weighted = _run_tallies(cfg, trials)
    assert unit == weighted


def test_aggregates_recomputable(hetero_cfg):
    agg = run_trials(hetero_cfg, "centralized", 30)
    assert agg.mean_sum_rate == pytest.approx(float(np.mean(agg.trial_sum_rates)), abs=1e-12)
    stderr = float(np.std(agg.trial_sum_rates, ddof=1) / math.sqrt(30))
    assert agg.stderr_sum_rate == pytest.approx(stderr, abs=1e-15)


def test_candidacy_and_idle_frequencies(hetero_cfg):
    agg = run_trials(hetero_cfg, "distributed", 50)
    assert agg.per_user_candidacy.shape == (hetero_cfg.num_secondary,)
    assert np.all((0 <= agg.per_user_candidacy) & (agg.per_user_candidacy <= 1))
    assert np.all((0 <= agg.idle_band_frequency) & (agg.idle_band_frequency <= 1))


def test_centralized_mean_matches_quadrature():
    # M=1, K=0: the optimum rate is log2(1 + rho * max of N Exp(1)).
    cfg = NetworkConfig.homogeneous(100, 1, 0, 10.0, seed=13)
    agg = run_trials(cfg, "centralized", 4000)
    predicted = expected_log_max(10.0, 100)
    assert abs(agg.mean_sum_rate - predicted) <= 3 * agg.stderr_sum_rate


def test_mean_sandwiched_by_bound_order_statistics(hetero_cfg):
    # Empirical form of the R_max bounds built from sorted S_l / S_u maxima.
    trials = 400
    lo_sum = np.empty(trials)
    hi_sum = np.empty(trials)
    for t in range(trials):
        real = draw_realization(hetero_cfg, t)
        s_lower, s_upper = sinr_bounds(hetero_cfg, real.g_sq, real.h_sq)
        lo_sum[t] = np.log2(1.0 + s_lower.max(axis=1)).sum()
        hi_sum[t] = np.log2(1.0 + s_upper.max(axis=1)).sum()
    agg = run_trials(hetero_cfg, "centralized", trials)
    lo_err = lo_sum.std(ddof=1) / math.sqrt(trials)
    hi_err = hi_sum.std(ddof=1) / math.sqrt(trials)
    assert agg.mean_sum_rate >= lo_sum.mean() - 3 * (lo_err + agg.stderr_sum_rate)
    assert agg.mean_sum_rate <= hi_sum.mean() + 3 * (hi_err + agg.stderr_sum_rate)


def test_resource_guard():
    # 2.0e10 cells, just over DEFAULT_CELL_BUDGET; rejected before any allocation.
    cfg = NetworkConfig.homogeneous(1000, 4, 0, 10.0)
    with pytest.raises(ResourceError):
        run_trials(cfg, "centralized", 5_000_001)


def test_non_integer_counts_rejected(hetero_cfg):
    with pytest.raises(ConfigError):
        run_trials(hetero_cfg, "distributed", 2.5)
    with pytest.raises(ConfigError):
        scaling_sweep(NetworkConfig.homogeneous(10, 2, 2, 10.0), [10, 20], trials=2.5)
    with pytest.raises(ConfigError):
        validate(hetero_cfg, samples=10_000.5)
    assert run_trials(hetero_cfg, "distributed", 3.0).trials == 3


def test_unknown_scheme_rejected(hetero_cfg):
    with pytest.raises(ConfigError):
        run_trials(hetero_cfg, "optimal", 1)
    with pytest.raises(ConfigError):
        run_schemes(hetero_cfg, (), 1)
    # A bare string is not read as a tuple of its letters.
    with pytest.raises(ConfigError, match=r"schemes .*\('distributed',\)"):
        run_schemes(hetero_cfg, "distributed", 5)


def test_non_integer_sweep_entries_rejected():
    # Sweep entries are counts: 10.7 must not run as N = 10.
    cfg = NetworkConfig.homogeneous(10, 2, 2, 10.0)
    with pytest.raises(ConfigError):
        scaling_sweep(cfg, [10.7, 20.2], trials=3)
    with pytest.raises(ConfigError):
        threshold_sweep(cfg, [10.5], [10.0], [1])
    with pytest.raises(ConfigError):
        threshold_sweep(cfg, [10], [10.0], [1.5])
    assert scaling_sweep(cfg, [10.0, 20.0], trials=3).n_values == (10, 20)
    assert [(r["N"], r["K"]) for r in threshold_sweep(cfg, [10.0], [10.0], [2.0]).rows] == [(10, 2)]


# -- scaling sweep ----------------------------------------------------------

def test_scaling_sweep_structure():
    cfg = NetworkConfig.homogeneous(10, 2, 2, 10.0, seed=2)
    report = scaling_sweep(cfg, [10, 20, 50, 100], trials=80)
    assert report.n_values == (10, 20, 50, 100)
    assert len(report.centralized) == len(report.distributed) == 4
    for n, pred in zip(report.n_values, report.predicted):
        assert pred == pytest.approx(2 * math.log2(math.log2(n)))
    for cent, dist in zip(report.centralized, report.distributed):
        assert dist.mean_sum_rate <= cent.mean_sum_rate
    assert -1.0 <= report.fit.r_squared <= 1.0


def test_scaling_sweep_rejects_bad_n_values():
    cfg = NetworkConfig.homogeneous(10, 2, 2, 10.0)
    with pytest.raises(ValueError):
        scaling_sweep(cfg, [20, 10], trials=5)
    with pytest.raises(ValueError):
        scaling_sweep(cfg, [1, 10], trials=5)


def test_scaling_sweep_checks_every_point_before_running_any(monkeypatch):
    # The N = 3e6 point is over the budget; the N = 1000 point must not run first.
    def no_draw(*args):
        raise AssertionError("a sweep point ran before the sweep was checked")
    monkeypatch.setattr(harness, "trial_passes", no_draw)
    cfg = NetworkConfig.homogeneous(10, 4, 4, 10.0)
    with pytest.raises(ResourceError):
        scaling_sweep(cfg, [1000, 3_000_000], 2000)
    with pytest.raises(ResourceError):
        scaling_sweep(cfg, [10, 10**20], 1)
    with pytest.raises(ConfigError):
        scaling_sweep(cfg, [10, 20], 0)


def test_scaling_sweep_per_n_seeds_stable():
    cfg = NetworkConfig.homogeneous(10, 2, 2, 10.0, seed=2)
    a = scaling_sweep(cfg, [10, 50], trials=30)
    b = scaling_sweep(cfg, [10, 20, 50], trials=30)
    assert a.centralized[0].mean_sum_rate == b.centralized[0].mean_sum_rate
    assert a.centralized[1].mean_sum_rate == b.centralized[2].mean_sum_rate


def test_fit_double_log_exact_line():
    n_values = [50, 100, 200, 500]
    x = np.log2(np.log2(np.asarray(n_values, dtype=float)))
    fit = fit_double_log(n_values, 3.0 * x + 1.0)
    assert fit.a == pytest.approx(3.0, rel=1e-9)
    assert fit.b == pytest.approx(1.0, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_csv_and_json_outputs(tmp_path):
    cfg = NetworkConfig.homogeneous(10, 2, 2, 10.0, seed=2)
    report = scaling_sweep(cfg, [10, 20, 50], trials=30)
    csv_path = tmp_path / "scaling.csv"
    write_scaling_csv(report, cfg.num_bands, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "scheme,N,M,trials,mean_sum_rate,stderr,mean_info_bits,event_d_freq"
    assert len(lines) == 1 + 2 * 3
    assert lines[1].startswith("centralized,10,2,30,")
    rows = [(scheme, n, agg) for scheme in ("centralized", "distributed")
            for n, agg in zip(report.n_values, getattr(report, scheme))]
    for line, (scheme, n, agg) in zip(lines[1:], rows, strict=True):
        name, *fields = line.split(",")
        assert name == scheme
        for field, value in zip(fields, (n, cfg.num_bands, agg.trials, agg.mean_sum_rate,
                                         agg.stderr_sum_rate, agg.mean_info_bits,
                                         agg.event_d_frequency), strict=True):
            assert_csv_field(field, value)

    json_path = tmp_path / "scaling.json"
    write_json(json_data(report), json_path)
    doc = json.loads(json_path.read_text())
    assert doc["n_values"] == [10, 20, 50]
    assert set(doc["fit"]) == {"a", "b", "r_squared"}
    assert set(doc["centralized"][0]) == {
        "scheme", "trials", "mean_sum_rate", "stderr_sum_rate", "mean_info_bits",
        "per_user_candidacy", "event_d_frequency", "idle_band_frequency"}


# -- threshold sweep --------------------------------------------------------

def test_threshold_sweep_monotonicity(homog_cfg):
    sweep = threshold_sweep(homog_cfg, [10, 100], [0.0, 10.0], [1, 4])
    assert len(sweep.rows) == 8
    assert sweep.increasing_in_n
    assert sweep.increasing_in_rho
    assert sweep.decreasing_in_k
    # The flags read the (K, rho, N) grid sorted along each axis: the order
    # of a list does not matter, and a repeated entry clears its own flag only.
    def flags(n_values, rho_values_db, k_values):
        sw = threshold_sweep(homog_cfg, n_values, rho_values_db, k_values)
        return sw.increasing_in_n, sw.increasing_in_rho, sw.decreasing_in_k
    assert flags([100, 10, 1000], [10.0, -5.0, 0.0], [4, 0, 1]) == (True, True, True)
    assert flags([10, 10, 100], [0.0, 10.0], [1, 4]) == (False, True, True)
    assert flags([100, 10], [10.0, 0.0, 10.0], [4, 1]) == (True, False, True)
    assert flags([10, 100], [0.0, 10.0], [1, 4, 1]) == (True, True, False)


def test_threshold_sweep_reads_only_user_zero():
    # lambda(0, 0) depends on user 0's path loss alone, also where the sweep's
    # K exceeds the template's gamma columns.
    def sweep(others_gamma):
        gamma = np.full((100, 1), others_gamma)
        gamma[0] = 1.0
        cfg = NetworkConfig(num_secondary=100, num_bands=1, primary_count=(1,),
                            power_secondary=1.0, power_primary=1.0, noise_power=1.0,
                            eta=np.ones(100), gamma=gamma)
        return threshold_sweep(cfg, [10, 100], [0.0, 10.0], [1, 2, 4]).rows
    assert sweep(8.0) == sweep(2.0) == sweep(1.0)

    # Only user 0's law need be valid at each (K, rho): at -100 dB user 1's
    # slope 1/(rho*eta) overflows, which a whole-network config rejects.
    def eta_sweep(others_eta):
        cfg = NetworkConfig(num_secondary=3, num_bands=1, primary_count=(1,),
                            power_secondary=1.0, power_primary=1.0, noise_power=1.0,
                            eta=[1.0, others_eta, 1.0], gamma=1.0)
        return threshold_sweep(cfg, [10, 100], [-100.0, 0.0], [1, 0, 2]).rows
    rows = eta_sweep(1e-300)
    assert rows[0] == {"N": 10, "rho_db": -100.0, "K": 1, "lam": 2.3025850927637875e-10}
    assert rows == eta_sweep(1.0)


@pytest.mark.parametrize("k", [-1, 10**30], ids=["negative", "beyond-index-range"])
def test_threshold_sweep_rejects_k_out_of_range(homog_cfg, k):
    with pytest.raises(ConfigError):
        threshold_sweep(homog_cfg, [10], [10.0], [1, k])


def test_threshold_sweep_rejects_empty(homog_cfg):
    with pytest.raises(ValueError):
        threshold_sweep(homog_cfg, [], [10.0], [1])


# -- validation suite -------------------------------------------------------

def test_validate_homogeneous_passes():
    cfg = NetworkConfig.homogeneous(50, 4, 4, 10.0, seed=19)
    report = validate(cfg, samples=30_000)
    names = {c.name for c in report.checks}
    assert "homogeneous_cdf_identity" in names
    for check in report.checks:
        assert check.passed, f"{check.name}: {check.statistic} vs {check.threshold}"
    assert report.passed


# Unequal K_m run the per-band interference sums, a K_0 = 0 band and the
# 8-term np.sum of _sum_terms.
@pytest.mark.parametrize("k", [4, (0, 2, 4, 8), (8, 0, 3, 1)],
                         ids=["k-4", "k-0-2-4-8", "k-8-0-3-1"])
def test_validate_heterogeneous_passes(k):
    report = validate(heterogeneous_config(k=k), samples=30_000)
    for check in report.checks:
        assert check.passed, f"{check.name}: {check.statistic} vs {check.threshold}"


def test_validate_ks_limits_scale_with_the_samples():
    # At 10^4 samples correct draws reach a KS distance of 0.0102 here,
    # beyond a fixed 0.01; the limit is the 1e-3 quantile at that count.
    report = validate(NetworkConfig.homogeneous(10, 2, 1, 10.0, seed=3), samples=10_000)
    checks = {c.name: c for c in report.checks}
    assert checks["exp1_ks"].statistic > 0.01
    for name in ("exp1_ks", "exact_cdf_ks"):
        assert checks[name].threshold == pytest.approx(1.9494746 / math.sqrt(10_000))
    assert report.passed


def test_ks_limit_equals_scipy_kstwobign():
    assert stats.kstwobign.isf(1e-3) == 1.9494746035043753
    for samples in (10_000, 12_345, 100_000, 2**40 + 1):
        assert harness._ks_limit(samples) == stats.kstwobign.isf(1e-3) / math.sqrt(samples)


def test_validate_exp1_mean_limit_scales_with_the_samples():
    # Correct draws at 10^4 samples: a fixed limit of 0.02 failed this mean.
    report = validate(NetworkConfig.homogeneous(20, 2, 2, 10.0, seed=5), samples=10_000)
    check = {c.name: c for c in report.checks}["exp1_mean"]
    assert check.statistic == pytest.approx(1.02287, abs=1e-5)
    assert check.threshold == special.ndtri(1 - 5e-4) / math.sqrt(10_000)
    assert check.passed and report.passed


def test_validate_exp1_statistics_equal_the_trial_draws():
    # 500 pooled trials run in 8 blocks; each block's arrays are overwritten
    # by the next, so validate must keep copies of its pooled draws.  At
    # M N = 3 it pools 33,333 trials but reads the whole table of only the
    # first 10,000, so the later blocks feed the pool alone.
    for cfg, samples, pooled_trials in ((NetworkConfig.homogeneous(10, 2, 1, 10.0, seed=3),
                                         10_000, 500),
                                        (NetworkConfig.homogeneous(3, 1, 1, 10.0, seed=2),
                                         100_000, 33_333)):
        assert channel.block_trials(cfg) < pooled_trials
        report = validate(cfg, samples=samples)
        checks = {c.name: c for c in report.checks}
        pooled = np.concatenate([draw_realization(cfg, t).g_sq.ravel()
                                 for t in range(pooled_trials)])
        assert checks["exp1_mean"].statistic == pooled.mean()
        assert checks["exp1_ks"].statistic == harness._ks_distance(
            pooled, lambda x: -special.expm1(-x))
        assert report.passed


def test_validate_contention_check_equals_first_earliest_timer_of_each_row():
    # The engine's contention stage on 30,000 cells of 5 claimants picks, in
    # each cell, the first earliest of the 5 timers that follow the direct
    # SINR samples on validate's generator.
    cfg = NetworkConfig.homogeneous(10, 2, 1, 10.0, seed=3)
    check = {c.name: c for c in validate(cfg, samples=10_000).checks}["contention_uniform_p"]
    rng = np.random.default_rng((cfg.seed, 0xA11))
    harness._simulate_sinr_samples(cfg, 0, 0, 10_000, rng)
    winners = np.argmin(rng.random((30_000, 5)), axis=-1)
    assert check.statistic == stats.chisquare(np.bincount(winners, minlength=5)).pvalue


def test_validate_ks_checks_fail_on_exp_1_05_draws(monkeypatch):
    def scaled_passes(cfgs, trials):
        for spans, timers, blocks in channel.trial_passes(cfgs, trials):
            yield spans, timers, ((point, start, row, 1.05 * g_sq, h_sq)
                                  for point, start, row, g_sq, h_sq in blocks)

    simulate = harness._simulate_sinr_samples
    monkeypatch.setattr(harness, "trial_passes", scaled_passes)
    monkeypatch.setattr(harness, "_simulate_sinr_samples",
                        lambda *args: 1.05 * simulate(*args))
    report = validate(NetworkConfig.homogeneous(10, 2, 1, 10.0, seed=3), samples=100_000)
    checks = {c.name: c for c in report.checks}
    for name in ("exp1_ks", "exact_cdf_ks"):
        assert not checks[name].passed, f"{name}: {checks[name].statistic}"


def _direct_sinr_samples(cfg, m, n, count, rng):
    """SINR_{m,n} by the direct one-link formula, the oracle of the sampler."""
    k_m = cfg.primary_count[m]
    g = rng.exponential(size=count)
    interference = 0.0
    if k_m:
        h = rng.exponential(size=(count, k_m))
        interference = channel._sum_terms(k_m, lambda s: h[:, s] * cfg.gamma[n, :k_m][s])
    return (cfg.power_secondary * cfg.eta[n] * g) / (
        cfg.noise_power + cfg.power_primary * interference
    )


@pytest.mark.parametrize("m", [0, 3], ids=["k-0", "k-8"])
def test_one_link_sampler_equals_the_direct_formula(m):
    # sinr_block on the one-link config: the same draws, the same arithmetic,
    # and the generator left where the direct formula leaves it, so the
    # contention timers validate draws next are unchanged.
    cfg = heterogeneous_config(k=(0, 2, 4, 8))
    rng, oracle = np.random.default_rng(17), np.random.default_rng(17)
    samples = harness._simulate_sinr_samples(cfg, m, 5, 20_000, rng)
    expected = _direct_sinr_samples(cfg, m, 5, 20_000, oracle)
    assert samples.shape == expected.shape and samples.tobytes() == expected.tobytes()
    assert rng.random() == oracle.random()


CHUNK_SIZES = [harness.SAMPLE_CHUNK - 1, harness.SAMPLE_CHUNK, harness.SAMPLE_CHUNK + 1,
               3 * harness.SAMPLE_CHUNK + 5]


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_chunked_sampler_equals_one_shot_draws(size):
    # |h|^2 drawn a chunk at a time: the same samples as the one-shot
    # formula, and the generator left at the same place.
    cfg = heterogeneous_config(k=(0, 2, 4, 8))
    rng, oracle = np.random.default_rng(size), np.random.default_rng(size)
    samples = harness._simulate_sinr_samples(cfg, 2, 5, size, rng)
    expected = _direct_sinr_samples(cfg, 2, 5, size, oracle)
    assert samples.shape == expected.shape and samples.tobytes() == expected.tobytes()
    assert rng.random() == oracle.random()


def _one_shot_ks(x, cdf):
    """The KS distance from one CDF pass over the whole sorted sample."""
    x = np.sort(x)
    c = cdf(x)
    steps = np.arange(x.size + 1.0) / x.size
    return float(np.max([np.max(steps[1:] - c), np.max(c - steps[:-1])]))


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_chunked_ks_distance_equals_one_shot(size):
    cfg = heterogeneous_config(k=(0, 2, 4, 8))
    rng = np.random.default_rng(size)
    sinr = harness._simulate_sinr_samples(cfg, 2, 5, size, rng)
    exact = functools.partial(cdf_exact, m=2, n=5, cfg=cfg)
    assert harness._ks_distance(sinr, exact) == _one_shot_ks(sinr, exact)
    sinr[size // 2] = np.nan   # sorted last, so in the last chunk
    assert math.isnan(harness._ks_distance(sinr, exact))


@pytest.mark.parametrize("size", [10_000, 100_000])
@pytest.mark.parametrize("ties", [False, True])
def test_ks_distance_equals_scipy_statistic(size, ties):
    cfg = heterogeneous_config(k=(0, 2, 4, 8))
    rng = np.random.default_rng(size)
    exp1 = rng.exponential(size=size)
    sinr = harness._simulate_sinr_samples(cfg, 2, 5, size, rng)
    if ties:
        exp1, sinr = np.round(exp1, 2), np.round(sinr, 2)
    exact = functools.partial(cdf_exact, m=2, n=5, cfg=cfg)
    assert (harness._ks_distance(exp1, lambda x: -special.expm1(-x))
            == stats.kstest(exp1, "expon", method="asymp").statistic)
    assert (harness._ks_distance(sinr, exact)
            == stats.ks_1samp(sinr, exact, method="asymp").statistic)


@pytest.mark.parametrize("size", [10, *CHUNK_SIZES, 100_000])
@pytest.mark.parametrize("ties", [False, True])
def test_exp1_ks_equals_scipy_statistic(size, ties):
    # The chunked rational form and numpy's exp, with the C library's exp
    # at the points nearest the distance: scipy's statistic bit for bit.
    x = np.random.default_rng(size).exponential(size=size)
    if ties:
        x = np.round(x, 2)
    assert harness._exp1_ks(x) == stats.kstest(x, "expon", method="asymp").statistic
    x[size // 2] = np.nan   # sorted last, so in the last chunk
    assert math.isnan(harness._exp1_ks(x))


def test_gamma_q2_equals_scipy_on_a_grid():
    # Every branch: the power series below 2 (its prefactor x^2 e^-x, or the
    # Lanczos form within 0.8 of 2), the continued fraction from 2 on, and
    # the underflowing prefactor at both ends.
    x = np.concatenate([np.linspace(0.0, 10.0, 10_001), np.geomspace(1e-320, 1e5, 10_000),
                        np.linspace(1.1, 2.9, 5_000)])
    assert np.array_equal([harness._gamma_q2(v) for v in x.tolist()], special.gammaincc(2.0, x))
    assert harness._gamma_q2(1e-300 / 2) == special.chdtrc(4, 1e-300) == 1.0


def test_chisquare_p_takes_five_counts():
    with pytest.raises(ValueError, match="takes 5 counts"):
        harness._chisquare_p(np.full(4, 7500))


def test_ks_distance_and_exp1_ks_fail_on_a_nan(monkeypatch):
    sample = np.random.default_rng(0).exponential(size=10_000)
    sample[123] = np.nan
    assert math.isnan(harness._ks_distance(sample, stats.expon.cdf))

    def nan_blocks(blocks):
        for point, start, row, g_sq, h_sq in blocks:
            if start == 0:
                g_sq = g_sq.copy()
                g_sq[0, 0, 0] = np.nan
            yield point, start, row, g_sq, h_sq

    def nan_passes(cfgs, trials):
        for spans, timers, blocks in channel.trial_passes(cfgs, trials):
            yield spans, timers, nan_blocks(blocks)

    monkeypatch.setattr(harness, "trial_passes", nan_passes)
    report = validate(NetworkConfig.homogeneous(10, 2, 1, 10.0, seed=3), samples=10_000)
    exp1_ks = {c.name: c for c in report.checks}["exp1_ks"]
    assert math.isnan(exp1_ks.statistic) and not exp1_ks.passed


def test_validate_rejects_tiny_sample_count(hetero_cfg):
    with pytest.raises(ValueError):
        validate(hetero_cfg, samples=100)
