import dataclasses
import functools
import json
import math
import sys
import threading
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from scipy import special, stats

from cogdiv import (
    ConfigError,
    NetworkConfig,
    cdf_exact,
    draw_realization,
    expected_log_max,
    run_schemes,
    run_trials,
    scaling_sweep,
    threshold_sweep,
    validate,
)
from cogdiv import analytics, channel, harness
from cogdiv.channel import sinr_bounds
from cogdiv.cli import DEFAULT_N_VALUES
from cogdiv.harness import (
    ResourceError,
    fit_double_log,
    json_data,
    write_scaling_csv,
    write_json,
)

from conftest import assert_csv_field, heterogeneous_config
from oracles import exact_exp1_ks, exact_q2, half_statistic_counts, q2_error_bound, weighted_sinr


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
    """The per-trial columns and per-point counts of the tally that
    ``run_schemes(cfg, both schemes, trials)`` reduces."""
    tally = harness._run_points([cfg], ("centralized", "distributed"), trials)
    return ([tally.rates[s].tobytes() for s in ("centralized", "distributed")],
            tally.info_bits.tobytes(), tally.claims.tobytes(), tally.idle.tobytes(),
            tally.event_d.tobytes())


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


def _exact_line(x, y):
    """Slope and intercept of the least-squares line of the floats x, y,
    in exact rational arithmetic."""
    fx, fy = [Fraction(v) for v in x.tolist()], [Fraction(v) for v in y.tolist()]
    mx, my = sum(fx) / len(fx), sum(fy) / len(fy)
    a = sum((u - mx) * (v - my) for u, v in zip(fx, fy)) / sum((u - mx) ** 2 for u in fx)
    return a, my - a * mx


def test_fit_double_log_exact_line(monkeypatch):
    n_values = [50, 100, 200, 500]
    x = np.log2(np.log2(np.asarray(n_values, dtype=float)))
    fit = fit_double_log(n_values, 3.0 * x + 1.0)
    assert fit.a == pytest.approx(3.0, rel=1e-9)
    assert fit.b == pytest.approx(1.0, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    # Noisy lines against the exact least-squares line of the same floats,
    # errors as a share of max|y|; np.polyfit misses the close-N bound.
    rng = np.random.default_rng(5)
    for n_values, bound in ((DEFAULT_N_VALUES, 1e-13), ((1000, 1001, 1002, 1003), 1e-11)):
        x = np.log2(np.log2(np.asarray(n_values, dtype=float)))
        for _ in range(200):
            slope, intercept = rng.uniform(-5.0, 5.0, 2)
            y = slope * x + intercept + rng.normal(0.0, 0.1, x.size)
            fit, (a, b) = fit_double_log(n_values, y), _exact_line(x, y)
            scale = Fraction(float(np.max(np.abs(y))))
            assert abs(Fraction(fit.a) - a) * Fraction(float(np.max(np.abs(x)))) <= bound * scale
            assert abs(Fraction(fit.b) - b) <= bound * scale
    # Equal x: the flat line through the mean, not a 0/0 slope.
    assert fit_double_log([50, 50], [1.0, 3.0]) == harness.FitResult(a=0.0, b=2.0, r_squared=0.0)
    # The sweep's fit runs no linear-algebra solver.
    def refused(*args, **kwargs):
        raise AssertionError("a least-squares solver was called")

    monkeypatch.setattr(np.linalg, "lstsq", refused)
    monkeypatch.setattr(np, "polyfit", refused)
    report = scaling_sweep(NetworkConfig.homogeneous(10, 2, 2, 10.0, seed=2), [10, 50, 100], 20)
    assert report.fit == fit_double_log([50, 100], [agg.mean_sum_rate
                                                    for agg in report.centralized[1:]])


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
    with pytest.raises(ConfigError, match="^n_values must not be empty$"):
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
    harness._simulate_sinr_samples(cfg, 0, 0, np.empty(10_000), rng)
    winners = np.argmin(rng.random((30_000, 5)), axis=-1)
    assert check.statistic == harness._chisquare_p(np.bincount(winners, minlength=5))


def _lift(mode, lower, upper, sinr):
    """Moves, in place, the lower bound of the least SINR of the even trials
    and the upper bound of the largest of the odd trials past that SINR: by
    an ulp (within the 1e-9 floor), by 9e-10 relative (past the floor where
    the SINR exceeds 1.12, within the tolerance) or by 1e-6 relative (a
    violation where the SINR exceeds 1e-3, below 1e-6 absolute under 1).
    NaN goes into both bounds of every trial."""
    flat = sinr.reshape(len(sinr), -1)
    for bound, pick, first, sign in ((lower, np.argmin, 0, 1.0), (upper, np.argmax, 1, -1.0)):
        trials = np.arange(0 if mode == "nan" else first, len(sinr), 1 if mode == "nan" else 2)
        cells = (trials, *np.unravel_index(pick(flat[trials], axis=1), sinr.shape[1:]))
        v = sinr[cells]
        bound[cells] = {"ulp": np.nextafter(v, sign * np.inf),
                        "tolerance": v * (1.0 + sign * 9e-10),
                        "violation": v * (1.0 + sign * 1e-6),
                        "nan": np.nan}[mode]


@pytest.mark.parametrize("mode", [None, "ulp", "tolerance", "violation", "nan"])
@pytest.mark.parametrize("cfg", [heterogeneous_config(), heterogeneous_config(k=(0, 2, 4, 8)),
                                 NetworkConfig.homogeneous(50, 4, 4, 10.0, seed=11)],
                         ids=["hetero", "hetero-k-0-2-4-8", "homogeneous"])
def test_validate_order_counts_equal_a_full_recount(monkeypatch, cfg, mode):
    # validate skips the order checks of a block whose trials are all within
    # 1e-9 of order; the counts must equal those of every trial sorted and
    # every entry held to the tolerance 1e-9 max(1, |SINR|).
    tables, checked = [], []

    def lifted_bounds(cfg, g_sq, h_sq):
        lower, upper = sinr_bounds(cfg, g_sq, h_sq)
        sinr = channel.sinr_block(cfg, g_sq, h_sq)
        if mode is not None:
            _lift(mode, lower, upper, sinr)
        tables.append((lower.copy(), sinr, upper.copy()))
        return lower, upper

    def counted(lower, mid, upper):
        checked.append(len(mid))
        return order_violations(lower, mid, upper)

    order_violations = harness._order_violations
    monkeypatch.setattr(harness, "sinr_bounds", lifted_bounds)
    monkeypatch.setattr(harness, "_order_violations", counted)
    checks = {c.name: c for c in validate(cfg, samples=10_000).checks}
    lower, mid, upper = (np.concatenate(t) for t in zip(*tables))
    assert len(mid) == 100

    def violations(lower, mid, upper):   # an entry out of order, or a NaN
        tol = 1e-9 * np.maximum(1.0, np.abs(mid))
        return int(np.sum(np.any(~(lower <= mid + tol), axis=(1, 2)))
                   + np.sum(np.any(~(mid <= upper + tol), axis=(1, 2))))

    sandwich = violations(lower, mid, upper)
    interleave = violations(*(np.sort(a, axis=-1) for a in (lower, mid, upper)))
    assert checks["sandwich_violations"].statistic == sandwich
    assert checks["interleaving_violations"].statistic == interleave
    if mode is None:   # every trial is within 1e-9 of order: none is sorted
        assert sum(checked) == 0
    if mode == "tolerance":   # every block holds a loose odd trial: checked in full
        assert sum(checked) == 2 * len(mid)
    if mode == "violation":   # every odd trial, and some even ones below 1e-6 absolute
        assert sandwich > len(mid) // 2
    if mode == "nan":   # every trial holds a NaN bound
        assert sandwich == 2 * len(mid)
        assert not checks["sandwich_violations"].passed


def test_validate_cdf_dominance_reads_the_last_user_block(monkeypatch):
    # validate reads the exact CDFs SAMPLE_CHUNK // 400 = 20 users at a time,
    # so heterogeneous_config()'s last block holds users 40-49.  The user
    # with the least exact CDF at grid point j is swapped into user 49, and
    # the upper-bound CDF at j is lifted 1e-6 above that user's exact CDF.
    cfg, grid, j = heterogeneous_config(), np.logspace(-3, 3, 400), 200
    exact = np.array([cdf_exact(grid, 0, n, cfg) for n in range(cfg.num_secondary)])
    order = np.arange(cfg.num_secondary)
    weakest = int(np.argmin(exact[:, j]))
    order[[weakest, -1]] = order[[-1, weakest]]
    cfg = dataclasses.replace(cfg, eta=cfg.eta[order], gamma=cfg.gamma[order])
    exact = exact[order]
    upper = analytics.cdf_upper

    def lifted_upper(x, m, cfg):
        hi = upper(x, m, cfg)
        hi.flat[j] = exact[-1, j] + 1e-6
        return hi

    monkeypatch.setattr(analytics, "cdf_upper", lifted_upper)
    hi, lo = lifted_upper(grid, 0, cfg), analytics.cdf_lower(grid, 0, cfg)
    brute = max(0.0, float(np.max(hi - exact)), float(np.max(exact - lo)))
    assert brute > float(np.max(hi - exact[:40]))   # only the last block reaches it
    check = {c.name: c for c in validate(cfg, samples=10_000).checks}["cdf_dominance"]
    assert check.statistic == brute
    assert not check.passed


def _scanned_users(spy) -> int:
    """Users whose exact CDF rows the law checks read: the cdf_exact calls
    on the 2-D grid (exact_cdf_ks passes 1-D samples)."""
    return sum(np.size(c.args[2]) for c in spy.call_args_list if np.ndim(c.args[0]) == 2)


@pytest.mark.parametrize("cfg", [
    NetworkConfig.homogeneous(40, 2, (3, 1), 10.0),
    NetworkConfig.homogeneous(47, 2, (3, 1), 7.0, pp_over_ps=0.3, eta=0.4, gamma=0.6),
    NetworkConfig.homogeneous(53, 3, (4, 0, 2), 4.0, pp_over_ps=2.0, eta=[2.5] * 53,
                              gamma=[[0.3, 1.1, 0.7, 1.9]] * 53),
], ids=["unit-gamma", "non-unit-gamma-odd-n", "per-user-rows-odd-n"])
def test_one_law_dominance_scan_reads_user_0_alone(cfg, monkeypatch):
    # Every user's row of an all-users scan is user 0's bit for bit, so the
    # statistic of user 0's row alone is the all-users one.  The upper-bound
    # CDF is lifted 1e-6 above the exact one at one grid point, so the
    # statistic is not 0.
    grid, j = np.logspace(-3, 3, 400), 200
    exact = cdf_exact(grid[None, :], 0, np.arange(cfg.num_secondary)[:, None], cfg)
    assert cfg.one_law and (exact == exact[0]).all()
    upper = analytics.cdf_upper

    def lifted_upper(x, m, cfg):
        hi = upper(x, m, cfg)
        hi.flat[j] = exact[0, j] + 1e-6
        return hi

    monkeypatch.setattr(analytics, "cdf_upper", lifted_upper)
    hi, lo = lifted_upper(grid, 0, cfg), analytics.cdf_lower(grid, 0, cfg)
    brute = max(0.0, float(np.max(hi - exact)), float(np.max(exact - lo)))
    assert brute > 0.0
    with mock.patch.object(analytics, "cdf_exact", wraps=analytics.cdf_exact) as spy:
        check = {c.name: c for c in validate(cfg, samples=10_000).checks}["cdf_dominance"]
    assert _scanned_users(spy) == 1 + (cfg.bound_law(False) == cfg.bound_law(True))
    assert check.statistic == brute
    assert not check.passed


#: Two bands of K = (3, 4), so gamma has a column beyond band 0's K.
_LAW_CFG = heterogeneous_config(30, 2, (3, 4))


def _edited(name, index, value):
    """``_LAW_CFG`` with entry ``index`` of its array ``name`` set to ``value``."""
    arr = getattr(_LAW_CFG, name).copy()
    arr[index] = value
    return dataclasses.replace(_LAW_CFG, **{name: arr})


def _cold_validate(cfg):
    harness._LAST_LAW.clear()
    return validate(cfg, samples=10_000)


def test_validate_scans_a_law_once_across_seeds():
    with mock.patch.object(analytics, "cdf_exact", wraps=analytics.cdf_exact) as spy:
        first = validate(_LAW_CFG, samples=10_000)
        scanned = _scanned_users(spy)
        second = validate(dataclasses.replace(_LAW_CFG, seed=_LAW_CFG.seed + 1), samples=10_000)
    assert scanned == _LAW_CFG.num_secondary
    assert _scanned_users(spy) == scanned
    law = [i for i, c in enumerate(first.checks) if c.name == "cdf_dominance"]
    assert law and second.checks[law[0]] is first.checks[law[0]]
    assert first == _cold_validate(_LAW_CFG)
    assert second == _cold_validate(dataclasses.replace(_LAW_CFG, seed=_LAW_CFG.seed + 1))
    assert first != second   # the seed-dependent checks did run anew


@pytest.mark.parametrize("changed", [
    _edited("eta", 7, 1.9),
    _edited("gamma", (7, 1), 3.9),
    _edited("gamma", (7, 3), 8.0),   # beyond band 0's K: moves only bound_law
    dataclasses.replace(_LAW_CFG, primary_count=(4, 3)),
    # snr_db up 3 dB and pp_over_ps down 3 dB; pp_over_ps alone; snr_db alone.
    dataclasses.replace(_LAW_CFG, power_secondary=2.0 * _LAW_CFG.power_secondary),
    dataclasses.replace(_LAW_CFG, power_primary=2.0 * _LAW_CFG.power_primary),
    dataclasses.replace(_LAW_CFG, noise_power=2.0 * _LAW_CFG.noise_power),
    _LAW_CFG.with_population(29, seed=_LAW_CFG.seed),
], ids=["eta", "gamma-in-band-0", "gamma-beyond-band-0", "K", "power_secondary",
        "pp_over_ps", "snr_db", "N"])
def test_validate_rescans_any_other_law(changed):
    assert changed != dataclasses.replace(_LAW_CFG, seed=changed.seed)
    validate(_LAW_CFG, samples=10_000)
    with mock.patch.object(analytics, "cdf_exact", wraps=analytics.cdf_exact) as spy:
        report = validate(changed, samples=10_000)
    assert _scanned_users(spy) == changed.num_secondary
    assert report == _cold_validate(changed)


def test_threads_sharing_the_law_checks_get_their_own_law():
    # Four threads take turns on two laws whose law checks differ in number,
    # with a thread switch forced every microsecond: a kept law must never
    # come back with the other law's checks.
    cfgs = [NetworkConfig.homogeneous(30, 2, (3, 4), 10.0), _LAW_CFG]
    expected = [harness._law_checks(cfg) for cfg in cfgs]
    assert [len(checks) for checks in expected] == [2, 1]
    wrong, interval = [], sys.getswitchinterval()

    def run(first):
        for turn in range(first, first + 60):
            if harness._law_checks(cfgs[turn % 2]) != expected[turn % 2]:
                wrong.append(turn)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(first,)) for first in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


def test_validate_rescans_two_alternating_laws():
    other = _edited("gamma", (0, 0), 1.5)
    with mock.patch.object(analytics, "cdf_exact", wraps=analytics.cdf_exact) as spy:
        reports = [validate(cfg, samples=10_000) for cfg in (_LAW_CFG, other) * 2]
    assert _scanned_users(spy) == 4 * _LAW_CFG.num_secondary
    assert reports[:2] == reports[2:]


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


def test_validate_works_in_one_sample_sized_workspace(homog_cfg):
    # The pooled draws and the direct samples share one array and every sort
    # runs in place, so a warm call peaks below 2.5 sample-sized arrays
    # (numpy reports its buffers to tracemalloc): 1.65 MB here.  A sorted
    # copy of either sample, or the direct samples in an array of their own,
    # takes it to 2.45 MB.
    samples = 100_000
    validate(homog_cfg, samples)   # warms the trial engine's draw buffer
    tracemalloc.start()
    try:
        validate(homog_cfg, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * samples


def _direct_sinr_samples(cfg, m, n, count, rng):
    """SINR_{m,n} by the written-out formula on the one link's draws: all
    |g|^2 first, then the |h|^2, the sampler's stream order."""
    k_m = cfg.primary_count[m]
    link = dataclasses.replace(cfg, num_secondary=1, num_bands=1, primary_count=(k_m,),
                               eta=cfg.eta[n:n + 1], gamma=cfg.gamma[n:n + 1, :k_m])
    g_sq = rng.exponential(size=(count, 1, 1))
    return weighted_sinr(link, g_sq, rng.exponential(size=(count, 1, 1, k_m))).ravel()


@pytest.mark.parametrize("m", [0, 3], ids=["k-0", "k-8"])
def test_one_link_sampler_equals_the_direct_formula(m):
    # sinr_block on the one-link config: the same draws, the same arithmetic,
    # and the generator left where the direct formula leaves it, so the
    # contention timers validate draws next are unchanged.
    cfg = heterogeneous_config(k=(0, 2, 4, 8))
    rng, oracle = np.random.default_rng(17), np.random.default_rng(17)
    samples = harness._simulate_sinr_samples(cfg, m, 5, np.empty(20_000), rng)
    expected = _direct_sinr_samples(cfg, m, 5, 20_000, oracle)
    assert samples.shape == expected.shape and samples.tobytes() == expected.tobytes()
    assert rng.random() == oracle.random()


# About a chunk boundary: the last of two chunks one short, two whole
# chunks, one point more, and six chunks and a few.
CHUNK_SIZES = [2 * harness.SAMPLE_CHUNK - 1, 2 * harness.SAMPLE_CHUNK,
               2 * harness.SAMPLE_CHUNK + 1, 6 * harness.SAMPLE_CHUNK + 5]


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_chunked_sampler_equals_one_shot_draws(size):
    # |h|^2 drawn a chunk at a time: the same samples as the one-shot
    # formula, and the generator left at the same place.
    cfg = heterogeneous_config(k=(0, 2, 4, 8))
    rng, oracle = np.random.default_rng(size), np.random.default_rng(size)
    samples = harness._simulate_sinr_samples(cfg, 2, 5, np.empty(size), rng)
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
    sinr = harness._simulate_sinr_samples(cfg, 2, 5, np.empty(size), rng)
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
    sinr = harness._simulate_sinr_samples(cfg, 2, 5, np.empty(size), rng)
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
    # Within 2^-52 of the exact distance: each term rounds the rank
    # fraction and the difference by half an ulp below 1, and -expm1 is
    # within an ulp of the CDF.  scipy's statistic agrees to 1e-12.
    x = np.random.default_rng(size).exponential(size=size)
    if ties:
        x = np.round(x, 2)
    ks = harness._exp1_ks(x.copy())
    assert abs(Decimal(ks) - exact_exp1_ks(x)) <= Decimal(2.0 ** -52)
    assert ks == pytest.approx(stats.kstest(x, "expon", method="asymp").statistic,
                               rel=1e-12, abs=0)
    x[size // 2] = np.nan   # sorted last, so in the last chunk
    assert math.isnan(harness._exp1_ks(x))


def test_exp1_ks_keeps_the_digits_of_small_draws():
    # 1023 draws at the midpoints of their CDF steps and one at x0, whose CDF
    # is below 0.4 / 1024: the distance 1/1024 - F(x0) comes from the small
    # draw, so it is within 2 ulp only if F(x0) keeps its digits, which
    # 1 - e^-x0 loses.
    rest = -np.log1p(-(np.arange(1, 1024) + 0.5) / 1024)
    for x0 in np.geomspace(1e-300, 0.4 / 1024, 40):
        x = np.concatenate([[x0], rest])
        exact = exact_exp1_ks(x)
        assert abs(Decimal(harness._exp1_ks(x)) - exact) <= 2 * Decimal(math.ulp(float(exact)))


def test_chisquare_p_within_4_ulp_of_q2_on_a_grid():
    # The p-value is Q(2, h) = e^-h (1 + h) for half the statistic h.  At
    # 800 points in [1e-5, 700] it is within 4 ulp of Q(2, h) at 60 digits
    # (scipy's gammaincc(2, h) is up to 376 ulp off there) and within 1e-12
    # of gammaincc.  Past 708, e^-h turns subnormal, and past 745.13 it is 0,
    # where Q(2, h) < 2^-1064.
    for x in [*np.geomspace(1e-5, 700, 800), *np.linspace(708, 750, 200)]:
        counts, h = half_statistic_counts(x)
        p, exact = harness._chisquare_p(counts), exact_q2(h)
        assert abs(Decimal(p) - exact) <= q2_error_bound(h, exact)
        if h <= 708:
            assert p == pytest.approx(special.gammaincc(2.0, h), rel=1e-12, abs=0)
    assert harness._chisquare_p(half_statistic_counts(745.1)[0]) > 0.0
    assert harness._chisquare_p(half_statistic_counts(745.2)[0]) == 0.0


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
