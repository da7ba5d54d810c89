import json
import math

import numpy as np
import pytest

from cogdiv import (
    ConfigError,
    NetworkConfig,
    build_threshold_table,
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
    write_scaling_csv,
    write_json,
)

from conftest import heterogeneous_config


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
        s_lower, s_upper = sinr_bounds(hetero_cfg, draw_realization(hetero_cfg, t))
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

    json_path = tmp_path / "scaling.json"
    write_json(report.to_json_dict(), json_path)
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


def test_validate_heterogeneous_passes(hetero_cfg):
    report = validate(hetero_cfg, samples=30_000)
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


def test_validate_ks_checks_fail_on_exp_1_05_draws(monkeypatch):
    def scaled_blocks(cfg, trials):
        for start, g_sq, h_sq, contention in channel.trial_blocks(cfg, trials):
            yield start, 1.05 * g_sq, h_sq, contention

    simulate = harness._simulate_sinr_samples
    monkeypatch.setattr(harness, "trial_blocks", scaled_blocks)
    monkeypatch.setattr(harness, "_simulate_sinr_samples",
                        lambda *args: 1.05 * simulate(*args))
    report = validate(NetworkConfig.homogeneous(10, 2, 1, 10.0, seed=3), samples=100_000)
    checks = {c.name: c for c in report.checks}
    for name in ("exp1_ks", "exact_cdf_ks"):
        assert not checks[name].passed, f"{name}: {checks[name].statistic}"


def test_validate_rejects_tiny_sample_count(hetero_cfg):
    with pytest.raises(ValueError):
        validate(hetero_cfg, samples=100)
