import dataclasses
import functools
import math
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln

from cogdiv import (
    ConfigError,
    NetworkConfig,
    build_threshold_table,
    candidacy_probability,
    cdf_exact,
    cdf_lower,
    cdf_upper,
    expected_log_max,
    harmonic_moments,
    order_stat_cdf,
    scaling_sweep,
)
from cogdiv import analytics
from cogdiv.analytics import partial_binomial_sum

from conftest import heterogeneous_config

GRID = np.logspace(-3, 3, 500)


def exp_parent_cfg(n=10):
    # K=0, eta=1, rho=1: every CDF reduces to 1 - e^{-x}.
    return NetworkConfig.homogeneous(n, 1, 0, 0.0)


# -- closed-form CDFs -------------------------------------------------------

def test_cdf_zero_at_origin(hetero_cfg):
    assert cdf_lower(0.0, 0, hetero_cfg) == 0.0
    assert cdf_upper(0.0, 0, hetero_cfg) == 0.0
    assert cdf_exact(0.0, 0, 0, hetero_cfg) == 0.0


def test_cdf_lower_interference_free_median():
    cfg = NetworkConfig.homogeneous(10, 1, 0, 10.0)
    assert cdf_lower(10.0 * math.log(2.0), 0, cfg) == pytest.approx(0.5, abs=1e-12)


def test_cdf_upper_hand_value():
    # K=2, gamma_min=1, Pp/Ps=1, eta_max=1, rho=1, x=1 -> 1 - e^{-1}/4
    cfg = NetworkConfig.homogeneous(10, 1, 2, 0.0)
    expected = 1.0 - math.exp(-1.0) / 4.0
    assert cdf_upper(1.0, 0, cfg) == pytest.approx(expected, rel=1e-12)


def test_cdf_exact_hand_value():
    # K=1, rho=10, eta=1, gamma=2, Pp/Ps=1, x=1 -> 1 - e^{-0.1}/3
    cfg = NetworkConfig.homogeneous(10, 1, 1, 10.0, gamma=2.0)
    expected = 1.0 - math.exp(-0.1) / 3.0
    assert cdf_exact(1.0, 0, 0, cfg) == pytest.approx(expected, rel=1e-12)


def test_cdf_exact_takes_user_blocks(hetero_cfg):
    users = np.array([0, 3, 7, 49])
    block = cdf_exact(GRID[:, None], 2, users, hetero_cfg)
    assert block.shape == (GRID.size, users.size)
    for column, n in enumerate(users):
        assert np.array_equal(block[:, column], cdf_exact(GRID, 2, n, hetero_cfg))


@pytest.mark.parametrize("m, n", [(-1, 0), (4, 0), (0, -1), (0, 50),
                                  (0, np.array([0, 49, 50])), (0, np.array([3, -1]))])
def test_cdf_exact_rejects_out_of_range_index(hetero_cfg, m, n):
    # hetero_cfg has M = 4 bands and N = 50 users; -1 must not wrap round.
    with pytest.raises(ConfigError):
        cdf_exact(GRID, m, n, hetero_cfg)


@pytest.mark.parametrize("cdf", [cdf_lower, cdf_upper])
@pytest.mark.parametrize("m", [-1, 4])
def test_bound_cdfs_reject_out_of_range_band(hetero_cfg, cdf, m):
    with pytest.raises(ConfigError):
        cdf(GRID, m, hetero_cfg)


def test_cdf_dominance(hetero_cfg):
    lo = cdf_lower(GRID, 0, hetero_cfg)
    hi = cdf_upper(GRID, 0, hetero_cfg)
    for n in range(hetero_cfg.num_secondary):
        ex = cdf_exact(GRID, 0, n, hetero_cfg)
        assert np.all(hi <= ex + 1e-15)
        assert np.all(ex <= lo + 1e-15)


def test_cdfs_valid(hetero_cfg):
    for values in (cdf_lower(GRID, 0, hetero_cfg),
                   cdf_upper(GRID, 0, hetero_cfg),
                   cdf_exact(GRID, 0, 3, hetero_cfg)):
        assert np.all(np.diff(values) >= 0)
        assert values[0] >= 0 and values[-1] <= 1
        assert values[-1] > 1 - 1e-6


def test_negative_x_rejected(hetero_cfg):
    for fn in (lambda x: cdf_lower(x, 0, hetero_cfg),
               lambda x: cdf_upper(x, 0, hetero_cfg),
               lambda x: cdf_exact(x, 0, 0, hetero_cfg)):
        with pytest.raises(ValueError):
            fn(-0.5)


# -- order statistics -------------------------------------------------------

def test_order_stat_rank_one_is_nth_power():
    cfg = exp_parent_cfg()
    parent = functools.partial(cdf_lower, m=0, cfg=cfg)
    f = parent(2.0)
    assert order_stat_cdf(parent, 1, 10, 2.0) == pytest.approx(f**10, rel=1e-12)


def test_order_stat_hand_expansion():
    # N=2, i=2, F(x)=0.5 -> 0.25 + 2*0.25 = 0.75
    cfg = exp_parent_cfg(n=2)
    parent = functools.partial(cdf_lower, m=0, cfg=cfg)
    x = math.log(2.0)
    assert parent(x) == pytest.approx(0.5, abs=1e-12)
    assert order_stat_cdf(parent, 2, 2, x) == pytest.approx(0.75, rel=1e-12)


def test_order_stat_nondecreasing_in_rank():
    parent = functools.partial(cdf_exact, m=0, n=5, cfg=heterogeneous_config())
    n_pop = 40
    values = [float(order_stat_cdf(parent, i, n_pop, 3.0)) for i in range(1, n_pop + 1)]
    assert np.all(np.diff(values) >= -1e-15)


def _binomial_sum_direct(p, n_pop, i):
    # Independent log-gamma evaluation of sum_{j<=i} C(N,j) p^{N-j} (1-p)^j.
    total = 0.0
    for j in range(i + 1):
        log_c = gammaln(n_pop + 1) - gammaln(j + 1) - gammaln(n_pop - j + 1)
        total += math.exp(log_c + (n_pop - j) * math.log(p) + (j * math.log1p(-p) if j else 0.0))
    return total


@pytest.mark.parametrize("n_pop", [5, 100, 100_000])
def test_partial_binomial_sum_against_direct(n_pop):
    rng = np.random.default_rng(42)
    for p in rng.uniform(0.05, 0.999, 8):
        i = int(rng.integers(0, min(n_pop, 200)))
        got = float(partial_binomial_sum(p, n_pop, i))
        want = _binomial_sum_direct(p, n_pop, i)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_order_stat_rank_out_of_range():
    parent = functools.partial(cdf_lower, m=0, cfg=exp_parent_cfg())
    with pytest.raises(ValueError):
        order_stat_cdf(parent, 0, 10, 1.0)
    with pytest.raises(ValueError):
        order_stat_cdf(parent, 11, 10, 1.0)


@pytest.mark.parametrize("call", [
    lambda cfg: partial_binomial_sum(0.5, 10, 20),
    lambda cfg: harmonic_moments(0),
    lambda cfg: cdf_exact(-1.0, 0, 0, cfg),
    lambda cfg: candidacy_probability(0, 2),
    lambda cfg: order_stat_cdf(functools.partial(cdf_lower, m=0, cfg=cfg), 11, 10, 1.0),
], ids=["binomial_index", "harmonic_population", "negative_x", "candidacy_population",
        "order_stat_rank"])
def test_range_errors_are_config_errors(hetero_cfg, call):
    with pytest.raises(ConfigError):
        call(hetero_cfg)


def test_lemma6_monotone_small():
    xs = np.linspace(0.0, 1.0, 200)
    for n_pop in (2, 5, 10):
        for i in range(n_pop):
            vals = partial_binomial_sum(xs, n_pop, i)
            assert np.all(np.diff(vals) >= -1e-12)


# -- threshold solver -------------------------------------------------------

def test_threshold_interference_free_closed_form():
    cfg = NetworkConfig.homogeneous(100, 1, 0, 10.0)
    lam = build_threshold_table(cfg, 100)[0, 0]
    assert lam == pytest.approx(10.0 * math.log(100.0), rel=1e-15)


def test_threshold_huge_population_log_residual():
    # 1 - 1/N rounds to 1 here; the log-survival equation still has a root.
    cfg = heterogeneous_config(num_secondary=8, num_bands=2, k=4)
    big_n = 10**17
    t0 = time.perf_counter()
    lam = build_threshold_table(cfg, big_n)[1, 3]
    assert time.perf_counter() - t0 < 1.0
    coeff = cfg.pp_over_ps() * cfg.gamma[3] / cfg.eta[3]
    log_surv = lam / (cfg.snr() * cfg.eta[3]) + np.sum(np.log1p(coeff * lam))
    assert abs(log_surv - math.log(big_n)) <= 1e-12 * math.log(big_n)


def test_threshold_residual(hetero_cfg):
    big_n = 64
    lam = build_threshold_table(hetero_cfg, big_n)[2, 5]
    residual = abs(float(cdf_exact(lam, 2, 5, hetero_cfg)) - (1.0 - 1.0 / big_n))
    assert residual <= 1e-10


def test_threshold_increases_with_snr():
    lams = []
    for snr_db in np.linspace(0.0, 20.0, 9):
        cfg = NetworkConfig.homogeneous(100, 4, 4, snr_db)
        lams.append(build_threshold_table(cfg, 100)[0, 0])
    assert np.all(np.diff(lams) > 0)


def test_threshold_increases_as_primary_count_drops():
    lams = [build_threshold_table(NetworkConfig.homogeneous(100, 4, k, 10.0), 100)[0, 0]
            for k in (4, 3, 2, 1)]
    assert np.all(np.diff(lams) > 0)


def test_threshold_table_homogeneous_columns(homog_cfg):
    lam = build_threshold_table(homog_cfg)
    assert lam.shape == (homog_cfg.num_bands, homog_cfg.num_secondary)
    assert np.all(lam == lam[:, :1])


def test_threshold_table_interference_free_row():
    cfg = heterogeneous_config(num_secondary=8, num_bands=1, k=0)
    big_n = 30
    lam = build_threshold_table(cfg, big_n)
    expected = cfg.snr() * cfg.eta * math.log(big_n)
    assert np.allclose(lam[0], expected, rtol=1e-9)


def test_threshold_table_deterministic(hetero_cfg):
    a = build_threshold_table(hetero_cfg)
    b = build_threshold_table(hetero_cfg)
    assert a.tobytes() == b.tobytes()


def test_threshold_table_residuals(hetero_cfg):
    lam = build_threshold_table(hetero_cfg)
    target = 1.0 - 1.0 / hetero_cfg.num_secondary
    for m in range(hetero_cfg.num_bands):
        for n in range(hetero_cfg.num_secondary):
            err = abs(float(cdf_exact(lam[m, n], m, n, hetero_cfg)) - target)
            assert err <= 1e-10


def test_figure_sweep_solves_each_law_once():
    # The figure's M = 1..4 curves share their laws: each (law, K_m, N) is
    # solved once per process, whatever the number of bands or the seed.
    n_values = (10, 20, 50)
    templates = [NetworkConfig.homogeneous(n_values[0], m, (4, 2, 4, 2)[:m], 10.0)
                 for m in (1, 2, 3, 4)]
    analytics._law_threshold.cache_clear()
    with mock.patch.object(analytics, "_newton_log_survival",
                           wraps=analytics._newton_log_survival) as solve:
        for seed in (0, 1):
            for template in templates:
                scaling_sweep(dataclasses.replace(template, seed=seed), n_values, 2)
    assert solve.call_count == 2 * len(n_values)   # K_m in {2, 4} at each N


def test_threshold_tables_share_no_storage(homog_cfg):
    lam = build_threshold_table(homog_cfg)
    solved = lam.copy()
    with pytest.raises(ValueError):
        lam *= 2.0
    lam.setflags(write=True)
    lam *= 2.0
    later = build_threshold_table(homog_cfg)
    assert not later.flags.writeable
    assert later.tobytes() == solved.tobytes()


def _array_pass(cfg, big_n):
    """Each band's array Newton pass over the link_law of a config equal to ``cfg``."""
    slope, coeff = dataclasses.replace(cfg).link_law
    return np.stack([analytics._newton_log_survival(slope, coeff[:, :k_m], math.log(big_n))
                     for k_m in cfg.primary_count])


@pytest.mark.parametrize("eta, gamma", [
    (0.4, 0.6),
    ([2.5] * 12, [[0.3, 1.1, 0.7, 1.9]] * 12),
], ids=["homogeneous", "per-user-lists"])
def test_one_law_table_builds_no_per_user_law(eta, gamma):
    # Unequal K with a K_m = 0 band, and eta != 1, so each band's law is its own.
    cfg = NetworkConfig.homogeneous(12, 3, (4, 0, 2), 7.0, pp_over_ps=0.3, eta=eta, gamma=gamma)
    for big_n, solved_n in ((None, 12), (10**6, 10**6)):
        lam = build_threshold_table(cfg, big_n)
        assert "link_law" not in vars(cfg)
        assert lam.tobytes() == _array_pass(cfg, solved_n).tobytes()


def test_two_law_table_takes_the_array_pass():
    eta = np.full(12, 0.8)
    eta[5] = 1.6
    cfg = NetworkConfig.homogeneous(12, 3, (4, 0, 2), 7.0, pp_over_ps=0.3, eta=eta, gamma=0.6)
    with mock.patch.object(analytics, "_newton_log_survival",
                           wraps=analytics._newton_log_survival) as solve:
        lam = build_threshold_table(cfg)
    assert [call.args[0].shape for call in solve.call_args_list] == [(12,)] * 3
    assert lam.tobytes() == _array_pass(cfg, 12).tobytes()
    assert lam[0, 5] != lam[0, 4]


# -- exponential order-statistic moments ------------------------------------

def test_expected_log_max_single_exponential():
    # Oracle: quadrature of the density e^{-x} log2(1+x).
    oracle, _ = integrate.quad(lambda x: math.exp(-x) * math.log2(1.0 + x), 0, 100)
    assert expected_log_max(1.0, 1) == pytest.approx(oracle, abs=1e-6)
    assert expected_log_max(1.0, 1) == pytest.approx(0.8603474, abs=1e-6)


def test_expected_log_max_montecarlo_cross_check():
    rng = np.random.default_rng(17)
    draws = rng.exponential(size=(20_000, 50)).max(axis=1)
    mc = np.log2(1.0 + 4.0 * draws)
    stderr = mc.std(ddof=1) / math.sqrt(mc.size)
    assert expected_log_max(4.0, 50) == pytest.approx(mc.mean(), abs=3 * stderr)


def test_expected_log_max_double_log_trend():
    growth = expected_log_max(1.0, 10_000) - expected_log_max(1.0, 100)
    predicted = math.log2(math.log2(10_000)) - math.log2(math.log2(100))
    assert growth > 0
    assert abs(growth - predicted) <= 0.5 * predicted


def test_expected_log_max_asymptotic_ratio():
    # The finite-N offset makes the approach non-monotone below N ~ 1e4;
    # from there on the ratio climbs steadily toward 1.
    def ratio(n):
        return expected_log_max(4.0, n) / (math.log2(math.log2(n)) + 2.0)
    gaps = [abs(ratio(n) - 1.0) for n in (10**4, 10**6, 10**9, 10**12)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.07


def test_expected_log_max_domain():
    with pytest.raises(ValueError):
        expected_log_max(0.0, 10)


def test_expected_log_max_closed_forms():
    # N = 1: E log2(1 + aX) = log2 a - gamma/ln 2 + O(log(a)/a).
    assert expected_log_max(1e300, 1) == pytest.approx(
        math.log2(1e300) - np.euler_gamma / math.log(2.0), rel=1e-12)
    # log2(1 + aX) = aX/ln 2 to first order in a, and E X = H_N.
    h_n, _ = harmonic_moments(10)
    assert expected_log_max(1e-300, 10) == pytest.approx(1e-300 * h_n / math.log(2.0), rel=1e-12)


def _log_max_by_density(a, n):
    """E log2(1 + aX) by quadrature of the density n e^{-x} (1 - e^{-x})^{n-1}
    of the max X of n unit exponentials, split at the Gumbel peak ln n."""
    def integrand(x):
        return n * math.exp(-x + (n - 1) * math.log1p(-math.exp(-x))) * math.log2(1.0 + a * x)

    peak = math.log(n)
    return sum(integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in ((0.0, peak + 1.0), (peak + 1.0, peak + 60.0)))


def test_expected_log_max_matches_density_quadrature():
    grid = [(a, n) for a in (0.01, 1.0, 4.0, 10.0, 1e3) for n in (1, 2, 50, 1000, 10**6)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the rule warns nowhere on the grid
        got = [expected_log_max(a, n) for a, n in grid]
    for (a, n), value in zip(grid, got):
        assert value == pytest.approx(_log_max_by_density(a, n), rel=1e-12), (a, n)


@pytest.mark.parametrize("call", [
    lambda: harmonic_moments(2.5),
    lambda: order_stat_cdf(functools.partial(cdf_lower, m=0, cfg=exp_parent_cfg()), 1, 2.5, 1.0),
    lambda: order_stat_cdf(functools.partial(cdf_lower, m=0, cfg=exp_parent_cfg()), 1.5, 10, 1.0),
    lambda: partial_binomial_sum(0.3, 10, 1.5),
    lambda: partial_binomial_sum(0.3, 10.5, 1),
    lambda: candidacy_probability(2.5, 4),
    lambda: candidacy_probability(10, 1.5),
    lambda: build_threshold_table(exp_parent_cfg(), big_n=2.5),
    lambda: expected_log_max(4.0, 2.5),
    lambda: expected_log_max(math.nan, 10),
    lambda: expected_log_max(math.inf, 10),
    lambda: expected_log_max(1.0, 10**400),
    lambda: candidacy_probability(10**400, 4),
    lambda: harmonic_moments(10**400),
    lambda: partial_binomial_sum(0.5, 10**400, 3),
], ids=["harmonic_moments", "order_stat_cdf-population", "order_stat_cdf-rank",
        "partial_binomial_sum-i", "partial_binomial_sum-population",
        "candidacy_probability-population", "candidacy_probability-bands",
        "build_threshold_table", "expected_log_max-population", "expected_log_max-nan",
        "expected_log_max-inf", "expected_log_max-beyond-floats",
        "candidacy_probability-beyond-floats", "harmonic_moments-beyond-floats",
        "partial_binomial_sum-beyond-floats"])
def test_analysis_rejects_non_integer_counts_and_non_finite_a(call):
    with pytest.raises(ConfigError):
        call()


def test_harmonic_moments_small():
    assert harmonic_moments(1) == (1.0, 1.0)
    mean, var = harmonic_moments(3)
    assert mean == pytest.approx(11.0 / 6.0, rel=1e-15)
    assert var == pytest.approx(49.0 / 36.0, rel=1e-15)


@pytest.mark.parametrize("extra", [1, 1000])
def test_harmonic_moments_beyond_the_cutoff_equal_the_sums(extra):
    # The Euler-Maclaurin tails against the exactly rounded sums of the terms.
    n = np.arange(1, analytics.HARMONIC_CUTOFF + extra + 1, dtype=float)
    mean, var = harmonic_moments(n.size)
    assert mean == pytest.approx(math.fsum((1.0 / n).tolist()), rel=1e-14)
    assert var == pytest.approx(math.fsum((1.0 / n**2).tolist()), rel=1e-14)


def test_harmonic_moments_of_a_huge_population():
    # 10^12 terms, summed in constant memory: ln N + gamma + 1/(2N) and
    # pi^2/6 - 1/N, up to terms below 1e-24.
    big_n = 10**12
    mean, var = harmonic_moments(big_n)
    assert mean == pytest.approx(math.log(big_n) + np.euler_gamma + 0.5 / big_n, rel=1e-14)
    assert var == pytest.approx(math.pi**2 / 6 - 1.0 / big_n, rel=1e-14)


def test_harmonic_mean_euler_mascheroni_bracket():
    n = 10_000
    mean, _ = harmonic_moments(n)
    lo = math.log(n) + np.euler_gamma + 1.0 / (2 * (n + 1))
    hi = math.log(n) + np.euler_gamma + 1.0 / (2 * n)
    assert lo <= mean <= hi


def test_harmonic_mean_matches_montecarlo():
    n = 100
    rng = np.random.default_rng(3)
    maxima = rng.exponential(size=(30_000, n)).max(axis=1)
    mean, _ = harmonic_moments(n)
    stderr = maxima.std(ddof=1) / math.sqrt(maxima.size)
    assert abs(maxima.mean() - mean) <= 3 * stderr
