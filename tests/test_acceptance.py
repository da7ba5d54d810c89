"""End-to-end acceptance gate.

Each test exercises one headline property of the toolkit and prints a single
PASS/FAIL line so the whole gate can be read off a terminal at a glance.
The heavyweight population sweep (used by two tests) is computed once per
session.  Besides growth and centralized dominance, the sum-rate gate holds
every distributed mean of the sweep within 4 standard errors of its analytic
mean D(M, N), and the M = 4 distributed rate at or above (1 - 1/e) of the
centralized rate for N >= 50: about 1/e of the bands stay idle at every N.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from cogdiv import (
    NetworkConfig,
    analytics,
    centralized,
    channel,
    distributed,
    harness,
)
from conftest import heterogeneous_config
from oracles import optimal_assignment_exhaustive


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Shared heavy fixture: sum-rate sweep over N for every band count.
# ---------------------------------------------------------------------------

SWEEP_N_VALUES = (10, 20, 50, 100, 200, 500, 1000)
SWEEP_TRIALS = 2000


@pytest.fixture(scope="session")
def figure_sweep():
    """Mean sum rates for M in 1..4 across population sizes, plus wall time."""
    t0 = time.perf_counter()
    reports = {}
    for m in (1, 2, 3, 4):
        template = NetworkConfig.homogeneous(
            num_secondary=SWEEP_N_VALUES[0],
            num_bands=m,
            primary_count=4,
            snr_db=10.0,
            seed=2026,
        )
        reports[m] = harness.scaling_sweep(template, SWEEP_N_VALUES, SWEEP_TRIALS)
    return reports, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1. The matching allocator is exactly the brute-force optimum.
# ---------------------------------------------------------------------------

def test_matching_equals_exhaustive():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(500):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 4))
        if n < m:
            n, m = m, n
        counts = tuple(int(k) for k in rng.integers(0, 5, size=m))
        cfg = NetworkConfig(
            num_secondary=n,
            num_bands=m,
            primary_count=counts,
            power_secondary=10.0,
            power_primary=10.0,
            noise_power=1.0,
            eta=rng.uniform(0.5, 2.0, size=n),
            gamma=rng.uniform(0.25, 4.0, size=(n, max(counts))),
            seed=trial,
        )
        table = channel.compute_sinr(cfg, channel.draw_realization(cfg, 0))
        exact = optimal_assignment_exhaustive(table)
        fast = centralized.optimal_assignment_matching(table)
        worst = max(worst, abs(fast.sum_rate - exact.sum_rate)
                    / max(exact.sum_rate, 1e-300))
    elapsed = time.perf_counter() - t0
    _report(
        "matching-vs-exhaustive",
        worst <= 1e-9 and elapsed < 10.0,
        f"max relative gap {worst:.2e} over 500 instances, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Sum-rate curves: growth in N, centralized dominance, the distributed
#    mean on its analytic value D(M, N), and a (1 - 1/e) share of the optimum.
# ---------------------------------------------------------------------------

#: z-score bound of each measured distributed mean against D(M, N).
SWEEP_Z_BOUND = 4.0
#: Floor of distributed / centralized at M = 4, N >= 50: claims per band are
#: about Poisson(1), so about 1/e of the bands stay idle at every N.
SWEEP_RATE_SHARE = 1.0 - math.exp(-1.0)


def _distributed_oracle(cfg: NetworkConfig) -> tuple[float, float]:
    """Exact mean distributed sum rate D(M, N) of a homogeneous network.

    Every link has the SINR CDF T (`analytics.cdf_exact`) with density
    f = T', and every band the threshold lambda, T(lambda) = 1 - 1/N.  A
    user claims band m when its SINR there is at least lambda and the
    largest of its M SINRs, with probability q = int_lambda^inf f T^(M-1).
    Users are independent, so a band is idle with probability (1 - q)^N,
    and the uniform winner's SINR has the law of one claimant's SINR:

        D = M [1 - (1 - q)^N] (1/q) int_lambda^inf log2(1 + x) f T^(M-1) dx

    Returns (D, q).  Uses nothing from the distributed module.
    """
    m, big_n = cfg.num_bands, cfg.num_secondary
    rho = cfg.snr() * cfg.eta[0]
    k = cfg.primary_count[0]
    c = cfg.pp_over_ps() * cfg.gamma[0, 0] / cfg.eta[0] if k else 0.0
    lam = analytics.build_threshold_table(cfg, big_n)[0, 0]

    def claim_density(x):
        density = (math.exp(-x / rho) * (1.0 + c * x) ** -k
                   * (1.0 / rho + k * c / (1.0 + c * x)))
        return density * float(analytics.cdf_exact(x, 0, 0, cfg)) ** (m - 1)

    opts = dict(epsabs=1e-15, epsrel=1e-12, limit=200)
    q, _ = integrate.quad(claim_density, lam, math.inf, **opts)
    rate, _ = integrate.quad(
        lambda x: math.log2(1.0 + x) * claim_density(x), lam, math.inf, **opts)
    busy = -math.expm1(big_n * math.log1p(-q))
    return m * busy * rate / q, q


def test_sum_rate_curves(figure_sweep):
    reports, elapsed = figure_sweep
    problems = []
    worst_z = 0.0
    oracle = {}
    for m, rep in reports.items():
        cent = [a.mean_sum_rate for a in rep.centralized]
        dist = [a.mean_sum_rate for a in rep.distributed]
        big = [i for i, n in enumerate(rep.n_values) if n >= 50]
        for series, label in ((cent, "centralized"), (dist, "distributed")):
            vals = [series[i] for i in big]
            if any(b <= a for a, b in zip(vals, vals[1:])):
                problems.append(f"M={m} {label} not increasing for N>=50")
        if any(c < d for c, d in zip(cent, dist)):
            problems.append(f"M={m} centralized below distributed")
        predicted = []
        for n, agg in zip(rep.n_values, rep.distributed):
            cfg = NetworkConfig.homogeneous(
                num_secondary=n, num_bands=m, primary_count=4, snr_db=10.0)
            d_mn, q = _distributed_oracle(cfg)
            omega = distributed.candidacy_probability(n, m)
            if abs(q - omega / m) > 1e-12:
                problems.append(f"M={m} N={n} oracle claim probability {q!r} "
                                f"!= omega/M {omega / m!r}")
            z = (agg.mean_sum_rate - d_mn) / agg.stderr_sum_rate
            worst_z = max(worst_z, abs(z))
            if abs(z) > SWEEP_Z_BOUND:
                problems.append(f"M={m} N={n} distributed mean "
                                f"{agg.mean_sum_rate:.4f} vs D {d_mn:.4f} "
                                f"(z = {z:+.2f})")
            predicted.append(d_mn)
        oracle[m] = predicted
    rep4 = reports[4]
    cent4 = [a.mean_sum_rate for a in rep4.centralized]
    dist4 = [a.mean_sum_rate for a in rep4.distributed]
    for n, c, d in zip(rep4.n_values, cent4, dist4):
        if n >= 50 and d < SWEEP_RATE_SHARE * c:
            problems.append(f"M=4 N={n} distributed/centralized {d / c:.4f} "
                            f"< 1 - 1/e")
    i50 = rep4.n_values.index(50)
    gap = [(c - d) / c for c, d in zip(cent4, dist4)]
    gap_d = [(c - d) / c for c, d in zip(cent4, oracle[4])]
    if elapsed >= 300.0:
        problems.append(f"sweep took {elapsed:.0f}s")
    _report(
        "sum-rate-curves",
        not problems,
        "; ".join(problems) or
        f"monotone growth, dominance, distributed within {worst_z:.2f} se of "
        f"D(M, N), M=4 gap {gap[i50]:.4f} -> {gap[-1]:.4f} "
        f"(from D {gap_d[i50]:.4f} -> {gap_d[-1]:.4f}), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 3. Centralized rate grows like M * log2 log2 N.
# ---------------------------------------------------------------------------

def test_double_log_scaling(figure_sweep):
    reports, _ = figure_sweep
    fit = reports[4].fit
    ok = fit.r_squared >= 0.98 and 2.0 <= fit.a <= 6.0
    _report(
        "double-log-scaling",
        ok,
        f"R^2 {fit.r_squared:.4f}, slope {fit.a:.3f} (target 4 +/- 50%)",
    )


# ---------------------------------------------------------------------------
# 4. Threshold solver: closed form with no interferers, tiny residuals with.
# ---------------------------------------------------------------------------

def test_threshold_correctness():
    free = NetworkConfig.homogeneous(
        num_secondary=10, num_bands=1, primary_count=0, snr_db=10.0, seed=0)
    lam = analytics.build_threshold_table(free, big_n=100)[0, 0]
    closed = 10.0 * math.log(100.0)
    rel = abs(lam - closed) / closed

    cfg = heterogeneous_config(num_secondary=50, num_bands=4, k=4,
                               snr_db=10.0, seed=5, param_seed=99)
    table = analytics.build_threshold_table(cfg)
    target = 1.0 - 1.0 / cfg.num_secondary
    worst = 0.0
    for m in range(cfg.num_bands):
        for n in range(cfg.num_secondary):
            resid = abs(analytics.cdf_exact(table[m, n], m, n, cfg) - target)
            worst = max(worst, resid)
    _report(
        "threshold-correctness",
        rel <= 1e-9 and worst <= 1e-10,
        f"closed-form gap {rel:.2e}, worst quantile residual {worst:.2e} "
        f"over a 4x50 table",
    )


# ---------------------------------------------------------------------------
# 5. The closed-form SINR distribution matches simulation.
# ---------------------------------------------------------------------------

def test_exact_cdf_matches_simulation():
    t0 = time.perf_counter()
    homog = NetworkConfig.homogeneous(
        num_secondary=50, num_bands=4, primary_count=4, snr_db=10.0, seed=21)
    hetero = heterogeneous_config(num_secondary=50, num_bands=4, k=4,
                                  snr_db=10.0, seed=22, param_seed=77)
    worst = 0.0
    for cfg in (homog, hetero):
        rng = np.random.default_rng((cfg.seed, 0xACC))
        samples = harness._simulate_sinr_samples(cfg, 0, 0, np.empty(100_000), rng)
        ks = stats.ks_1samp(
            samples, lambda x: analytics.cdf_exact(x, 0, 0, cfg)).statistic
        worst = max(worst, float(ks))
    elapsed = time.perf_counter() - t0
    _report(
        "exact-cdf-vs-simulation",
        worst < 0.01 and elapsed < 30.0,
        f"worst KS distance {worst:.5f} over 1e5 samples "
        f"(homogeneous and heterogeneous), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. Sorted bound rows bracket the sorted SINR row in every realization.
# ---------------------------------------------------------------------------

def test_bound_interleaving():
    cfg = heterogeneous_config(num_secondary=50, num_bands=4, k=4,
                               snr_db=10.0, seed=31, param_seed=13)
    violations = 0
    for t in range(10_000):
        real = channel.draw_realization(cfg, t)
        s_lower, s_upper = channel.sinr_bounds(cfg, real.g_sq, real.h_sq)
        lo = -np.sort(-s_lower, axis=1)
        mid = -np.sort(-channel.compute_sinr(cfg, real).sinr, axis=1)
        hi = -np.sort(-s_upper, axis=1)
        tol = 1e-9 * np.maximum(1.0, np.abs(mid))
        violations += int(np.any(lo > mid + tol)) + int(np.any(mid > hi + tol))
    _report(
        "bound-interleaving",
        violations == 0,
        f"{violations} violations over 1e4 realizations",
    )


# ---------------------------------------------------------------------------
# 7. Normalized thresholds equalize access across users.
# ---------------------------------------------------------------------------

#: The joint fairness gate's size: a correct engine fails it at this rate a seed.
FAIRNESS_JOINT_SIZE = 1e-3


@pytest.fixture(scope="module")
def fairness_run():
    """One distributed run of 10^5 trials at N = 50, and the candidacy probability omega."""
    cfg = NetworkConfig.homogeneous(
        num_secondary=50, num_bands=4, primary_count=4, snr_db=10.0, seed=404)
    trials = 100_000
    agg = harness.run_trials(cfg, "distributed", trials)
    return cfg, trials, agg, distributed.candidacy_probability(cfg.num_secondary, cfg.num_bands)


def test_fairness(fairness_run):
    # Each user within 3 sigma: the users' counts are independent, so a
    # correct engine fails this at 1 - (1 - P(|z| > 3))^N a seed.
    cfg, trials, agg, omega = fairness_run
    band = 3.0 * math.sqrt(omega * (1.0 - omega) / trials)
    dev = np.abs(agg.per_user_candidacy - omega)
    false_alarm = 1.0 - (1.0 - math.erfc(3.0 / math.sqrt(2.0))) ** cfg.num_secondary
    _report(
        "fairness",
        float(dev.max()) <= band,
        f"max |freq - {omega:.6f}| = {dev.max():.2e}, 3-sigma band {band:.2e}, "
        f"{trials} trials, {cfg.num_secondary} users, false-alarm rate {false_alarm:.1%} a seed",
    )


def test_fairness_joint(fairness_run):
    # Every user's deviation at once: the sum of the users' squared
    # z-scores is chi-square with N degrees of freedom, so a correct engine
    # fails this at its size a seed.
    cfg, trials, agg, omega = fairness_run
    z = (agg.per_user_candidacy - omega) / math.sqrt(omega * (1.0 - omega) / trials)
    statistic = float(np.sum(z ** 2))
    p_value = float(stats.chi2.sf(statistic, cfg.num_secondary))
    _report(
        "fairness-joint",
        p_value >= FAIRNESS_JOINT_SIZE,
        f"sum z^2 = {statistic:.2f} against chi2({cfg.num_secondary}), p = {p_value:.3g}, "
        f"{trials} trials, false-alarm rate {FAIRNESS_JOINT_SIZE:.1%} a seed",
    )


# ---------------------------------------------------------------------------
# 8. Mean signalling cost approaches M * log2 M bits.
# ---------------------------------------------------------------------------

def test_information_exchange():
    cfg = NetworkConfig.homogeneous(
        num_secondary=1000, num_bands=4, primary_count=4, snr_db=10.0, seed=55)
    agg = harness.run_trials(cfg, "distributed", 100_000)
    target = cfg.num_bands * math.log2(cfg.num_bands)
    rel = abs(agg.mean_info_bits - target) / target
    _report(
        "information-exchange",
        rel <= 0.10,
        f"mean info bits {agg.mean_info_bits:.4f} vs {target:.0f} "
        f"({100 * rel:.2f}% off)",
    )
    # Exact: on a homogeneous network the claimants of a trial are
    # Binomial(N, omega), so the mean bits are N * omega * log2 M.
    n, trials = cfg.num_secondary, agg.trials
    omega = distributed.candidacy_probability(n, cfg.num_bands)
    bits = math.log2(cfg.num_bands)
    stderr = bits * math.sqrt(n * omega * (1.0 - omega) / trials)
    z = (agg.mean_info_bits - n * omega * bits) / stderr
    _report(
        "information-exchange-exact",
        abs(z) <= 4.0,
        f"mean info bits {agg.mean_info_bits:.4f} vs N*omega*log2 M = "
        f"{n * omega * bits:.4f} (z = {z:.2f})",
    )


# ---------------------------------------------------------------------------
# 9. Distinct per-band favorites become near certain as N grows.
# ---------------------------------------------------------------------------

def test_distinct_favorites_trend():
    freqs = {}
    for n in (100, 1000):
        cfg = NetworkConfig.homogeneous(
            num_secondary=n, num_bands=4, primary_count=4, snr_db=10.0, seed=66)
        hits = 0
        for t in range(10_000):
            table = channel.compute_sinr(cfg, channel.draw_realization(cfg, t))
            hits += centralized.event_d(centralized.favorites(table))
        freqs[n] = hits / 10_000
    ok = freqs[1000] > freqs[100] and freqs[1000] >= 0.98
    _report(
        "distinct-favorites",
        ok,
        f"P(distinct) = {freqs[100]:.4f} at N=100, {freqs[1000]:.4f} at N=1000",
    )


# ---------------------------------------------------------------------------
# 10. Thresholds rise with SNR and fall with interferer count.
# ---------------------------------------------------------------------------

def test_threshold_monotonicity():
    template = NetworkConfig.homogeneous(
        num_secondary=10, num_bands=1, primary_count=1, snr_db=0.0, seed=0)
    sweep = harness.threshold_sweep(
        template, n_values=(10, 100, 1000),
        rho_values_db=(0.0, 5.0, 10.0, 15.0, 20.0),
        k_values=(1, 2, 3, 4),
    )
    _report(
        "threshold-monotonicity",
        sweep.increasing_in_rho and sweep.decreasing_in_k,
        f"increasing in SNR: {sweep.increasing_in_rho}, "
        f"decreasing in interferers: {sweep.decreasing_in_k} "
        f"({len(sweep.rows)} table entries)",
    )


# ---------------------------------------------------------------------------
# 11. Harmonic-sum moments agree with simulation and the classic bracket.
# ---------------------------------------------------------------------------

def test_order_statistic_moments():
    rng = np.random.default_rng(77)
    problems = []
    for n in (10, 100, 1000):
        h1, _ = analytics.harmonic_moments(n)
        trials = 50_000
        maxima = np.empty(trials)
        step = max(1, 10_000_000 // n)
        for start in range(0, trials, step):
            stop = min(trials, start + step)
            maxima[start:stop] = rng.exponential(
                size=(stop - start, n)).max(axis=1)
        mean = maxima.mean()
        stderr = maxima.std(ddof=1) / math.sqrt(trials)
        if abs(mean - h1) > 3.0 * stderr:
            problems.append(f"N={n}: {mean:.4f} vs {h1:.4f} ({stderr:.2e} se)")
        lo = math.log(n) + np.euler_gamma
        hi = lo + 1.0 / (2.0 * n)
        if not (lo < h1 < hi):
            problems.append(f"N={n}: harmonic sum {h1:.6f} outside "
                            f"({lo:.6f}, {hi:.6f})")
    _report(
        "order-statistic-moments",
        not problems,
        "; ".join(problems) or
        "MC mean within 3 se of the harmonic sum for N in {10,100,1000}; "
        "harmonic sum inside the Euler-Mascheroni bracket",
    )


# ---------------------------------------------------------------------------
# 12. The partial binomial sum is non-decreasing in its argument.
# ---------------------------------------------------------------------------

def test_partial_binomial_monotone():
    grid = np.linspace(0.0, 1.0, 1000)
    worst = 0.0
    for n in (2, 5, 10, 50):
        for i in range(n):
            vals = analytics.partial_binomial_sum(grid, n, i)
            worst = max(worst, float(np.max(-np.diff(vals), initial=0.0)))
    _report(
        "partial-binomial-monotone",
        worst <= 1e-12,
        f"largest adjacent decrease {worst:.2e} over all ranks, "
        f"N in {{2,5,10,50}}, 1e3-point grid",
    )
