"""Monte Carlo experiment orchestration, aggregation and validation."""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from . import analytics, centralized, distributed
from .channel import FadingRealization, sinr_block, sinr_bounds, trial_blocks
from .config import ConfigError, NetworkConfig, as_int, power_from_db

SCHEMES = ("centralized", "distributed")

#: Guard against accidentally huge runs (N * M * trials cells).
DEFAULT_CELL_BUDGET = 2e10


class ResourceError(ConfigError):
    """Requested run exceeds the configured size budget."""


@dataclass(frozen=True)
class TrialAggregate:
    """Statistics of one scheme over a batch of trials."""

    scheme: str
    trials: int
    mean_sum_rate: float
    stderr_sum_rate: float
    mean_info_bits: float
    per_user_candidacy: np.ndarray      # (N,) claim frequency per user
    event_d_frequency: float
    idle_band_frequency: np.ndarray     # (M,)
    trial_sum_rates: np.ndarray         # per-trial records, kept for audits

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "trials": self.trials,
            "mean_sum_rate": self.mean_sum_rate,
            "stderr_sum_rate": self.stderr_sum_rate,
            "mean_info_bits": self.mean_info_bits,
            "per_user_candidacy": self.per_user_candidacy.tolist(),
            "event_d_frequency": self.event_d_frequency,
            "idle_band_frequency": self.idle_band_frequency.tolist(),
        }


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (0 for a single value)."""
    stderr = float(np.std(values, ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return float(np.mean(values)), stderr


def run_schemes(cfg: NetworkConfig, schemes, trials: int) -> dict[str, TrialAggregate]:
    """Monte Carlo estimate of the sum rate under each scheme, on shared trials.

    Each trial draws one realization, builds one SINR table and counts
    event D once; every requested scheme then runs on that table, so the
    schemes' per-trial rates are paired (common random numbers).
    Deterministic for fixed (cfg.seed, trials): every trial uses
    substreams derived from (seed, trial_index) only, so a scheme's
    aggregate does not depend on which other schemes run beside it.

    Trials run in the blocks of ``channel.trial_blocks``: each stage is
    one array call per block, and only the contention timers, the
    matching of trials without event D and the distributed rate's
    ``math.log2`` terms are per trial.  Results equal a loop over the
    one-trial entry points bit for bit, whatever the block size.
    """
    schemes = tuple(schemes)
    if not schemes or any(s not in SCHEMES for s in schemes):
        raise ConfigError(f"unknown scheme in {schemes!r}; the schemes are {SCHEMES}")
    trials = as_int("trials", trials)
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    if cfg.num_secondary * cfg.num_bands * trials > DEFAULT_CELL_BUDGET:
        raise ResourceError(
            f"N*M*trials = {cfg.num_secondary * cfg.num_bands * trials:.3g} "
            f"exceeds the budget of {DEFAULT_CELL_BUDGET:.3g}"
        )
    n, m = cfg.num_secondary, cfg.num_bands
    sum_rates = {scheme: np.empty(trials) for scheme in schemes}
    cent_rates = sum_rates.get("centralized")
    dist_rates = sum_rates.get("distributed")
    info_bits = np.zeros(trials)
    claim_counts = np.zeros(n)
    idle_counts = np.zeros(m)
    event_d_count = 0
    th = analytics.build_threshold_table(cfg) if dist_rates is not None else None
    bits_per_claim = math.log2(m) if m > 1 else 0.0

    for start, g_sq, h_sq, contention in trial_blocks(cfg, trials):
        block = slice(start, start + len(g_sq))
        sinr = sinr_block(cfg, g_sq, h_sq)
        fav = centralized.favorite_users(sinr)
        event_d_count += int(np.count_nonzero(centralized.all_distinct(fav)))
        if cent_rates is not None:
            users = centralized.matched_users(sinr, fav)
            cent_rates[block] = centralized.assignment_rates(sinr, users)
        if dist_rates is not None:
            claims = distributed.claim_bands(sinr, th.lam)
            member = distributed.membership(claims, m)
            per_band = member.sum(axis=-1)
            per_trial = per_band.sum(axis=-1)
            # A lone claimant wins whatever its timer: only trials with a
            # contested band need their contention stream.
            timers = np.zeros(int(per_trial.sum()))
            stops = np.cumsum(per_trial).tolist()
            for b in np.flatnonzero(np.any(per_band > 1, axis=-1)).tolist():
                count = int(per_trial[b])
                timers[stops[b] - count:stops[b]] = contention(start + b).random(count)
            winners = distributed.contention_winners(member, timers)
            dist_rates[block] = distributed.winner_rates(sinr, winners)
            info_bits[block] = per_trial * bits_per_claim
            claim_counts += np.count_nonzero(claims >= 0, axis=0)
            idle_counts += np.count_nonzero(winners < 0, axis=0)

    aggregates = {}
    for scheme, rates in sum_rates.items():
        if scheme == "centralized":   # no claims, no exchange, no idle bands
            bits, claims, idle = np.zeros(trials), np.zeros(n), np.zeros(m)
        else:
            bits, claims, idle = info_bits, claim_counts, idle_counts
        mean, stderr = _mean_stderr(rates)
        aggregates[scheme] = TrialAggregate(
            scheme=scheme,
            trials=trials,
            mean_sum_rate=mean,
            stderr_sum_rate=stderr,
            mean_info_bits=float(np.mean(bits)),
            per_user_candidacy=claims / trials,
            event_d_frequency=event_d_count / trials,
            idle_band_frequency=idle / trials,
            trial_sum_rates=rates,
        )
    return aggregates


def run_trials(cfg: NetworkConfig, scheme: str, trials: int) -> TrialAggregate:
    """Monte Carlo estimate of the sum rate under one allocation scheme.

    The one-scheme call of ``run_schemes``; deterministic for fixed
    (cfg.seed, scheme, trials).
    """
    return run_schemes(cfg, (scheme,), trials)[scheme]


# ---------------------------------------------------------------------------
# Scaling sweep (sum rate versus population size)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    a: float          # slope versus log2 log2 N
    b: float          # intercept
    r_squared: float


@dataclass(frozen=True)
class ScalingReport:
    n_values: tuple[int, ...]
    centralized: tuple[TrialAggregate, ...]
    distributed: tuple[TrialAggregate, ...]
    predicted: tuple[float, ...]        # M * log2 log2 N per point
    fit: FitResult
    # Per point: mean and standard error of the per-trial differences
    # centralized - distributed, over the trials both schemes shared.
    gap_mean: tuple[float, ...]
    gap_stderr: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "centralized": [a.to_json_dict() for a in self.centralized],
            "distributed": [a.to_json_dict() for a in self.distributed],
            "predicted": list(self.predicted),
            "gap_mean": list(self.gap_mean),
            "gap_stderr": list(self.gap_stderr),
            "fit": {"a": self.fit.a, "b": self.fit.b, "r_squared": self.fit.r_squared},
        }


#: Fits exclude smaller populations; the diversity trend stabilizes near N=50.
FIT_MIN_POPULATION = 50


def _per_n_seed(master_seed: int, n: int) -> int:
    # Stable per-N derivation: adding an N value never perturbs others.
    return int(np.random.SeedSequence((master_seed, n)).generate_state(1)[0])


def fit_double_log(n_values, means) -> FitResult:
    """Least squares of mean rate against log2 log2 N."""
    x = np.log2(np.log2(np.asarray(n_values, dtype=float)))
    y = np.asarray(means, dtype=float)
    if x.size < 2:
        return FitResult(a=0.0, b=float(y[0]), r_squared=1.0)
    a, b = np.polyfit(x, y, 1)
    resid = y - (a * x + b)
    total = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - float(np.sum(resid**2)) / float(total) if total > 0 else 1.0
    return FitResult(a=float(a), b=float(b), r_squared=r2)


def scaling_sweep(cfg_template: NetworkConfig, n_values, trials: int) -> ScalingReport:
    """Run both schemes across population sizes on shared per-N seeds.

    At each N both schemes run on the same trials, so the report also
    gives their paired gap.
    """
    n_values = tuple(as_int("n_values", v) for v in n_values)
    trials = as_int("trials", trials)
    if not n_values:
        raise ConfigError("n_values must not be empty")
    if any(b >= a for a, b in zip(n_values[1:], n_values)):
        raise ConfigError("n_values must be strictly increasing")
    m = cfg_template.num_bands
    if n_values[0] < max(2, m):
        raise ConfigError(f"every population size must be at least 2 and at least M = {m}")
    cent, dist, gaps = [], [], []
    for n in n_values:
        cfg_n = cfg_template.with_population(n, seed=_per_n_seed(cfg_template.seed, n))
        aggs = run_schemes(cfg_n, SCHEMES, trials)
        cent.append(aggs["centralized"])
        dist.append(aggs["distributed"])
        gaps.append(_mean_stderr(cent[-1].trial_sum_rates - dist[-1].trial_sum_rates))
    predicted = tuple(m * math.log2(math.log2(n)) for n in n_values)
    fit_points = [(n, agg.mean_sum_rate) for n, agg in zip(n_values, cent)
                  if n >= FIT_MIN_POPULATION]
    if len(fit_points) < 2:   # not enough large-N points; fit everything
        fit_points = [(n, agg.mean_sum_rate) for n, agg in zip(n_values, cent)]
    fit = fit_double_log([p[0] for p in fit_points], [p[1] for p in fit_points])
    return ScalingReport(
        n_values=n_values,
        centralized=tuple(cent),
        distributed=tuple(dist),
        predicted=predicted,
        fit=fit,
        gap_mean=tuple(g[0] for g in gaps),
        gap_stderr=tuple(g[1] for g in gaps),
    )


def _write_lines(lines, path) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_rates_csv(rows, num_bands: int, path) -> None:
    """One row per (scheme, N, TrialAggregate) in the documented column order."""
    lines = ["scheme,N,M,trials,mean_sum_rate,stderr,mean_info_bits,event_d_freq"]
    for scheme, n, agg in rows:
        lines.append(
            f"{scheme},{n},{num_bands},{agg.trials},{agg.mean_sum_rate!r},"
            f"{agg.stderr_sum_rate!r},{agg.mean_info_bits!r},{agg.event_d_frequency!r}"
        )
    _write_lines(lines, path)


def write_scaling_csv(report: ScalingReport, num_bands: int, path) -> None:
    """One row per (scheme, N) of a scaling sweep."""
    write_rates_csv([(scheme, n, agg)
                     for scheme, aggs in (("centralized", report.centralized),
                                          ("distributed", report.distributed))
                     for n, agg in zip(report.n_values, aggs)], num_bands, path)


def write_json(doc: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Threshold sweep (Figs. 2-3 style tables)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdSweep:
    rows: tuple[dict, ...]              # keys: N, rho_db, K, lam
    increasing_in_n: bool
    increasing_in_rho: bool
    decreasing_in_k: bool


def threshold_sweep(cfg_template: NetworkConfig, n_values, rho_values_db,
                    k_values) -> ThresholdSweep:
    """Tabulate lambda(0, 0) over population size, SNR and primary count."""
    n_values = tuple(as_int("n_values", n) for n in n_values)
    k_values = tuple(as_int("k_values", k) for k in k_values)
    rho_values_db = tuple(rho_values_db)
    if not (n_values and rho_values_db and k_values):
        raise ConfigError("sweep lists must be non-empty")
    rows = []
    for k in k_values:
        for rho_db in rho_values_db:
            rho = power_from_db(rho_db)
            cfg = dataclasses.replace(
                cfg_template,
                primary_count=(k,) * cfg_template.num_bands,
                power_secondary=rho * cfg_template.noise_power,
                power_primary=cfg_template.pp_over_ps() * rho * cfg_template.noise_power,
                # lambda(0, 0) reads user 0's row only: cycle it to K entries.
                gamma=np.resize(cfg_template.gamma[0] if cfg_template.k_max() else 1.0,
                                (cfg_template.num_secondary, k)),
            )
            for n in n_values:
                lam = analytics.solve_threshold(0, 0, cfg, big_n=n)
                rows.append({"N": n, "rho_db": float(rho_db), "K": k, "lam": lam})

    def monotone(key, sign):
        groups: dict[tuple, list] = {}
        for r in rows:
            others = tuple(v for k2, v in r.items() if k2 not in (key, "lam"))
            groups.setdefault(others, []).append((r[key], r["lam"]))
        for series in groups.values():
            series.sort()
            for (_, a), (_, b) in zip(series, series[1:]):
                if sign * (b - a) <= 0:
                    return False
        return True

    return ThresholdSweep(
        rows=tuple(rows),
        increasing_in_n=monotone("N", +1),
        increasing_in_rho=monotone("rho_db", +1),
        decreasing_in_k=monotone("K", -1),
    )


def write_threshold_csv(sweep: ThresholdSweep, path) -> None:
    lines = ["N,rho_db,K,lambda"]
    for r in sweep.rows:
        lines.append(f"{r['N']},{r['rho_db']!r},{r['K']},{r['lam']!r}")
    _write_lines(lines, path)


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    statistic: float
    threshold: float


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "checks": [
                {"name": c.name, "passed": bool(c.passed),
                 "statistic": float(c.statistic), "threshold": float(c.threshold)}
                for c in self.checks
            ],
        }


def _simulate_sinr_samples(cfg: NetworkConfig, m: int, n: int, count: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Direct draws of SINR_{m,n}, independent of draw_realization."""
    k_m = cfg.primary_count[m]
    g = rng.exponential(size=count)
    interference = 0.0
    if k_m:
        h = rng.exponential(size=(count, k_m))
        interference = np.sum(h * cfg.gamma[n, :k_m], axis=1)
    return (cfg.power_secondary * cfg.eta[n] * g) / (
        cfg.noise_power + cfg.power_primary * interference
    )


def _order_violations(lower: np.ndarray, mid: np.ndarray, upper: np.ndarray) -> int:
    """Over stacked (..., M, N) tables, the trials with lower > mid anywhere
    plus those with mid > upper anywhere, beyond a 1e-9 relative tolerance."""
    tol = 1e-9 * np.maximum(1.0, np.abs(mid))
    return int(np.count_nonzero(np.any(lower > mid + tol, axis=(-2, -1)))
               + np.count_nonzero(np.any(mid > upper + tol, axis=(-2, -1))))


def _event_d_count(sinr: np.ndarray) -> int:
    """Trials of stacked (..., M, N) SINR tables with event D."""
    return int(np.count_nonzero(centralized.all_distinct(centralized.favorite_users(sinr))))


def _ks_limit(samples: int) -> float:
    """The KS distance that ``samples`` draws of the tested law exceed with
    probability 1e-3 (Kolmogorov's limit law), the level of
    ``contention_uniform_p``."""
    return float(stats.kstwobign.isf(1e-3)) / math.sqrt(samples)


def validate(cfg: NetworkConfig, samples: int = 100_000) -> ValidationReport:
    """Run the statistical validation suite against one configuration.

    Failures are reported as data, not raised.
    """
    samples = as_int("samples", samples)
    if samples < 10_000:
        raise ConfigError("validation needs at least 1e4 samples")
    if samples > DEFAULT_CELL_BUDGET:
        raise ResourceError(f"samples = {samples:.3g} exceeds the budget of "
                            f"{DEFAULT_CELL_BUDGET:.3g}")
    rng = np.random.default_rng((cfg.seed, 0xA11))
    checks = []

    # One pass over the realizations: the first n_pooled feed the Exp(1)
    # checks, the first n_real the whole-table checks and event D.
    per_trial = cfg.num_bands * cfg.num_secondary
    n_pooled = max(1, samples // per_trial)
    n_real = max(100, min(10_000, n_pooled))
    pooled = []
    sandwich_bad = 0
    interleave_bad = 0
    event_d_big = 0
    for start, g_sq, h_sq, _ in trial_blocks(cfg, max(n_pooled, n_real)):
        pooled.append(g_sq[:max(0, n_pooled - start)].ravel())
        real = FadingRealization(g_sq=g_sq[:max(0, n_real - start)],
                                 h_sq=h_sq[:max(0, n_real - start)])
        if not len(real.g_sq):
            continue
        sinr = sinr_block(cfg, real.g_sq, real.h_sq)
        s_lower, s_upper = sinr_bounds(cfg, real)
        sandwich_bad += _order_violations(s_lower, sinr, s_upper)
        interleave_bad += _order_violations(*(-np.sort(-a, axis=-1) for a in (s_lower, sinr, s_upper)))
        event_d_big += _event_d_count(sinr)

    # Exp(1) marginals of the raw fading draws.  Only the KS statistic
    # is kept, so the cheap asymptotic p-value is asked for.
    pooled = np.concatenate(pooled)
    checks.append(CheckResult("exp1_mean", abs(pooled.mean() - 1.0) < 0.02,
                              float(pooled.mean()), 0.02))
    ks = stats.kstest(pooled, "expon", method="asymp").statistic
    limit = _ks_limit(pooled.size)
    checks.append(CheckResult("exp1_ks", ks < limit, float(ks), limit))

    # Sandwich and Lemma-2 interleaving over whole realizations.
    checks.append(CheckResult("sandwich_violations", sandwich_bad == 0,
                              float(sandwich_bad), 0.0))
    checks.append(CheckResult("interleaving_violations", interleave_bad == 0,
                              float(interleave_bad), 0.0))

    # Exact CDF against an empirical-CDF oracle (and the bound CDFs too).
    m0, n0 = 0, 0
    sinr_samples = _simulate_sinr_samples(cfg, m0, n0, samples, rng)
    ks_exact = stats.ks_1samp(
        sinr_samples, lambda x: analytics.cdf_exact(x, m0, n0, cfg), method="asymp").statistic
    limit = _ks_limit(sinr_samples.size)
    checks.append(CheckResult("exact_cdf_ks", ks_exact < limit, float(ks_exact), limit))

    # One column per user, in blocks of 64 users so the array stays small.
    grid = np.logspace(-3, 3, 400)[:, None]
    lo_cdf = analytics.cdf_lower(grid, m0, cfg)
    hi_cdf = analytics.cdf_upper(grid, m0, cfg)
    worst = 0.0
    users = np.arange(cfg.num_secondary)
    for start in range(0, users.size, 64):
        ex = analytics.cdf_exact(grid, m0, users[start:start + 64], cfg)
        worst = max(worst, float(np.max(hi_cdf - ex)), float(np.max(ex - lo_cdf)))
    checks.append(CheckResult("cdf_dominance", worst <= 1e-12, worst, 1e-12))

    # Where every user has the same law, it is the bound law bit for bit.
    if cfg.bound_law(upper=False) == cfg.bound_law(upper=True):
        dev = float(np.max(np.abs(analytics.cdf_exact(grid, m0, 0, cfg) - lo_cdf)))
        checks.append(CheckResult("homogeneous_cdf_identity", dev == 0.0, dev, 0.0))

    # Event D frequency should not degrade as the population grows.
    small = cfg.with_population(max(cfg.num_bands, cfg.num_secondary // 10),
                                seed=cfg.seed + 1)
    freq_small = sum(_event_d_count(sinr_block(small, g_sq, h_sq))
                     for _, g_sq, h_sq, _ in trial_blocks(small, n_real)) / n_real
    freq_big = event_d_big / n_real
    slack = 3.0 * math.sqrt(0.25 / n_real)
    checks.append(CheckResult("event_d_trend", freq_big + slack >= freq_small,
                              float(freq_big - freq_small), -slack))

    # Contention winner uniformity (chi-square on the backoff mechanism):
    # 30,000 contentions among 5 candidates, one row of timers each.
    winners = distributed.first_expiry(rng.random((30_000, 5)))
    p_value = stats.chisquare(np.bincount(winners, minlength=5)).pvalue
    checks.append(CheckResult("contention_uniform_p", p_value > 0.001,
                              float(p_value), 0.001))

    return ValidationReport(checks=tuple(checks))
