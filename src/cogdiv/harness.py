"""Monte Carlo experiment orchestration, aggregation and validation."""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from . import analytics, centralized, distributed
from .channel import compute_sinr, draw_realization, sinr_bounds
from .config import ConfigError, NetworkConfig, power_from_db

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


def _contention_rng(cfg: NetworkConfig, trial: int) -> np.random.Generator:
    # Separate substream from the fading draw of the same trial.
    return np.random.default_rng((cfg.seed, trial, 1))


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (0 for a single value)."""
    stderr = float(np.std(values, ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return float(np.mean(values)), stderr


def run_schemes(cfg: NetworkConfig, schemes, trials: int,
                cell_budget: float = DEFAULT_CELL_BUDGET) -> dict[str, TrialAggregate]:
    """Monte Carlo estimate of the sum rate under each scheme, on shared trials.

    Each trial draws one realization, builds one SINR table and counts
    event D once; every requested scheme then runs on that table, so the
    schemes' per-trial rates are paired (common random numbers).
    Deterministic for fixed (cfg.seed, trials): every trial uses
    substreams derived from (seed, trial_index) only, so a scheme's
    aggregate does not depend on which other schemes run beside it.
    """
    schemes = tuple(schemes)
    if not schemes or any(s not in SCHEMES for s in schemes):
        raise ValueError(f"unknown scheme in {schemes!r}; the schemes are {SCHEMES}")
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    if cfg.num_secondary * cfg.num_bands * trials > cell_budget:
        raise ResourceError(
            f"N*M*trials = {cfg.num_secondary * cfg.num_bands * trials:.3g} "
            f"exceeds the budget of {cell_budget:.3g}"
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

    for t in range(trials):
        table = compute_sinr(cfg, draw_realization(cfg, t))
        if centralized.event_d(centralized.favorites(table)):
            event_d_count += 1
        if cent_rates is not None:
            cent_rates[t] = centralized.optimal_assignment_matching(table).sum_rate
        if dist_rates is not None:
            outcome = distributed.allocate_distributed(table, th, _contention_rng(cfg, t))
            dist_rates[t] = outcome.assignment.sum_rate
            info_bits[t] = outcome.info_bits
            claim_counts += outcome.candidate_sets.claims >= 0
            idle_counts[np.asarray(outcome.idle_bands, dtype=int)] += 1

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


def run_trials(cfg: NetworkConfig, scheme: str, trials: int,
               cell_budget: float = DEFAULT_CELL_BUDGET) -> TrialAggregate:
    """Monte Carlo estimate of the sum rate under one allocation scheme.

    The one-scheme call of ``run_schemes``; deterministic for fixed
    (cfg.seed, scheme, trials).
    """
    return run_schemes(cfg, (scheme,), trials, cell_budget)[scheme]


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
    n_values = tuple(int(v) for v in n_values)
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
    if not (len(tuple(n_values)) and len(tuple(rho_values_db)) and len(tuple(k_values))):
        raise ConfigError("sweep lists must be non-empty")
    rows = []
    for k in k_values:
        for rho_db in rho_values_db:
            rho = power_from_db(rho_db)
            for n in n_values:
                cfg = dataclasses.replace(
                    cfg_template,
                    primary_count=(int(k),) * cfg_template.num_bands,
                    power_secondary=rho * cfg_template.noise_power,
                    power_primary=cfg_template.pp_over_ps() * rho * cfg_template.noise_power,
                    gamma=np.resize(cfg_template.gamma if cfg_template.k_max()
                                    else np.ones((cfg_template.num_secondary, 1)),
                                    (cfg_template.num_secondary, int(k))),
                )
                lam = analytics.solve_threshold(0, 0, cfg, big_n=int(n))
                rows.append({"N": int(n), "rho_db": float(rho_db),
                             "K": int(k), "lam": lam})

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


def _is_homogeneous(cfg: NetworkConfig) -> bool:
    if not np.all(cfg.eta == cfg.eta[0]):
        return False
    return cfg.k_max() == 0 or bool(np.all(cfg.gamma == cfg.gamma.flat[0]))


def validate(cfg: NetworkConfig, samples: int = 100_000) -> ValidationReport:
    """Run the statistical validation suite against one configuration.

    Failures are reported as data, not raised.
    """
    if samples < 10_000:
        raise ConfigError("validation needs at least 1e4 samples")
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
    for t in range(max(n_pooled, n_real)):
        real = draw_realization(cfg, t)
        if t < n_pooled:
            pooled.append(real.g_sq.ravel())
        if t >= n_real:
            continue
        table = compute_sinr(cfg, real)
        s_lower, s_upper = sinr_bounds(cfg, real)
        tol = 1e-9 * np.maximum(1.0, np.abs(table.sinr))
        sandwich_bad += int(np.any(s_lower > table.sinr + tol)
                            + np.any(table.sinr > s_upper + tol))
        lo = -np.sort(-s_lower, axis=1)
        mid = -np.sort(-table.sinr, axis=1)
        hi = -np.sort(-s_upper, axis=1)
        tol = 1e-9 * np.maximum(1.0, np.abs(mid))
        interleave_bad += int(np.any(lo > mid + tol) + np.any(mid > hi + tol))
        event_d_big += centralized.event_d(centralized.favorites(table))

    # Exp(1) marginals of the raw fading draws.  Only the KS statistic
    # is kept, so the cheap asymptotic p-value is asked for.
    pooled = np.concatenate(pooled)
    checks.append(CheckResult("exp1_mean", abs(pooled.mean() - 1.0) < 0.02,
                              float(pooled.mean()), 0.02))
    ks = stats.kstest(pooled, "expon", method="asymp").statistic
    checks.append(CheckResult("exp1_ks", ks < 0.01, float(ks), 0.01))

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
    checks.append(CheckResult("exact_cdf_ks", ks_exact < 0.01, float(ks_exact), 0.01))

    grid = np.logspace(-3, 3, 400)
    lo_cdf = analytics.cdf_lower(grid, m0, cfg)
    hi_cdf = analytics.cdf_upper(grid, m0, cfg)
    worst = 0.0
    for n in range(cfg.num_secondary):
        ex = analytics.cdf_exact(grid, m0, n, cfg)
        worst = max(worst, float(np.max(hi_cdf - ex)), float(np.max(ex - lo_cdf)))
    checks.append(CheckResult("cdf_dominance", worst <= 1e-12, worst, 1e-12))

    if _is_homogeneous(cfg):
        dev = float(np.max(np.abs(analytics.cdf_exact(grid, m0, 0, cfg) - lo_cdf)))
        checks.append(CheckResult("homogeneous_cdf_identity", dev == 0.0, dev, 0.0))

    # Event D frequency should not degrade as the population grows.
    small = cfg.with_population(max(cfg.num_bands, cfg.num_secondary // 10),
                                seed=cfg.seed + 1)
    freq_small = np.mean([
        centralized.event_d(centralized.favorites(compute_sinr(small, draw_realization(small, t))))
        for t in range(n_real)])
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
