"""Monte Carlo experiment orchestration, aggregation and validation."""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import analytics, centralized, distributed
from .channel import sinr_block, sinr_bounds, trial_passes
from .config import (ConfigError, NetworkConfig, _cycled, _filled, as_int, as_population,
                     as_real, power_from_db)

SCHEMES = ("centralized", "distributed")

#: Guard against accidentally huge runs (N * M * trials cells).
DEFAULT_CELL_BUDGET = 2e10

#: Validation bounds every chunked temporary by this many values: the
#: direct SINR samples' |h|^2, a KS distance's CDF pass, the dominance
#: check's users-by-grid CDF block and the contention check's claimants.
SAMPLE_CHUNK = 1 << 13


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
    trial_sum_rates: np.ndarray = field(metadata={"json": False})   # per trial, for audits


def _mean_stderr(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and its standard error (0 for a single value) of each
    row of the 2-D ``values``."""
    n = values.shape[1]
    mean = values.sum(axis=1) / n
    squares = np.square(values - mean[:, None])
    # A single value's square is 0, so max(., 1) makes its error 0.
    return mean, np.sqrt(squares.sum(axis=1) / max(n - 1, 1)) / math.sqrt(n)


def _checked_trials(trials, sizes, name="trials", low=1) -> int:
    """``trials`` as an int; ConfigError naming ``name`` below ``low``, and
    ResourceError if its cells, N*M*trials, exceed the budget for any (N, M)
    of ``sizes``."""
    trials = as_int(name, trials, low)
    cells = max(n * m for n, m in sizes) * trials
    if cells > DEFAULT_CELL_BUDGET:
        from decimal import Decimal   # here, off every run that fits: cells may exceed floats
        raise ResourceError(
            f"{name} = {Decimal(trials):.3g} needs {Decimal(cells):.3g} cells, beyond the "
            f"budget of {DEFAULT_CELL_BUDGET:.3g}")
    return trials


def run_schemes(cfg: NetworkConfig, schemes, trials: int) -> dict[str, TrialAggregate]:
    """Monte Carlo estimate of the sum rate under each scheme, on shared trials.

    Each trial draws one realization, builds one SINR table and counts
    event D once; every requested scheme then runs on that table, so the
    schemes' per-trial rates are paired (common random numbers).
    Deterministic for fixed (cfg.seed, trials): every trial uses
    substreams derived from (seed, trial_index) only, so a scheme's
    aggregate does not depend on which other schemes run beside it.

    Trials run in the blocks of ``channel.trial_passes``: each stage is
    one array call per block, and only the matching of trials without
    event D is per trial, for M > 4.  The contention of a whole seeding
    pass is resolved at once from its claimants (``_settle``).
    Results equal a loop over the one-trial entry points bit for bit,
    whatever the block size.  This is the one-point call of
    ``_run_points``.
    """
    aggregates = _run_points([cfg], schemes, trials).aggregates()
    return {scheme: points[0] for scheme, points in aggregates.items()}


@dataclass
class _Tally:
    """The per-(point, trial) columns and per-point counts of a run of
    configs, row p of each being the p-th config's; every aggregate is a
    reduction of them (``aggregates``)."""

    rates: dict[str, np.ndarray]        # per scheme, the (P, trials) sum rates
    info_bits: np.ndarray               # (P, trials)
    event_d: np.ndarray                 # (P,) trials with event D
    idle: np.ndarray                    # (P, M) idle bands, summed over the trials
    claims: np.ndarray                  # every point's users' claims, in turn
    offsets: list[int]                  # point p's users are claims[offsets[p]:offsets[p + 1]]

    def aggregates(self) -> dict[str, tuple[TrialAggregate, ...]]:
        """Each scheme's ``TrialAggregate`` of every point, in order."""
        trials = self.info_bits.shape[1]
        event_d = (self.event_d / trials).tolist()
        counts = self.info_bits.sum(axis=1), self.claims, self.idle
        aggregates = {}
        for scheme, rates in self.rates.items():
            # The centralized scheme has no claims, no exchange and no idle bands.
            bits, claims, idle = (counts if scheme == "distributed"
                                  else (np.zeros(a.shape) for a in counts))
            mean, stderr = _mean_stderr(rates)
            bits, claims, idle = (bits / trials).tolist(), claims / trials, idle / trials
            aggregates[scheme] = tuple(
                TrialAggregate(scheme=scheme, trials=trials, mean_sum_rate=m, stderr_sum_rate=e,
                               mean_info_bits=b, per_user_candidacy=claims[lo:hi],
                               event_d_frequency=d, idle_band_frequency=i, trial_sum_rates=r)
                for m, e, b, lo, hi, d, i, r in zip(mean.tolist(), stderr.tolist(), bits,
                                                    self.offsets, self.offsets[1:], event_d,
                                                    idle, rates))
        return aggregates


def _settle(spans, timers, parts, tally: _Tally) -> None:
    """Resolve the contention of one seeding pass of ``trial_passes``, and
    write its distributed rates, information bits, claim counts and idle
    counts into ``tally``.

    ``parts`` holds each block's claimants: their rows in the pass (their
    trials), bands, users (as indices into ``tally.claims``) and SINR.
    Every config has the same M bands.  The pass's rows are consecutive
    (point, trial) entries of the columns and its points consecutive
    points (``seeding_passes``), so each column takes one slice write and
    each count one slice update.
    """
    rows, bands, users, sinr = (np.concatenate(c) for c in zip(*parts))
    (first, start, _), last = spans[0], spans[-1][0]
    *heads, size = itertools.accumulate((count for _, _, count in spans), initial=0)
    m, base = tally.idle.shape[1], first * tally.info_bits.shape[1] + start
    cells, won = distributed.contention_winners(rows, bands, m, timers)
    busy, link = np.zeros((size, m), dtype=bool), np.zeros((size, m))
    busy.flat[cells], link.flat[cells] = True, sinr[won]
    tally.rates["distributed"].reshape(-1)[base:base + size] = centralized.busy_rates(link, busy)
    tally.info_bits.reshape(-1)[base:base + size] = np.bincount(rows, minlength=size) * math.log2(m)
    lo, hi = tally.offsets[first], tally.offsets[last + 1]
    tally.claims[lo:hi] += np.bincount(users - lo, minlength=hi - lo)
    tally.idle[first:last + 1] += np.add.reduceat(~busy, heads, axis=0, dtype=np.intp)


def _run_points(cfgs, schemes, trials: int) -> _Tally:
    """The tally of ``run_schemes`` of each config of ``cfgs``, configs of
    one band count, bit for bit, with the trial streams of every config
    seeded together by ``trial_passes``.

    Every config is checked, and its thresholds solved, before any trial
    runs.  A config's trials may span seeding passes, and a pass may hold
    several configs; each block and each pass writes its own entries of
    the tally's columns.
    """
    if isinstance(schemes, str):
        raise ConfigError(f"schemes must be a tuple of scheme names, such as "
                          f"({schemes!r},), not the string {schemes!r}")
    schemes = tuple(schemes)
    if not schemes or any(s not in SCHEMES for s in schemes):
        raise ConfigError(f"unknown scheme in {schemes!r}; the schemes are {SCHEMES}")
    trials = _checked_trials(trials, [(cfg.num_secondary, cfg.num_bands) for cfg in cfgs])
    points = len(cfgs)
    lams = [analytics.build_threshold_table(cfg) if "distributed" in schemes else None
            for cfg in cfgs]
    offsets = list(itertools.accumulate((cfg.num_secondary for cfg in cfgs), initial=0))
    tally = _Tally(rates={scheme: np.empty((points, trials)) for scheme in schemes},
                   info_bits=np.zeros((points, trials)),
                   event_d=np.zeros(points, dtype=np.intp),
                   idle=np.zeros((points, cfgs[0].num_bands), dtype=np.intp),
                   claims=np.zeros(offsets[-1], dtype=np.intp),
                   offsets=offsets)
    cent = tally.rates.get("centralized")
    for spans, timers, blocks in trial_passes(cfgs, trials):
        parts = []   # per block: the rows, bands, users and SINR of its claimants
        for point, start, row, g_sq, h_sq in blocks:
            sinr = sinr_block(cfgs[point], g_sq, h_sq)
            fav = centralized.favorite_users(sinr)
            distinct = centralized.all_distinct(fav)
            tally.event_d[point] += np.count_nonzero(distinct)
            if cent is not None:
                users = centralized.matched_users(sinr, fav, distinct)
                cent[point, start:start + len(sinr)] = centralized.assignment_rates(sinr, users)
            if lams[point] is not None:   # the next block overwrites this one's SINR
                trial, user, band = distributed.claimants(sinr, lams[point])
                parts.append((row + trial, band, offsets[point] + user, sinr[trial, band, user]))
        if parts:   # the distributed scheme runs
            _settle(spans, timers, parts, tally)
    return tally


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
    # Per point: mean and standard error of the per-trial differences
    # centralized - distributed, over the trials both schemes shared.
    gap_mean: tuple[float, ...]
    gap_stderr: tuple[float, ...]
    fit: FitResult


#: Fits exclude smaller populations; the diversity trend stabilizes near N=50.
FIT_MIN_POPULATION = 50


def fit_double_log(n_values, means) -> FitResult:
    """Least squares of mean rate against log2 log2 N; one mean per N >= 2.

    The closed form from centred sums (accurate for close N), with
    elementwise products and ``np.sum`` only, so no fit starts BLAS or
    LAPACK.  Equal x give the flat line through the mean.
    """
    x = np.log2(np.log2([float(as_population(n, 2)) for n in n_values]))
    y = _filled("means", means)
    if not x.size or y.shape != x.shape:
        raise ConfigError(f"means must be one value per N (1 or more), got {y.size} for {x.size}")
    if x.size < 2:
        return FitResult(a=0.0, b=float(y[0]), r_squared=1.0)
    mx, my = x.mean(), y.mean()
    dx, dy = x - mx, y - my
    sxx = np.sum(dx * dx)
    a = np.sum(dx * dy) / sxx if sxx > 0 else 0.0
    b = my - a * mx
    resid = y - (a * x + b)
    total = np.sum(dy * dy)
    r2 = 1.0 - float(np.sum(resid**2)) / float(total) if total > 0 else 1.0
    return FitResult(a=float(a), b=float(b), r_squared=r2)


def scaling_sweep(cfg_template: NetworkConfig, n_values, trials: int) -> ScalingReport:
    """Run both schemes across population sizes on shared per-N seeds.

    At each N both schemes run on the same trials, so the report also
    gives their paired gap.  Point N runs the template's population
    resized to N with the seed ``SeedSequence((cfg_template.seed,
    N)).generate_state(1)[0]``, so adding an N value never perturbs the
    others.  Every point is checked before any runs, and the trial streams
    of all points are seeded together.
    """
    m = cfg_template.num_bands
    n_values = tuple(as_int("n_values", v, max(2, m)) for v in n_values)
    if not n_values:
        raise ConfigError("n_values must not be empty")
    if any(b >= a for a, b in zip(n_values[1:], n_values)):
        raise ConfigError("n_values must be strictly increasing")
    trials = _checked_trials(trials, [(n, m) for n in n_values])
    cfgs = [cfg_template.with_population(
                n, seed=np.random.SeedSequence((cfg_template.seed, n)).generate_state(1)[0])
            for n in n_values]
    tally = _run_points(cfgs, SCHEMES, trials)
    aggregates = tally.aggregates()
    cent, dist = aggregates["centralized"], aggregates["distributed"]
    gap_mean, gap_stderr = _mean_stderr(tally.rates["centralized"] - tally.rates["distributed"])
    predicted = tuple(m * math.log2(math.log2(n)) for n in n_values)
    fit_points = [(n, agg.mean_sum_rate) for n, agg in zip(n_values, cent)
                  if n >= FIT_MIN_POPULATION]
    if len(fit_points) < 2:   # not enough large-N points; fit everything
        fit_points = [(n, agg.mean_sum_rate) for n, agg in zip(n_values, cent)]
    fit = fit_double_log([p[0] for p in fit_points], [p[1] for p in fit_points])
    return ScalingReport(n_values=n_values, centralized=cent, distributed=dist,
                         predicted=predicted, gap_mean=tuple(gap_mean.tolist()),
                         gap_stderr=tuple(gap_stderr.tolist()), fit=fit)


def _write_csv(path, header: str, rows) -> None:
    """``header``, then one line per row of ``rows``, each value written as
    its ``str``: for a Python float, its shortest round-trip ``repr``."""
    with open(path, "w") as fh:
        fh.write("\n".join([header] + [",".join(map(str, row)) for row in rows]) + "\n")


def write_rates_csv(rows, num_bands: int, path) -> None:
    """One row per (scheme, N, TrialAggregate) in the documented column order."""
    _write_csv(path, "scheme,N,M,trials,mean_sum_rate,stderr,mean_info_bits,event_d_freq",
               [(scheme, n, num_bands, agg.trials, agg.mean_sum_rate, agg.stderr_sum_rate,
                 agg.mean_info_bits, agg.event_d_frequency) for scheme, n, agg in rows])


def write_scaling_csv(report: ScalingReport, num_bands: int, path) -> None:
    """One row per (scheme, N) of a scaling sweep."""
    write_rates_csv([(scheme, n, agg)
                     for scheme, aggs in (("centralized", report.centralized),
                                          ("distributed", report.distributed))
                     for n, agg in zip(report.n_values, aggs)], num_bands, path)


def json_data(obj):
    """``obj`` as JSON data: a dataclass as a dict of its fields in
    declaration order, less those marked ``field(metadata={"json": False})``;
    tuples and arrays as lists; numpy scalars as Python scalars."""
    if dataclasses.is_dataclass(obj):
        return {f.name: json_data(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.metadata.get("json", True)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, tuple):
        return [json_data(v) for v in obj]
    return obj


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
    n_values = tuple(as_int("n_values", n, 2) for n in n_values)
    k_values = tuple(as_int("k_values", k, 0) for k in k_values)
    rho_values_db = tuple(as_real("rho_values_db", r) for r in rho_values_db)
    noise, pp_over_ps = cfg_template.noise_power, cfg_template.pp_over_ps()
    powers = []   # (P_s, P_p) at each SNR
    for rho_db in rho_values_db:
        rho = power_from_db("rho_values_db", rho_db)
        powers.append((rho * noise, pp_over_ps * rho * noise))
        if not all(0 < power < math.inf for power in powers[-1]):
            raise ConfigError(f"rho_values_db = {rho_db!r} dB with pp_over_ps = {pp_over_ps!r} "
                              "gives no strictly positive and finite powers")
    for name, values in (("n_values", n_values), ("rho_values_db", rho_values_db),
                         ("k_values", k_values)):
        if not values:
            raise ConfigError(f"{name} must not be empty")
    rows = []
    for k in k_values:
        user_0 = cfg_template.gamma[0] if cfg_template.k_max() else np.ones(1)
        gamma = _cycled("k_values", user_0, k)   # lambda(0, 0) reads user 0's row only
        for rho_db, (p_s, p_p) in zip(rho_values_db, powers):
            link = dataclasses.replace(   # user 0 alone: only its law need be valid
                cfg_template,
                num_secondary=1,
                num_bands=1,
                primary_count=(k,),
                power_secondary=p_s,
                power_primary=p_p,
                eta=cfg_template.eta[:1],
                gamma=gamma[None],
            )
            for n in n_values:
                lam = float(analytics.build_threshold_table(link, big_n=n)[0, 0])
                rows.append({"N": n, "rho_db": rho_db, "K": k, "lam": lam})

    # The rows run over K, then rho, then N: a (K, rho, N) grid of lambda.
    lam = np.reshape([r["lam"] for r in rows], (len(k_values), len(rho_values_db), -1))

    def monotone(axis, values, sign):
        ordered = np.take(lam, np.argsort(values, kind="stable"), axis=axis)
        return not np.any(sign * np.diff(ordered, axis=axis) <= 0)

    return ThresholdSweep(
        rows=tuple(rows),
        increasing_in_n=monotone(2, n_values, +1),
        increasing_in_rho=monotone(1, rho_values_db, +1),
        decreasing_in_k=monotone(0, k_values, -1),
    )


def write_threshold_csv(sweep: ThresholdSweep, path) -> None:
    _write_csv(path, "N,rho_db,K,lambda",
               [(r["N"], r["rho_db"], r["K"], r["lam"]) for r in sweep.rows])


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
        return {"passed": self.passed, **json_data(self)}


def _simulate_sinr_samples(cfg: NetworkConfig, m: int, n: int, sinr: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
    """Fill the 1-D float array ``sinr`` with direct draws of SINR_{m,n}
    from ``rng``, independent of the trial streams: ``sinr_block`` of the
    one-link config of user n on band m.  Returns ``sinr``.

    All ``sinr.size`` |g|^2 are drawn first and then the |h|^2, the
    stream's order, the |h|^2 ``SAMPLE_CHUNK`` samples at a time.  The
    |g|^2 are drawn into ``sinr``, and each chunk's SINR overwrites its
    own |g|^2 once they are read.
    """
    k_m = cfg.primary_count[m]
    link = dataclasses.replace(cfg, num_secondary=1, num_bands=1, primary_count=(k_m,),
                               eta=cfg.eta[n:n + 1], gamma=cfg.gamma[n:n + 1, :k_m])
    rng.standard_exponential(out=sinr)
    for start in range(0, sinr.size, SAMPLE_CHUNK):
        g = sinr[start:start + SAMPLE_CHUNK]
        h_sq = rng.standard_exponential((len(g), 1, 1, k_m))
        g[:] = sinr_block(link, g.reshape(-1, 1, 1), h_sq).ravel()
    return sinr


#: The order checks' tolerance is ``ORDER_FLOOR * max(1, |mid|)``, never
#: below ``ORDER_FLOOR``.  A trial is tight when every entry has
#: lower <= mid + ORDER_FLOOR and mid <= upper + ORDER_FLOOR; it adds 0 to
#: both counts of ``_block_checks``, so a block of tight trials is skipped:
#: - rounding is monotone, so fl(x + ORDER_FLOOR) <= fl(x + tol) for any
#:   tol >= ORDER_FLOOR, and a tight entry meets the tolerance;
#: - if x_i <= f(y_i) for every i with f nondecreasing, the k-th smallest
#:   x is at most f of the k-th smallest y, so each sorted row of a tight
#:   trial is tight too (f being fl(. + ORDER_FLOOR));
#: - a NaN fails ``<=``, so a trial holding one is checked in full.
ORDER_FLOOR = 1e-9


def _order_violations(lower: np.ndarray, mid: np.ndarray, upper: np.ndarray) -> int:
    """Over stacked (..., M, N) tables, the trials with lower > mid anywhere
    plus those with mid > upper anywhere, beyond a 1e-9 relative tolerance.
    A comparison with a NaN fails ``<=``, so it counts as a violation."""
    tol = ORDER_FLOOR * np.maximum(1.0, np.abs(mid))
    return int(np.count_nonzero(np.any(~(lower <= mid + tol), axis=(-2, -1)))
               + np.count_nonzero(np.any(~(mid <= upper + tol), axis=(-2, -1))))


def _block_checks(cfg: NetworkConfig, g_sq: np.ndarray,
                  h_sq: np.ndarray) -> tuple[int, int, int]:
    """A block's sandwich violations, Lemma-2 interleaving violations (of
    the tables sorted along each band) and trials with event D.

    The order checks are skipped when every trial is tight (see
    ``ORDER_FLOOR``) and run on the whole block otherwise.
    """
    sinr = sinr_block(cfg, g_sq, h_sq)
    s_lower, s_upper = sinr_bounds(cfg, g_sq, h_sq)
    event_d = _event_d_count(sinr)
    if np.all(s_lower <= sinr + ORDER_FLOOR) and np.all(sinr <= s_upper + ORDER_FLOOR):
        return 0, 0, event_d
    sandwich = _order_violations(s_lower, sinr, s_upper)
    for a in (s_lower, sinr, s_upper):
        a.sort(axis=-1)
    return sandwich, _order_violations(s_lower, sinr, s_upper), event_d


def _event_d_count(sinr: np.ndarray) -> int:
    """Trials of stacked (..., M, N) SINR tables with event D."""
    return int(np.count_nonzero(centralized.all_distinct(centralized.favorite_users(sinr))))


def _ks_distance(x: np.ndarray, cdf) -> float:
    """Two-sided KS distance of the sample ``x`` from ``cdf``.

    scipy's ``stats.ks_1samp(x, cdf).statistic`` bit for bit, from one
    sort and one CDF pass, ``SAMPLE_CHUNK`` points at a time; a NaN in
    ``x`` gives NaN.  ``x`` is sorted in place, so the caller's sample
    comes back sorted.
    """
    x.sort()
    worst = []
    for start in range(0, x.size, SAMPLE_CHUNK):
        c = cdf(x[start:start + SAMPLE_CHUNK])
        i = np.arange(start, start + c.size, dtype=float)   # the points' ranks - 1
        worst += [np.max((i + 1.0) / x.size - c), np.max(c - i / x.size)]
    return float(np.max(worst))


#: ``ndtri(1 - 5e-4)``, the two-sided 1e-3 normal quantile, and
#: ``kolmogi(1e-3)``, the Kolmogorov distribution's 1e-3 upper quantile, as
#: scipy.special gives them.
_NORMAL_LIMIT = 3.2905267314919255
_KOLMOGOROV_LIMIT = 1.9494746035043753


def _exp1_ks(x: np.ndarray) -> float:
    """KS distance of the sample ``x`` >= 0 from Exp(1), whose CDF
    ``-expm1(-x)`` keeps the digits of small x."""
    return _ks_distance(x, lambda c: -np.expm1(-c))


def _ks_limit(samples: int) -> float:
    """The KS distance that ``samples`` draws of the tested law exceed with
    probability 1e-3 (Kolmogorov's limit law), the level of
    ``contention_uniform_p``; scipy's ``stats.kstwobign.isf`` gives it."""
    return _KOLMOGOROV_LIMIT / math.sqrt(samples)


def _chisquare_p(counts: np.ndarray) -> float:
    """The p-value of Pearson's chi-square test of equal frequencies over
    five counts: the chi-square law's survival function at four degrees of
    freedom, Q(2, s / 2) = e^(-h) (1 + h) with h = s / 2 for the statistic s."""
    f = counts.astype(float)
    if f.size != 5:
        raise ValueError(f"the chi-square p-value takes 5 counts, got {f.size}")
    expected = f.mean()
    h = float(np.sum((f - expected) ** 2 / expected)) / 2.0
    return math.exp(-h) * (1.0 + h)


#: ``_law_checks``' last law: [every NetworkConfig field but ``seed``, its checks].
_LAST_LAW = []


def _law_checks(cfg: NetworkConfig) -> tuple[CheckResult, ...]:
    """``validate``'s checks of band 0's laws, which read no seed:
    ``cdf_dominance`` and, where every user has the bound law,
    ``homogeneous_cdf_identity``.

    The last law's checks are kept, so a config equal to it in every field
    but ``seed`` gets the same ones; a one-law config scans user 0 alone,
    since every user's CDF row is then that row bit for bit.
    """
    key = [getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.name != "seed"]
    last = _LAST_LAW[:]   # one read, so another thread's write cannot split a key from its checks
    if last and all(np.array_equal(a, b) for a, b in zip(last[0], key)):
        return last[1]
    # One row per user, in blocks of at most SAMPLE_CHUNK user-by-grid values,
    # so each row's inner loop runs over the contiguous grid.
    grid = np.logspace(-3, 3, 400)[None, :]
    lo_cdf = analytics.cdf_lower(grid, 0, cfg)
    hi_cdf = analytics.cdf_upper(grid, 0, cfg)
    worst = 0.0
    users, width = np.arange(1 if cfg.one_law else cfg.num_secondary), SAMPLE_CHUNK // grid.size
    for start in range(0, users.size, width):
        ex = analytics.cdf_exact(grid, 0, users[start:start + width, None], cfg)
        worst = max(worst, float(np.max(hi_cdf - ex)), float(np.max(ex - lo_cdf)))
    checks = [CheckResult("cdf_dominance", worst <= 1e-12, worst, 1e-12)]

    # Where every user has the same law, it is the bound law bit for bit.
    if cfg.bound_law(upper=False) == cfg.bound_law(upper=True):
        dev = float(np.max(np.abs(analytics.cdf_exact(grid, 0, 0, cfg) - lo_cdf)))
        checks.append(CheckResult("homogeneous_cdf_identity", dev == 0.0, dev, 0.0))
    _LAST_LAW[:] = last = key, tuple(checks)
    return last[1]


def validate(cfg: NetworkConfig, samples: int = 100_000) -> ValidationReport:
    """Run the statistical validation suite against one configuration.

    Failures are reported as data, not raised.
    """
    samples = _checked_trials(samples, [(1, 1)], "samples", 10_000)
    rng = np.random.default_rng((cfg.seed, 0xA11))
    checks = []

    # One pass over the realizations: the first n_pooled feed the Exp(1)
    # checks, the first n_real the whole-table checks and event D.  A
    # block's arrays are overwritten by the next block, so the pooled
    # draws are copied out, into the leading part of the call's one
    # workspace; the direct SINR samples reuse it once the Exp(1) checks
    # have read the draws.
    mn = cfg.num_bands * cfg.num_secondary
    n_pooled = max(1, samples // mn)
    n_real = max(100, min(10_000, n_pooled))
    work = np.empty(max(samples, n_pooled * mn))
    pooled = work[:n_pooled * mn].reshape(n_pooled, cfg.num_bands, cfg.num_secondary)
    sandwich_bad = 0
    interleave_bad = 0
    event_d_big = 0
    blocks = (b for *_, pass_blocks in trial_passes([cfg], max(n_pooled, n_real))
              for b in pass_blocks)
    for _, start, _, g_sq, h_sq in blocks:
        pooled[start:start + len(g_sq)] = g_sq[:max(0, n_pooled - start)]
        g_sq, h_sq = g_sq[:max(0, n_real - start)], h_sq[:max(0, n_real - start)]
        if not len(g_sq):
            continue
        sandwich, interleave, event_d = _block_checks(cfg, g_sq, h_sq)
        sandwich_bad += sandwich
        interleave_bad += interleave
        event_d_big += event_d

    # Exp(1) marginals of the raw fading draws.  An Exp(1) draw has unit
    # variance, so the mean's limit is the two-sided 1e-3 normal quantile
    # over the square root of the draws.
    pooled = pooled.ravel()
    mean = float(pooled.mean())
    limit = _NORMAL_LIMIT / math.sqrt(pooled.size)
    checks.append(CheckResult("exp1_mean", abs(mean - 1.0) < limit, mean, limit))
    ks = _exp1_ks(pooled)   # sorts the pooled draws
    limit = _ks_limit(pooled.size)
    checks.append(CheckResult("exp1_ks", ks < limit, float(ks), limit))

    # Sandwich and Lemma-2 interleaving over whole realizations.
    checks.append(CheckResult("sandwich_violations", sandwich_bad == 0,
                              float(sandwich_bad), 0.0))
    checks.append(CheckResult("interleaving_violations", interleave_bad == 0,
                              float(interleave_bad), 0.0))

    # Exact CDF against an empirical-CDF oracle (and the bound CDFs too).
    m0, n0 = 0, 0
    sinr_samples = _simulate_sinr_samples(cfg, m0, n0, work[:samples], rng)
    ks_exact = _ks_distance(sinr_samples, lambda x: analytics.cdf_exact(x, m0, n0, cfg))
    limit = _ks_limit(sinr_samples.size)
    checks.append(CheckResult("exact_cdf_ks", ks_exact < limit, float(ks_exact), limit))

    checks += _law_checks(cfg)

    # Event D frequency should not degrade as the population grows.
    small = cfg.with_population(max(cfg.num_bands, cfg.num_secondary // 10),
                                seed=cfg.seed + 1)
    freq_small = sum(_event_d_count(sinr_block(small, g_sq, h_sq))
                     for *_, blocks in trial_passes([small], n_real)
                     for *_, g_sq, h_sq in blocks) / n_real
    freq_big = event_d_big / n_real
    slack = 3.0 * math.sqrt(0.25 / n_real)
    checks.append(CheckResult("event_d_trend", freq_big + slack >= freq_small,
                              float(freq_big - freq_small), -slack))

    # Contention winner uniformity (chi-square on the engine's backoff stage):
    # 30,000 cells of 5 claimants, at most SAMPLE_CHUNK claimants a call.  The
    # timers are drawn cell after cell, so any split gives the same winners.
    wins, per_call = np.zeros(5, dtype=np.intp), SAMPLE_CHUNK // 5
    for first in range(0, 30_000, per_call):
        trials = np.arange(5 * min(per_call, 30_000 - first)) // 5
        cells, won = distributed.contention_winners(trials, np.zeros_like(trials), 1,
                                                    lambda _, counts: rng.random(counts.sum()))
        wins += np.bincount(won - 5 * cells, minlength=5)   # cell c's claimants: 5 c to 5 c + 4
    p_value = _chisquare_p(wins)
    checks.append(CheckResult("contention_uniform_p", p_value > 0.001, p_value, 0.001))

    return ValidationReport(checks=tuple(checks))
