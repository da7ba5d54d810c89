"""The benchmark's workloads: set-up, jobs, output checks and replay plans.

A workload is a closed loop of equal jobs run one after another.  Job j
uses a seed derived from the workload seed and j, so one seed always
gives the same inputs.  Every workload comes in two sizes: ``full`` for
measurement and ``smoke`` for a fast self-test of the benchmark.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from cogdiv import analytics, cli, harness
from cogdiv.config import NetworkConfig

# Checks that harness.validate documents for a heterogeneous config.
VALIDATE_CHECKS = (
    "exp1_mean", "exp1_ks", "sandwich_violations", "interleaving_violations",
    "exact_cdf_ks", "cdf_dominance", "event_d_trend", "contention_uniform_p",
)
# The ones that test invariants rather than statistics, so must pass at any seed.
DETERMINISTIC_CHECKS = ("sandwich_violations", "interleaving_violations", "cdf_dominance")

SIZES = {
    "full": {
        "sweep_n": (10, 20, 50, 100, 200, 500, 1000),
        "sweep_m": (1, 2, 3, 4),
        "sweep_trials": 10,
        "fair_trials": 600,
        "hetero_n": 1000,
        "hetero_trials": 500,
        "samples": 100_000,
    },
    "smoke": {
        "sweep_n": (10, 20),
        "sweep_m": (1, 2),
        "sweep_trials": 2,
        "fair_trials": 20,
        "hetero_n": 40,
        "hetero_trials": 10,
        "samples": 10_000,
    },
}


def job_count(workload, seconds: int, size: str) -> int:
    """Jobs in one untraced run.

    Fixed by the workload's job time at the seed commit (nominal_job_s,
    measured on a 2-core x86-64 box), so every commit does the same work
    for a given run length and run_s is a time to solution.
    """
    return 2 if size == "smoke" else max(2, round(seconds / workload.nominal_job_s))


def job_seed(seed: int, j: int) -> int:
    """Seed of job j, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0])


def per_n_seed(master_seed: int, n: int) -> int:
    # The derivation harness.scaling_sweep documents for its per-N configs;
    # the replay needs it to redraw the sweep's realizations.
    return int(np.random.SeedSequence((master_seed, n)).generate_state(1)[0])


def hetero_config(n: int, seed: int, m: int = 4, k: int = 4, snr_db: float = 10.0,
                  param_seed: int = 123) -> NetworkConfig:
    """Spread-out path-loss factors, drawn like the test suite's heterogeneous config."""
    rng = np.random.default_rng(param_seed)
    p_s = 10.0 ** (snr_db / 10.0)
    return NetworkConfig(
        num_secondary=n, num_bands=m, primary_count=(k,) * m,
        power_secondary=p_s, power_primary=p_s, noise_power=1.0,
        eta=rng.uniform(0.5, 2.0, n), gamma=rng.uniform(0.25, 4.0, (n, k)),
        seed=seed,
    )


def as_user_config(cfg: NetworkConfig) -> NetworkConfig:
    """The config as a user supplies it: a config document parsed by the CLI."""
    return cli.parse_config(cli.render_config(cfg))


def _finite(agg) -> bool:
    return bool(np.all(np.isfinite(agg.trial_sum_rates))) and math.isfinite(agg.mean_sum_rate)


def check_runs(runs) -> list[str]:
    """Seed-independent checks on (cfg, {scheme: TrialAggregate}) pairs."""
    problems = []
    for cfg, aggs in runs:
        where = f"N={cfg.num_secondary} M={cfg.num_bands}"
        for scheme, agg in aggs.items():
            if not _finite(agg):
                problems.append(f"{where} {scheme}: non-finite sum rate")
        dist = aggs.get("distributed")
        if dist is not None:
            cap = cfg.num_secondary * math.log2(cfg.num_bands)
            if not dist.mean_info_bits <= cap:
                problems.append(f"{where}: mean_info_bits {dist.mean_info_bits} > N log2 M = {cap}")
        cent = aggs.get("centralized")
        if cent is not None and dist is not None:
            slack = 1e-12 * np.maximum(1.0, np.abs(dist.trial_sum_rates))
            if not np.all(cent.trial_sum_rates >= dist.trial_sum_rates - slack):
                problems.append(f"{where}: a distributed trial beats the centralized optimum")
    return problems


def run_values(runs) -> list[float]:
    """The per-job numbers compared with the values recorded at the seed commit."""
    return [float(v) for _, aggs in runs for agg in aggs.values()
            for v in (agg.mean_sum_rate, agg.mean_info_bits, agg.event_d_frequency)]


class FigureSweep:
    """Homogeneous K = 4, 10 dB; one job is the paper's sum-rate figure in small."""

    name = "figure_sweep"
    nominal_job_s = 0.24
    nominal_setup_s = 0.075
    trial_workload = True

    def __init__(self, size):
        self.n_values = size["sweep_n"]
        self.m_values = size["sweep_m"]
        self.trials = size["sweep_trials"]

    def setup(self, seed):
        templates = {m: as_user_config(NetworkConfig.homogeneous(
            self.n_values[0], m, 4, 10.0, seed=seed)) for m in self.m_values}
        for template in templates.values():
            for n in self.n_values:
                analytics.build_threshold_table(template.with_population(n))
        return templates

    def job(self, templates, s):
        return {m: harness.scaling_sweep(dataclasses.replace(t, seed=s), self.n_values, self.trials)
                for m, t in templates.items()}

    def runs(self, templates, s, out):
        pairs = []
        for m, report in out.items():
            template = dataclasses.replace(templates[m], seed=s)
            for n, cent, dist in zip(report.n_values, report.centralized, report.distributed):
                cfg = template.with_population(n, seed=per_n_seed(s, n))
                pairs.append((cfg, {"centralized": cent, "distributed": dist}))
        return pairs

    def trials_per_job(self):
        return len(self.m_values) * len(self.n_values) * 2 * self.trials


class FairnessN50:
    """Homogeneous N = 50, M = 4, distributed scheme only."""

    name = "fairness_n50"
    nominal_job_s = 0.16
    nominal_setup_s = 0.002
    trial_workload = True

    def __init__(self, size):
        self.trials = size["fair_trials"]

    def setup(self, seed):
        cfg = as_user_config(NetworkConfig.homogeneous(50, 4, 4, 10.0, seed=seed))
        analytics.build_threshold_table(cfg)
        return cfg

    def job(self, cfg, s):
        return harness.run_trials(dataclasses.replace(cfg, seed=s), "distributed", self.trials)

    def runs(self, cfg, s, out):
        return [(dataclasses.replace(cfg, seed=s), {"distributed": out})]

    def trials_per_job(self):
        return self.trials


class HeteroN1000:
    """Heterogeneous N = 1000, M = 4, K = 4; both schemes per job."""

    name = "hetero_n1000"
    nominal_job_s = 1.9
    nominal_setup_s = 0.95
    trial_workload = True

    def __init__(self, size):
        self.n = size["hetero_n"]
        self.trials = size["hetero_trials"]

    def setup(self, seed):
        cfg = as_user_config(hetero_config(self.n, seed))
        analytics.build_threshold_table(cfg)
        return cfg

    def job(self, cfg, s):
        cfg = dataclasses.replace(cfg, seed=s)
        return {scheme: harness.run_trials(cfg, scheme, self.trials) for scheme in harness.SCHEMES}

    def runs(self, cfg, s, out):
        return [(dataclasses.replace(cfg, seed=s), out)]

    def trials_per_job(self):
        return 2 * self.trials


class ValidateHetero:
    """harness.validate on the heterogeneous N = 1000 config."""

    name = "validate_hetero"
    nominal_job_s = 0.48
    nominal_setup_s = 0.01
    trial_workload = False

    def __init__(self, size):
        self.n = size["hetero_n"]
        self.samples = size["samples"]

    def setup(self, seed):
        return as_user_config(hetero_config(self.n, seed))

    def job(self, cfg, s):
        return harness.validate(dataclasses.replace(cfg, seed=s), self.samples)

    @staticmethod
    def check(report) -> list[str]:
        names = [c.name for c in report.checks]
        problems = [f"validate dropped check {name!r}" for name in VALIDATE_CHECKS
                    if names.count(name) != 1]
        problems += [f"validate check {c.name!r} has a non-finite statistic"
                     for c in report.checks if not math.isfinite(c.statistic)]
        problems += [f"validate check {c.name!r} failed (statistic {c.statistic!r})"
                     for c in report.checks if c.name in DETERMINISTIC_CHECKS and not c.passed]
        return problems

    @staticmethod
    def values(report) -> list[float]:
        return [float(c.statistic) for c in report.checks]


WORKLOADS = {w.name: w for w in (FigureSweep, FairnessN50, HeteroN1000, ValidateHetero)}


def job_problems(workload, state, s, out) -> list[str]:
    if workload.trial_workload:
        return check_runs(workload.runs(state, s, out))
    return workload.check(out)


def job_values(workload, state, s, out) -> list[float]:
    if workload.trial_workload:
        return run_values(workload.runs(state, s, out))
    return workload.values(out)


def compare_reference(values, recorded, rel=1e-12) -> str | None:
    """Mismatch description, or None when every value agrees to `rel`."""
    if len(values) != len(recorded):
        return f"{len(values)} values, {len(recorded)} recorded"
    for i, (a, b) in enumerate(zip(values, recorded)):
        if a != b and not abs(a - b) <= rel * max(abs(a), abs(b)):
            return f"value {i}: {a!r} != recorded {b!r}"
    return None
