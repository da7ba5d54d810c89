"""Command-line front end.

Configuration is a flat ``key = value`` document, one pair per line,
``#`` comments allowed.  Lists are comma-separated; gamma may give one
row per user with rows separated by ``;``.  Powers are configured in dB
(``snr_db``) with ``pp_over_ps`` as a linear ratio.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import harness
from .config import ConfigError, NetworkConfig, as_int, power_from_db

DEFAULT_TRIALS = 2000
DEFAULT_SAMPLES = 100_000
DEFAULT_N_VALUES = (10, 20, 50, 100, 200, 500, 1000)
DEFAULT_RHO_DB_VALUES = (0.0, 5.0, 10.0, 15.0, 20.0)
DEFAULT_K_VALUES = (1, 2, 3, 4)

_NETWORK_KEYS = {"N", "M", "K", "snr_db", "eta", "gamma", "pp_over_ps", "seed"}


def _parse_pairs(text: str) -> dict[str, str]:
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def _number(pairs, key, required=True, default=None):
    if key not in pairs:
        if required:
            raise ConfigError(f"missing required key '{key}'")
        return default
    try:
        return float(pairs[key])
    except ValueError:
        raise ConfigError(f"malformed number for key '{key}': {pairs[key]!r}") from None


def _integer(pairs, key, required=True, default=None):
    return as_int(f"key '{key}'", _number(pairs, key, required, default))


def _number_list(pairs, key, default=None):
    if key not in pairs:
        return default
    try:
        return [float(v) for v in pairs[key].split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"malformed list for key '{key}': {pairs[key]!r}") from None


def parse_config(text: str) -> NetworkConfig:
    """Parse and fully validate a network configuration document."""
    pairs = _parse_pairs(text)
    n = _integer(pairs, "N")
    m = _integer(pairs, "M")
    k_list = _number_list(pairs, "K")
    if k_list is None:
        raise ConfigError("missing required key 'K'")
    counts = tuple(as_int("key 'K'", k) for k in (k_list * m if len(k_list) == 1 else k_list))
    if len(counts) != m:
        raise ConfigError(f"key 'K' needs 1 or {m} entries, got {len(k_list)}")
    if any(k < 0 for k in counts):
        raise ConfigError("key 'K' entries must be non-negative")
    snr_db = _number(pairs, "snr_db")
    pp_over_ps = _number(pairs, "pp_over_ps", required=False, default=1.0)
    if pp_over_ps <= 0:
        raise ConfigError("key 'pp_over_ps' must be strictly positive")
    p_s = power_from_db(snr_db)

    eta = _number_list(pairs, "eta", default=[1.0])
    eta = np.full(n, eta[0]) if len(eta) == 1 else np.asarray(eta)
    if eta.shape != (n,):
        raise ConfigError(f"key 'eta' needs 1 or {n} entries, got {eta.size}")

    k_max = max(counts) if counts else 0
    if "gamma" in pairs:
        try:
            rows = [[float(v) for v in row.split(",") if v.strip()]
                    for row in pairs["gamma"].split(";") if row.strip()]
        except ValueError:
            raise ConfigError(f"malformed matrix for key 'gamma': {pairs['gamma']!r}") from None
    else:
        rows = [[1.0]]
    if len(rows) == 1 and len(rows[0]) == 1:
        gamma = np.full((n, k_max), rows[0][0])
    else:
        gamma = np.asarray(rows)
        if gamma.shape != (n, k_max):
            raise ConfigError(f"key 'gamma' must be {n}x{k_max}, got {gamma.shape}")

    try:
        return NetworkConfig(
            num_secondary=n,
            num_bands=m,
            primary_count=counts,
            power_secondary=p_s,
            power_primary=pp_over_ps * p_s,
            noise_power=1.0,
            eta=eta,
            gamma=gamma,
            seed=_integer(pairs, "seed", required=False, default=0),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def render_config(cfg: NetworkConfig) -> str:
    """Inverse of parse_config for configs built through it."""
    lines = [
        f"N = {cfg.num_secondary}",
        f"M = {cfg.num_bands}",
        "K = " + ",".join(str(k) for k in cfg.primary_count),
        f"snr_db = {10.0 * math.log10(cfg.snr())!r}",
        f"pp_over_ps = {cfg.pp_over_ps()!r}",
        "eta = " + ",".join(repr(float(v)) for v in cfg.eta),
    ]
    if cfg.k_max():
        lines.append("gamma = " + ";".join(
            ",".join(repr(float(v)) for v in row) for row in cfg.gamma))
    lines.append(f"seed = {cfg.seed}")
    return "\n".join(lines) + "\n"


def _run_settings(text: str) -> dict:
    """Experiment keys (trial counts, sweep lists) from the same document."""
    pairs = _parse_pairs(text)
    out = {}
    for key in ("trials", "samples"):
        if key in pairs:
            out[key] = _integer(pairs, key)
    for key in ("n_values", "rho_db_values", "k_values"):
        values = _number_list(pairs, key)
        if values is not None:
            out[key] = values if key == "rho_db_values" else [
                as_int(f"key '{key}'", v) for v in values]
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogdiv",
        description="Multiuser-diversity spectrum allocation simulator",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("simulate", "run both schemes at the configured network size"),
        ("scaling", "sweep the population size and fit the double-log trend"),
        ("thresholds", "tabulate lambda over N, SNR and primary count"),
        ("validate", "run the statistical validation suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="configuration file path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--trials", type=int, default=None, help="override the trial count")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
        cfg = parse_config(text)
        settings = _run_settings(text)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        trials = settings.get("trials", DEFAULT_TRIALS) if args.trials is None else args.trials
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.touch()
        probe.unlink()

        if args.subcommand == "simulate":
            aggs = harness.run_schemes(cfg, harness.SCHEMES, trials)
            harness.write_rates_csv(
                [(scheme, cfg.num_secondary, agg) for scheme, agg in aggs.items()],
                cfg.num_bands, out_dir / "simulate.csv")
            harness.write_json(
                {scheme: agg.to_json_dict() for scheme, agg in aggs.items()},
                out_dir / "simulate.json")

        elif args.subcommand == "scaling":
            report = harness.scaling_sweep(
                cfg, settings.get("n_values", DEFAULT_N_VALUES), trials)
            harness.write_scaling_csv(report, cfg.num_bands, out_dir / "scaling.csv")
            harness.write_json(report.to_json_dict(), out_dir / "scaling.json")

        elif args.subcommand == "thresholds":
            sweep = harness.threshold_sweep(
                cfg,
                settings.get("n_values", (10, 100, 1000)),
                settings.get("rho_db_values", DEFAULT_RHO_DB_VALUES),
                settings.get("k_values", DEFAULT_K_VALUES),
            )
            harness.write_threshold_csv(sweep, out_dir / "thresholds.csv")
            harness.write_json(
                {"rows": list(sweep.rows),
                 "increasing_in_n": sweep.increasing_in_n,
                 "increasing_in_rho": sweep.increasing_in_rho,
                 "decreasing_in_k": sweep.decreasing_in_k},
                out_dir / "thresholds.json")
            if not (sweep.increasing_in_n and sweep.increasing_in_rho
                    and sweep.decreasing_in_k):
                print("warning: threshold monotonicity violated", file=sys.stderr)

        elif args.subcommand == "validate":
            report = harness.validate(cfg, settings.get("samples", DEFAULT_SAMPLES))
            for check in report.checks:
                status = "pass" if check.passed else "FAIL"
                print(f"{status}  {check.name}: statistic={check.statistic:.6g} "
                      f"threshold={check.threshold:.6g}")
            harness.write_json(report.to_json_dict(), out_dir / "validate.json")
            if not report.passed:
                return 1

        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
