"""Command-line front end.

Configuration is a flat ``key = value`` document, one pair per line,
``#`` comments allowed; a key unknown or given twice is an error.  Lists
are comma-separated; gamma may give one row per user with rows separated
by ``;``.  A single value of K, eta or gamma fills its whole shape, as
``NetworkConfig`` fills it.  Powers are configured in dB (``snr_db``)
with ``pp_over_ps`` as a linear ratio.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import harness
from .config import ConfigError, NetworkConfig

DEFAULT_TRIALS = 2000
DEFAULT_SAMPLES = 100_000
DEFAULT_N_VALUES = (10, 20, 50, 100, 200, 500, 1000)
DEFAULT_RHO_DB_VALUES = (0.0, 5.0, 10.0, 15.0, 20.0)
DEFAULT_K_VALUES = (1, 2, 3, 4)

_KEYS = {"N", "M", "K", "snr_db", "eta", "gamma", "pp_over_ps", "seed",
         "trials", "samples", "n_values", "rho_db_values", "k_values"}


def _parse_pairs(text: str) -> dict[str, str]:
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: key {key!r} is given twice")
        pairs[key] = value
    return pairs


def _scalar(text: str):
    """An integer literal as an exact int, any other number as a float."""
    return int(text) if text.strip().lstrip("+-").isdigit() else float(text)


def _list(text: str) -> list:
    return [float(v) for v in text.split(",") if v.strip()]


def _rows(text: str) -> list:
    return [_list(row) for row in text.split(";") if row.strip()]


def _value(pairs, key, parse, default=None):
    """``parse(pairs[key])``; ``default`` if the key is absent, and
    ConfigError if it is absent with no default or does not parse."""
    if key not in pairs:
        if default is None:
            raise ConfigError(f"missing required key '{key}'")
        return default
    try:
        return parse(pairs[key])
    except ValueError:
        raise ConfigError(f"malformed value for key '{key}': {pairs[key]!r}") from None


def parse_config(text: str) -> NetworkConfig:
    """Parse a network configuration document; ``NetworkConfig`` checks it,
    and its errors name the document's keys, not its own fields."""
    pairs = _parse_pairs(text)
    fields = dict(
        num_secondary=_value(pairs, "N", _scalar),
        num_bands=_value(pairs, "M", _scalar),
        primary_count=_value(pairs, "K", _list),
        snr_db=_value(pairs, "snr_db", float),
        pp_over_ps=_value(pairs, "pp_over_ps", float, 1.0),
        eta=_value(pairs, "eta", _list, 1.0),
        gamma=_value(pairs, "gamma", _rows, 1.0),
        seed=_value(pairs, "seed", _scalar, 0),
    )
    try:
        return NetworkConfig.homogeneous(**fields)
    except ConfigError as exc:
        message = str(exc)
        for field, key in (("num_secondary", "N"), ("num_bands", "M"), ("primary_count", "K")):
            message = message.replace(field, key)
        raise ConfigError(message) from None


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
    return {key: _value(pairs, key, _scalar if key in ("trials", "samples") else _list)
            for key in ("trials", "samples", "n_values", "rho_db_values", "k_values")
            if key in pairs}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogdiv",
        description="Multiuser-diversity spectrum allocation simulator",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # Each subcommand takes only the overrides it reads.
    for name, overrides, help_text in (
        ("simulate", ("seed", "trials"), "run both schemes at the configured network size"),
        ("scaling", ("seed", "trials"), "sweep the population size and fit the double-log trend"),
        ("thresholds", (), "tabulate lambda over N, SNR and primary count"),
        ("validate", ("seed",), "run the statistical validation suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="configuration file path")
        p.add_argument("--out", default=".", help="output directory")
        for key in overrides:
            p.add_argument(f"--{key}", type=int, help=f"override the config's {key}")
    parser.set_defaults(seed=None, trials=None)
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
                {scheme: harness.json_data(agg) for scheme, agg in aggs.items()},
                out_dir / "simulate.json")

        elif args.subcommand == "scaling":
            report = harness.scaling_sweep(
                cfg, settings.get("n_values", DEFAULT_N_VALUES), trials)
            harness.write_scaling_csv(report, cfg.num_bands, out_dir / "scaling.csv")
            harness.write_json(harness.json_data(report), out_dir / "scaling.json")

        elif args.subcommand == "thresholds":
            sweep = harness.threshold_sweep(
                cfg,
                settings.get("n_values", (10, 100, 1000)),
                settings.get("rho_db_values", DEFAULT_RHO_DB_VALUES),
                settings.get("k_values", DEFAULT_K_VALUES),
            )
            harness.write_threshold_csv(sweep, out_dir / "thresholds.csv")
            harness.write_json(harness.json_data(sweep), out_dir / "thresholds.json")
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
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
