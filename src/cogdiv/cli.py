"""Command-line front end.

Configuration is a flat ``key = value`` document, one pair per line,
``#`` comments allowed; a key unknown or given twice is an error.  Lists
are comma-separated, and blank entries are skipped; gamma may give one row
per user with rows separated by ``;``, all of one length.  A single value
of K, eta or gamma fills its whole shape, as ``NetworkConfig`` fills it.
Powers are configured in dB (``snr_db``) with ``pp_over_ps`` as a linear
ratio.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import harness
from .channel import UnsupportedNumpyError
from .config import ConfigError, NetworkConfig, power_from_db

DEFAULT_TRIALS = 2000
DEFAULT_SAMPLES = 100_000
DEFAULT_N_VALUES = (10, 20, 50, 100, 200, 500, 1000)
DEFAULT_RHO_DB_VALUES = (0.0, 5.0, 10.0, 15.0, 20.0)
DEFAULT_K_VALUES = (1, 2, 3, 4)


def _scalar(text: str):
    """An integer literal as an exact int, any other number as a float."""
    return int(text) if text.strip().lstrip("+-").isdigit() else float(text)


def _list(text: str) -> list:
    """The comma-separated numbers of ``text``, blank entries skipped."""
    return list(map(float, filter(str.strip, text.split(","))))


def _rows(text: str):
    """The ``;``-separated rows of ``_list`` numbers in ``text``: one float
    array if every row has one width and no blank entry, else a list of rows."""
    rows = text.split(";")
    if len({row.count(",") for row in rows}) == 1:
        values = text.replace(";", ",").split(",")
        with contextlib.suppress(ValueError):   # a blank or malformed entry: row by row
            return np.fromiter(map(float, values), float, len(values)).reshape(len(rows), -1)
    return [_list(row) for row in rows if row.strip()]


#: Each key of the document: the library's name for it and its parser.  A network
#: key names a parameter of ``NetworkConfig.homogeneous`` and is required if it has
#: no default there; a run key's default is given by the subcommands that read it.
_DOCUMENT = {"N": ("num_secondary", _scalar), "M": ("num_bands", _scalar),
             "K": ("primary_count", _list), "snr_db": ("snr_db", float),
             "pp_over_ps": ("pp_over_ps", float), "eta": ("eta", _list),
             "gamma": ("gamma", _rows), "seed": ("seed", _scalar), "trials": ("trials", _scalar),
             "samples": ("samples", _scalar), "n_values": ("n_values", _list),
             "rho_db_values": ("rho_values_db", _list), "k_values": ("k_values", _list)}
_NETWORK = inspect.signature(NetworkConfig.homogeneous).parameters


@contextlib.contextmanager
def _document_terms():
    """Re-raise the library's ConfigError in the document's keys; wrap no error quoting it."""
    try:
        yield
    except ConfigError as exc:
        message = str(exc)
        for key, (name, _) in _DOCUMENT.items():
            message = message.replace(name, key)
        raise ConfigError(message) from None


def _parse(text: str) -> tuple[NetworkConfig, dict]:
    """The document's network config and its run settings, by the library's
    names, each value converted once; the library's errors name the keys."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _DOCUMENT:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: key {key!r} is given twice")
        pairs[key] = value
    fields, settings = {}, {}
    for key, (name, parse) in _DOCUMENT.items():
        if key in pairs:
            try:
                (fields if name in _NETWORK else settings)[name] = parse(pairs[key])
            except ValueError:
                raise ConfigError(f"malformed value for key '{key}': {pairs[key]!r}") from None
        elif name in _NETWORK and _NETWORK[name].default is inspect.Parameter.empty:
            raise ConfigError(f"missing required key '{key}'")
    with _document_terms():
        return NetworkConfig.homogeneous(**fields), settings


def parse_config(text: str) -> NetworkConfig:
    """Parse a network configuration document; ``NetworkConfig`` checks it,
    and its errors name the document's keys, not its own fields."""
    return _parse(text)[0]


def _db_text(power: float) -> str:
    """The shortest dB value that ``power_from_db`` turns into ``power``, if
    one does: 10 log10(power) can be 2 ulp off it (3 dB gives 2.999999999999999)."""
    db = 10.0 * math.log10(power)
    below, above = math.nextafter(db, -math.inf), math.nextafter(db, math.inf)
    near = (db, below, above, math.nextafter(below, -math.inf), math.nextafter(above, math.inf))
    for digits in range(1, 18):
        for text in (repr(float(f"{value:.{digits}g}")) for value in near):
            with contextlib.suppress(ConfigError):
                if power_from_db("snr_db", float(text)) == power:
                    return text
    return repr(db)


def render_config(cfg: NetworkConfig) -> str:
    """Inverse of parse_config for configs built through it."""
    values = dict(num_secondary=cfg.num_secondary, num_bands=cfg.num_bands,
                  primary_count=",".join(map(str, cfg.primary_count)),
                  snr_db=_db_text(cfg.snr()), pp_over_ps=repr(cfg.pp_over_ps()),
                  eta=",".join(map(repr, cfg.eta.tolist())), seed=cfg.seed)
    if cfg.k_max():
        n, k = cfg.gamma.shape
        values["gamma"] = ";".join([",".join(["%r"] * k)] * n) % tuple(cfg.gamma.ravel().tolist())
    return "".join(f"{key} = {values[name]}\n" for key, (name, _) in _DOCUMENT.items()
                   if name in values)


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
        cfg, settings = _parse(Path(args.config).read_text())
        with _document_terms():
            if args.seed is not None:
                cfg = dataclasses.replace(cfg, seed=args.seed)
            trials = settings.get("trials", DEFAULT_TRIALS) if args.trials is None else args.trials
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            tempfile.TemporaryFile(dir=out_dir).close()   # an unwritable --out fails before any run

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
                    cfg, settings.get("n_values", (10, 100, 1000)),
                    settings.get("rho_values_db", DEFAULT_RHO_DB_VALUES),
                    settings.get("k_values", DEFAULT_K_VALUES))
                harness.write_threshold_csv(sweep, out_dir / "thresholds.csv")
                harness.write_json(harness.json_data(sweep), out_dir / "thresholds.json")
                if not (sweep.increasing_in_n and sweep.increasing_in_rho
                        and sweep.decreasing_in_k):
                    print("warning: threshold monotonicity violated", file=sys.stderr)

            elif args.subcommand == "validate":
                report = harness.validate(cfg, settings.get("samples", DEFAULT_SAMPLES))
                for check in report.checks:
                    print(f"{'pass' if check.passed else 'FAIL'}  {check.name}: "
                          f"statistic={check.statistic:.6g} threshold={check.threshold:.6g}")
                harness.write_json(report.to_json_dict(), out_dir / "validate.json")
                if not report.passed:
                    return 1

        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedNumpyError as exc:
        print(f"unsupported numpy: {exc}", file=sys.stderr)
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
