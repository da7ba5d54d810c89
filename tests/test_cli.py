import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cogdiv
import oracles
from cogdiv import ConfigError, NetworkConfig, cli
from cogdiv.cli import main, parse_config, render_config

from conftest import assert_csv_field

FIG1_DOC = """
# Fig-1 style homogeneous configuration
N = 100
M = 4
K = 4
snr_db = 10
eta = 1
gamma = 1
pp_over_ps = 1
"""

SMALL_DOC = """
N = 20
M = 2
K = 2
snr_db = 10
seed = 5
trials = 40
"""


def test_parse_minimal_homogeneous_doc():
    cfg = parse_config(FIG1_DOC)
    assert cfg.num_secondary == 100
    assert cfg.num_bands == 4
    assert cfg.primary_count == (4, 4, 4, 4)
    assert cfg.snr() == pytest.approx(10.0)
    assert cfg.pp_over_ps() == 1.0
    assert np.all(cfg.eta == 1.0)
    assert cfg.gamma.shape == (100, 4)


def test_db_conversion():
    cfg = parse_config("N=5\nM=1\nK=0\nsnr_db=10\n")
    assert cfg.power_secondary == pytest.approx(10.0)
    cfg = parse_config("N=5\nM=1\nK=0\nsnr_db=0\n")
    assert cfg.power_secondary == 1.0


def test_m_exceeding_n_rejected():
    with pytest.raises(ConfigError):
        parse_config("N=4\nM=5\nK=1\nsnr_db=10\n")


def test_missing_key_names_the_key():
    with pytest.raises(ConfigError, match="snr_db"):
        parse_config("N=4\nM=2\nK=1\n")


def test_malformed_number_names_the_key():
    with pytest.raises(ConfigError, match="snr_db"):
        parse_config("N=4\nM=2\nK=1\nsnr_db=ten\n")


def test_heterogeneous_lists():
    doc = ("N=3\nM=2\nK=1,2\nsnr_db=10\n"
           "eta=1.0,2.0,0.5\n"
           "gamma=1,2;0.5,1;2,4\n")
    cfg = parse_config(doc)
    assert cfg.primary_count == (1, 2)
    assert np.array_equal(cfg.eta, [1.0, 2.0, 0.5])
    assert np.array_equal(cfg.gamma, [[1, 2], [0.5, 1], [2, 4]])


def test_round_trip():
    for doc in (FIG1_DOC, SMALL_DOC,
                "N=3\nM=2\nK=1,2\nsnr_db=7.5\neta=1,2,0.5\ngamma=1,2;0.5,1;2,4\nseed=9\n",
                f"N=5\nM=1\nK=1\nsnr_db=10\nseed={2**53 + 1}\n",
                f"N=5\nM=1\nK=1\nsnr_db=10\nseed={2**1100 + 3}\n"):
        cfg = parse_config(doc)
        assert parse_config(render_config(cfg)) == cfg
    for seed in (2**53 + 1, 2**1100 + 3):   # integers are read exactly
        assert parse_config(f"N=5\nM=1\nK=1\nsnr_db=10\nseed={seed}\n").seed == seed


def test_render_config_writes_the_shortest_snr_db():
    # 10 log10 of the power alone rendered 3 dB as 2.999999999999999, and 15
    # of these 601 values did not round-trip.
    for tenths in range(-200, 401):
        cfg = NetworkConfig.homogeneous(10, 2, 1, tenths / 10)
        assert f"\nsnr_db = {tenths / 10!r}\n" in render_config(cfg)
        assert parse_config(render_config(cfg)) == cfg
    assert "\nsnr_db = 3.0\n" in render_config(NetworkConfig.homogeneous(10, 2, 1, 3))
    # No dB value gives the power one ulp above 10; it renders as 10 log10 of it.
    cfg = dataclasses.replace(NetworkConfig.homogeneous(10, 2, 1, 10.0),
                              power_secondary=math.nextafter(10.0, math.inf))
    assert "\nsnr_db = 10.0\n" in render_config(cfg)


@pytest.mark.parametrize("extra_line, message", [
    ("pp_over_Ps = 100", "unknown key"),
    ("N = 30", "given twice"),
    ("trials = 50", "given twice"),
])
def test_unknown_or_repeated_key_rejected(extra_line, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(SMALL_DOC + extra_line + "\n")


def test_simulate_end_to_end(tmp_path):
    # gamma = 0.5 runs the weighted SINR sum, unit gamma the raw |h|^2 one.
    for name, extra_line in (("unit", ""), ("weighted", "gamma = 0.5\n")):
        config = tmp_path / f"{name}.cfg"
        config.write_text(SMALL_DOC + extra_line)
        out = tmp_path / name
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "simulate.csv").read_text().strip().splitlines()
        assert lines[0] == "scheme,N,M,trials,mean_sum_rate,stderr,mean_info_bits,event_d_freq"
        assert len(lines) == 3
        doc = json.loads((out / "simulate.json").read_text())
        assert set(doc) == {"centralized", "distributed"}
        # Every number of the CSV is its JSON value, written in full.
        for line in lines[1:]:
            scheme, *fields = line.split(",")
            agg = doc[scheme]
            for field, value in zip(fields, (
                    len(agg["per_user_candidacy"]), len(agg["idle_band_frequency"]),
                    agg["trials"], agg["mean_sum_rate"], agg["stderr_sum_rate"],
                    agg["mean_info_bits"], agg["event_d_frequency"]), strict=True):
                assert_csv_field(field, value)


def test_identical_invocations_identical_outputs(tmp_path):
    config = tmp_path / "net.cfg"
    config.write_text(SMALL_DOC)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        outs.append((out / "simulate.csv").read_bytes())
    assert outs[0] == outs[1]


def test_scaling_subcommand(tmp_path):
    config = tmp_path / "net.cfg"
    config.write_text(SMALL_DOC + "n_values = 10,20,50\n")
    out = tmp_path / "out"
    assert main(["scaling", "--config", str(config), "--out", str(out),
                 "--trials", "30"]) == 0
    lines = (out / "scaling.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 3
    doc = json.loads((out / "scaling.json").read_text())
    assert doc["n_values"] == [10, 20, 50]


def test_thresholds_warns_when_monotonicity_fails(tmp_path, capsys):
    # Two equal populations give equal thresholds, not increasing ones.
    config = tmp_path / "net.cfg"
    config.write_text(SMALL_DOC + "n_values = 10, 10\n")
    out = tmp_path / "out"
    assert main(["thresholds", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().err == "warning: threshold monotonicity violated\n"
    assert json.loads((out / "thresholds.json").read_text())["increasing_in_n"] is False


def test_thresholds_subcommand(tmp_path):
    config = tmp_path / "net.cfg"
    config.write_text(SMALL_DOC + "n_values=10,100\nrho_db_values=0,10\nk_values=1,4\n")
    out = tmp_path / "out"
    assert main(["thresholds", "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "thresholds.csv").read_text().strip().splitlines()
    assert lines[0] == "N,rho_db,K,lambda"
    assert len(lines) == 9
    doc = json.loads((out / "thresholds.json").read_text())
    assert doc["increasing_in_rho"] is True
    for line, row in zip(lines[1:], doc["rows"], strict=True):
        for field, value in zip(line.split(","), (row["N"], row["rho_db"], row["K"], row["lam"]),
                                strict=True):
            assert_csv_field(field, value)


def test_validate_subcommand(tmp_path, capsys):
    config = tmp_path / "net.cfg"
    config.write_text(SMALL_DOC + "samples = 20000\n")
    out = tmp_path / "out"
    assert main(["validate", "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads((out / "validate.json").read_text())
    assert doc["passed"] is True
    printed = capsys.readouterr().out
    assert "exact_cdf_ks" in printed


def test_validate_failure_exits_1(tmp_path, capsys, monkeypatch):
    from cogdiv import harness
    failing = harness.ValidationReport(checks=(harness.CheckResult("exp1_mean", False, 1.5, 0.03),))
    monkeypatch.setattr(harness, "validate", lambda cfg, samples: failing)
    config = tmp_path / "net.cfg"
    config.write_text(SMALL_DOC)
    out = tmp_path / "out"
    assert main(["validate", "--config", str(config), "--out", str(out)]) == 1
    assert "FAIL  exp1_mean: statistic=1.5 threshold=0.03" in capsys.readouterr().out
    assert json.loads((out / "validate.json").read_text())["passed"] is False


def test_validate_recorded_homogeneous_config_passes(tmp_path):
    # Non-unit eta, gamma and Pp/Ps; its exact and bound CDFs must agree exactly.
    config = tmp_path / "net.cfg"
    config.write_text("N = 50\nM = 2\nK = 5\nsnr_db = 2.5\npp_over_ps = 1.53\n"
                      "eta = 5.167\ngamma = 9.51\nseed = 3\n")
    out = tmp_path / "out"
    assert main(["validate", "--config", str(config), "--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads((out / "validate.json").read_text())["checks"]}
    assert checks["homogeneous_cdf_identity"]["statistic"] == 0.0
    assert checks["cdf_dominance"]["statistic"] == 0.0


def _python(*args, timeout=120):
    """A new interpreter that imports this cogdiv, run with ``args``."""
    package_root = str(Path(cogdiv.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, timeout=timeout, env=env)


#: Run as `python -c BUDGET OUT CONFIG...`: prints, as JSON, the watched
#: modules that each stage added to what `import numpy` loads.  Every run
#: here is narrow or short, so none starts the channel's fill worker or
#: loads `concurrent.futures` for it.
BUDGET = """
import contextlib, io, json, sys
import numpy
watched = ('scipy', 'numpy.ma', 'numpy.polynomial', 'decimal', 'concurrent.futures')
def loaded():
    return {m for m in sys.modules if any(m == w or m.startswith(w + '.') for w in watched)}
baseline, report = loaded(), {}
def stage(name):
    report[name] = sorted(loaded() - baseline)
from cogdiv import NetworkConfig, analytics, cli, harness
stage('import')
cfg = NetworkConfig.homogeneous(10, 4, 4, 10.0)
hetero = NetworkConfig.homogeneous(10, 4, (4, 2, 4, 0), 10.0, eta=0.5)
assert harness.run_schemes(cfg, harness.SCHEMES, 200)['centralized'].event_d_frequency < 1
stage('matching')
harness.run_schemes(hetero, harness.SCHEMES, 50)
harness.run_schemes(hetero.with_population(12), ('distributed',), 50)
harness.run_schemes(NetworkConfig.homogeneous(10, 2, 2, 10.0, eta=[1.0, 2.0] * 5),
                    harness.SCHEMES, 50)
stage('trials')
for template in (cfg, hetero):
    harness.scaling_sweep(template, (10, 20), 20)
    harness.threshold_sweep(template, (10, 100), (0.0, 10.0), (1, 4))
stage('sweeps')
for k in (1, (1, 2)):
    harness.validate(NetworkConfig.homogeneous(10, 2, k, 10.0), 10_000)
stage('validate')
for config in sys.argv[2:]:
    for command in ('simulate', 'scaling', 'thresholds', 'validate'):
        with contextlib.redirect_stdout(io.StringIO()):   # validate's report
            assert cli.main([command, '--config', config, '--out', sys.argv[1]]) == 0
stage('cli')
analytics.expected_log_max(4.0, 1000)   # its quadrature rule is numpy.polynomial's
stage('expected_log_max')
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def budget(tmp_path_factory):
    """BUDGET's report, from one new interpreter; each stage's list holds
    what that stage and every earlier one added."""
    tmp_path = tmp_path_factory.mktemp("budget")
    configs = [tmp_path / "one_k.cfg", tmp_path / "two_k.cfg"]
    for config, k in zip(configs, ("1", "1, 3")):
        config.write_text(f"N = 10\nM = 2\nK = {k}\nsnr_db = 10\ntrials = 20\nsamples = 10000\n"
                          "n_values = 10, 20\nrho_db_values = 0, 10\nk_values = 1, 4\n")
    result = _python("-c", BUDGET, str(tmp_path), *map(str, configs))
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_import_leaves_out_scipy_stats_and_integrate(budget):
    # No trial path needs them, and they add about 22 MB to a process's peak RSS.
    assert budget["import"] == []


def test_matching_up_to_four_bands_leaves_out_scipy_optimize(budget):
    # Only M > 4 runs scipy's assignment solver; scipy.optimize adds about
    # 24 MB to a process's peak RSS.
    assert budget["matching"] == []


def test_trial_paths_and_cli_load_no_numpy_ma_or_decimal(budget):
    # numpy.ma (np.unique loads it on numpy 2.x) adds about 1.3 MB and 14 ms
    # to a fresh process; decimal only formats the cell-budget error.  numpy
    # 1.x loads numpy.ma and numpy.polynomial with numpy itself.  Only the
    # fill worker of a wide, long span loads concurrent.futures.
    assert budget["cli"] == []


def test_trial_paths_and_validate_load_no_scipy(budget):
    # scipy.special alone adds about 24 MB and 0.35 s to a process; validate
    # computes its quantiles, CDFs and p-value in the package, and only
    # expected_log_max, run last, may add numpy.polynomial.
    assert all(m.split(".")[:2] == ["numpy", "polynomial"] for m in budget["expected_log_max"])


def test_seed_override_changes_results(tmp_path):
    config = tmp_path / "net.cfg"
    config.write_text(SMALL_DOC)
    outs = []
    for seed, name in ((1, "a"), (2, "b")):
        out = tmp_path / name
        assert main(["simulate", "--config", str(config), "--out", str(out),
                     "--seed", str(seed), "--trials", "20"]) == 0
        outs.append((out / "simulate.csv").read_text())
    assert outs[0] != outs[1]


def test_unknown_subcommand_exits_nonzero(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate", "--config", "x"])
    assert err.value.code != 0


def test_config_error_exit_code(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("N=4\nM=5\nK=1\nsnr_db=10\n")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 2


def test_out_naming_a_file_is_an_io_error(tmp_path, capsys):
    config = tmp_path / "net.cfg"
    config.write_text(SMALL_DOC)
    assert main(["simulate", "--config", str(config), "--out", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "File exists" in err


def test_missing_config_is_an_io_error(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("i/o error: ")


def test_write_probe_leaves_the_output_directory_as_it_was(tmp_path):
    # The check that --out is writable touches no file of it, whatever its
    # name, and leaves none behind.
    config = tmp_path / "net.cfg"
    config.write_text(SMALL_DOC)
    out = tmp_path / "out"
    out.mkdir()
    (out / ".write-probe").write_bytes(b"kept\n")
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert (out / ".write-probe").read_bytes() == b"kept\n"
    assert sorted(path.name for path in out.iterdir()) == [
        ".write-probe", "simulate.csv", "simulate.json"]


def test_numpy_whose_streams_diverge_exits_2(tmp_path, capsys, monkeypatch):
    from cogdiv import channel
    config = tmp_path / "net.cfg"
    config.write_text(SMALL_DOC + "samples = 20000\nn_values = 10, 20\n")
    out = tmp_path / "out"
    # The seeding check run afresh with PCG64's multiplier off by 2, as on a
    # numpy that seeds PCG64 differently from the trial seeding pass.
    monkeypatch.setattr(channel, "_check_seeding", channel._check_seeding.__wrapped__)
    monkeypatch.setattr(channel, "_PCG_MULT", channel._PCG_MULT + 2)
    for subcommand in ("simulate", "scaling", "validate"):
        assert main([subcommand, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("unsupported numpy: ") and err.count("\n") == 1
    assert not any(out.iterdir())

    def fault():
        raise RuntimeError("a fault of the program")
    monkeypatch.setattr(channel, "_check_seeding", fault)   # keeps its traceback
    with pytest.raises(RuntimeError, match="a fault of the program"):
        main(["simulate", "--config", str(config), "--out", str(out)])


@pytest.mark.parametrize("subcommand, extra_line, flags", [
    ("simulate", "N = 10.7", ()),
    ("simulate", "M = 1.5", ()),
    ("simulate", "K = 2.5", ()),
    ("simulate", "K = -1", ()),
    ("simulate", "seed = 0.5", ()),
    ("simulate", "trials = 2.5", ()),
    ("validate", "samples = 20000.5", ()),
    ("scaling", "n_values = 10,20.5", ()),
    ("scaling", "n_values = ,", ()),
    ("thresholds", "k_values = 1,2.5", ()),
    ("simulate", "eta = inf", ()),
    ("simulate", "gamma = inf", ()),
    ("simulate", "pp_over_ps = inf", ()),
    ("simulate", "snr_db = 1e400", ()),
    ("simulate", "snr_db = 4000", ()),
    ("thresholds", "rho_db_values = 0,4000", ()),
    ("simulate", "seed = -1", ()),
    ("simulate", "trials = 0", ()),
    ("simulate", "trials = 1000000000", ()),
    ("validate", "samples = 5000", ()),
    ("simulate", "", ("--trials", "0")),
    ("simulate", "", ("--trials", "-3")),
    ("simulate", "", ("--seed", "-1")),
    ("simulate", "N = 1e19", ()),            # arrays beyond numpy's index range
    ("simulate", "N = 1e20", ()),
    ("simulate", "K = 1e19", ()),
    ("scaling", "n_values = 10, 1e20", ()),  # sweep points beyond the budget
    ("scaling", "n_values = 10, 1e13", ()),
    ("scaling", "n_values = 10, 1e308", ()),     # budget counts beyond the float range
    pytest.param("simulate", "trials = 1" + "0" * 400, (), id="simulate-trials=10**400"),
    pytest.param("validate", "samples = 1" + "0" * 400, (), id="validate-samples=10**400"),
    ("thresholds", "k_values = -1", ()),
    ("thresholds", "k_values = 1e30", ()),
    ("simulate", "eta = 1e-320", ()),            # finite inputs whose SINR law overflows
    ("thresholds", "eta = 1e-320", ()),
    ("validate", "eta = 1e-320", ()),
    ("simulate", "gamma = 1e308", ()),
    ("simulate", "snr_db = -3100", ()),
    ("simulate", "eta = 1e308", ()),
    ("simulate", "gamma = 1e306", ()),           # P_p*gamma is finite, P_p*K*gamma*E is not
    ("thresholds", "k_values = 2000000000000000000", ()),   # K beyond numpy's index range
])
def test_bad_input_is_a_config_error(tmp_path, capsys, subcommand, extra_line, flags):
    # The extra line replaces the same key's line in SMALL_DOC.
    key = extra_line.split("=")[0].strip()
    kept = [line for line in SMALL_DOC.splitlines() if line.split("=")[0].strip() != key]
    config = tmp_path / "bad.cfg"
    config.write_text("\n".join(kept + [extra_line]) + "\n")
    argv = [subcommand, "--config", str(config), "--out", str(tmp_path / "out"), *flags]
    assert main(argv) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, flag", [
    ("thresholds", "--trials"),
    ("thresholds", "--seed"),
    ("validate", "--trials"),
])
def test_flag_a_subcommand_does_not_read_is_rejected(tmp_path, capsys, subcommand, flag):
    config = tmp_path / "net.cfg"
    config.write_text(SMALL_DOC + "samples = 20000\n")
    with pytest.raises(SystemExit) as err:
        main([subcommand, "--config", str(config), "--out", str(tmp_path / "out"), flag, "5"])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, message", [
    ("N = 10.7\nM = 2\nK = 1\nsnr_db = 10\n", "N must be an integer, got 10.7"),
    ("N = 10\nM = 2\nK = 1,2,3\nsnr_db = 10\n", "K needs 1 value or shape (2,), got shape (3,)"),
    ("N = 3\nM = 4\nK = 1\nsnr_db = 10\n", "M (4) must not exceed N (3)"),
    # The same message on every numpy: K's entries are not shown as numpy scalars.
    ("N = 10\nM = 2\nK = 1.5\nsnr_db = 10\n", "K must be an integer, got 1.5"),
    # Messages that quote the document are not rewritten.
    ("num_bands = 2\n", "line 1: unknown key 'num_bands'"),
    ("num_bands 2\n", "line 1: expected 'key = value', got 'num_bands 2'"),
    ("N = 10\nM = 2\nK = 1\nsnr_db = nan\n",
     "snr_db = nan dB gives no strictly positive and finite power"),
    ("N = 10\nM = 2\nK = 1\nsnr_db = -4000\n",
     "snr_db = -4000.0 dB gives no strictly positive and finite power"),
    ("N = 10\nM = 2\nK = 1\nsnr_db = 10\npp_over_ps = 0\n",
     "pp_over_ps and the primary power pp_over_ps * 10^(snr_db/10) must be strictly positive "
     "and finite"),
    # The library's sweep calls this list rho_values_db.
    ("N = 10\nM = 2\nK = 1\nsnr_db = 10\nrho_db_values = nan\n",
     "rho_db_values = nan dB gives no strictly positive and finite power"),
    ("N = 10\nM = 2\nK = 1\nsnr_db = 10\npp_over_ps = 1e10\nrho_db_values = 0, 3000\n",
     "rho_db_values = 3000.0 dB with pp_over_ps = 10000000000.0 gives no strictly positive "
     "and finite powers"),
    ("N = 10\nM = 2\nK = 1\nsnr_db = 10\nrho_db_values =\n", "rho_db_values must not be empty"),
])
def test_config_error_names_the_document_keys(tmp_path, capsys, doc, message):
    # thresholds reads both the network keys and the sweep lists.
    config = tmp_path / "bad.cfg"
    config.write_text(doc)
    assert main(["thresholds", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("subcommand, doc", [
    ("scaling", "N = 10\nM = 1\nK = 2\nsnr_db = 10\nn_values = 1,10\n"),
    ("simulate", "N = 1\nM = 1\nK = 2\nsnr_db = 10\n"),
])
def test_population_below_two_rejected_before_any_trial(tmp_path, capsys, monkeypatch,
                                                         subcommand, doc):
    # N = 1 has no (1 - 1/N) threshold; the run must stop before it draws.
    from cogdiv import harness

    def no_draw(*args):
        raise AssertionError("a trial ran before the configuration was rejected")
    monkeypatch.setattr(harness, "trial_passes", no_draw)
    config = tmp_path / "net.cfg"
    config.write_text(doc)
    assert main([subcommand, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    key = {"scaling": "n_values", "simulate": "N"}[subcommand]
    assert capsys.readouterr().err == f"configuration error: {key} must be at least 2, got 1\n"


@pytest.mark.parametrize("doc", [
    "N = 1e12\nM = 1\nK = 1\nsnr_db = 10\n",
    "N = 20\nM = 2\nK = 1e9\nsnr_db = 10\n",
])
def test_oversized_network_exits_2(tmp_path, capsys, doc):
    # Arrays this large cannot be allocated; the CLI reports it without a traceback.
    config = tmp_path / "big.cfg"
    config.write_text(doc)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "out of memory" in capsys.readouterr().err


@pytest.fixture(scope="module")
def huge_samples(tmp_path_factory):
    """`python -m cogdiv.cli validate` on a sample count beyond the cell budget."""
    tmp_path = tmp_path_factory.mktemp("huge_samples")
    config = tmp_path / "net.cfg"
    config.write_text(SMALL_DOC + "samples = 1e13\n")
    return _python("-m", "cogdiv.cli", "validate",
                   "--config", str(config), "--out", str(tmp_path / "out"), timeout=20)


def test_module_entry_point_runs_the_cli(huge_samples):
    # `python -m cogdiv.cli` must run main, not import the CLI and exit 0.
    assert huge_samples.returncode == 2
    assert huge_samples.stderr.startswith("configuration error")


def test_validate_huge_sample_count_exits_2_at_once(huge_samples):
    # A sample count beyond the cell budget is rejected before any sampling.
    assert huge_samples.returncode == 2
    assert "configuration error" in huge_samples.stderr and "samples" in huge_samples.stderr


def test_scaling_json_reports_paired_gap(tmp_path):
    config = tmp_path / "net.cfg"
    config.write_text(SMALL_DOC + "n_values = 10,20\n")
    out = tmp_path / "out"
    assert main(["scaling", "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads((out / "scaling.json").read_text())
    for i, _ in enumerate(doc["n_values"]):
        cent, dist = doc["centralized"][i], doc["distributed"][i]
        assert doc["gap_mean"][i] == pytest.approx(
            cent["mean_sum_rate"] - dist["mean_sum_rate"], rel=0.0, abs=1e-12)
        assert 0.0 < doc["gap_stderr"][i]


AGGREGATE_KEYS = ["scheme", "trials", "mean_sum_rate", "stderr_sum_rate", "mean_info_bits",
                  "per_user_candidacy", "event_d_frequency", "idle_band_frequency"]


def test_json_outputs_keep_their_key_order(tmp_path):
    # Each JSON output lists its report's fields in declaration order, so a
    # field moved by accident changes the documents' key order.
    config = tmp_path / "net.cfg"
    config.write_text("N = 10\nM = 2\nK = 1\nsnr_db = 10\ntrials = 20\nsamples = 10000\n"
                      "n_values = 10, 20\nrho_db_values = 0, 10\nk_values = 1, 2\n")
    out = tmp_path / "out"
    for subcommand in ("simulate", "scaling", "thresholds", "validate"):
        assert main([subcommand, "--config", str(config), "--out", str(out)]) == 0

    simulate = json.loads((out / "simulate.json").read_text())
    assert list(simulate) == ["centralized", "distributed"]
    assert all(list(agg) == AGGREGATE_KEYS for agg in simulate.values())

    scaling = json.loads((out / "scaling.json").read_text())
    assert list(scaling) == ["n_values", "centralized", "distributed", "predicted",
                             "gap_mean", "gap_stderr", "fit"]
    assert all(list(agg) == AGGREGATE_KEYS
               for agg in scaling["centralized"] + scaling["distributed"])
    assert list(scaling["fit"]) == ["a", "b", "r_squared"]

    thresholds = json.loads((out / "thresholds.json").read_text())
    assert list(thresholds) == ["rows", "increasing_in_n", "increasing_in_rho",
                                "decreasing_in_k"]
    assert all(list(row) == ["N", "rho_db", "K", "lam"] for row in thresholds["rows"])

    validate = json.loads((out / "validate.json").read_text())
    assert list(validate) == ["passed", "checks"]
    assert all(list(check) == ["name", "passed", "statistic", "threshold"]
               for check in validate["checks"])


# -- the document's list syntax, against the entry-by-entry reader -----------

SCRIPTS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "०१२३४५६७८९")
BLANKS = st.sampled_from(["", " ", "\t", "  "])
MALFORMED = st.sampled_from(["x", "1..2", "1__0", "_1", "1_", "1e", "--1", "1 2", "0x10",
                             "nan_", "+-1", "١.٢.٣", "∞"])


@st.composite
def number_texts(draw, value, special=False):
    """``value`` written as a user might write it: in some float format, with a
    sign, in `_`-separated or non-ASCII digits, padded with spaces; if
    ``special``, perhaps as a signed, zero, NaN or infinite value instead."""
    if special and draw(st.booleans()):
        value = draw(st.sampled_from([0.0, -1.5, math.nan, math.inf, -math.inf]))
    text = draw(st.sampled_from([repr(value), f"{value:e}", f"{value:E}", f"{value:g}",
                                 f"{value:+}", f"{value:.3f}"]))
    if value.is_integer():
        text = draw(st.sampled_from([text, f"{int(value):_}", "_".join(str(int(value)))]))
    text = text.translate(str.maketrans(SCRIPTS[0], draw(st.sampled_from(SCRIPTS))))
    return draw(BLANKS) + text + draw(BLANKS)


@st.composite
def list_texts(draw, values, flaw=""):
    """``values`` as one comma list, with the ``flaw`` (a blank entry, a
    trailing comma, a malformed or a special entry) perhaps put in."""
    entries = [draw(number_texts(value, flaw == "special")) for value in values]
    if flaw == "blank" and draw(st.booleans()):
        entries.insert(draw(st.integers(0, len(entries))), draw(BLANKS))
    if flaw == "malformed" and entries and draw(st.booleans()):
        entries[draw(st.integers(0, len(entries) - 1))] = draw(MALFORMED)
    return ",".join(entries) + (draw(st.sampled_from(["", ",", ", "])) if flaw == "blank" else "")


@st.composite
def list_documents(draw):
    """A config document whose K, eta, gamma and sweep lists are written in
    every way the syntax allows, each with at most one kind of flaw: blank
    entries and rows, malformed or special entries, or a ragged gamma row."""
    flaw = draw(st.sampled_from(["", "", "", "blank", "malformed", "special", "ragged"]))
    n = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=min(n, 3)))
    positive = st.floats(0.01, 1000.0) | st.integers(1, 2000).map(float)
    eta = draw(st.lists(positive, min_size=1, max_size=1) | st.just(draw(
        st.lists(positive, min_size=n, max_size=n))))
    width = draw(st.sampled_from([max(counts), max(counts), 1]))
    rows = [draw(st.lists(positive, min_size=width, max_size=width)) for _ in range(n)]
    if len(rows) == 1 and draw(st.booleans()):   # one value for every user
        rows = [rows[0][:1]]
    if flaw == "ragged":
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row.append(1.0) if draw(st.booleans()) or not row else row.pop()
    gamma = [draw(list_texts(row, flaw)) for row in rows]
    if flaw == "blank" and draw(st.booleans()):   # a blank row
        gamma.insert(draw(st.integers(0, len(gamma))), draw(BLANKS))
    lines = [f"N = {n}", f"M = {len(counts)}", "snr_db = 10",
             "K = " + draw(list_texts([float(k) for k in counts], flaw)),
             "eta = " + draw(list_texts(eta, flaw)),
             "gamma = " + ";".join(gamma) + (";" if flaw == "blank" and draw(st.booleans())
                                             else ""),
             "n_values = " + draw(list_texts(draw(st.lists(positive, max_size=3)), flaw))]
    return "\n".join(lines) + "\n"


def _read(text):
    """``cli._parse(text)`` with the NaN-safe repr of its settings, or its ConfigError's text."""
    try:
        cfg, settings = cli._parse(text)
    except ConfigError as exc:
        return str(exc)
    return cfg, repr(settings)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(list_documents())
@example("N=2\nM=1\nK=2\nsnr_db=10\ngamma=1,2,3;4\n")   # ragged, but 4 values fill 2 x 2
@example("N=2\nM=1\nK=1\nsnr_db=10\neta = 1, ,2,\ngamma = 1;2;\n")
@example("N=2\nM=1\nK=2\nsnr_db=10\ngamma = 1,2;3,\n")
@example("N=1\nM=1\nK=0\nsnr_db=10\ngamma = ,\n")
@example("N=1\nM=1\nK=1\nsnr_db=10\ngamma = \n")
@example("N=2\nM=1\nK=2\nsnr_db=10\ngamma = 1_0,٢;+1e0, 3 \nn_values = 1_0, 2e1\n")
def test_list_syntax_reads_as_entry_by_entry(doc):
    # The one-pass readers accept the documents the entry-by-entry reader
    # accepts, with equal values, and reject the rest with its message.
    with mock.patch.dict(cli._DOCUMENT, {key: (name, oracles.list_reference)
                                         for key, (name, parse) in cli._DOCUMENT.items()
                                         if parse is cli._list}), \
            mock.patch.dict(cli._DOCUMENT, gamma=("gamma", oracles.rows_reference)):
        reference = _read(doc)
    assert _read(doc) == reference


@st.composite
def rendered_configs(draw):
    """Heterogeneous configs with unequal K per band, K = 0 and one gamma value among them."""
    n = draw(st.integers(1, 8))
    counts = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=min(n, 4))))
    positive = st.floats(2.0 ** -20, 2.0 ** 20)
    gamma = draw(positive | st.lists(st.lists(positive, min_size=max(counts),
                                              max_size=max(counts)), min_size=n, max_size=n))
    return NetworkConfig(num_secondary=n, num_bands=len(counts), primary_count=counts,
                         power_secondary=10.0, power_primary=10.0, noise_power=1.0,
                         eta=draw(st.lists(positive, min_size=n, max_size=n)), gamma=gamma)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rendered_configs())
def test_render_config_writes_gamma_row_by_row(cfg):
    lines = render_config(cfg).splitlines()
    gamma = [line for line in lines if line.startswith("gamma = ")]
    assert gamma == ([f"gamma = {oracles.gamma_text_reference(cfg.gamma)}"]
                     if cfg.k_max() else [])
    assert parse_config(render_config(cfg)) == cfg
