import json

import numpy as np
import pytest

from cogdiv import ConfigError
from cogdiv.cli import main, parse_config, render_config

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
                "N=3\nM=2\nK=1,2\nsnr_db=7.5\neta=1,2,0.5\ngamma=1,2;0.5,1;2,4\nseed=9\n"):
        cfg = parse_config(doc)
        assert parse_config(render_config(cfg)) == cfg


def test_simulate_end_to_end(tmp_path):
    config = tmp_path / "net.cfg"
    config.write_text(SMALL_DOC)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "simulate.csv").read_text().strip().splitlines()
    assert lines[0] == "scheme,N,M,trials,mean_sum_rate,stderr,mean_info_bits,event_d_freq"
    assert len(lines) == 3
    doc = json.loads((out / "simulate.json").read_text())
    assert set(doc) == {"centralized", "distributed"}


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


def test_validate_subcommand(tmp_path, capsys):
    config = tmp_path / "net.cfg"
    config.write_text(SMALL_DOC + "samples = 20000\n")
    out = tmp_path / "out"
    assert main(["validate", "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads((out / "validate.json").read_text())
    assert doc["passed"] is True
    printed = capsys.readouterr().out
    assert "exact_cdf_ks" in printed


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
])
def test_bad_input_is_a_config_error(tmp_path, capsys, subcommand, extra_line, flags):
    # A later line overrides the same key in SMALL_DOC.
    config = tmp_path / "bad.cfg"
    config.write_text(SMALL_DOC + extra_line + "\n")
    argv = [subcommand, "--config", str(config), "--out", str(tmp_path / "out"), *flags]
    assert main(argv) == 2
    assert "configuration error" in capsys.readouterr().err


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
    monkeypatch.setattr(harness, "draw_realization", no_draw)
    config = tmp_path / "net.cfg"
    config.write_text(doc)
    assert main([subcommand, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err


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
