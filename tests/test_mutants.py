"""The mutation gate's verdict on canned pytest runs and canned mutants (``tools/mutants.py``)."""
import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parents[1] / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

SUMMARY = "=========================== short test summary info ============================\n"


@pytest.mark.parametrize("code, stdout, verdict", [
    (1, SUMMARY + "FAILED tests/x.py::t - msg\n1 failed, 3 passed in 1.00s\n",
     ("killed", "tests/x.py::t")),
    (1, SUMMARY + "FAILED tests/x.py::t[a b] - AssertionError: assert 'a b' == 1\n"
                  "ERROR tests/y.py::u - RuntimeError: x\n1 failed, 1 error in 0.22s\n",
     ("killed", "tests/x.py::t[a b]")),
    (1, SUMMARY + "ERROR tests/y.py::u - RuntimeError: x\n1 error in 0.27s\n",
     ("killed", "tests/y.py::u")),
    (1, SUMMARY + "ERROR tests/test_properties.py\n400 passed, 1 error in 30.00s\n",
     ("error", "collection error in tests/test_properties.py")),
    (1, SUMMARY + "FAILED tests/x.py::t - msg\nERROR tests/test_properties.py - NameError: n\n"
                  "1 failed, 1 error in 3.00s\n",
     ("error", "collection error in tests/test_properties.py")),
    (0, "480 passed in 49.00s\n", ("survived", "")),
    (2, "!!!!!!!!!!!!!!!!!!! KeyboardInterrupt !!!!!!!!!!!!!!!!!!!\n",
     ("error", "pytest exited 2")),
    (1, "", ("error", "pytest exited 1")),
    (None, "", ("error", f"timed out after {mutants.TIMEOUT_S} s")),
], ids=["failed", "failed-with-spaces", "setup-error", "collection-error",
        "collection-error-beside-a-failure", "passed", "interrupted", "no-summary", "timeout"])
def test_only_a_failing_test_kills_a_mutant(code, stdout, verdict):
    assert mutants._verdict(code, stdout) == verdict


def test_stale_mutants_stop_the_gate_before_any_run(tmp_path, monkeypatch, capsys):
    (tmp_path / "a.py").write_text("x = 1\nx = 1\ny = 2\n")
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    monkeypatch.setattr(mutants, "MUTANTS", (
        mutants.Mutant("once", "a.py", "y = 2", "y = 3"),
        mutants.Mutant("twice", "a.py", "x = 1", "x = 2"),
        mutants.Mutant("gone", "a.py", "z = 3", "z = 4")))
    monkeypatch.setattr(mutants, "_mutated_copy",
                        lambda scratch, mutant: pytest.fail("a tier-1 run started"))
    assert mutants.main() == 1
    assert json.loads(capsys.readouterr().out) == {"stale": [
        {"name": "twice", "detail": "old string occurs 2 times in a.py"},
        {"name": "gone", "detail": "old string occurs 0 times in a.py"},
    ], "total": 3}
