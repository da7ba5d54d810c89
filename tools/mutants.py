"""Mutation gate: each named fault must make the tier-1 tests fail.

Run from anywhere: ``python tools/mutants.py``.  The script first runs the
tier-1 tests on an unchanged copy of the repository (the control), then
applies each mutant below, one at a time, to a fresh copy in a temporary
directory and runs the tier-1 command plus ``-x -p no:cacheprovider``
there.  The working tree is never edited.

A mutant is a file, an old string that must occur in it exactly once and
the new string that replaces it.  A mutant is killed when the tests fail
on it.  The script prints one JSON report: for each mutant, killed or
survived, the first failing test and the seconds its run took.  It exits
non-zero if the control fails, if a mutant survives, or if a mutant's
old string no longer occurs exactly once (a refactor that moves the code
must move the mutant with it).  Add the mutants that a change's new tests
kill; never remove or weaken one to make the gate pass.
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-x", "-p", "no:cacheprovider")
#: Not copied: version control, caches and build outputs.
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".benchmarks", "build", "*.egg-info")
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str     # relative to the repository root
    old: str      # must occur exactly once in the file
    new: str


MUTANTS = (
    Mutant("threshold-at-1-1/(2N)", "src/cogdiv/analytics.py",
           "big_n = as_population(cfg.num_secondary if big_n is None else big_n, 2)",
           "big_n = 2 * as_population(cfg.num_secondary if big_n is None else big_n, 2)"),
    Mutant("sinr-without-noise", "src/cogdiv/channel.py",
           "denominator += cfg.noise_power",
           "denominator += 0.0"),
    Mutant("no-matching-off-event-d", "src/cogdiv/centralized.py",
           "    if not rest.size:\n        return users",
           "    if True:\n        return users"),
    Mutant("last-earliest-timer-wins", "src/cogdiv/distributed.py",
           "order[earliest[np.searchsorted(earliest, heads)]]",
           "order[earliest[np.searchsorted(earliest, heads + sizes) - 1]]"),
    Mutant("csv-rounds-floats", "src/cogdiv/harness.py",
           '",".join(map(str, row))',
           '",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row)'),
    Mutant("none-read-as-nan", "src/cogdiv/config.py",
           "        if values is None:   # np.array(None, dtype=float) is NaN\n"
           "            raise TypeError\n",
           ""),
    Mutant("fit-without-length-check", "src/cogdiv/harness.py",
           "    if not x.size or y.shape != x.shape:\n",
           "    if False:\n"),
    Mutant("db-power-unchecked", "src/cogdiv/config.py",
           "        power = math.inf\n    if not 0 < power < math.inf:\n",
           "        power = math.inf\n    if False:\n"),
    Mutant("library-names-in-cli-errors", "src/cogdiv/cli.py",
           "            message = message.replace(name, key)\n",
           "            pass\n"),
    Mutant("rows-blamed-on-scalars", "src/cogdiv/config.py",
           "sequence = shape != () and isinstance(values, (list, tuple))",
           "sequence = shape != ()"),
    Mutant("exp1-ks-without-libm-exp", "src/cogdiv/harness.py",
           "_ks_distance(x, _exp1_cdf, lambda near: _exp1_cdf(near, libm=True))",
           "_ks_distance(x, _exp1_cdf)"),
    Mutant("continued-fraction-above-1.1", "src/cogdiv/harness.py",
           "    if x > 1.1 and x >= 2.0:",
           "    if x > 1.1:"),
    Mutant("q2-prefactor-without-lanczos", "src/cogdiv/harness.py",
           "    if abs(2.0 - x) > 0.8:",
           "    if True:"),
    Mutant("pass-shares-thread-buffer", "src/cogdiv/channel.py",
           'vars(_THREAD).pop("rows", ',
           'vars(_THREAD).get("rows", '),
    Mutant("buffer-kept-past-bound", "src/cogdiv/channel.py",
           "            if buf.nbytes <= 2 * BLOCK_BYTES:\n",
           "            if True:\n"),
)


def _run_tier1(tree: Path) -> tuple[int, str, float]:
    """The tier-1 command's exit code, its first failing test (or '') and
    its seconds, run in ``tree``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s", time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode, failed.group(1) if failed else "", time.perf_counter() - start


def _mutated_copy(scratch: Path, mutant: Mutant | None) -> Path:
    tree = scratch / "tree"
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(ROOT, tree, ignore=SKIPPED)
    if mutant is not None:
        target = tree / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
    return tree


def main() -> int:
    results = []
    with tempfile.TemporaryDirectory(prefix="cogdiv-mutants-") as tmp:
        scratch = Path(tmp)
        code, failed, seconds = _run_tier1(_mutated_copy(scratch, None))
        control = {"passed": code == 0, "failed_test": failed, "seconds": round(seconds, 1)}
        # A kill means nothing unless the unchanged tree passes.
        for mutant in MUTANTS if control["passed"] else ():
            matches = (ROOT / mutant.path).read_text().count(mutant.old)
            if matches != 1:
                results.append({"name": mutant.name, "status": "stale",
                                "detail": f"old string occurs {matches} times in {mutant.path}"})
                continue
            code, failed, seconds = _run_tier1(_mutated_copy(scratch, mutant))
            # pytest exits 1 when a test fails; any other nonzero code is
            # an interrupted or broken run, not a kill.
            status = {0: "survived", 1: "killed"}.get(code, "error")
            results.append({"name": mutant.name, "status": status, "seconds": round(seconds, 1),
                            "killed_by" if status == "killed" else "detail": failed})
    killed = sum(r["status"] == "killed" for r in results)
    print(json.dumps({"control": control, "mutants": results, "killed": killed,
                      "total": len(MUTANTS)}, indent=2))
    return 0 if control["passed"] and killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
