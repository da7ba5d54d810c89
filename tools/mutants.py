"""Mutation gate: each named fault must make the tier-1 tests fail.

Run from anywhere: ``python tools/mutants.py``.  The script first runs the
tier-1 tests on an unchanged copy of the repository (the control), then
applies each mutant below, one at a time, to a fresh copy in a temporary
directory and runs the tier-1 command plus ``-x -p no:cacheprovider``
there, on tier-1's test files named in order: by name, with
``test_acceptance.py``, which takes most of tier-1's time, last.  With
``-x`` a mutant that an earlier file kills never pays for it; a mutant is
still killed exactly when some tier-1 test fails.  The working tree is
never edited.

A mutant is a file, an old string that must occur in it exactly once and
the new string that replaces it.  A mutant is killed when a test fails on
it (``_verdict``); a run that cannot collect a test file, or that ends in
any other way, is an error, not a kill.  The script prints one JSON
report: for each mutant, killed, survived or error, the node id of the
first failing test (or what went wrong) and the seconds its run took.  It
exits non-zero if the control fails or if a mutant is not killed.  Before
any run it checks every mutant's old string: if one no longer occurs
exactly once (a refactor that moves the code must move the mutant with
it), it prints every such mutant and exits non-zero without running.
It takes no arguments: given any, it prints a usage line and exits 2.
Stopped by SIGTERM, it kills the running pytest and removes its copy.
Add the mutants that a change's new tests kill; never remove or weaken
one to make the gate pass.
"""
from __future__ import annotations

import json
import os
import re
import shutil
import signal
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
#: Tier-1's test files, in the order every run takes them.
TEST_FILES = tuple(f"tests/{name}" for name in sorted(
    (path.name for path in (ROOT / "tests").glob("test_*.py")),
    key=lambda name: (name == "test_acceptance.py", name)))


class Mutant(NamedTuple):
    name: str
    path: str     # relative to the repository root
    old: str      # must occur exactly once in the file
    new: str


MUTANTS = (
    Mutant("threshold-at-1-1/(2N)", "src/cogdiv/analytics.py",
           "    big_n = (as_int(",
           "    big_n = 2 * (as_int("),
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
    Mutant("exp1-cdf-by-subtraction", "src/cogdiv/harness.py",
           "lambda c: -np.expm1(-c)",
           "lambda c: 1.0 - np.exp(-c)"),
    Mutant("q2-without-linear-term", "src/cogdiv/harness.py",
           "    return math.exp(-h) * (1.0 + h)",
           "    return math.exp(-h)"),
    Mutant("chisquare-statistic-not-halved", "src/cogdiv/harness.py",
           "h = float(np.sum((f - expected) ** 2 / expected)) / 2.0",
           "h = float(np.sum((f - expected) ** 2 / expected))"),
    Mutant("pass-shares-thread-buffer", "src/cogdiv/channel.py",
           'vars(_THREAD).pop("rows", ',
           'vars(_THREAD).get("rows", '),
    Mutant("buffer-kept-past-bound", "src/cogdiv/channel.py",
           "buf if buf.nbytes <= 2 * BLOCK_BYTES else np.empty(0)",
           "buf"),
    Mutant("validate-failure-exits-0", "src/cogdiv/cli.py",
           "                    return 1\n",
           "                    return 0\n"),
    Mutant("io-error-exits-0", "src/cogdiv/cli.py",
           'print(f"i/o error: {exc}", file=sys.stderr)\n        return 2',
           'print(f"i/o error: {exc}", file=sys.stderr)\n        return 0'),
    Mutant("monotonicity-warning-dropped", "src/cogdiv/cli.py",
           'print("warning: threshold monotonicity violated", file=sys.stderr)',
           "pass"),
    Mutant("pool-stops-with-the-table", "src/cogdiv/harness.py",
           "        if not len(g_sq):\n            continue\n",
           "        if not len(g_sq):\n            break\n"),
    Mutant("one-threshold-for-every-user", "src/cogdiv/config.py",
           "return bool((self.eta == self.eta[0]).all() and (self.gamma == self.gamma[:1]).all())",
           "return True"),
    Mutant("one-law-inherited-from-any-template", "src/cogdiv/config.py",
           "        if self.one_law:\n",
           "        if True:\n"),
    Mutant("weights-inherited-from-weighted-template", "src/cogdiv/config.py",
           "        if self.interference_weights is None:\n"
           "            config.__dict__[\"interference_weights\"] = None\n",
           "        config.__dict__[\"interference_weights\"] = self.interference_weights\n"),
    Mutant("one-law-band-0-count", "src/cogdiv/analytics.py",
           "tuple(coeff[:k_m])",
           "tuple(coeff[:cfg.primary_count[0]])"),
    Mutant("one-law-slope-without-eta", "src/cogdiv/analytics.py",
           "slope = 1.0 / (cfg.snr() * eta_0)",
           "slope = 1.0 / cfg.snr()"),
    Mutant("one-law-coeff-without-eta", "src/cogdiv/analytics.py",
           "gamma[0] / eta_0",
           "gamma[0]"),
    Mutant("bounds-with-swapped-extremes", "src/cogdiv/config.py",
           "pick = np.min if upper else np.max",
           "pick = np.max if upper else np.min"),
    Mutant("interference-term-dropped", "src/cogdiv/channel.py",
           "for j in range(2, k):",
           "for j in range(3, k):"),
    Mutant("one-step-newton", "src/cogdiv/analytics.py",
           "        x = np.where(active, step, x)",
           "        return np.where(active, step, x)"),
    Mutant("pass-row-offset-frozen", "src/cogdiv/channel.py",
           "                    row += size\n",
           ""),
    Mutant("timers-reversed", "src/cogdiv/distributed.py",
           "timers(drawn, per_trial[drawn])",
           "timers(drawn, per_trial[drawn])[::-1]"),
    Mutant("thread-state-shared", "src/cogdiv/channel.py",
           "_THREAD = threading.local()",
           "_THREAD = type('_Shared', (), {})()"),
    Mutant("layout-check-skipped", "src/cogdiv/channel.py",
           "    if sorted(layout) != [0, 1, 2, 3] or (head.has_uint32, head.uinteger) != (1, 5):",
           "    if False:"),
    Mutant("first-feasible-matching", "src/cogdiv/centralized.py",
           "totals.argmax(axis=1)",
           "np.isfinite(totals).argmax(axis=1)"),
    Mutant("event-d-favorites-reversed", "src/cogdiv/centralized.py",
           "    users = fav.copy()",
           "    users = fav[..., ::-1].copy()"),
    Mutant("ks-sorts-a-copy", "src/cogdiv/harness.py",
           "    x.sort()",
           "    x = np.sort(x)"),
    Mutant("order-precheck-slack-wide", "src/cogdiv/harness.py",
           "    if np.all(s_lower <= sinr + ORDER_FLOOR) and np.all(sinr <= s_upper + ORDER_FLOOR):",
           "    if np.all(s_lower <= sinr + 1e-6) and np.all(sinr <= s_upper + 1e-6):"),
    Mutant("loose-trials-unsorted", "src/cogdiv/harness.py",
           "    for a in (s_lower, sinr, s_upper):\n        a.sort(axis=-1)\n",
           ""),
    Mutant("fit-intercept-sign", "src/cogdiv/harness.py",
           "    b = my - a * mx",
           "    b = my + a * mx"),
    Mutant("dominance-last-block-dropped", "src/cogdiv/harness.py",
           "    for start in range(0, users.size, width):",
           "    for start in range(0, users.size - users.size % width, width):"),
    Mutant("one-law-scan-on-every-config", "src/cogdiv/harness.py",
           "np.arange(1 if cfg.one_law else cfg.num_secondary)",
           "np.arange(1)"),
    Mutant("law-memo-keyed-on-seed", "src/cogdiv/harness.py",
           'for f in dataclasses.fields(cfg) if f.name != "seed"]',
           "for f in dataclasses.fields(cfg)]"),
    Mutant("law-memo-ignores-gamma", "src/cogdiv/harness.py",
           'for f in dataclasses.fields(cfg) if f.name != "seed"]',
           'for f in dataclasses.fields(cfg) if f.name not in ("seed", "gamma")]'),
    Mutant("law-memo-ignores-primary-count", "src/cogdiv/harness.py",
           'for f in dataclasses.fields(cfg) if f.name != "seed"]',
           'for f in dataclasses.fields(cfg) if f.name not in ("seed", "primary_count")]'),
    Mutant("law-memo-without-key", "src/cogdiv/harness.py",
           "    if last and all(np.array_equal(a, b) for a, b in zip(last[0], key)):",
           "    if last:"),
    Mutant("nan-counts-as-ordered", "src/cogdiv/harness.py",
           "np.any(~(lower <= mid + tol), axis=(-2, -1)))\n"
           "               + np.count_nonzero(np.any(~(mid <= upper + tol), axis=(-2, -1)))",
           "np.any(lower > mid + tol, axis=(-2, -1)))\n"
           "               + np.count_nonzero(np.any(mid > upper + tol, axis=(-2, -1)))"),
    Mutant("claims-without-point-offset", "src/cogdiv/harness.py",
           "offsets[point] + user",
           "offsets[0] + user"),
    Mutant("idle-to-first-span", "src/cogdiv/harness.py",
           "tally.idle[first:last + 1] += np.add.reduceat(~busy, heads, axis=0, dtype=np.intp)",
           "tally.idle[first] += np.count_nonzero(~busy, axis=0)"),
    Mutant("stderr-without-bessel", "src/cogdiv/harness.py",
           "squares.sum(axis=1) / max(n - 1, 1)",
           "squares.sum(axis=1) / n"),
    Mutant("scipy-stats-at-import", "src/cogdiv/analytics.py",
           "import numpy as np\n",
           "import numpy as np\nfrom scipy.stats import binom\n"),
    Mutant("numpy-polynomial-at-import", "src/cogdiv/analytics.py",
           "import numpy as np\n",
           "import numpy as np\nfrom numpy.polynomial import legendre\n"),
    Mutant("scipy-optimize-at-import", "src/cogdiv/centralized.py",
           "import numpy as np\n",
           "import numpy as np\nfrom scipy.optimize import linear_sum_assignment\n"),
    Mutant("decimal-at-import", "src/cogdiv/harness.py",
           "import numpy as np\n",
           "import numpy as np\nfrom decimal import Decimal\n"),
    Mutant("threshold-counts-by-np-unique", "src/cogdiv/analytics.py",
           "for k_m in set(cfg.primary_count):",
           "for k_m in np.unique(cfg.primary_count):"),
    Mutant("unsupported-numpy-uncaught", "src/cogdiv/cli.py",
           "    except UnsupportedNumpyError as exc:\n"
           "        print(f\"unsupported numpy: {exc}\", file=sys.stderr)\n"
           "        return 2\n",
           ""),
    Mutant("write-probe-by-name", "src/cogdiv/cli.py",
           "tempfile.TemporaryFile(dir=out_dir).close()",
           "(out_dir / \".write-probe\").touch(); (out_dir / \".write-probe\").unlink()"),
    Mutant("prefetch-into-held-buffer", "src/cogdiv/channel.py",
           "rows[(j + 1) % 2][:len(images)]",
           "rows[j % 2][:len(images)]"),
    Mutant("worker-outlives-pass", "src/cogdiv/channel.py",
           "                worker.shutdown()   # waits for the row it is filling\n",
           "                pass\n"),
    Mutant("worker-kept-across-passes", "src/cogdiv/channel.py",
           "def _filler():\n",
           "@functools.cache\ndef _filler():\n"),
    Mutant("prefetch-on-one-cpu", "src/cogdiv/channel.py",
           "\n                              and _cpus() > 1) else 1",
           ") else 1"),
    Mutant("no-inline-fallback", "src/cogdiv/channel.py",
           "                        _fill_from(todo, todo.pop)\n"
           "                        if future is not None and not future.cancel():\n",
           "                        if future is not None:\n"),
    Mutant("late-fill-given-to-a-shut-worker", "src/cogdiv/channel.py",
           "    except RuntimeError:   # the interpreter is exiting, and the worker with it\n",
           "    except ZeroDivisionError:\n"),
    Mutant("executor-at-import", "src/cogdiv/channel.py",
           "import os\n",
           "import os\nfrom concurrent.futures import ThreadPoolExecutor\n"),
    Mutant("worker-not-pinned", "src/cogdiv/channel.py",
           ",\n                              initializer=_pin, initargs=(mask - {_cpu()},))",
           ")"),
    Mutant("worker-on-every-cpu", "src/cogdiv/channel.py",
           "initargs=(mask - {_cpu()},)",
           "initargs=(mask,)"),
    Mutant("worker-off-the-lowest-cpu", "src/cogdiv/channel.py",
           "initargs=(mask - {_cpu()},)",
           "initargs=(mask - {min(mask)},)"),
    Mutant("pin-refusal-raises", "src/cogdiv/channel.py",
           "contextlib.suppress(AttributeError, OSError)",
           "contextlib.suppress(AttributeError)"),
    Mutant("caller-pinned", "src/cogdiv/channel.py",
           '    return ThreadPoolExecutor(1, thread_name_prefix="cogdiv-fill",\n'
           "                              initializer=_pin, initargs=(mask - {_cpu()},))\n",
           "    _pin(mask - {_cpu()})\n"
           '    return ThreadPoolExecutor(1, thread_name_prefix="cogdiv-fill")\n'),
    Mutant("ragged-gamma-read-as-one-array", "src/cogdiv/cli.py",
           '    if len({row.count(",") for row in rows}) == 1:\n',
           "    if True:\n"),
    Mutant("blank-entries-not-skipped", "src/cogdiv/cli.py",
           "filter(str.strip, text.split(\",\"))", "filter(None, text.split(\",\"))"),
    Mutant("blank-gamma-entries-not-skipped", "src/cogdiv/cli.py",
           "        with contextlib.suppress(ValueError):   # a blank or malformed entry: row by row\n",
           "        if True:\n"),
    Mutant("worker-os-name-unset", "src/cogdiv/channel.py",
           '        comm.write("cogdiv-fill")\n',
           "        pass\n"),
    Mutant("every-other-threshold-1pct-low", "src/cogdiv/harness.py",
           "distributed.claimants(sinr, lams[point])",
           "distributed.claimants(sinr, lams[point] * np.resize([1.0, 0.99], sinr.shape[-1]))"),
)


def _verdict(code: int | None, stdout: str) -> tuple[str, str]:
    """A tier-1 run's status and detail, from pytest's exit code (None if
    the run timed out) and its output.

    ``killed``, with the node id of the first failing test, when pytest
    exits 1 naming a test; ``survived`` when it exits 0; else ``error``:
    a test file that failed to collect (with its path, even if a test
    failed too), a timeout, or any other exit.
    """
    # A summary line is "FAILED <node id>" or "ERROR <node id or file>",
    # then " - <message>" if it fits; a parametrized id can hold spaces.
    # A test's node id holds "::", a file's path does not.
    named = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", stdout, re.MULTILINE)
    files = [name for name in named if "::" not in name]
    if files:
        return "error", f"collection error in {files[0]}"
    if code is None:
        return "error", f"timed out after {TIMEOUT_S} s"
    if code == 0:
        return "survived", ""
    if code == 1 and named:
        return "killed", named[0]
    return "error", f"pytest exited {code}"


def _run_tier1(tree: Path) -> tuple[str, str, float]:
    """``_verdict`` of the tier-1 command run in ``tree``, and its seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *TIER1, *TEST_FILES], cwd=tree, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
        code, stdout = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, stdout = None, ""
    return (*_verdict(code, stdout), time.perf_counter() - start)


def _mutated_copy(scratch: Path, mutant: Mutant | None) -> Path:
    tree = scratch / "tree"
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(ROOT, tree, ignore=SKIPPED)
    if mutant is not None:
        target = tree / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
    return tree


def _stale(mutants, root: Path) -> list[dict]:
    """Each of ``mutants`` whose old string does not occur exactly once in
    its file under ``root``, with how many times it does."""
    counts = ((mutant, (root / mutant.path).read_text().count(mutant.old)) for mutant in mutants)
    return [{"name": mutant.name, "detail": f"old string occurs {matches} times in {mutant.path}"}
            for mutant, matches in counts if matches != 1]


def _stop(signum, frame):
    """Leave by an exception, so that ``subprocess.run`` kills its pytest
    child and ``TemporaryDirectory`` removes the copy."""
    raise SystemExit(128 + signum)


def main(argv=()) -> int:
    if argv:
        print(f"usage: python tools/mutants.py (takes no arguments, got {' '.join(argv)})",
              file=sys.stderr)
        return 2
    stale = _stale(MUTANTS, ROOT)
    if stale:   # no run, since a stale mutant fails the gate whatever the tests do
        print(json.dumps({"stale": stale, "total": len(MUTANTS)}, indent=2))
        return 1
    results, stopped = [], signal.signal(signal.SIGTERM, _stop)
    try:
        with tempfile.TemporaryDirectory(prefix="cogdiv-mutants-") as tmp:
            scratch = Path(tmp)
            status, detail, seconds = _run_tier1(_mutated_copy(scratch, None))
            control = {"passed": status == "survived",   # every test passed
                       "failed_test": detail,
                       "seconds": round(seconds, 1)}
            # A kill means nothing unless the unchanged tree passes.
            for mutant in MUTANTS if control["passed"] else ():
                status, detail, seconds = _run_tier1(_mutated_copy(scratch, mutant))
                results.append({"name": mutant.name, "status": status, "seconds": round(seconds, 1),
                                "killed_by" if status == "killed" else "detail": detail})
    finally:
        signal.signal(signal.SIGTERM, stopped)
    killed = sum(r["status"] == "killed" for r in results)
    print(json.dumps({"control": control, "mutants": results, "killed": killed,
                      "total": len(MUTANTS)}, indent=2))
    return 0 if control["passed"] and killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
