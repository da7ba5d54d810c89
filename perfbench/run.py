"""cogdiv benchmark: time to solution and trial throughput on four workloads.

Run from the root of a checkout; the package is imported from ``src/``.

    python3 perfbench/run.py --workload NAME --seed S --trace 0|1
        One workload in this process.  ``--trace 0`` measures the
        end-to-end metrics; ``--trace 1`` times every layer on a traced
        replay and prints the per-layer metrics.
    python3 perfbench/run.py --workload all [--seed S]
        Every workload, untraced and traced, each in its own process,
        then the per-stage table; the last line is a JSON summary.
    python3 perfbench/run.py --smoke
        Every workload at a tiny size, as a fast self-test.

Each run prints its metrics by name with their units and, as its last
line, a JSON object with the keys correct, attempted, failed and metrics.
The metric names and units, and the run length in seconds, come from
BENCHMARK.json.
"""
from __future__ import annotations

import os

# One thread per workload process: BLAS and OpenMP pools are pinned to 1.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0

# On a shared 2-core x86-64 host the speed drifts by up to a third over
# tens of seconds, so raw wall times of identical runs differ more than any
# useful bound.  Every timed step is therefore followed by a fixed
# calibration kernel that does not touch cogdiv, and reported in reference
# seconds: wall time x CAL_REF_S / (mean of the kernel times just before
# and just after it).  CAL_REF_S is the kernel's median time on that host.
CAL_REF_S = 0.0043
CAL_SHARE = 0.1             # calibration time as a share of a job's time
SETUP_MIN_REPS = 3          # set-up is repeated and its median reported
SETUP_BUDGET_S = 0.5
SETUP_MAX_REPS = 100
TRACE_JOB_SHARE = 0.2       # share of the run length spent on untraced jobs in a traced run
PROBE_TRIALS = {"full": 100, "smoke": 3}
STAGE_TRIALS = {50: 2000, 1000: 500}


def import_package():
    """Import cogdiv from this checkout's sources, or exit with a message."""
    pkg = SRC / "cogdiv"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {pkg}; run from a cogdiv checkout")
    sys.path.insert(0, str(SRC))
    import cogdiv
    if Path(cogdiv.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported cogdiv from {cogdiv.__file__}, not from {pkg}")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_facts(cpu_model: bool = False) -> dict:
    import scipy
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": git_commit(),
    }
    if cpu_model:
        try:
            with open("/proc/cpuinfo") as fh:
                facts["cpu"] = next((l.split(":", 1)[1].strip() for l in fh
                                     if l.startswith("model name")), platform.processor())
        except OSError:
            facts["cpu"] = platform.processor() or "unknown"
    return facts


def result_line(spec_metrics, values, correct, attempted, failed) -> str:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------

def load_reference(size: str, name: str, seed: int):
    """Per-job values recorded at the seed commit, or None for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    data = json.loads((BENCH_DIR / "reference.json").read_text())
    return data[size].get(name)


def calibration_kernel():
    """Fixed work shaped like a trial (small draws, array maths, Python tuples)
    plus one medium array pass; independent of cogdiv."""
    acc = 0.0
    for t in range(40):
        rng = np.random.default_rng((12345, t))
        g = rng.exponential(size=(4, 50))
        h = rng.exponential(size=(4, 50, 4))
        r = np.log2(1.0 + g / (1.0 + np.sum(h * 0.5, axis=2)))
        fav = np.argmax(r, axis=1)
        acc += float(r[np.arange(4), fav].sum())
        acc += sum(len(tuple(int(u) for u in np.flatnonzero(fav == m))) for m in range(4))
    big = np.random.default_rng(1).exponential(size=20_000)
    acc += float(np.sort(np.log1p(big))[-1])
    return acc


class Clock:
    """Times steps and converts them to reference seconds.

    A calibration precedes the first step and follows every step, so each
    step is scaled by the machine speed measured on either side of it.
    (Wider windows were tried and followed the drift worse.)
    """

    def __init__(self, step_s: float):
        self.reps = max(1, round(CAL_SHARE * step_s / CAL_REF_S))
        self.cal = []
        self.walls = []
        self._calibrate()

    def _calibrate(self):
        t0 = time.perf_counter()
        for _ in range(self.reps):
            calibration_kernel()
        self.cal.append((time.perf_counter() - t0) / self.reps)

    def time(self, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.walls.append(time.perf_counter() - t0)
            self._calibrate()

    def reference(self) -> list[float]:
        """Reference seconds of every step timed so far."""
        return [wall * CAL_REF_S / (0.5 * (self.cal[i] + self.cal[i + 1]))
                for i, wall in enumerate(self.walls)]

    def speed(self) -> float:
        """Machine speed over the run relative to the reference (1 = reference)."""
        return CAL_REF_S / statistics.median(self.cal)


def run_jobs(wl, state, seed, count, reference, clock, keep=False):
    """Run jobs 0..count-1 on the clock.

    Returns failure notes, the number of jobs that returned, and (with
    keep) their seeds and outputs.
    """
    from workloads import compare_reference, job_problems, job_seed, job_values
    failures, outputs, completed = [], [], 0
    for j in range(count):
        s = job_seed(seed, j)
        try:
            out = clock.time(wl.job, state, s)
        except Exception as exc:     # a raising job is a failed job, not a crash
            failures.append(f"job {j}: raised {exc!r}")
            continue
        completed += 1
        problems = job_problems(wl, state, s, out)
        if reference is not None and j < len(reference):
            mismatch = compare_reference(job_values(wl, state, s, out), reference[j])
            if mismatch:
                problems.append(f"differs from the seed commit: {mismatch}")
        if problems:
            failures.append(f"job {j}: " + "; ".join(problems))
        if keep:
            outputs.append((s, out))
    return failures, completed, outputs


def measure(wl, seed, seconds, size):
    """Untraced run: set-up repeated, then a fixed number of jobs."""
    from tracing import tail
    from workloads import job_count
    setup = Clock(wl.nominal_setup_s)
    while True:
        state = setup.time(wl.setup, seed)
        if len(setup.walls) >= SETUP_MIN_REPS and (
                sum(setup.walls) >= SETUP_BUDGET_S or len(setup.walls) >= SETUP_MAX_REPS):
            break
    count = job_count(wl, seconds, size)
    clock = Clock(wl.nominal_job_s)
    failures, completed, _ = run_jobs(wl, state, seed, count,
                                      load_reference(size, wl.name, seed), clock)
    times = clock.reference()
    run_s = sum(times)
    tail_s, tail_label = tail(times)
    values = {
        "setup_s": statistics.median(setup.reference()),
        "run_s": run_s,
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"times are reference seconds; machine speed {clock.speed():.4g} x reference, "
             f"wall run_s {sum(clock.walls):.6g} s, wall job_s_p50 "
             f"{statistics.median(clock.walls):.6g} s, wall setup_s "
             f"{statistics.median(setup.walls):.6g} s",
             f"setup_s is the median of {len(setup.walls)} set-ups",
             f"job_s_tail is the {tail_label} jobs",
             f"error_rate = {len(failures)}/{count} = {len(failures) / count:.6g}"]
    if wl.trial_workload:
        trials = completed * wl.trials_per_job()
        notes.append(f"trials_per_s = {trials / run_s:.6g} 1/s "
                     f"({trials} scheme-trials in run_s)")
    return values, failures, count, notes


def traced_once(layers, fn):
    """Run fn under a tracer of the given layers; the tracer and the wall time."""
    from tracing import Tracer
    tracer = Tracer(layers=layers)
    t0 = time.perf_counter()
    with tracer.installed():
        fn()
    return tracer, time.perf_counter() - t0


def traced(wl, seed, seconds, size):
    """Traced run: per-layer metrics from a replay of untraced jobs."""
    from cogdiv import analytics
    from tracing import LAYERS, TRIAL_LAYERS, Tracer, replay_trials
    from workloads import job_seed

    state = wl.setup(seed)                       # warm-up, untraced
    if wl.trial_workload:
        build = lambda: wl.setup(seed)
    else:   # validate solves no thresholds; count and time the table its config needs
        build = lambda: analytics.build_threshold_table(wl.setup(seed))
    # Twice under every layer for the solver counters, which must repeat,
    # then once without the solver layers for the set-up timings.
    counted = [traced_once(tuple(LAYERS), build)[0] for _ in range(2)]
    setup, _ = traced_once(TRIAL_LAYERS, build)
    failures = []
    solver_counts = [(t.n_calls("analytics.solve"), t.calls_under("analytics.cdf", "analytics.solve"))
                     for t in counted]
    if solver_counts[0] != solver_counts[1]:
        failures.append(f"solver counters differ between identical set-ups: {solver_counts}")

    count = 1 if size == "smoke" else max(1, round(TRACE_JOB_SHARE * seconds / wl.nominal_job_s))
    wl.job(state, job_seed(seed, 0))             # warm-up, so both timings below are warm
    clock = Clock(wl.nominal_job_s)
    job_failures, _, outputs = run_jobs(
        wl, state, seed, count, load_reference(size, wl.name, seed), clock, keep=True)
    failures += job_failures

    layers = TRIAL_LAYERS if wl.trial_workload else (*TRIAL_LAYERS, "analytics.cdf")
    # Job 0 untraced and traced, back to back and twice: the tracer's cost,
    # the harness's own time (the traced job's wall time less the layers'
    # self time and the wrappers' own time) and the draws per realization.
    pair_clock, paired = Clock(wl.nominal_job_s), []
    for _ in range(2):
        pair_clock.time(wl.job, state, job_seed(seed, 0))
        paired.append(pair_clock.time(traced_once, layers, lambda: wl.job(state, job_seed(seed, 0))))
    pair_ref = pair_clock.reference()
    trace_overhead = sum(pair_ref[1::2]) / sum(pair_ref[0::2])
    per_job = wl.trials_per_job() if wl.trial_workload else 1
    overhead_us = statistics.median(
        (wall - sum(t.self_time.values()) - t.bookkeeping_s) / per_job * 1e6 for t, wall in paired)
    draws = [t.n_calls("channel.draw") / max(1, len(t.realizations)) for t, _ in paired]
    if draws[0] != draws[1]:
        failures.append(f"draws per realization differ between identical jobs: {draws}")
    if overhead_us < 0:
        failures.append(f"harness.overhead_us is negative ({overhead_us:.6g}): "
                        "the layers' traced time exceeds the job's")

    main = Tracer(layers=layers)
    traced_clock = Clock(wl.nominal_job_s)
    if wl.trial_workload:
        jobs = [[(cfg, scheme, agg) for cfg, aggs in wl.runs(state, s, out)
                 for scheme, agg in aggs.items()] for s, out in outputs]
        replays = []
        with main.installed():
            for job in jobs:
                replays += traced_clock.time(
                    lambda job=job: [replay_trials(cfg, scheme, agg.trials) for cfg, scheme, agg in job])
        plan = [step for job in jobs for step in job]
        units = sum(agg.trials for _, _, agg in plan)
        for (cfg, scheme, agg), (rates, _) in zip(plan, replays):
            if not np.array_equal(rates, agg.trial_sum_rates):
                failures.append(f"replay of {scheme} N={cfg.num_secondary} M={cfg.num_bands} "
                                "differs from run_trials")
        expected_d = sum(round(agg.event_d_frequency * agg.trials) for _, _, agg in plan)
        expected_idle = sum(round(float(np.sum(agg.idle_band_frequency)) * agg.trials)
                            for _, scheme, agg in plan if scheme == "distributed")
        if main.counts["event_d_true"] != expected_d:
            failures.append(f"replay saw event D {main.counts['event_d_true']} times, "
                            f"run_trials {expected_d}")
        if main.counts["idle_bands"] != expected_idle:
            failures.append(f"replay saw {main.counts['idle_bands']} idle bands, "
                            f"run_trials {expected_idle}")
        probe_cfg = plan[0][0]
    else:
        with main.installed():
            reports = [traced_clock.time(wl.job, state, s) for s, _ in outputs]
        units = len(outputs)
        for (s, out), report in zip(outputs, reports):
            if report.to_json_dict() != out.to_json_dict():
                failures.append(f"traced validate (seed {s}) differs from the untraced one")
        probe_cfg = dataclasses.replace(state, seed=outputs[0][0])

    # A scheme whose layers this workload never calls is timed on a short
    # probe of its own config, so that every per-layer figure is a measurement.
    sources = [(main, sum(traced_clock.walls))]
    probed = [scheme for scheme, layer in (("centralized", "centralized.match"),
                                           ("distributed", "distributed.allocate"))
              if not main.n_calls(layer)]
    for scheme in probed:
        sources.append(traced_once(TRIAL_LAYERS, lambda: replay_trials(
            probe_cfg, scheme, PROBE_TRIALS[size])))

    values = layer_metrics(sources, counted[0], setup)
    values.update({"harness.draws_per_realization": draws[0],
                   "harness.overhead_us": overhead_us,
                   "harness.trace_overhead": trace_overhead})
    unit_name = "trial" if wl.trial_workload else "validate call"
    notes = [f"replayed {len(outputs)} jobs ({units} {unit_name}s); untraced {sum(clock.walls):.6g} s, "
             f"traced {sources[0][1]:.6g} s",
             f"harness.overhead_us is per {unit_name}; harness.trace_overhead is traced "
             "over untraced time of one job, in reference seconds",
             "channel.bytes_computed_per_trial is computed from the sizes of the returned arrays",
             "analytics.cdf_s is " + ("the cdf time inside validate" if not wl.trial_workload
                                      else "the cdf time inside the set-up's threshold solves")]
    if not wl.trial_workload:
        notes.append("the analytics.* solver figures time the threshold table of the validated config")
    if probed:
        notes.append(f"layers this workload does not call were timed on a {PROBE_TRIALS[size]}-trial "
                     f"probe of its config per scheme ({', '.join(probed)}); their share is "
                     "of the probe's time")
    return values, failures, count, notes


def layer_metrics(sources, counted, setup):
    """Per-layer figures.

    `sources` are (tracer, wall seconds) pairs: the main replay first, then
    the probes; each layer is read from the first source that calls it.
    `counted` traced a set-up under every layer, `setup` one without the
    solver layers.
    """
    def src(layer):
        return next((t for t in sources if t[0].n_calls(layer)), sources[0])

    def share(*layers):
        tracer, wall = src(layers[-1])
        return tracer.self_sum(*layers) / (wall - tracer.bookkeeping_s)

    def bytes_per_call(tracer, layer):
        return tracer.bytes[layer] / max(1, tracer.n_calls(layer))

    solves = counted.n_calls("analytics.solve")
    draw, sinr, fav, match, alloc, event_d, cdf = (src(layer)[0] for layer in (
        "channel.draw", "channel.sinr", "centralized.favorites", "centralized.match",
        "distributed.allocate", "centralized.event_d", "analytics.cdf"))
    if not cdf.n_calls("analytics.cdf"):
        cdf = counted
    return {
        "channel.draw_us_p50": draw.p50_us("channel.draw"),
        "channel.draw_us_tail": draw.tail_us("channel.draw"),
        "channel.sinr_us_p50": sinr.p50_us("channel.sinr"),
        "channel.sinr_us_tail": sinr.tail_us("channel.sinr"),
        "channel.share": share("channel.sinr", "channel.draw"),
        "channel.bytes_computed_per_trial": (bytes_per_call(draw, "channel.draw")
                                             + bytes_per_call(sinr, "channel.sinr")),
        "centralized.favorites_us_p50": fav.p50_us("centralized.favorites"),
        "centralized.match_us_p50": match.p50_us("centralized.match"),
        "centralized.match_us_tail": match.tail_us("centralized.match"),
        "centralized.event_d_ratio": (event_d.counts["event_d_true"]
                                      / max(1, event_d.n_calls("centralized.event_d"))),
        "centralized.share": share("centralized.favorites", "centralized.event_d",
                                   "centralized.match"),
        "distributed.allocate_us_p50": alloc.p50_us("distributed.allocate"),
        "distributed.allocate_us_tail": alloc.tail_us("distributed.allocate"),
        "distributed.claimants_per_trial": (alloc.counts["claimants"]
                                            / max(1, alloc.n_calls("distributed.allocate"))),
        "distributed.idle_band_ratio": alloc.counts["idle_bands"] / max(1, alloc.counts["bands"]),
        "distributed.share": share("distributed.allocate"),
        "analytics.threshold_table_s": setup.total("analytics.threshold_table"),
        "analytics.solves": solves,
        "analytics.cdf_evals_per_solve": (counted.calls_under("analytics.cdf", "analytics.solve")
                                          / max(1, solves)),
        "analytics.cdf_s": cdf.self_sum("analytics.cdf"),
        "config.build_us": setup.p50_us("config.build"),
        "cli.parse_s": setup.total("cli.parse"),
    }


def run_one(args) -> int:
    import workloads
    size = "smoke" if args.smoke else "full"
    wl = workloads.WORKLOADS[args.workload](workloads.SIZES[size])
    spec = load_spec()
    facts = machine_facts()
    print(f"machine: {json.dumps(facts)}")
    mode = traced if args.trace else measure
    values, failures, attempted, notes = mode(wl, args.seed, spec["run_seconds"], size)
    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"workload {wl.name}: seed {args.seed}, size {size}, {attempted} jobs, "
          f"{'traced' if args.trace else 'untraced'}")
    for m in spec_metrics:
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    for note in notes:
        print(f"  note: {note}")
    for failure in failures:
        print(f"  FAILED {failure}")
    print(result_line(spec_metrics, values, not failures, attempted, len(failures)))
    return 0


# ---------------------------------------------------------------------------
# Per-stage table (homogeneous M = 4, K = 4, 10 dB)
# ---------------------------------------------------------------------------

def run_stages(args) -> int:
    from cogdiv import NetworkConfig, harness
    from tracing import Tracer, replay_trials
    table = {}
    for n, trials in STAGE_TRIALS.items():
        if args.smoke:
            trials = 5
        cfg = NetworkConfig.homogeneous(n, 4, 4, 10.0, seed=args.seed)
        row = {}
        for scheme in harness.SCHEMES:
            harness.run_trials(cfg, scheme, 2)
            t0 = time.perf_counter()
            harness.run_trials(cfg, scheme, trials)
            row[f"run_trials_{scheme}_us"] = (time.perf_counter() - t0) / trials * 1e6
        tracer = Tracer()
        with tracer.installed():
            for scheme in harness.SCHEMES:
                replay_trials(cfg, scheme, trials)

        def mean_us(*layers):
            return sum(tracer.total(l) / tracer.n_calls(l) for l in layers) * 1e6

        row.update({
            "draw_realization_us": mean_us("channel.draw"),
            "compute_sinr_us": mean_us("channel.sinr"),
            "favorites_event_d_us": mean_us("centralized.favorites", "centralized.event_d"),
            "allocate_distributed_us": mean_us("distributed.allocate"),
            "optimal_assignment_matching_us": mean_us("centralized.match"),
            "trials": trials,
        })
        table[f"N={n}"] = row
        print(f"stages N={n} ({trials} trials per scheme, mean us per call): "
              + ", ".join(f"{k} {v:.4g}" for k, v in row.items()))
    print(json.dumps(table))
    return 0


# ---------------------------------------------------------------------------
# Every workload, each in its own process
# ---------------------------------------------------------------------------

def child(args, *extra) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--seed", str(args.seed),
           *(["--smoke"] if args.smoke else []), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[2:])} exited with code {proc.returncode}")
    return json.loads(lines[-1])


EXACT_COUNTERS = ("harness.draws_per_realization", "analytics.solves",
                  "analytics.cdf_evals_per_solve", "centralized.event_d_ratio",
                  "distributed.idle_band_ratio")


def run_all(args) -> int:
    import workloads
    spec = load_spec()
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    summary = {"machine": machine_facts(cpu_model=True), "seed": args.seed,
               "seconds": spec["run_seconds"], "size": "smoke" if args.smoke else "full",
               "workloads": {}}
    for name in workloads.WORKLOADS:
        runs = {}
        for trace in (0, 1):
            result = child(args, "--workload", name, "--trace", str(trace))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{name} trace {trace}: metrics {got} != declared {declared[trace]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: {result['failed']} of "
                                f"{result['attempted']} jobs failed")
            runs[f"trace{trace}"] = result
        if args.smoke:   # the exact counters must repeat at one seed
            again = child(args, "--workload", name, "--trace", "1")
            for counter in EXACT_COUNTERS:
                a, b = runs["trace1"]["metrics"][counter], again["metrics"][counter]
                if a != b:
                    problems.append(f"{name}: {counter} did not repeat ({a} then {b})")
        summary["workloads"][name] = runs
    summary["stages"] = child(args, "--stages")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print(f"{'smoke' if args.smoke else 'benchmark'}: "
          f"{'ok' if not problems else f'{len(problems)} problems'}")
    summary["correct"] = not problems
    print(json.dumps(summary))
    return 1 if problems else 0


def main(argv=None) -> int:
    import_package()
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run_seconds = load_spec()["run_seconds"]
    # The run length is fixed by BENCHMARK.json, so that every run at the
    # default seed makes every job recorded in reference.json; the option is
    # accepted with that value only, as part of the benchmark's command line.
    parser.add_argument("--seconds", type=int, choices=(run_seconds,), default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for a fast self-test")
    parser.add_argument("--stages", action="store_true",
                        help="print the per-stage table at N = 50 and N = 1000 instead")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.stages:
        return run_stages(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
