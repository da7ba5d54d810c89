"""Record the per-job values that run.py compares against at the default seed.

    python3 perfbench/record_reference.py

Run it only on a commit whose results are the accepted ones: it rewrites
perfbench/reference.json with the values of every job an untraced run
makes at --seed 0 and the run_seconds of BENCHMARK.json, at both sizes.
"""
import json
import sys

import run

run.import_package()
import workloads  # noqa: E402  (needs the package path set by run.import_package)


def main() -> int:
    seconds = run.load_spec()["run_seconds"]
    data = {}
    for size, params in workloads.SIZES.items():
        data[size] = {}
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(params)
            state = wl.setup(run.DEFAULT_SEED)
            jobs = []
            for j in range(workloads.job_count(wl, seconds, size)):
                s = workloads.job_seed(run.DEFAULT_SEED, j)
                jobs.append(workloads.job_values(wl, state, s, wl.job(state, s)))
            data[size][name] = jobs
            print(f"{size} {name}: {len(jobs)} jobs", file=sys.stderr)
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(data) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
