"""Per-layer timing: wrap the package's module attributes and time each call.

The tracer replaces the attributes that ``harness`` calls (and the ones the
benchmark's replay calls) with wrappers that record, per layer, every
call's wall time and its self time (wall time minus the traced calls made
inside it), and the wrappers' own time outside the calls they time.
Records stay in memory; nothing is written out.
"""
from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import Counter, defaultdict

import numpy as np

from cogdiv import analytics, centralized, channel, cli, distributed, harness
from cogdiv.config import NetworkConfig

# Layer name -> (owner, attribute) pairs that carry its calls.
LAYERS = {
    "channel.draw": ((channel, "draw_realization"), (harness, "draw_realization")),
    "channel.sinr": ((channel, "compute_sinr"), (harness, "compute_sinr")),
    "centralized.favorites": ((centralized, "favorites"),),
    "centralized.event_d": ((centralized, "event_d"),),
    "centralized.match": ((centralized, "optimal_assignment_matching"),),
    "distributed.allocate": ((distributed, "allocate_distributed"),),
    "analytics.threshold_table": ((analytics, "build_threshold_table"),),
    "analytics.solve": ((analytics, "solve_threshold"),),
    "analytics.cdf": ((analytics, "cdf_exact"), (analytics, "cdf_lower"), (analytics, "cdf_upper")),
    "config.build": ((NetworkConfig, "__init__"), (NetworkConfig, "with_population"),
                     (NetworkConfig, "homogeneous")),
    "cli.parse": ((cli, "parse_config"),),
}

# Layers timed on trial replays.  The threshold solver makes about 55 small
# cdf calls per solve; wrapping them would put the wrappers' own cost into
# the timings, so the solver layers are traced only where they are counted.
TRIAL_LAYERS = tuple(l for l in LAYERS if l not in ("analytics.solve", "analytics.cdf"))


def array_bytes(obj) -> int:
    """Bytes held by the NumPy arrays among an object's attributes."""
    return sum(v.nbytes for v in getattr(obj, "__dict__", {}).values()
               if isinstance(v, np.ndarray))


def _observe_draw(tracer, args, result):
    tracer.bytes["channel.draw"] += array_bytes(result)
    cfg, trial = args[0], args[1]
    tracer.realizations.add((cfg.seed, cfg.num_secondary, cfg.num_bands, int(trial)))


def _observe_sinr(tracer, args, result):
    tracer.bytes["channel.sinr"] += array_bytes(result)


def _observe_event_d(tracer, args, result):
    tracer.counts["event_d_true"] += bool(result)


def _observe_allocate(tracer, args, result):
    tracer.counts["claimants"] += int(np.count_nonzero(result.candidate_sets.claims >= 0))
    tracer.counts["idle_bands"] += len(result.idle_bands)
    tracer.counts["bands"] += len(result.idle_bands) + len(result.assignment.pairs)


OBSERVERS = {
    "channel.draw": _observe_draw,
    "channel.sinr": _observe_sinr,
    "centralized.event_d": _observe_event_d,
    "distributed.allocate": _observe_allocate,
}


class Tracer:
    """Collects per-layer call times while installed."""

    def __init__(self, layers=tuple(LAYERS)):
        self.layers = layers
        self.durations = defaultdict(list)    # layer -> wall time of each call
        self.self_time = defaultdict(float)   # layer -> summed self time
        self.calls = Counter()                # (layer, parent layer or None) -> calls
        self.bytes = Counter()                # layer -> bytes of arrays returned
        self.counts = Counter()               # observed outcomes, see OBSERVERS
        self.realizations = set()             # distinct (seed, N, M, trial) drawn
        self.bookkeeping_s = 0.0              # wrappers' own time outside the timed calls
        self._stack = []                      # open spans: [layer, child time]

    def _wrap(self, layer, fn):
        stack, observe = self._stack, OBSERVERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:   # nested call of the same layer
                return fn(*args, **kwargs)
            t_in = time.perf_counter()
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.durations[layer].append(dt)
                self.self_time[layer] += dt - frame[1]
                self.calls[(layer, parent)] += 1
            if observe is not None:
                observe(self, args, result)
            # The whole span, bookkeeping included, is the parent's child
            # time, so no layer's self time holds a wrapper's cost.
            span = time.perf_counter() - t_in
            self.bookkeeping_s += span - dt
            if stack:
                stack[-1][1] += span
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for layer in self.layers:
                for owner, attr in LAYERS[layer]:
                    raw = vars(owner).get(attr)
                    if raw is None:        # the package no longer has this entry point
                        continue
                    saved.append((owner, attr, raw))
                    if isinstance(raw, classmethod):
                        setattr(owner, attr, classmethod(self._wrap(layer, raw.__func__)))
                    else:
                        setattr(owner, attr, self._wrap(layer, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # -- summaries ----------------------------------------------------------

    def n_calls(self, layer) -> int:
        return len(self.durations[layer])

    def total(self, layer) -> float:
        return float(sum(self.durations[layer]))

    def p50_us(self, layer) -> float:
        d = self.durations[layer]
        return float(np.median(d)) * 1e6 if d else 0.0

    def tail_us(self, layer) -> float:
        d = self.durations[layer]
        return tail(d)[0] * 1e6 if d else 0.0

    def self_sum(self, *layers) -> float:
        return float(sum(self.self_time[l] for l in layers))

    def calls_under(self, layer, parent) -> int:
        return self.calls[(layer, parent)]


def tail(values) -> tuple[float, str]:
    """Highest percentile with at least ten values beyond it, and its label.

    With fewer than 20 values no percentile above the median has ten
    values beyond it, and the median is reported instead.
    """
    n = len(values)
    q = max(50, math.floor(100 * (n - 10) / n))
    label = f"p{q} of {n}" + (" (under 20, so the median)" if n < 20 else "")
    return float(np.percentile(values, q)), label


def replay_trials(cfg, scheme: str, trials: int) -> tuple[np.ndarray, int]:
    """Redo harness.run_trials(cfg, scheme, trials) one layer call at a time.

    Calls go through the module attributes, so an installed tracer times
    them.  Returns the per-trial sum rates and the event-D count.
    """
    th = analytics.build_threshold_table(cfg) if scheme == "distributed" else None
    rates = np.empty(trials)
    event_d = 0
    for t in range(trials):
        table = channel.compute_sinr(cfg, channel.draw_realization(cfg, t))
        event_d += bool(centralized.event_d(centralized.favorites(table)))
        if scheme == "centralized":
            rates[t] = centralized.optimal_assignment_matching(table).sum_rate
        else:
            rng = np.random.default_rng((cfg.seed, t, 1))
            rates[t] = distributed.allocate_distributed(table, th, rng).assignment.sum_rate
    return rates, event_d
