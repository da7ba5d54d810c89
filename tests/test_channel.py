import concurrent.futures
import contextlib
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from cogdiv import (
    ConfigError,
    FadingRealization,
    NetworkConfig,
    compute_sinr,
    draw_realization,
)
import cogdiv
from cogdiv import channel, harness
from cogdiv.channel import sinr_bounds

from conftest import forced_prefetch, heterogeneous_config


def test_draw_is_deterministic(hetero_cfg):
    a = draw_realization(hetero_cfg, 7)
    b = draw_realization(hetero_cfg, 7)
    assert a.g_sq.tobytes() == b.g_sq.tobytes()
    assert a.h_sq.tobytes() == b.h_sq.tobytes()


def test_distinct_trials_differ(hetero_cfg):
    a = draw_realization(hetero_cfg, 0)
    b = draw_realization(hetero_cfg, 1)
    assert not np.array_equal(a.g_sq, b.g_sq)


def test_blocks_of_one_span_reuse_their_buffers():
    # One span of 200 trials in blocks of 64: every block is written into
    # the same two buffers, not allocated afresh.
    cfg = NetworkConfig.homogeneous(10, 2, 1, 10.0, seed=3)
    assert channel.block_trials(cfg) == 64
    assert [len(spans) for spans in channel.seeding_passes([cfg], 200)] == [1]
    _, _, blocks = next(channel.trial_passes([cfg], 200))
    _, _, _, g_first, h_first = next(blocks)
    _, start, _, g_next, h_next = next(blocks)
    assert start == 64
    assert np.shares_memory(g_first, g_next) and np.shares_memory(h_first, h_next)
    assert np.array_equal(g_next[0], draw_realization(cfg, 64).g_sq)


def _first_blocks(cfg, trials, runs=2):
    """The first block of each of ``runs`` runs of ``cfg`` in this thread,
    each run's blocks drawn to the end before the next run starts."""
    firsts = []
    for _ in range(runs):
        [(_, _, blocks)] = channel.trial_passes([cfg], trials)
        firsts.append(next(blocks))
        for _ in blocks:
            pass
    return firsts


def test_interleaved_passes_of_one_thread_draw_into_their_own_rows():
    # A larger run first leaves the thread a buffer that fits both passes;
    # of two passes live at once, only one may take it.
    _first_blocks(NetworkConfig.homogeneous(40, 4, 4, 10.0, seed=5), 64, runs=1)
    cfgs = (NetworkConfig.homogeneous(10, 2, 1, 10.0, seed=3),
            NetworkConfig.homogeneous(12, 3, 2, 10.0, seed=4))
    [(_, _, first)], [(_, _, second)] = (channel.trial_passes([cfg], 200) for cfg in cfgs)
    covered = {0: [], 1: []}
    for pair in zip(first, second):
        for point, (cfg, (_, start, _, g_sq, h_sq)) in enumerate(zip(cfgs, pair)):
            for b in range(len(g_sq)):
                real = draw_realization(cfg, start + b)
                assert np.array_equal(g_sq[b], real.g_sq) and np.array_equal(h_sq[b], real.h_sq)
            covered[point].extend(range(start, start + len(g_sq)))
    assert covered == {0: list(range(200)), 1: list(range(200))}


def test_runs_of_one_thread_reuse_its_buffer():
    cfg = NetworkConfig.homogeneous(10, 2, 1, 10.0, seed=3)
    (*_, g_a, h_a), (*_, g_b, h_b) = _first_blocks(cfg, 100)
    assert np.shares_memory(g_a, g_b) and np.shares_memory(h_a, h_b)


def test_buffer_past_twice_block_bytes_is_not_kept():
    # One trial's row of 320 bytes exceeds BLOCK_BYTES = 80 and its bound of
    # 160: each run allocates its own buffer.
    cfg = NetworkConfig.homogeneous(10, 2, 1, 10.0, seed=3)
    with mock.patch.object(channel, "BLOCK_BYTES", 80):
        assert channel.block_trials(cfg) == 1
        (*_, g_a, h_a), (*_, g_b, h_b) = _first_blocks(cfg, 1)
    assert not np.shares_memory(g_a, g_b) and not np.shares_memory(h_a, h_b)
    real = draw_realization(cfg, 0)
    assert np.array_equal(g_b[0], real.g_sq) and np.array_equal(h_b[0], real.h_sq)


def test_prefetched_buffers_past_twice_block_bytes_are_not_kept():
    # As above, with each run's first two blocks in the two buffers: a
    # trial's row of 416 bytes exceeds twice BLOCK_BYTES = 192, and a pass
    # has room for 3 trials.
    cfg = NetworkConfig.homogeneous(13, 2, 1, 10.0, seed=3)
    with mock.patch.object(channel, "BLOCK_BYTES", 192), forced_prefetch(True):
        assert channel.block_trials(cfg) == 1
        assert list(channel.seeding_passes([cfg], 3)) == [[(0, 0, 3)]]
        runs = []
        for _ in range(2):
            [(_, _, blocks)] = channel.trial_passes([cfg], 3)
            runs.append([g_sq for _, _, _, g_sq, _ in blocks][:2])
    (first_a, second_a), (first_b, second_b) = runs
    assert not np.shares_memory(first_a, second_a)
    for a in (first_a, second_a):
        assert not any(np.shares_memory(a, b) for b in (first_b, second_b))


#: Blocks of 3 trials of MIXED[0] and 10 of MIXED[1] in passes of 15
#: trials: at 20 trials a config the passes are [5 blocks of MIXED[0]],
#: [2 blocks of MIXED[0], 1 of MIXED[1]] and [1 of MIXED[1]], so that
#: with prefetching from 2 blocks one pass holds a prefetched span, whose
#: last block is short, and an inline one.
MIXED = (NetworkConfig.homogeneous(10, 2, 2, 10.0, seed=3),
         NetworkConfig.homogeneous(6, 2, 1, 10.0, seed=4))
MIXED_BLOCK_BYTES, MIXED_TRIALS = 960, 20


def _mixed_pass_blocks(check_block=lambda g_sq, h_sq: None):
    """Each pass's (point, start, prefetched) blocks of MIXED, with
    prefetching from 2 blocks, each block checked against
    ``draw_realization`` and by ``check_block``."""
    seen = []
    with mock.patch.object(channel, "BLOCK_BYTES", MIXED_BLOCK_BYTES), \
            forced_prefetch(True, blocks=2) as given:
        assert [channel.block_trials(cfg) for cfg in MIXED] == [3, 10]
        for _, _, blocks in channel.trial_passes(MIXED, MIXED_TRIALS):
            seen.append([])
            for point, start, _, g_sq, h_sq in blocks:
                check_block(g_sq, h_sq)
                for b in range(len(g_sq)):
                    real = draw_realization(MIXED[point], start + b)
                    assert np.array_equal(g_sq[b], real.g_sq) and np.array_equal(h_sq[b], real.h_sq)
                seen[-1].append((point, start, bool(given)))
                given.clear()
    return seen


# Each block's entry: (point, start, whether the next block was given to the worker).
MIXED_PASSES = [[(0, 0, True), (0, 3, True), (0, 6, True), (0, 9, True), (0, 12, False)],
                [(0, 15, True), (0, 18, False), (1, 0, False)],
                [(1, 10, False)]]


def test_prefetched_and_inline_spans_equal_draw_realization():
    assert _mixed_pass_blocks() == MIXED_PASSES


class _EagerWorker:
    """A fill worker that runs each fill as it is given, noting the rows it
    fills and the times it is shut down."""

    def __init__(self):
        self.rows, self.running, self.shutdowns = [], False, 0

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_running_or_notify_cancel()
        self.running = True
        fn(*args)
        self.running = False
        future.set_result(None)
        return future

    def shutdown(self):
        self.shutdowns += 1


def test_no_fill_targets_the_block_the_caller_holds():
    # The eager worker fills the next block before the caller gets this
    # one: no row it fills may be in this block, which must still hold its
    # own draws.
    worker, draw = _EagerWorker(), channel._draw

    def noting_draw(rng, row):
        if worker.running:
            worker.rows.append(row)
        draw(rng, row)

    def check_block(g_sq, h_sq):
        assert not any(np.shares_memory(row, a) for row in worker.rows for a in (g_sq, h_sq))
        worker.rows.clear()

    with mock.patch.object(channel, "_filler", lambda: worker), \
            mock.patch.object(channel, "_draw", noting_draw):
        assert _mixed_pass_blocks(check_block) == MIXED_PASSES
    assert worker.shutdowns == 2   # once by each pass that gave it a fill


class _NeverStarted(concurrent.futures.Future):
    """A fill that the worker never starts: waiting on it would never end."""

    def result(self, timeout=None):
        raise AssertionError("the caller waited on a fill that never started")

    exception = result


def test_fills_that_never_start_are_filled_by_the_caller():
    # A worker that is late, as on a loaded machine, must not hold up a
    # pass: the caller takes every row the worker has not.
    worker = mock.Mock()
    worker.submit.side_effect = lambda fn, *args: _NeverStarted()
    with mock.patch.object(channel, "_filler", lambda: worker):
        assert _mixed_pass_blocks() == MIXED_PASSES
        assert worker.submit.call_count == 5
        with forced_prefetch(True):   # a pass closed with a fill given
            [(_, _, blocks)] = channel.trial_passes([MIXED[0]], 200)
            next(blocks)
            blocks.close()


#: 880 bytes of |h|^2 a trial: at BLOCK_BYTES = ONE_ROW_BYTES, blocks of
#: one trial and passes of 20.
ONE_ROW, ONE_ROW_BYTES = NetworkConfig.homogeneous(11, 2, 4, 10.0, seed=3), 1280


@contextlib.contextmanager
def _one_row_blocks():
    """Blocks of one ONE_ROW trial, with the prefetch path on."""
    with mock.patch.object(channel, "BLOCK_BYTES", ONE_ROW_BYTES), forced_prefetch(True):
        assert channel.block_trials(ONE_ROW) == 1
        yield


def _pass_draws(cfg, trials, between=lambda: None):
    """Copies of the g_sq and h_sq of every block of ``cfg``'s trials;
    ``between`` runs after each."""
    drawn = []
    for _, _, blocks in channel.trial_passes([cfg], trials):
        for *_, g_sq, h_sq in blocks:
            drawn.append((g_sq.copy(), h_sq.copy()))
            between()
    return drawn


def _assert_draws(cfg, drawn):
    for t, (g_sq, h_sq) in enumerate(drawn):
        real = draw_realization(cfg, t)
        assert np.array_equal(g_sq[0], real.g_sq) and np.array_equal(h_sq[0], real.h_sq)


def test_closing_a_pass_waits_for_its_pending_fill():
    caller, draw = threading.current_thread(), channel._draw
    started, lock, rows = threading.Event(), threading.Lock(), {"begun": 0, "done": 0}

    def slow_worker_draw(rng, row):
        if threading.current_thread() is caller:
            return draw(rng, row)
        with lock:
            rows["begun"] += 1
        started.set()
        time.sleep(0.2)
        draw(rng, row)
        with lock:
            rows["done"] += 1

    with _one_row_blocks():
        with mock.patch.object(channel, "_draw", slow_worker_draw):
            [(_, _, blocks)] = channel.trial_passes([ONE_ROW], 10)
            next(blocks)
            assert started.wait(30)
            blocks.close()
            with lock:
                assert rows["done"] == rows["begun"] >= 1
        _assert_draws(ONE_ROW, _pass_draws(ONE_ROW, 10))


def _fill_threads():
    return [t for t in threading.enumerate() if t.name.startswith("cogdiv-fill")]


def test_forked_child_prefetches_with_its_own_worker():
    # The fork happens while the parent's pass holds a live worker, and a
    # fork copies only the forking thread: the child's passes must not
    # rely on that worker, and start their own.
    with _one_row_blocks():
        parent = _pass_draws(ONE_ROW, 20)
        [(_, _, held)] = channel.trial_passes([ONE_ROW], 20)
        next(held)   # block 1 is given to the pass's worker
        assert _fill_threads()
    draw = channel._draw

    def child_run(conn):
        main, on_worker = threading.current_thread(), []

        def noting_draw(rng, row):
            on_worker.append(threading.current_thread() is not main)
            draw(rng, row)

        with _one_row_blocks(), mock.patch.object(channel, "_draw", noting_draw):
            # A pause after each block lets the worker take the next one.
            conn.send((_pass_draws(ONE_ROW, 20, between=lambda: time.sleep(0.002)), sum(on_worker)))
        conn.close()

    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    child = context.Process(target=child_run, args=(writer,))
    child.start()
    writer.close()
    try:
        assert reader.poll(60), "the forked child's run did not end"
        drawn, worker_rows = reader.recv()
    finally:
        child.join(60)
        if child.is_alive():
            child.kill()
        held.close()
    assert child.exitcode == 0 and worker_rows > 0
    assert len(drawn) == len(parent) == 20
    for (g_a, h_a), (g_b, h_b) in zip(drawn, parent):
        assert np.array_equal(g_a, g_b) and np.array_equal(h_a, h_b)
    _assert_draws(ONE_ROW, parent)


def test_no_fill_thread_outlives_its_pass():
    # Each pass gets a new worker, and shuts it down however the pass ends:
    # exhausted, closed with a fill pending, or abandoned by a consumer
    # that raises; so does every pass of the harness's runs.
    workers, filler = [], channel._filler

    def noting_filler():
        workers.append(filler())
        return workers[-1]

    def abandon_on_raise():
        with pytest.raises(KeyError, match="the consumer failed"):
            for *_, blocks in channel.trial_passes([ONE_ROW], 10):
                for _ in blocks:
                    raise KeyError("the consumer failed")

    def ended(run):
        """Run ``run``, which must start a worker, and check none is left running."""
        given = len(workers)
        run()
        assert len(workers) > given and not _fill_threads()

    with mock.patch.object(channel, "_filler", noting_filler):
        with _one_row_blocks():
            ended(lambda: _assert_draws(ONE_ROW, _pass_draws(ONE_ROW, 10)))
            [(_, _, blocks)] = channel.trial_passes([ONE_ROW], 10)
            next(blocks)   # block 1 is given to the pass's worker
            assert len(workers) == 2 and _fill_threads()
            blocks.close()
            assert not _fill_threads()
            ended(abandon_on_raise)
        cfg = NetworkConfig.homogeneous(10, 2, 2, 10.0, seed=5)   # blocks of 64 trials
        with forced_prefetch(True):
            ended(lambda: harness.run_schemes(cfg, harness.SCHEMES, 200))
            ended(lambda: harness.scaling_sweep(cfg, [10, 20], 200))
            ended(lambda: harness.validate(cfg, samples=10_000))
    assert len({id(worker) for worker in workers}) == len(workers)


def test_callers_of_many_threads_share_the_worker():
    # Four caller threads on two CPUs, each pass racing its own worker on
    # one deque of rows, with a thread switch forced every microsecond: a
    # row lost or taken twice between a caller and its pass's worker leaves
    # a block with wrong draws.
    cfgs = [ONE_ROW.with_population(11, seed=seed) for seed in range(4)]
    drawn, interval = {}, sys.getswitchinterval()

    def run(cfg):
        drawn[cfg.seed] = _pass_draws(cfg, 60)

    sys.setswitchinterval(1e-6)
    try:
        with _one_row_blocks():
            threads = [threading.Thread(target=run, args=(cfg,)) for cfg in cfgs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for cfg in cfgs:
        _assert_draws(cfg, drawn[cfg.seed])


def test_one_cpu_starts_no_worker():
    def no_worker():
        raise AssertionError("a fill worker was started on one CPU")

    with _one_row_blocks(), mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True), \
            mock.patch.object(channel, "_filler", no_worker):
        _assert_draws(ONE_ROW, _pass_draws(ONE_ROW, 10))


#: Run as `python -c LATE_RUN`: a thread's run that starts after the
#: interpreter began to exit, when no executor takes a new fill, prints
#: True if it equals the main thread's run.
LATE_RUN = """
import os, threading, time
from cogdiv import NetworkConfig, harness
os.sched_getaffinity = lambda pid: {0, 1}
cfg = NetworkConfig.homogeneous(1000, 4, 4, 10.0, seed=1)   # 16 blocks of 20,000-draw trials
first = harness.run_schemes(cfg, harness.SCHEMES, 64)
def late_run():
    while threading.main_thread().is_alive():
        time.sleep(0.01)
    time.sleep(0.2)
    again = harness.run_schemes(cfg, harness.SCHEMES, 64)
    print(all(first[s].trial_sum_rates.tolist() == again[s].trial_sum_rates.tolist()
              for s in harness.SCHEMES))
threading.Thread(target=late_run).start()
"""


def test_runs_after_the_worker_shut_down_fill_inline():
    package_root = str(Path(cogdiv.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-c", LATE_RUN],
                            capture_output=True, text=True, timeout=120, env=env)
    assert (result.returncode, result.stdout, result.stderr) == (0, "True\n", "")


@pytest.mark.parametrize("cfg", [
    NetworkConfig.homogeneous(12, 2, 0, 10.0, seed=1),
    NetworkConfig.homogeneous(6, 4, (0, 2, 4, 8), 5.0, seed=2),
    NetworkConfig.homogeneous(8, 1, 3, 0.0, seed=3),
    NetworkConfig.homogeneous(9, 9, 2, 10.0, seed=2**64 + 4),
], ids=["every_k_0", "k_0_2_4_8", "m_1", "m_9"])
@pytest.mark.parametrize("block", [1, 2, 3])
def test_row_buffer_blocks_equal_draw_realization(cfg, block):
    # Blocks of `block` trials and passes of a few blocks, over two configs,
    # so that the rows cross block, span and pass edges.
    other = cfg.with_population(cfg.num_secondary + 1, seed=cfg.seed + 1)
    per_trial = 8 * cfg.num_bands * cfg.num_secondary * max(1, cfg.k_max())
    with mock.patch.object(channel, "BLOCK_BYTES", block * per_trial):
        assert channel.block_trials(cfg) == block
        trials = channel.BLOCK_BYTES // 64 + block + 1   # past a pass's room
        assert len(list(channel.seeding_passes([cfg, other], trials))) > 1
        covered = {0: [], 1: []}
        for _, _, blocks in channel.trial_passes([cfg, other], trials):
            for point, start, _, g_sq, h_sq in blocks:
                c = (cfg, other)[point]
                assert h_sq.shape == (len(g_sq), c.num_bands, c.num_secondary, c.k_max())
                for b in range(len(g_sq)):
                    real = draw_realization(c, start + b)
                    assert np.array_equal(g_sq[b], real.g_sq) and np.array_equal(h_sq[b], real.h_sq)
                covered[point].extend(range(start, start + len(g_sq)))
    assert covered == {0: list(range(trials)), 1: list(range(trials))}
    # A trial's one fill is its stream's |g|^2 and then its |h|^2.
    rng, real = np.random.default_rng((cfg.seed, 5)), draw_realization(cfg, 5)
    m, n, k = cfg.num_bands, cfg.num_secondary, cfg.k_max()
    assert np.array_equal(real.g_sq, rng.standard_exponential((m, n)))
    assert np.array_equal(real.h_sq, rng.standard_exponential((m, n, k)))


def test_trials_uncorrelated():
    cfg = NetworkConfig.homogeneous(25_000, 4, 0, 10.0, seed=5)
    a = draw_realization(cfg, 0).g_sq.ravel()
    b = draw_realization(cfg, 1).g_sq.ravel()
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02


def test_sinr_interference_free():
    # K=0, eta=1, Ps=10, N0=1, g=1 -> SINR = 10
    cfg = NetworkConfig.homogeneous(1, 1, 0, 10.0)
    real = FadingRealization(g_sq=np.ones((1, 1)), h_sq=np.ones((1, 1, 0)))
    table = compute_sinr(cfg, real)
    assert table.sinr[0, 0] == pytest.approx(10.0, rel=1e-12)


def test_sinr_hand_value_with_interference():
    # Ps=10, N0=1, Pp=10, K=1, gamma=eta=1, g=h=1 -> 10/11
    cfg = NetworkConfig.homogeneous(1, 1, 1, 10.0, pp_over_ps=1.0)
    real = FadingRealization(g_sq=np.ones((1, 1)), h_sq=np.ones((1, 1, 1)))
    table = compute_sinr(cfg, real)
    assert table.sinr[0, 0] == pytest.approx(10.0 / 11.0, rel=1e-12)


@pytest.mark.parametrize("index", [-1, 1.5])
def test_draw_realization_rejects_bad_trial_index(hetero_cfg, index):
    with pytest.raises(ConfigError):
        draw_realization(hetero_cfg, index)


def test_dimension_mismatch_rejected(hetero_cfg):
    real = draw_realization(hetero_cfg, 0)
    small = heterogeneous_config(num_secondary=10)
    with pytest.raises(ConfigError):
        compute_sinr(small, real)
    with pytest.raises(ConfigError):
        sinr_bounds(small, real.g_sq, real.h_sq)
