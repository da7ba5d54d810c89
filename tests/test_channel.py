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
from cogdiv import channel
from cogdiv.channel import sinr_bounds

from conftest import heterogeneous_config


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
