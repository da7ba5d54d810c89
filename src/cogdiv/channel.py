"""Random network realizations and per-realization SINR tables.

Squared channel magnitudes |g|^2 and |h|^2 are drawn directly as
unit-mean exponentials (|CN(0,1)|^2), which is distributionally
identical to drawing complex Gaussians and cheaper.
"""
from __future__ import annotations

import collections
import ctypes
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, NetworkConfig, as_int


@dataclass(frozen=True)
class FadingRealization:
    """One draw of all squared channel gains."""

    g_sq: np.ndarray   # (M, N) secondary-link gains
    h_sq: np.ndarray   # (M, N, max K_m) primary-interference gains


@dataclass(frozen=True)
class SinrTable:
    """SINR of every (band, user) pair."""

    sinr: np.ndarray      # (M, N)


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants.
_U32, _U64 = np.uint32, np.uint64
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _XSHIFT = _U32(0xCA01F9DD), _U32(0x4973F715), _U32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32, _SHIFT32 = _U64(0xFFFFFFFF), _U64(32)
_LOW64 = 0xFFFFFFFFFFFFFFFF
# Generator.random is PCG64's XSL-RR output >> 11, times 2**-53; XSL-RR
# rotates right by the state's top 6 bits.
_ROTATE, _DOUBLE_SHIFT = _U64(58), _U64(11)
_TAIL = np.array([[0], [1]], dtype=_U32)   # a key's last word: none, then 1


@functools.cache
def _chain(init: int, mult: int, length: int) -> np.ndarray:
    """(length, 1) hash constants init * mult**i mod 2**32, one per hash call."""
    out = [init]
    for _ in range(length - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    consts = np.array(out, dtype=_U32)[:, None]
    consts.setflags(write=False)
    return consts


# Pool word src is mixed into word dst by hash call 4 + 3 src + (dst's
# place among the other words), in (src, dst) order.  The diagonal is
# unused: a word is never mixed into itself.
_CROSS = np.array([[4 + 3 * src + dst - (dst > src) if dst != src else 0
                    for dst in range(_POOL)] for src in range(_POOL)])
_CROSS_XOR = _chain(_INIT_A, _MULT_A, 17)[_CROSS]       # (4, 4, 1)
_CROSS_MUL = _chain(_INIT_A, _MULT_A, 17)[_CROSS + 1]


def _hash(x: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of x: call i takes the chain's constants i and i + 1."""
    x = x ^ xor
    x *= mul
    x ^= x >> _XSHIFT
    return x


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = x * _MIX_L
    x -= y * _MIX_R
    x ^= x >> _XSHIFT
    return x


def _key_words(value: int) -> list[int]:
    """The uint32 words SeedSequence reads from a non-negative int, low first."""
    words = [value & 0xFFFFFFFF]
    while value >> 32:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def _seed_states(keys) -> np.ndarray:
    """(2 R, 4) ``SeedSequence(key).generate_state(4, np.uint64)`` of the
    R keys (seed, t), for each (seed, ts) of ``keys`` and each uint64 t of
    ts in order, and then of the keys (seed, t, 1) in the same order.

    numpy's entropy mixing and state generation run on whole columns of
    keys, each column with its own seed and trial index.  Keys shorter
    than the pool are zero-padded, as SeedSequence pads them; a key longer
    than the pool takes the extra mixing rounds of its own words only.
    """
    heads = [_key_words(seed) for seed, _ in keys]
    count = sum(len(ts) for _, ts in keys)
    width = max(map(len, heads)) + 3
    words = np.zeros((width, 2, count), dtype=_U32)
    lengths = np.empty((2, count), dtype=np.intp)
    first = 0
    for head, (_, t) in zip(heads, keys):
        h, cols = len(head), slice(first, first + len(t))
        first += len(t)
        hi = (t >> np.uint64(32)).astype(_U32)
        wide = hi != 0                        # t has two words
        words[:h, :, cols] = np.array(head, dtype=_U32)[:, None, None]
        words[h, :, cols] = t.astype(_U32)
        words[h + 1, :, cols] = np.where(wide, hi, _TAIL)
        words[h + 2, :, cols] = wide * _TAIL
        lengths[:, cols] = h + 1 + wide + _TAIL
    words = words.reshape(width, 2 * count)
    lengths = lengths.ravel()

    # Entropy mixing hashes 4 + 12 times, plus 4 times per word beyond the pool.
    rounds = int(lengths.max()) - _POOL
    hash_a = _chain(_INIT_A, _MULT_A, 17 + _POOL * max(0, rounds))
    pool = _hash(words[:_POOL], hash_a[:_POOL], hash_a[1:_POOL + 1])
    for src in range(_POOL):    # mix every pool word into every other one
        own = pool[src].copy()
        pool = _mix(pool, _hash(own, _CROSS_XOR[src], _CROSS_MUL[src]))
        pool[src] = own
    for j in range(_POOL, _POOL + rounds):   # words beyond the pool
        k = 16 + _POOL * (j - _POOL)
        mixed = _mix(pool, _hash(words[j], hash_a[k:k + _POOL], hash_a[k + 1:k + _POOL + 1]))
        pool = np.where(lengths > j, mixed, pool)
    hash_b = _chain(_INIT_B, _MULT_B, 9)
    state = _hash(np.concatenate((pool, pool)), hash_b[:-1], hash_b[1:])
    # Word pairs, low word first, are the uint64 words.
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8")


def _add(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """Columns of (a + b) mod 2**128 as (high, low) uint64 words."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mul_high(a: np.ndarray, b) -> np.ndarray:
    """The high 64 bits of a * b for uint64 columns a and uint64 b, from 32-bit limbs."""
    a0, a1 = a & _LOW32, a >> _SHIFT32
    b0, b1 = b & _LOW32, b >> _SHIFT32
    t = a1 * b0 + (a0 * b0 >> _SHIFT32)
    w = (t & _LOW32) + a0 * b1
    return a1 * b1 + (t >> _SHIFT32) + (w >> _SHIFT32)


def _mul(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """Columns of (a * b) mod 2**128 as (high, low) uint64 words."""
    return _mul_high(a_lo, b_lo) + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _pcg64_images(states: np.ndarray) -> np.ndarray:
    """(rows, 4) uint64 PCG64 images (state low, state high, inc low, inc
    high) after seeding with the generate_state rows ``states``:
    state = (s + inc) * MULT + inc mod 2**128, inc = 2 i + 1."""
    s_hi, s_lo, i_hi, i_lo = states.T
    inc_hi, inc_lo = i_hi << _U64(1) | i_lo >> _U64(63), i_lo << _U64(1) | _U64(1)
    a_hi, a_lo = _add(s_hi, s_lo, inc_hi, inc_lo)
    m_hi, m_lo = _U64(_PCG_MULT >> 64), _U64(_PCG_MULT & _LOW64)
    st_hi, st_lo = _add(*_mul(a_hi, a_lo, m_hi, m_lo), inc_hi, inc_lo)
    return np.stack((st_lo, st_hi, inc_lo, inc_hi), axis=1)


@functools.cache
def _jumps(mult: int, size: int) -> np.ndarray:
    """(4, size) uint64 words (A high, A low, C high, C low) taking a PCG64
    state s with increment inc to the state A s + C inc mod 2**128 of its
    draw d < size: A = mult**(d + 1) and C = sum of mult**i over i <= d."""
    words, a, c = [], 1, 0
    for _ in range(size):
        a, c = a * mult % (1 << 128), (c * mult + 1) % (1 << 128)
        words.append((a >> 64, a & _LOW64, c >> 64, c & _LOW64))
    table = np.array(words, dtype=_U64).T.copy()
    table.setflags(write=False)
    return table


def _randoms(images: np.ndarray, counts) -> np.ndarray:
    """The first counts[i] ``Generator.random`` draws of each PCG64 image
    images[i] (in the word order of ``_pcg64_images``), concatenated.

    Every draw is computed from its image in one array step: the image's
    state is jumped ahead to the draw's (``_jumps``, whose tables grow in
    powers of two to the largest count) and put through PCG64's output.
    """
    counts = np.asarray(counts, dtype=np.intp)
    stream = np.repeat(np.arange(counts.size), counts)
    draw = np.arange(stream.size) - np.repeat(np.cumsum(counts) - counts, counts)
    size = 1 << max(4, (int(counts.max(initial=0)) - 1).bit_length())
    a_hi, a_lo, c_hi, c_lo = np.take(_jumps(_PCG_MULT, size), draw, axis=1)
    s_lo, s_hi, i_lo, i_hi = np.take(np.ascontiguousarray(images.T), stream, axis=1)
    st_hi, st_lo = _add(*_mul(a_hi, a_lo, s_hi, s_lo), *_mul(c_hi, c_lo, i_hi, i_lo))
    x, turn = st_hi ^ st_lo, st_hi >> _ROTATE
    out = x >> turn | x << (_U64(64) - turn & _U64(63))
    return (out >> _DOUBLE_SHIFT) * 2.0**-53


class _Pcg64State(ctypes.Structure):
    """numpy's ``pcg64_state``, at ``PCG64.ctypes.state_address``."""

    _fields_ = [("pcg_state", ctypes.c_void_p),   # the 32 bytes {state, inc}
                ("has_uint32", ctypes.c_int), ("uinteger", ctypes.c_uint32)]


def _state_views(bit_generator: np.random.PCG64) -> tuple[np.ndarray, _Pcg64State]:
    """Writable views of a PCG64's four state words and of its 32-bit buffer;
    they are valid while ``bit_generator`` lives."""
    head = _Pcg64State.from_address(bit_generator.ctypes.state_address)
    return np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(head.pcg_state)), head


#: Per thread: the reused generator of ``_set_stream`` and the two draw
#: buffers of ``trial_passes``, while no pass holds them.
_THREAD = threading.local()


def _set_stream(image: np.ndarray) -> np.random.Generator:
    """This thread's reused generator, its PCG64 state set to ``image`` (its
    words in the memory order ``_memory_layout``) with no buffered 32-bit
    draw, as the documented ``state`` setter leaves it."""
    try:
        gen, words, head = _THREAD.stream
    except AttributeError:
        gen = np.random.Generator(np.random.PCG64(0))
        gen, words, head = _THREAD.stream = (gen, *_state_views(gen.bit_generator))
    words[...] = image
    head.has_uint32 = head.uinteger = 0
    return gen


class UnsupportedNumpyError(RuntimeError):
    """This numpy's PCG64 or ``Generator.random`` differs from the trial
    engine's emulation of it, so its trial streams would diverge."""


def _memory_layout(bit_generator: np.random.PCG64) -> tuple[int, ...]:
    """Which of the words (state low, state high, inc low, inc high) each of
    PCG64's four state words in memory is, learned by a round trip through
    the documented ``state`` setter: low word first for a native 128-bit
    integer, high word first in numpy's emulated one."""
    bit_generator.state = {"bit_generator": "PCG64",
                           "state": {"state": 1 << 64 | 0, "inc": 3 << 64 | 2},
                           "has_uint32": 1, "uinteger": 5}
    words, head = _state_views(bit_generator)
    layout = tuple(words.tolist())
    if sorted(layout) != [0, 1, 2, 3] or (head.has_uint32, head.uinteger) != (1, 5):
        raise UnsupportedNumpyError("this numpy lays out PCG64's state differently "
                                    "from the trial streams' state write")
    return layout


@functools.cache
def _check_seeding() -> tuple[int, ...]:
    """The ``_memory_layout`` of PCG64 in this process; UnsupportedNumpyError
    unless streams set from the seeding pass, and the timer step ``_randoms``
    on their images, draw as ``default_rng`` does.

    The key takes every mixing round, and the second stream is set while
    the first still buffers a 32-bit draw, so the hashing, the seeding step
    and the state write are checked together.  The timer step's 17 draws
    outgrow its smallest jump table.
    """
    layout = _memory_layout(np.random.PCG64(0))
    seed, t = (1 << 96) + (1 << 64) + 3, (1 << 32) + 5
    images = _pcg64_images(_seed_states([(seed, _trials(t, 1))]))
    keys, counts = ((seed, t), (seed, t, 1)), (17, 2)
    def draws(gen: np.random.Generator) -> list:
        return gen.integers(0, 2**32, 3, dtype=np.uint32).tolist() + gen.random(2).tolist()

    for image, key in zip(np.take(images, layout, axis=1), keys):
        if draws(_set_stream(image)) != draws(np.random.default_rng(key)):
            raise UnsupportedNumpyError("this numpy seeds PCG64 differently from the "
                                        "trial seeding pass; trial streams would diverge")
    expected = [x for key, k in zip(keys, counts) for x in np.random.default_rng(key).random(k)]
    if _randoms(images, counts).tolist() != expected:
        raise UnsupportedNumpyError("this numpy's Generator.random differs from the "
                                    "contention timer step; contention timers would diverge")
    return layout


#: Trials run as one array pass: as many as keep the block's (B, M, N, K)
#: interference gains within this many bytes, and at most MAX_BLOCK_TRIALS.
#: One seeding pass takes as many whole blocks as keep their stream states
#: (two streams of 4 uint64 words a trial) within it too.
BLOCK_BYTES = 1 << 19
MAX_BLOCK_TRIALS = 64
#: A span fills each next block on the fill worker while its caller runs
#: the current one when it has at least PREFETCH_BLOCKS blocks, each trial
#: draws at least PREFETCH_DRAWS, and the process may run on two CPUs.
PREFETCH_BLOCKS = 8
PREFETCH_DRAWS = 1 << 13


def _trials(start: int, count: int) -> np.ndarray:
    """The uint64 trial indices start to start + count - 1."""
    return np.arange(count, dtype=np.uint64) + np.uint64(start)


def _stream_images(keys) -> tuple[np.ndarray, np.ndarray]:
    """PCG64 images of the fading and the contention streams of the keys
    of ``_seed_states(keys)``, from one seeding pass: the fading images in
    the memory order of ``_set_stream``, the contention images in the word
    order of ``_randoms``."""
    images = _pcg64_images(_seed_states(keys))
    return np.take(images[:len(images) // 2], _check_seeding(), axis=1), images[len(images) // 2:]


def _draw(rng: np.random.Generator, row: np.ndarray) -> None:
    """Fill one trial's row of draws from its stream ``rng``: the (M, N)
    |g|^2 and then the (M, N, max K_m) |h|^2, in one call."""
    rng.standard_exponential(out=row)


def _filler():
    """A new fill worker for one pass: one thread, started at its first fill."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(1, thread_name_prefix="cogdiv-fill")


def _cpus() -> int:
    """The CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _fill_ahead(worker, images: np.ndarray, rows: np.ndarray) -> tuple:
    """The (future, rows left) of the fill of ``rows`` from ``images``,
    given to ``worker``, which takes the rows first to last."""
    todo = collections.deque(zip(images, rows))
    try:
        return worker.submit(_fill_from, todo, todo.popleft), todo
    except RuntimeError:   # the interpreter is exiting, and the worker with it
        from concurrent.futures import Future
        return Future(), todo   # never started: the caller fills every row


def _fill_from(todo: collections.deque, take) -> None:
    """Fill the (image, row) pairs that ``take`` takes from ``todo``, until none is left."""
    while True:
        try:
            image, out = take()
        except IndexError:   # the other thread took the last one
            return
        _draw(_set_stream(image), out)


def _finish_fill(ahead: tuple) -> None:
    """Finish a fill of ``_fill_ahead``: fill here, last first, the rows the
    worker has not taken, and wait for the row it is filling."""
    future, todo = ahead
    _fill_from(todo, todo.pop)
    if not future.cancel():
        future.result()


def _row_width(cfg: NetworkConfig) -> int:
    """The draws of one trial: its M N |g|^2 and then its M N max K_m |h|^2."""
    return cfg.num_bands * cfg.num_secondary * (cfg.k_max() + 1)


def _split(cfg: NetworkConfig, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (B, M, N) |g|^2 and (B, M, N, max K_m) |h|^2 views of B rows of draws."""
    m, n = cfg.num_bands, cfg.num_secondary
    return (rows[:, :m * n].reshape(len(rows), m, n),
            rows[:, m * n:].reshape(len(rows), m, n, cfg.k_max()))


def block_trials(cfg: NetworkConfig) -> int:
    """Trials per block of ``trial_passes`` under ``BLOCK_BYTES``."""
    per_trial = 8 * cfg.num_bands * cfg.num_secondary * max(1, cfg.k_max())
    return max(1, min(MAX_BLOCK_TRIALS, BLOCK_BYTES // per_trial))


def seeding_passes(cfgs, trials: int):
    """Yield the spans (point, start, count) of each seeding pass of
    ``trial_passes(cfgs, trials)``: whole blocks of config ``cfgs[point]``,
    in order, as many as keep the pass's stream states within
    ``BLOCK_BYTES``, and at least one block.

    Only a pass's first span may start after trial 0 and only its last may
    end before ``trials``, so its points are consecutive and its trials
    are consecutive in (point, trial) order."""
    room, spans, used = max(1, BLOCK_BYTES // 64), [], 0
    for point, cfg in enumerate(cfgs):
        step, start = block_trials(cfg), 0
        while start < trials:
            fits = (room - used) // step   # whole blocks that fit this pass
            if spans and fits < 1:
                yield spans
                spans, used = [], 0
                continue
            take = min(trials - start, max(fits, 1) * step)
            spans.append((point, start, take))
            used, start = used + take, start + take
    if spans:
        yield spans


def trial_passes(cfgs, trials: int):
    """An iterator of (spans, timers, blocks), one per seeding pass over
    trials 0 to ``trials - 1`` of each config ``cfgs[point]`` in turn.

    ``spans`` is the pass's list of ``seeding_passes``; the pass's rows
    are its spans' trials, in order.  ``timers(rows, counts)`` gives the
    first counts[i] draws of the contention stream of row rows[i], for
    every i, concatenated: ``default_rng((seed, t, 1)).random(counts[i])``
    of that row's trial t, all computed in one array step.

    ``blocks`` yields (point, start, row, g_sq, h_sq) for each block of
    ``block_trials`` trials of the pass: trials start to start + B - 1 of
    config ``point``, at rows row to row + B - 1.  ``g_sq`` and ``h_sq``
    are the block's stacked (B, M, N) and (B, M, N, max K_m) fading
    draws, slice b drawn from trial start + b's own fading stream.  They
    are views of the leading rows of one of the thread's two draw
    buffers, each trial's draws one row filled by one call: they are
    valid until the next block is asked for, or the pass ends.

    A span of at least ``PREFETCH_BLOCKS`` blocks whose trials draw at
    least ``PREFETCH_DRAWS`` each, in a process that may run on two or
    more CPUs, fills its blocks in both buffers in turn: while the caller
    holds one block, the pass's fill worker (``_filler``) fills the rows
    of the next into the other buffer, first to last.  Asked for that
    block, the caller fills, last first, the rows the worker has not
    taken, and waits only for the row it is filling.  Any other span
    fills each block in the first buffer when it is asked for.  A pass
    shuts its worker down when its blocks end, are closed or raise, so
    no fill thread outlives it; a forked child's passes start their own.

    A pass takes the buffers at its first block, grows each it uses to
    its largest block and gives them back when its blocks end or are
    closed, after the worker has left them; a pass that finds them taken,
    by another live pass of the thread, allocates its own.  The thread
    keeps each only up to 2 ``BLOCK_BYTES``, the most a block within
    ``BLOCK_BYTES`` takes.  The streams of every config are seeded
    together, so a sweep's points share passes.
    """
    return (_seeded_pass(cfgs, spans) for spans in seeding_passes(cfgs, trials))


def _seeded_pass(cfgs, spans) -> tuple:
    """The (spans, timers, blocks) of one seeding pass of ``trial_passes``."""
    fading, contention = _stream_images(
        [(cfgs[point].seed, _trials(start, count)) for point, start, count in spans])

    def blocks():
        bufs, ahead, worker, row = vars(_THREAD).pop("rows", None) or [np.empty(0)] * 2, None, None, 0
        try:
            for point, first, count in spans:
                cfg, step = cfgs[point], block_trials(cfgs[point])
                width = _row_width(cfg)
                need = min(step, count) * width
                starts = range(first, first + count, step)
                lanes = 2 if (len(starts) >= PREFETCH_BLOCKS and width >= PREFETCH_DRAWS
                              and _cpus() > 1) else 1
                bufs[:lanes] = [buf if buf.size >= need else np.empty(need) for buf in bufs[:lanes]]
                rows = [buf[:need].reshape(-1, width) for buf in bufs[:lanes]]
                end = row + count   # the row after the span's last
                for j, start in enumerate(starts):
                    size = min(step, end - row)
                    block = rows[j % lanes][:size]
                    if ahead is None:
                        for image, out in zip(fading[row:row + size], block):
                            _draw(_set_stream(image), out)
                    else:
                        _finish_fill(ahead)
                    ahead = None
                    if lanes > 1 and row + size < end:   # the worker fills the next block
                        images = fading[row + size:min(row + size + step, end)]
                        worker = worker or _filler()
                        ahead = _fill_ahead(worker, images, rows[(j + 1) % 2][:len(images)])
                    yield point, start, row, *_split(cfg, block)
                    row += size
        finally:   # no fill, and no worker, may outlast the pass's hold on its buffers
            if ahead is not None:
                ahead[1].clear()   # the worker takes no further row
            if worker is not None:
                worker.shutdown()   # waits for the row it is filling
            _THREAD.rows = [buf if buf.nbytes <= 2 * BLOCK_BYTES else np.empty(0) for buf in bufs]

    return spans, lambda rows, counts: _randoms(contention[rows], counts), blocks()


def draw_realization(cfg: NetworkConfig, trial_index: int) -> FadingRealization:
    """Draw one fading realization from ``np.random.default_rng((cfg.seed,
    trial_index))``: the stream contract's definition of a trial's fading
    stream, which ``trial_passes`` sets from its seeding pass."""
    trial_index = as_int("trial_index", trial_index, 0)
    rows = np.empty((1, _row_width(cfg)))
    _draw(np.random.default_rng((cfg.seed, trial_index)), rows[0])
    g_sq, h_sq = (a[0] for a in _split(cfg, rows))
    g_sq.setflags(write=False)
    h_sq.setflags(write=False)
    return FadingRealization(g_sq=g_sq, h_sq=h_sq)


def _check_shapes(cfg: NetworkConfig, g_sq: np.ndarray, h_sq: np.ndarray) -> None:
    m, n, k = cfg.num_bands, cfg.num_secondary, cfg.k_max()
    if g_sq.shape[-2:] != (m, n) or h_sq.shape[-3:] != (m, n, k) \
            or g_sq.shape[:-2] != h_sq.shape[:-3]:
        raise ConfigError(
            f"realization shape {g_sq.shape}/{h_sq.shape} does not "
            f"match config ({m}, {n}, {k})"
        )


def _interference(cfg: NetworkConfig, h_sq: np.ndarray,
                  weights: np.ndarray | None) -> np.ndarray:
    """(..., M, N) per-band interference sums, sum_j weights[n, j] * |h_mnj|^2.

    The sums are a new array; ``weights`` None sums the raw |h|^2 with no
    product.  Bands with fewer primary users than max K_m only see their
    first K_m interference terms.
    """
    def total(h):   # (..., N, k) gains summed against the first k weights
        k = h.shape[-1]
        if weights is None:
            return _sum_terms(k, lambda s: h[..., s])
        w = weights[:, :k]
        return _sum_terms(k, lambda s: h[..., s] * w[:, s])

    if len(set(cfg.primary_count)) == 1:   # every band sees all k terms
        return total(h_sq)
    sums = np.zeros(h_sq.shape[:-1])
    for band, k_m in enumerate(cfg.primary_count):
        if k_m:
            sums[..., band, :] = total(h_sq[..., band, :, :k_m])
    return sums


def _sum_terms(k: int, term) -> np.ndarray:
    """``np.sum(term(slice(None)), axis=-1)`` of k terms, bit for bit.

    ``term(s)`` gives the terms of the slice ``s`` of 0..k-1, stacked on
    the last axis.  Below 8 terms np.sum adds them left to right, so they
    are made and added one at a time, with no (..., k) array and no
    reduction loop of length k; at none, or from 8 on, np.sum adds
    pairwise, so it runs on the stacked terms.  The sum starts as the new
    array term 0 + term 1, so k terms take k - 1 passes and no copy.
    """
    if not 0 < k < 8:
        return np.sum(term(slice(None)), axis=-1)
    first = term(slice(0, 1))[..., 0]
    total = first + term(slice(1, 2))[..., 0] if k > 1 else first.copy()   # a term may be a view
    for j in range(2, k):
        total += term(slice(j, j + 1))[..., 0]
    return total


def sinr_block(cfg: NetworkConfig, g_sq: np.ndarray, h_sq: np.ndarray) -> np.ndarray:
    """(..., M, N) SINR of stacked realizations (leading axes are trials).

    Every operation is elementwise or a sum over the last axis, so each
    trial's slice equals its one-trial table bit for bit.  On unit gamma the
    |h|^2 are summed unweighted (``cfg.interference_weights``), bit for bit
    the weighted sum.  The draws are only read; the result is a new array.
    """
    _check_shapes(cfg, g_sq, h_sq)
    denominator = _interference(cfg, h_sq, cfg.interference_weights)   # a new array
    denominator *= cfg.power_primary
    denominator += cfg.noise_power
    sinr = cfg.power_secondary * cfg.eta * g_sq
    sinr /= denominator
    return sinr


def compute_sinr(cfg: NetworkConfig, real: FadingRealization) -> SinrTable:
    """SINR table for one realization."""
    sinr = sinr_block(cfg, real.g_sq, real.h_sq)
    sinr.setflags(write=False)
    return SinrTable(sinr=sinr)


def sinr_bounds(cfg: NetworkConfig, g_sq: np.ndarray,
                h_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic bound variables (S_l, S_u) with S_l <= SINR <= S_u.

    SINR = g / (slope_n + sum_j coeff_nj |h_j|^2) with the coefficients of
    ``cfg.link_law``; each bound puts in their extremes
    (``cfg.bound_law``), so its entries are i.i.d. across users.  Only
    the validation of the analysis needs them.  The draws may be stacked,
    leading axes being trials, as ``sinr_block`` takes them.
    """
    _check_shapes(cfg, g_sq, h_sq)
    raw = _interference(cfg, h_sq, None)
    (slope_l, c_l), (slope_u, c_u) = cfg.bound_law(upper=False), cfg.bound_law(upper=True)
    return g_sq / (slope_l + c_l * raw), g_sq / (slope_u + c_u * raw)
