"""Random network realizations and per-realization SINR tables.

Squared channel magnitudes |g|^2 and |h|^2 are drawn directly as
unit-mean exponentials (|CN(0,1)|^2), which is distributionally
identical to drawing complex Gaussians and cheaper.
"""
from __future__ import annotations

import ctypes
import functools
import threading
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, NetworkConfig


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


def _seed_states(seed: int, start: int, count: int) -> np.ndarray:
    """(2 count, 4) ``SeedSequence(key).generate_state(4, np.uint64)`` of
    the keys (seed, t) and then (seed, t, 1), start <= t < start + count.

    numpy's entropy mixing and state generation run on whole columns of
    keys.  Keys shorter than the pool are zero-padded, as SeedSequence
    pads them; a key longer than the pool takes the extra mixing rounds
    of its own words only.
    """
    head = _key_words(seed)
    h = len(head)
    t = np.arange(count, dtype=np.uint64) + np.uint64(start)
    hi = (t >> np.uint64(32)).astype(_U32)
    wide = hi != 0                            # t has two words
    tail = np.array([[0], [1]], dtype=_U32)   # no tail, then the tail 1
    words = np.zeros((h + 3, 2, count), dtype=_U32)
    words[:h] = np.array(head, dtype=_U32)[:, None, None]
    words[h] = t.astype(_U32)
    words[h + 1] = np.where(wide, hi, tail)
    words[h + 2] = wide * tail
    words = words.reshape(h + 3, 2 * count)
    lengths = (h + 1 + wide + tail).ravel()

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


def _mul_high(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of a * b for uint64 columns a, from 32-bit limbs."""
    a0, a1 = a & _LOW32, a >> _SHIFT32
    b0, b1 = _U64(b & 0xFFFFFFFF), _U64(b >> 32)
    t = a1 * b0 + (a0 * b0 >> _SHIFT32)
    w = (t & _LOW32) + a0 * b1
    return a1 * b1 + (t >> _SHIFT32) + (w >> _SHIFT32)


def _pcg64_images(states: np.ndarray, layout: tuple[int, ...]) -> np.ndarray:
    """(rows, 4) uint64 PCG64 states after seeding with the generate_state
    rows ``states``: state = (s + inc) * MULT + inc mod 2**128, inc = 2 i + 1.

    Column c holds word ``layout[c]`` of (state low, state high, inc low,
    inc high): the generator's memory order (see ``_memory_layout``).
    """
    s_hi, s_lo, i_hi, i_lo = states.T
    inc_hi, inc_lo = i_hi << _U64(1) | i_lo >> _U64(63), i_lo << _U64(1) | _U64(1)
    a_hi, a_lo = _add(s_hi, s_lo, inc_hi, inc_lo)
    m_hi, m_lo = _PCG_MULT >> 64, _PCG_MULT & 0xFFFFFFFFFFFFFFFF
    p_hi = _mul_high(a_lo, m_lo) + a_lo * _U64(m_hi) + a_hi * _U64(m_lo)
    st_hi, st_lo = _add(p_hi, a_lo * _U64(m_lo), inc_hi, inc_lo)
    words, images = (st_lo, st_hi, inc_lo, inc_hi), np.empty_like(states)
    for column, k in enumerate(layout):
        images[:, column] = words[k]
    return images


class _Pcg64State(ctypes.Structure):
    """numpy's ``pcg64_state``, at ``PCG64.ctypes.state_address``."""

    _fields_ = [("pcg_state", ctypes.c_void_p),   # the 32 bytes {state, inc}
                ("has_uint32", ctypes.c_int), ("uinteger", ctypes.c_uint32)]


def _state_views(bit_generator: np.random.PCG64) -> tuple[np.ndarray, _Pcg64State]:
    """Writable views of a PCG64's four state words and of its 32-bit buffer;
    they are valid while ``bit_generator`` lives."""
    head = _Pcg64State.from_address(bit_generator.ctypes.state_address)
    return np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(head.pcg_state)), head


_THREAD = threading.local()


def _set_stream(image: np.ndarray) -> np.random.Generator:
    """This thread's reused generator, its PCG64 state set to ``image`` with
    no buffered 32-bit draw, as the documented ``state`` setter leaves it."""
    try:
        gen, words, head = _THREAD.stream
    except AttributeError:
        gen = np.random.Generator(np.random.PCG64(0))
        gen, words, head = _THREAD.stream = (gen, *_state_views(gen.bit_generator))
    words[...] = image
    head.has_uint32 = head.uinteger = 0
    return gen


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
        raise RuntimeError("this numpy lays out PCG64's state differently from "
                           "the trial streams' state write")
    return layout


@functools.cache
def _check_seeding() -> tuple[int, ...]:
    """The ``_memory_layout`` of PCG64 in this process; RuntimeError unless
    streams set from the seeding pass draw as ``default_rng`` does.

    The key takes every mixing round, and the second stream is set while
    the first still buffers a 32-bit draw, so the hashing, the seeding step
    and the state write are checked together.
    """
    layout = _memory_layout(np.random.PCG64(0))
    seed, t = (1 << 96) + (1 << 64) + 3, (1 << 32) + 5
    images = _pcg64_images(_seed_states(seed, t, 1), layout)
    def draws(gen: np.random.Generator) -> list:
        return gen.integers(0, 2**32, 3, dtype=np.uint32).tolist() + gen.random(2).tolist()

    for image, key in zip(images, ((seed, t), (seed, t, 1))):
        if draws(_set_stream(image)) != draws(np.random.default_rng(key)):
            raise RuntimeError("this numpy seeds PCG64 differently from the trial "
                               "seeding pass; trial streams would diverge")
    return layout


#: Trials run as one array pass: as many as keep the block's (B, M, N, K)
#: interference gains within this many bytes, and at most MAX_BLOCK_TRIALS.
#: Trials are seeded in chunks whose stream states fit it too.
BLOCK_BYTES = 1 << 19
MAX_BLOCK_TRIALS = 64


class TrialStreams:
    """The random streams of trials ``start`` to ``start + count - 1``.

    Trial t draws its fading from the stream ``np.random.default_rng(
    (seed, t))`` and its contention timers from ``np.random.default_rng(
    (seed, t, 1))``; that is the stream contract, and ``draw_realization``
    and the tests use ``default_rng`` as its definition.  Here the keys of
    every trial are seeded in one array pass, PCG64's seeding step
    included, and each stream is this thread's one reused PCG64 with its 32
    bytes of state overwritten by those ``default_rng(key)`` would hold.
    A returned generator is therefore valid only until the
    next stream is asked for: draw from it at once.
    """

    def __init__(self, seed: int, start: int, count: int):
        if start < 0:
            raise ConfigError("trial_index must be non-negative")
        if start + count > 1 << 64:
            raise ConfigError("trial indices must be below 2**64")
        self.start, self.count = start, count
        self._images = _pcg64_images(_seed_states(seed, start, count), _check_seeding())

    def _stream(self, row: int) -> np.random.Generator:
        return _set_stream(self._images[row])

    def fading(self, t: int) -> np.random.Generator:
        """Trial t's fading stream, (seed, t)."""
        return self._stream(t - self.start)

    def contention(self, t: int) -> np.random.Generator:
        """Trial t's contention stream, (seed, t, 1)."""
        return self._stream(self.count + t - self.start)


def _draw(rng: np.random.Generator, g_sq: np.ndarray, h_sq: np.ndarray) -> None:
    rng.standard_exponential(out=g_sq)
    if h_sq.size:
        rng.standard_exponential(out=h_sq)


def _empty_draws(cfg: NetworkConfig, count: int) -> tuple[np.ndarray, np.ndarray]:
    m, n, k = cfg.num_bands, cfg.num_secondary, cfg.k_max()
    return np.empty((count, m, n)), np.empty((count, m, n, k))


def block_trials(cfg: NetworkConfig) -> int:
    """Trials per block of ``trial_blocks`` under ``BLOCK_BYTES``."""
    per_trial = 8 * cfg.num_bands * cfg.num_secondary * max(1, cfg.k_max())
    return max(1, min(MAX_BLOCK_TRIALS, BLOCK_BYTES // per_trial))


def chunk_trials(cfg: NetworkConfig) -> int:
    """Trials per seeding pass: as many whole blocks as keep the trials'
    stream states (two streams of 4 uint64 words each) within ``BLOCK_BYTES``."""
    step = block_trials(cfg)
    return max(1, BLOCK_BYTES // (64 * step)) * step


def trial_blocks(cfg: NetworkConfig, trials: int):
    """Yield (start, g_sq, h_sq, contention) for each block of trials 0 to
    ``trials - 1``, ``block_trials(cfg)`` trials a block.

    ``g_sq`` and ``h_sq`` are the block's stacked (B, M, N) and
    (B, M, N, max K_m) fading draws, slice b drawn from trial start + b's
    own fading stream.  ``contention(t)`` is trial t's contention stream,
    for the trials of this block; draw from it before asking for another.
    """
    step, chunk = block_trials(cfg), chunk_trials(cfg)
    for first in range(0, trials, chunk):
        streams = TrialStreams(cfg.seed, first, min(trials - first, chunk))
        for start in range(first, first + streams.count, step):
            g_sq, h_sq = _empty_draws(cfg, min(step, first + streams.count - start))
            for b in range(len(g_sq)):
                _draw(streams.fading(start + b), g_sq[b], h_sq[b])
            yield start, g_sq, h_sq, streams.contention


def draw_realization(cfg: NetworkConfig, trial_index: int) -> FadingRealization:
    """Draw one fading realization from ``np.random.default_rng((cfg.seed,
    trial_index))``, the stream ``TrialStreams`` gives the trial."""
    if trial_index < 0:
        raise ConfigError("trial_index must be non-negative")
    g_sq, h_sq = (a[0] for a in _empty_draws(cfg, 1))
    _draw(np.random.default_rng((cfg.seed, trial_index)), g_sq, h_sq)
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


def _interference(cfg: NetworkConfig, h_sq: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(..., M, N) per-band interference sums, sum_j weights[n, j] * |h_mnj|^2.

    Bands with fewer primary users than max K_m only see their first
    K_m interference terms.
    """
    if len(set(cfg.primary_count)) == 1:   # every band sees all k terms
        return _sum_terms(h_sq * weights)
    sums = np.zeros(h_sq.shape[:-1])
    for band, k_m in enumerate(cfg.primary_count):
        if k_m:
            sums[..., band, :] = _sum_terms(h_sq[..., band, :, :k_m] * weights[:, :k_m])
    return sums


def _sum_terms(terms: np.ndarray) -> np.ndarray:
    """``np.sum(terms, axis=-1)``, bit for bit.

    Below 8 terms np.sum adds them left to right, and adding whole slices
    in that order is several times faster than its short reductions;
    from 8 terms on it adds pairwise, so np.sum itself runs.
    """
    k = terms.shape[-1]
    if not 0 < k < 8:
        return np.sum(terms, axis=-1)
    total = terms[..., 0].copy()
    for j in range(1, k):
        total += terms[..., j]
    return total


def sinr_block(cfg: NetworkConfig, g_sq: np.ndarray, h_sq: np.ndarray) -> np.ndarray:
    """(..., M, N) SINR of stacked realizations (leading axes are trials).

    Every operation is elementwise or a sum over the last axis, so each
    trial's slice equals its one-trial table bit for bit.
    """
    _check_shapes(cfg, g_sq, h_sq)
    interference = _interference(cfg, h_sq, cfg.gamma)
    return (cfg.power_secondary * cfg.eta * g_sq) / (
        cfg.noise_power + cfg.power_primary * interference
    )


def compute_sinr(cfg: NetworkConfig, real: FadingRealization) -> SinrTable:
    """SINR table for one realization."""
    sinr = sinr_block(cfg, real.g_sq, real.h_sq)
    sinr.setflags(write=False)
    return SinrTable(sinr=sinr)


def sinr_bounds(cfg: NetworkConfig,
                real: FadingRealization) -> tuple[np.ndarray, np.ndarray]:
    """Analytic bound variables (S_l, S_u) with S_l <= SINR <= S_u.

    SINR = g / (slope_n + sum_j coeff_nj |h_j|^2) with the coefficients of
    ``cfg.link_law``; each bound puts in their extremes
    (``cfg.bound_law``), so its entries are i.i.d. across users.  Only
    the validation of the analysis needs them.  ``real`` may hold stacked
    realizations, leading axes being trials, as ``sinr_block`` takes them.
    """
    _check_shapes(cfg, real.g_sq, real.h_sq)
    raw = _interference(cfg, real.h_sq, np.ones_like(cfg.gamma))
    (slope_l, c_l), (slope_u, c_u) = cfg.bound_law(upper=False), cfg.bound_law(upper=True)
    return real.g_sq / (slope_l + c_l * raw), real.g_sq / (slope_u + c_u * raw)
