"""Seeded random search for codes satisfying a predicate.

Each trial draws its own RNG stream keyed by (seed, trial index), so the
result set depends only on (seed, budget, dimensions, predicate).  Trial
``t`` gets the matrices :func:`random_code` draws from
``Generator(Philox(SeedSequence(seed, spawn_key=(t,))))``, bit for bit, but a
block of trials is drawn by one vectorized numpy computation: the trials'
spawn words mixed into the pool of the call's one ``SeedSequence(seed)``,
Philox4x64-10 rounds and numpy's bounded-integer bit extraction, all over
arrays of trials.  What depends only on the shape of a draw is built once
and cached read-only: where each matrix's bits sit in a trial's Philox
output (per dimensions and constraint), SeedSequence's hash constants, and
the full-shape Philox operands (per block of trials).  The key kernel,
:func:`_philox_keys`, takes a spawn-key suffix ``(trial[, stream])`` and so
also keys the per-trial streams of :func:`cpc.dynamics.simulate`.  Blocks
are stacked uint8 arrays mb (N, k, n_b), mp (N, k, n_p) and mc
(N, n_b, n_p), and a predicate judges a whole block at once:
``predicate(mb, mp, mc)`` returns an (N,) bool array.  This module's
predicate factories return the batched verdicts of :mod:`cpc.decoding`: one
sort of each code's tagged X and Z single-fault syndromes and a zero key,
each syndrome packed from its block of the check rows
(:func:`cpc.stabilizers.split_check_blocks`).  Codes are built only for the
hits.
"""

from __future__ import annotations

import functools
import operator
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .decoding import _check_cnot, cnot_compatible_mask, correcting_mask
from .gf2 import Gf2Matrix, _read_only
from .model import CpcCode, _integer

__all__ = [
    "random_code",
    "search",
    "SearchResult",
    "single_error_correcting_predicate",
    "cnot_compatible_predicate",
]

# Trials drawn and judged per predicate call; bounds the (block, 2n + 1) key arrays.
_BLOCK = 2048


def _check_draw(k: int, n_b: int, n_p: int, constraint: str | None) -> tuple[int, int, int]:
    """The checked dimensions of a draw, as ints."""
    if constraint not in (None, "mirror_bp"):
        raise ValueError(f"unknown constraint {constraint!r}")
    k, n_b, n_p = _integer("k", k), _integer("n_b", n_b), _integer("n_p", n_p)
    if min(k, n_b, n_p) < 0:
        raise ValueError("dimensions must be non-negative")
    if constraint == "mirror_bp" and n_b != n_p:
        raise ValueError("mirror_bp requires n_b == n_p")
    return k, n_b, n_p


def _code(mb, mp, mc) -> CpcCode:
    return CpcCode(mb=Gf2Matrix(mb), mp=Gf2Matrix(mp), mc=Gf2Matrix(mc))


def random_code(
    k: int,
    n_b: int,
    n_p: int,
    rng: np.random.Generator,
    constraint: str | None = None,
) -> CpcCode:
    """Uniformly random code matrices; draw order is mb, (mp,) mc.

    With ``constraint="mirror_bp"`` the phase matrix is set equal to the bit
    matrix instead of being drawn (requires n_b == n_p).
    """
    k, n_b, n_p = _check_draw(k, n_b, n_p, constraint)
    mb = rng.integers(0, 2, size=(k, n_b), dtype=np.uint8)
    if constraint == "mirror_bp":
        mp = mb
    else:
        mp = rng.integers(0, 2, size=(k, n_p), dtype=np.uint8)
    mc = rng.integers(0, 2, size=(n_b, n_p), dtype=np.uint8)
    return _code(mb, mp, mc)


@dataclass(frozen=True)
class SearchResult:
    found: tuple[tuple[int, CpcCode], ...]  # (trial index, code), capped
    trials: int
    successes: int
    # Summed seconds of drawing the trials and of judging them; not compared,
    # so equal-seed results stay equal.
    draw_s: float = field(default=0.0, compare=False)
    predicate_s: float = field(default=0.0, compare=False)

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


# numpy's SeedSequence: a pool of four 32-bit words, hashed with multipliers
# that advance on every use.  The helpers below take uint64 arrays of 32-bit
# values; products fit in 64 bits and are masked back to 32.
_POOL = 4
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# Philox4x64-10 (Salmon et al., SC'11): multipliers of lanes 0 and 2 and
# their key bumps.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_U32 = np.uint64(32)
_LO = np.uint64(_M32)
# Stacked position of Philox lanes 0..3 in :func:`_philox`'s output.
_LANE_ROW = (0, 3, 1, 2)


@functools.lru_cache(maxsize=64)
def _hash_consts(init: int, mult: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's (before, after) multipliers of hashes first..first + 3.

    Every hash advances the multiplier by ``mult``, so hash h uses
    ``init * mult**h`` before and ``init * mult**(h + 1)`` after, mod 2**32;
    returned as read-only uint64 columns.
    """
    powers = [init * pow(mult, first + i, 1 << 32) & _M32 for i in range(_POOL + 1)]
    return tuple(
        _read_only(np.array(p, dtype=np.uint64)[:, None]) for p in (powers[:-1], powers[1:])
    )


def _hashmix(value, consts):
    """SeedSequence's hash of 32-bit ``value``."""
    before, after = consts
    value = (value ^ before) * after & _M32
    return value ^ value >> 16


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _M32
    return value ^ value >> 16


def _word_count(entropy) -> int:
    """Number of 32-bit words SeedSequence makes of an int or a sequence of ints."""
    if isinstance(entropy, (int, np.integer)):
        return max(1, -(-operator.index(entropy).bit_length() // 32))
    return sum(_word_count(e) for e in entropy)


def _philox_keys(seq: np.random.SeedSequence, trials: range, stream: int | None = None):
    """(N, 2) Philox keys of ``SeedSequence(seq.entropy, spawn_key=suffix)``.

    The spawn key is ``(trial,)``, or ``(trial, stream)`` for a stream below
    2**32.  Its entropy is the seed's 32-bit words, zero-padded to the pool
    size, then the spawn words; this prefix is shared by every trial, and
    mixes to ``seq.pool``, since SeedSequence hashes a zero for every missing
    pool word.  That mixing took one hash per pool word, one per ordered pair
    of pool words, and one per pool word for every seed word past the pool
    size; each spawn word then takes one hash per pool word.  A trial below
    2**32 is one spawn word, a larger one two (low word first).
    """
    if trials.start < 1 << 32 < trials.stop:  # trials of one and of two words
        cut = (1 << 32) - trials.start
        parts = (trials[:cut], trials[cut:])
        return np.concatenate([_philox_keys(seq, part, stream) for part in parts])
    used = _POOL * _POOL + _POOL * max(0, _word_count(seq.entropy) - _POOL)
    t = np.uint64(trials.start) + np.arange(len(trials), dtype=np.uint64)
    words = [t & _LO] + ([t >> _U32] if trials.start >> 32 else [])
    words += [] if stream is None else [np.uint64(stream)]
    pool = seq.pool.astype(np.uint64)[:, None]
    for i, word in enumerate(words):
        pool = _mix(pool, _hashmix(word, _hash_consts(_INIT_A, _MULT_A, used + i * _POOL)))
    # generate_state(2, uint64): four hashed pool words, little-endian pairs.
    state = _hashmix(pool, _hash_consts(_INIT_B, _MULT_B, 0))
    return (state[0::2] | state[1::2] << _U32).T


@functools.lru_cache(maxsize=8)
def _philox_operands(trials: int, blocks: int):
    """Read-only operands of :func:`_philox` on (trials, 2, blocks) arrays.

    Every operand has the full shape, since numpy's per-call cost dominates
    at these sizes and broadcasting or a scalar operand adds to it.  Returns
    the lane multipliers, their low and high 32-bit halves, the 32-bit shift
    and mask, each round's key offset (its key minus the round-0 key, one
    (trials, 2, blocks) slab per round), and the state after round 0 up to
    its key: that round sees only the counters, 1..blocks in lane 0.
    """
    shape = (trials, 2, blocks)
    full = functools.partial(np.full, shape, dtype=np.uint64)
    m = full(np.array(_PHILOX_M, dtype=np.uint64)[:, None])
    m_lo, m_hi, shift, low = m & _LO, m >> _U32, full(_U32), full(_LO)
    bumps = np.array(_PHILOX_W, dtype=np.uint64)[:, None] * np.arange(
        _PHILOX_ROUNDS, dtype=np.uint64
    )
    offsets = np.empty((_PHILOX_ROUNDS,) + shape, dtype=np.uint64)
    offsets[...] = bumps.T[:, None, :, None]
    counters = np.zeros(shape, dtype=np.uint64)
    counters[:, 0] = np.arange(1, blocks + 1, dtype=np.uint64)
    first_a = np.ascontiguousarray(_mulhi(counters, m_lo, m_hi, shift, low)[:, ::-1])
    first_lo = counters * m
    return tuple(
        _read_only(x) for x in (m, m_lo, m_hi, shift, low, offsets, first_a, first_lo)
    )


def _mulhi(x, m_lo, m_hi, shift, low):
    """High 64 bits of ``x * m`` from products of 32-bit halves (m in halves)."""
    x_lo, x_hi = x & low, x >> shift
    t = x_hi * m_lo + (x_lo * m_lo >> shift)
    u = x_lo * m_hi + (t & low)
    return x_hi * m_hi + (t >> shift) + (u >> shift)


def _philox(keys: np.ndarray, blocks: int) -> np.ndarray:
    """Philox4x64-10 outputs at counters 1..blocks under each row of (N, 2) ``keys``.

    Returns (N, 4, blocks) uint64: output (counter c, lane l) of trial n is
    at ``[n, _LANE_ROW[l], c - 1]``.  Lanes 0 and 2 are stacked in ``a`` and
    the round's low products in ``lo``; lanes 1 and 3 are ``lo`` reversed,
    so a round reverses the stacked pair once, on the XOR of the high
    products with ``lo``.  Round 0 comes from the cached operands, and every
    round's key from one addition.
    """
    m, m_lo, m_hi, shift, low, offsets, a, lo = _philox_operands(keys.shape[0], blocks)
    key = keys[None, :, :, None] + offsets
    a = a ^ key[0]
    for r in range(1, _PHILOX_ROUNDS):
        hi = _mulhi(a, m_lo, m_hi, shift, low)
        a, lo = (hi ^ lo)[:, ::-1] ^ key[r], a * m
    return np.concatenate((a, lo), axis=1)


@functools.lru_cache(maxsize=64)
def _draw_plan(dims: tuple[int, int, int], constraint: str | None):
    """Where each matrix's bits sit in a trial's Philox output, and its block count.

    ``integers(0, 2, dtype=uint8)`` returns bit 7 of successive bytes of
    32-bit words, low byte first; each call starts on a fresh word, and the
    words are the low then high halves of the 64-bit outputs.  Returns the
    number of Philox blocks (four outputs each) the calls span, and for each
    call a read-only index array of its matrix's shape into the bytes of
    :func:`_philox`'s output of one trial.
    """
    k, n_b, n_p = dims
    shapes = [(k, n_b)] + ([] if constraint == "mirror_bp" else [(k, n_p)]) + [(n_b, n_p)]
    counts = [r * c for r, c in shapes]
    starts = np.cumsum([0] + [-(-c // 4) for c in counts])
    blocks = -(-int(starts[-1]) // 8)
    columns = []
    for start, count, shape in zip(starts, counts, shapes):
        pos = 4 * start + np.arange(count)
        word = pos // 4
        output, byte = word // 2, 4 * (word % 2) + pos % 4
        if sys.byteorder == "big":
            byte = 7 - byte
        row = np.take(_LANE_ROW, output % 4) * blocks + output // 4
        columns.append(_read_only((8 * row + byte).reshape(shape)))
    return blocks, tuple(columns)


def _draw_block(seq: np.random.SeedSequence, trials: range, dims, constraint):
    """Stacked (mb, mp, mc) of the given trials, each from its own Philox stream.

    Bit-identical to :func:`random_code` on
    ``Generator(Philox(SeedSequence(seq.entropy, spawn_key=(trial,))))``,
    computed for all trials at once.
    """
    blocks, columns = _draw_plan(tuple(dims), constraint)
    stream = _philox(_philox_keys(seq, trials), blocks)
    bits = stream.reshape(len(trials), 4 * blocks).view(np.uint8) >> np.uint8(7)
    mats = [bits.take(cols, axis=1) for cols in columns]
    return mats[0], mats[0] if constraint == "mirror_bp" else mats[1], mats[-1]


def search(
    dims: tuple[int, int, int],
    predicate: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    budget: int,
    seed: int,
    constraint: str | None = None,
    cap: int = 100,
    threads: int = 1,
) -> SearchResult:
    """Evaluate the predicate on ``budget`` random codes and collect the hits.

    ``predicate(mb, mp, mc)`` takes a block of N stacked trials (shapes
    (N, k, n_b), (N, k, n_p), (N, n_b, n_p)) and returns their (N,) bool
    verdicts, e.g. :func:`single_error_correcting_predicate` or
    :func:`cnot_compatible_predicate`.  Every trial draws the same matrices
    as :func:`random_code` on its own stream.

    ``seed`` is any entropy :class:`numpy.random.SeedSequence` accepts (a
    non-negative int, a sequence of them, or None for fresh entropy), checked
    by it.  The dimensions, ``budget`` and ``cap`` must be integers, not
    bools, checked before any draw.  At most ``cap`` codes are returned (the
    earliest trial indices win); ``successes`` counts all hits.  Trials run
    serially in one thread: ``threads`` is accepted for compatibility and
    changes neither the result nor the speed (worker threads only contend for
    the interpreter lock).
    """
    budget, cap = _integer("budget", budget), _integer("cap", cap)
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if cap < 0:
        raise ValueError("cap must be non-negative")
    dims = _check_draw(*dims, constraint)
    seq = np.random.SeedSequence(seed)  # validates; None draws entropy
    found: list[tuple[int, CpcCode]] = []
    successes = 0
    draw_s = predicate_s = 0.0
    for start in range(0, budget, _BLOCK):
        trials = range(start, min(start + _BLOCK, budget))
        t0 = time.perf_counter()
        mb, mp, mc = _draw_block(seq, trials, dims, constraint)
        t1 = time.perf_counter()
        hits = np.flatnonzero(predicate(mb, mp, mc))
        draw_s += t1 - t0
        predicate_s += time.perf_counter() - t1
        successes += len(hits)
        for i in hits[: cap - len(found)]:
            found.append((trials[i], _code(mb[i], mp[i], mc[i])))
    return SearchResult(tuple(found), budget, successes, draw_s, predicate_s)


def single_error_correcting_predicate() -> Callable[..., np.ndarray]:
    """Search predicate ``(mb, mp, mc) -> (N,) bool`` of :func:`correcting_mask`."""
    return correcting_mask


def cnot_compatible_predicate(control: int, target: int) -> Callable[..., np.ndarray]:
    """Search predicate ``(mb, mp, mc) -> (N,) bool`` of :func:`cnot_compatible_mask`.

    Equal indices are rejected here; out-of-range ones when the data count
    is known, on the first block of codes.
    """
    _check_cnot(control, target)
    return functools.partial(cnot_compatible_mask, control=control, target=target)
