"""Seeded random search for codes satisfying a predicate.

Each trial draws its own RNG stream keyed by (seed, trial index), so the
result set depends only on (seed, budget, dimensions, predicate).  Trial
``t`` gets the matrices :func:`random_code` draws from
``Generator(Philox(SeedSequence(seed, spawn_key=(t,))))``, bit for bit, but a
block of trials is drawn by one vectorized numpy computation: the trials'
spawn words mixed into the seed's pool (``SeedSequence(seed).pool``),
Philox4x64-10 rounds and numpy's bounded-integer bit extraction, all over
arrays of trials.  Blocks are stacked uint8 arrays mb (N, k, n_b),
mp (N, k, n_p) and mc (N, n_b, n_p), and a predicate judges a whole block at
once: ``predicate(mb, mp, mc)`` returns an (N,) bool array.  The predicates
of :mod:`cpc.decoding` read each code's single-fault syndromes off its
stacked check rows (:func:`cpc.stabilizers.split_check_rows`).  Codes are
built only for the hits.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .decoding import cnot_compatible_predicate, single_error_correcting_predicate
from .gf2 import Gf2Matrix
from .model import CpcCode

__all__ = [
    "random_code",
    "search",
    "SearchResult",
    "single_error_correcting_predicate",
    "cnot_compatible_predicate",
]

# Trials drawn and judged per predicate call; bounds the (block, 3n) key arrays.
_BLOCK = 2048


def _check_draw(k: int, n_b: int, n_p: int, constraint: str | None) -> None:
    if constraint not in (None, "mirror_bp"):
        raise ValueError(f"unknown constraint {constraint!r}")
    if min(k, n_b, n_p) < 0:
        raise ValueError("dimensions must be non-negative")
    if constraint == "mirror_bp" and n_b != n_p:
        raise ValueError("mirror_bp requires n_b == n_p")


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
    _check_draw(k, n_b, n_p, constraint)
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

# Philox4x64-10 (Salmon et al., SC'11): multipliers of lanes 0 and 2, key
# bumps, and uint64 shift/mask constants for the 32-bit-half products.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_PHILOX_ROUNDS = 10
_U32 = np.uint64(32)
_LO = np.uint64(_M32)


def _hash_consts(init: int, mult: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's (before, after) multipliers of hashes first..first + 3.

    Every hash advances the multiplier by ``mult``, so hash h uses
    ``init * mult**h`` before and ``init * mult**(h + 1)`` after, mod 2**32;
    returned as uint64 columns.
    """
    powers = [init * pow(mult, first + i, 1 << 32) & _M32 for i in range(_POOL + 1)]
    return tuple(np.array(p, dtype=np.uint64)[:, None] for p in (powers[:-1], powers[1:]))


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


def _seed_pool(seed) -> tuple[np.ndarray, int]:
    """The SeedSequence pool after ``seed``'s words, and the number of hashes it took.

    A trial's entropy is the seed's 32-bit words, zero-padded to the pool size
    because a spawn key follows, then the trial's spawn words; this prefix is
    shared by every trial.  A seed alone mixes to the same pool, since
    SeedSequence hashes a zero for every missing pool word, and its mixing
    takes one hash per pool word, one per ordered pair of pool words, and
    one per pool word for every word past the pool size.
    """
    hashes = _POOL * _POOL + _POOL * max(0, _word_count(seed) - _POOL)
    return np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None], hashes


def _philox_keys(seed, trials: range) -> np.ndarray:
    """(2, N) Philox keys of ``SeedSequence(seed, spawn_key=(trial,))``.

    A trial below 2**32 is one spawn word, a larger one two (low word first);
    the second word is mixed in under a mask.
    """
    pool, used = _seed_pool(seed)
    t = np.uint64(trials.start) + np.arange(len(trials), dtype=np.uint64)
    lo, hi = t & _LO, t >> _U32
    pool = _mix(pool, _hashmix(lo, _hash_consts(_INIT_A, _MULT_A, used)))
    hi_consts = _hash_consts(_INIT_A, _MULT_A, used + _POOL)
    pool = np.where(hi != 0, _mix(pool, _hashmix(hi, hi_consts)), pool)
    # generate_state(2, uint64): four hashed pool words, little-endian pairs.
    state = _hashmix(pool, _hash_consts(_INIT_B, _MULT_B, 0))
    return state[0::2] | state[1::2] << _U32


def _mulhi(x, m_lo, m_hi):
    """High 64 bits of ``x * m`` from products of 32-bit halves (m in halves)."""
    x_lo, x_hi = x & _LO, x >> _U32
    t = x_hi * m_lo + (x_lo * m_lo >> _U32)
    u = x_lo * m_hi + (t & _LO)
    return x_hi * m_hi + (t >> _U32) + (u >> _U32)


def _philox(keys: np.ndarray, blocks: int) -> np.ndarray:
    """Philox4x64-10 outputs at counters 1..blocks: row 4 * (counter - 1) + lane.

    ``keys`` is (2, N); the result is (4 * blocks, N) uint64, a trial per
    column.  Lanes 0 and 2 and lanes 1 and 3 are stacked in ``a`` and ``b``;
    every operand has the full (2, blocks, N) shape, since numpy's per-call
    cost dominates at these sizes and broadcasting adds to it.
    """
    shape = (2, blocks, keys.shape[1])
    m = np.broadcast_to(_PHILOX_M, shape).copy()
    m_lo, m_hi = m & _LO, m >> _U32
    bump = np.broadcast_to(_PHILOX_W, shape)
    key = np.broadcast_to(keys[:, None, :], shape).copy()
    a = np.zeros(shape, dtype=np.uint64)
    a[0] = np.arange(1, blocks + 1, dtype=np.uint64)[:, None]
    b = np.zeros(shape, dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += bump
        a, b = _mulhi(a, m_lo, m_hi)[::-1] ^ b ^ key, (a * m)[::-1]
    return np.stack([a[0], b[0], a[1], b[1]], axis=1).reshape(4 * blocks, shape[2])


def _bit_layout(counts: list[int]):
    """Where each drawn bit sits in a trial's Philox output.

    ``integers(0, 2, dtype=uint8)`` returns bit 7 of successive bytes of
    32-bit words, low byte first; each call starts on a fresh word, and the
    words are the low then high halves of the 64-bit outputs.  Returns the
    output index and shift of every bit, calls concatenated, and the number
    of Philox blocks (four outputs each) they span.
    """
    starts = np.cumsum([0] + [-(-c // 4) for c in counts])
    pos = np.concatenate([4 * s + np.arange(c) for s, c in zip(starts, counts)])
    word = pos // 4
    shift = (32 * (word % 2) + 8 * (pos % 4) + 7).astype(np.uint64)
    return word // 2, shift, -(-int(starts[-1]) // 8)


def _draw_block(seed, trials: range, dims, constraint):
    """Stacked (mb, mp, mc) of the given trials, each from its own Philox stream.

    Bit-identical to :func:`random_code` on
    ``Generator(Philox(SeedSequence(seed, spawn_key=(trial,))))`` for a seed
    that SeedSequence accepts (other than None), computed for all trials at
    once.
    """
    k, n_b, n_p = dims
    shapes = [(k, n_b)] + ([] if constraint == "mirror_bp" else [(k, n_p)]) + [(n_b, n_p)]
    counts = [r * c for r, c in shapes]
    index, shift, blocks = _bit_layout(counts)
    stream = _philox(_philox_keys(seed, trials), blocks)
    bits = (stream[index] >> shift[:, None] & np.uint64(1)).astype(np.uint8)
    ends = np.cumsum(counts)
    mats = [
        np.ascontiguousarray(part.T.reshape(len(trials), *shape))
        for part, shape in zip(np.split(bits, ends[:-1]), shapes)
    ]
    mb, mc = mats[0], mats[-1]
    mp = mb if constraint == "mirror_bp" else mats[1]
    return mb, mp, mc


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
    by it.  At most ``cap`` codes are returned (the earliest trial indices
    win); ``successes`` counts all hits.  Trials run serially in one thread:
    ``threads`` is accepted for compatibility and changes neither the result
    nor the speed (worker threads only contend for the interpreter lock).
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if cap < 0:
        raise ValueError("cap must be non-negative")
    _check_draw(*dims, constraint)
    seed = np.random.SeedSequence(seed).entropy  # validated; None draws entropy
    found: list[tuple[int, CpcCode]] = []
    successes = 0
    draw_s = predicate_s = 0.0
    for start in range(0, budget, _BLOCK):
        trials = range(start, min(start + _BLOCK, budget))
        t0 = time.perf_counter()
        mb, mp, mc = _draw_block(seed, trials, dims, constraint)
        t1 = time.perf_counter()
        hits = np.flatnonzero(predicate(mb, mp, mc))
        draw_s += t1 - t0
        predicate_s += time.perf_counter() - t1
        successes += len(hits)
        for i in hits[: cap - len(found)]:
            found.append((trials[i], _code(mb[i], mp[i], mc[i])))
    return SearchResult(tuple(found), budget, successes, draw_s, predicate_s)
