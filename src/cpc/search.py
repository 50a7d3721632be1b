"""Seeded random search for codes satisfying a predicate.

Each trial draws its own RNG stream keyed by (seed, trial index), so the
result set depends only on (seed, budget, dimensions, predicate).  Trials are
drawn in blocks into stacked uint8 arrays mb (N, k, n_b), mp (N, k, n_p) and
mc (N, n_b, n_p), and a predicate judges a whole block at once:
``predicate(mb, mp, mc)`` returns an (N,) bool array.  Codes are built only
for the hits.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _draw(rng: np.random.Generator, k: int, n_b: int, n_p: int, constraint):
    """One code's uint8 matrices (mb, mp, mc), drawn in that order.

    With ``constraint="mirror_bp"`` mp is mb instead of being drawn.
    """
    mb = rng.integers(0, 2, size=(k, n_b), dtype=np.uint8)
    if constraint == "mirror_bp":
        mp = mb
    else:
        mp = rng.integers(0, 2, size=(k, n_p), dtype=np.uint8)
    mc = rng.integers(0, 2, size=(n_b, n_p), dtype=np.uint8)
    return mb, mp, mc


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
    return _code(*_draw(rng, k, n_b, n_p, constraint))


@dataclass(frozen=True)
class SearchResult:
    found: tuple[tuple[int, CpcCode], ...]  # (trial index, code), capped
    trials: int
    successes: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


def _draw_block(seed: int, trials: range, dims, constraint):
    """Stacked (mb, mp, mc) of the given trials, each from its own Philox stream."""
    k, n_b, n_p = dims
    mb = np.empty((len(trials), k, n_b), dtype=np.uint8)
    mp = mb if constraint == "mirror_bp" else np.empty((len(trials), k, n_p), dtype=np.uint8)
    mc = np.empty((len(trials), n_b, n_p), dtype=np.uint8)
    for i, trial in enumerate(trials):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
        rng = np.random.Generator(np.random.Philox(ss))
        mb[i], mp[i], mc[i] = _draw(rng, k, n_b, n_p, constraint)
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

    At most ``cap`` codes are returned (the earliest trial indices win);
    ``successes`` counts all hits.  Trials run serially in one thread:
    ``threads`` is accepted for compatibility and changes neither the result
    nor the speed (worker threads only contend for the interpreter lock).
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if cap < 0:
        raise ValueError("cap must be non-negative")
    _check_draw(*dims, constraint)
    found: list[tuple[int, CpcCode]] = []
    successes = 0
    for start in range(0, budget, _BLOCK):
        trials = range(start, min(start + _BLOCK, budget))
        mb, mp, mc = _draw_block(seed, trials, dims, constraint)
        hits = np.flatnonzero(predicate(mb, mp, mc))
        successes += len(hits)
        for i in hits[: cap - len(found)]:
            found.append((trials[i], _code(mb[i], mp[i], mc[i])))
    return SearchResult(found=tuple(found), trials=budget, successes=successes)
