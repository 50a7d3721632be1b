"""Seeded random search for codes satisfying a predicate.

Each trial draws its own RNG stream keyed by (seed, trial index), so the
result set depends only on (seed, budget, dimensions, predicate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .decoding import cnot_compatible, is_single_error_correcting
from .gf2 import Gf2Matrix
from .model import CpcCode

__all__ = [
    "random_code",
    "search",
    "SearchResult",
    "single_error_correcting_predicate",
    "cnot_compatible_predicate",
]


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
    if constraint not in (None, "mirror_bp"):
        raise ValueError(f"unknown constraint {constraint!r}")
    if min(k, n_b, n_p) < 0:
        raise ValueError("dimensions must be non-negative")
    mb = Gf2Matrix(rng.integers(0, 2, size=(k, n_b), dtype=np.uint8))
    if constraint == "mirror_bp":
        if n_b != n_p:
            raise ValueError("mirror_bp requires n_b == n_p")
        mp = mb
    else:
        mp = Gf2Matrix(rng.integers(0, 2, size=(k, n_p), dtype=np.uint8))
    mc = Gf2Matrix(rng.integers(0, 2, size=(n_b, n_p), dtype=np.uint8))
    return CpcCode(mb=mb, mp=mp, mc=mc)


def single_error_correcting_predicate() -> Callable[[CpcCode], bool]:
    return lambda code: is_single_error_correcting(code).ok


def cnot_compatible_predicate(control: int, target: int) -> Callable[[CpcCode], bool]:
    return lambda code: cnot_compatible(code, control, target).ok


@dataclass(frozen=True)
class SearchResult:
    found: tuple[tuple[int, CpcCode], ...]  # (trial index, code), capped
    trials: int
    successes: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


def _trial_code(seed: int, trial: int, dims, constraint) -> CpcCode:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    rng = np.random.Generator(np.random.Philox(ss))
    k, n_b, n_p = dims
    return random_code(k, n_b, n_p, rng, constraint=constraint)


def search(
    dims: tuple[int, int, int],
    predicate: Callable[[CpcCode], bool],
    budget: int,
    seed: int,
    constraint: str | None = None,
    cap: int = 100,
    threads: int = 1,
) -> SearchResult:
    """Evaluate the predicate on ``budget`` random codes and collect the hits.

    At most ``cap`` codes are returned (the earliest trial indices win);
    ``successes`` counts all hits.  Trials run serially in one thread:
    ``threads`` is accepted for compatibility and changes neither the result
    nor the speed (worker threads only contend for the interpreter lock).
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if cap < 0:
        raise ValueError("cap must be non-negative")
    hits = []
    for trial in range(budget):
        code = _trial_code(seed, trial, dims, constraint)
        if predicate(code):
            hits.append((trial, code))
    return SearchResult(found=tuple(hits[:cap]), trials=budget, successes=len(hits))
