from __future__ import annotations

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpc.gf2 import Gf2Matrix
from cpc.model import CpcCode, GeneralCpcCode, parse
from cpc.search import random_code

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO_ROOT / "fixtures"


# The [7,4,3] Hamming parity-check matrix, both CSS blocks of the Steane code
# (fixtures/steane.css).
HAMMING_743 = Gf2Matrix(
    [[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]]
)


def run_python(*argv: str, cwd=None) -> subprocess.CompletedProcess:
    """``python *argv`` in a fresh interpreter that imports cpc from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, cwd=cwd, timeout=300
    )


@pytest.fixture
def fixture_dir() -> Path:
    return FIXTURE_DIR


@functools.cache
def fixture_code(name: str) -> CpcCode | GeneralCpcCode:
    """The code in fixtures/<name>.cpc, parsed once (codes are immutable)."""
    return parse((FIXTURE_DIR / f"{name}.cpc").read_text(encoding="utf-8"))


def seeded_random_codes(count: int, seed: int = 2024, k_max: int = 4, n_max: int = 5):
    """Deterministic stream of small random codes for cross-module checks."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    codes: list[CpcCode] = []
    while len(codes) < count:
        k = int(rng.integers(1, k_max + 1))
        n_b = int(rng.integers(1, n_max + 1))
        n_p = int(rng.integers(0, n_max + 1))
        codes.append(random_code(k, n_b, n_p, rng))
    return codes


def seeded_random_general_codes(count: int, seed: int = 5150, k_max: int = 3, n_max: int = 5):
    """Random generalized codes, including self-loop wiring (a data qubit
    attached to the same check by both edge types)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    codes: list[GeneralCpcCode] = []
    while len(codes) < count:
        k = int(rng.integers(1, k_max + 1))
        n_c = int(rng.integers(1, n_max + 1))
        mbs = rng.integers(0, 2, size=(k, n_c), dtype=np.uint8)
        mps = rng.integers(0, 2, size=(k, n_c), dtype=np.uint8)
        mcs = np.triu(rng.integers(0, 2, size=(n_c, n_c), dtype=np.uint8), k=1)
        codes.append(
            GeneralCpcCode(mbs=Gf2Matrix(mbs), mps=Gf2Matrix(mps), mcs=Gf2Matrix(mcs))
        )
    return codes
