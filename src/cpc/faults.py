"""The fault table: the single faults of the stochastic error model, per code.

A row per X and per Z fault of the decode table's ``records``, with its
syndrome, its Pauli, and its correction and net frame change (residual ^
correction) as the table decodes it alone.  The table is built once per code
and cached; only the per-cycle probabilities depend on the call.

This module imports only :mod:`cpc.decoding`, :mod:`cpc.gf2` and
:mod:`cpc.model`, so that the simulator and the search can both import it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .decoding import DecodeTable, decode_table
from .gf2 import _read_only
from .model import CpcCode, GeneralCpcCode

__all__ = ["ErrorModel", "FaultTable", "fault_table"]


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ErrorModel:
    """Independent X and Z error rates per qubit, in events per second."""

    eps_bit: float
    eps_phase: float

    def __post_init__(self):
        _require_finite("eps_bit", self.eps_bit)
        _require_finite("eps_phase", self.eps_phase)
        if self.eps_bit < 0 or self.eps_phase < 0:
            raise ValueError("error rates must be non-negative")


@dataclass(frozen=True)
class FaultTable:
    """A code's fault rows, in record order (qubit, then X before Z); a
    fault's index is its row.  Per row, read-only: whether it is an X fault,
    its syndrome and correction as (sx, sz, cx, cz), the (x, z) Pauli masks it
    puts on the register mid-window, and its net frame change.  The table
    knows every such syndrome."""

    table: DecodeTable
    is_x: np.ndarray
    decoded: np.ndarray
    paulis: np.ndarray
    net: np.ndarray

    def probs(self, model: ErrorModel, rate: float) -> np.ndarray:
        """Each fault's per-cycle probability ``1 - exp(-eps / rate)``."""
        p_x, p_z = (1.0 - math.exp(-eps / rate) for eps in (model.eps_bit, model.eps_phase))
        return np.where(self.is_x, p_x, p_z)


@functools.lru_cache(maxsize=16)
def fault_table(code: CpcCode | GeneralCpcCode) -> FaultTable:
    """The code's decode table and fault rows, built once per code."""
    table = decode_table(code)
    rows = [rec for rec in table.records if rec.kind != "Y"]
    is_x = np.array([rec.kind == "X" for rec in rows], dtype=bool)
    effects = np.array([(rec.sx, rec.sz, rec.rx, rec.rz) for rec in rows], dtype=np.int64)
    paulis = np.array(
        [(1 << rec.qubit, 0) if rec.kind == "X" else (0, 1 << rec.qubit) for rec in rows],
        dtype=np.int64,
    )
    correction, _ = table.lookup(effects[:, 0], effects[:, 1])
    decoded = np.concatenate([effects[:, :2], correction], axis=1)
    net = effects[:, 2:] ^ correction
    return FaultTable(table, *(_read_only(a) for a in (is_x, decoded, paulis, net)))
