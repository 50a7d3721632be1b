"""Graphical error-propagation rules and extraction of effective classical codes.

Under the canonical gate ordering, a bit-flip on a phase check travels through
the data qubits it controls and surfaces on the bit checks downstream.  The
mod-2 bookkeeping of those paths lives in :func:`~cpc.stabilizers.check_matrix`;
the functions here are views of its rows.  The resulting "effective"
classical codes govern one error species each and are what the decoder
actually works with.
"""

from __future__ import annotations

import numpy as np

from .gf2 import Gf2Matrix
from .model import ClassicalCode, CpcCode, GeneralCpcCode
from .stabilizers import check_matrix

__all__ = [
    "cross_propagation",
    "effective_codes",
    "general_propagation",
    "general_to_classical",
]


def cross_propagation(code: CpcCode) -> Gf2Matrix:
    """Net detection of phase-check bit-flips by bit checks, as an n_b x n_p matrix.

    Entry (b, p) is mc[b,p] + sum_j mp[j,p]*mb[j,b] mod 2: the direct cross
    check plus the parity of two-step paths through shared data qubits.  A
    bit-flip on phase check p fires exactly the bit checks in column p.
    """
    _, hz = check_matrix(code)
    return Gf2Matrix(hz[: code.n_b, code.k + code.n_b :])


def _classical(h: np.ndarray, check_data: np.ndarray, offset: int) -> ClassicalCode:
    """Parity checks from the rows of ``h`` (checks x bits).

    Bit ``offset + i`` stands for check qubit i; it is harmless when row i of
    ``check_data``, that qubit's data support, is zero.
    """
    return ClassicalCode(
        bit_count=h.shape[1],
        checks=tuple(frozenset(np.flatnonzero(row).tolist()) for row in h),
        harmless=frozenset(offset + i for i, row in enumerate(check_data) if not row.any()),
    )


def effective_codes(code: CpcCode) -> tuple[ClassicalCode, ClassicalCode]:
    """The two classical codes governing bit-flip and phase errors.

    Both are row blocks of :func:`~cpc.stabilizers.check_matrix`.  Bit code:
    bits are the k data qubits (ids 0..k-1) followed by the n_p phase checks
    (ids k..k+n_p-1); check i is bit-check generator i's Z support on them:
    data j with mb[j,i] = 1 and phase check p with cross_propagation[i,p] = 1.

    Phase code: bits are the data qubits followed by the n_b bit checks;
    check i is phase-check generator i's X support on them: data j with
    mp[j,i] = 1 and bit check b with mc[b,i] = 1.

    A parity qubit that shares no gate with any data qubit cannot propagate
    errors to the data; the corresponding bit is listed as harmless.
    """
    hx, hz = check_matrix(code)
    k, n_b = code.k, code.n_b
    bit_rows, phase_rows = hz[:n_b], hx[n_b:]
    bit_code = _classical(
        np.delete(bit_rows, np.s_[k : k + n_b], axis=1), phase_rows[:, :k], k
    )
    phase_code = _classical(phase_rows[:, : k + n_b], bit_rows[:, :k], k)
    return bit_code, phase_code


def general_propagation(gcode: GeneralCpcCode) -> tuple[Gf2Matrix, tuple[int, ...]]:
    """Directed detection graph for a generalized code.

    Returns ``(arrows, self_loops)``.  ``arrows[a, b] = 1`` means a phase
    error on check a fires check b's measurement: the parity of
    conjugate-CZ-then-CNOT paths a -> data -> b, flipped where a direct
    conjugate-CZ edge between a and b already exists (that edge otherwise
    provides the detection itself, so the pair appears symmetrically).
    ``self_loops[c] = 1`` iff c reaches an odd number of data qubits by both
    edge types, which turns its own phase errors into detectable bit-flips.
    """
    hx, _ = check_matrix(gcode)
    arrows = hx[:, gcode.k :].T.copy()
    self_loops = tuple(int(v) for v in np.diagonal(arrows))
    np.fill_diagonal(arrows, 0)
    return Gf2Matrix(arrows), self_loops


def general_to_classical(gcode: GeneralCpcCode) -> ClassicalCode:
    """Collapse a generalized code to the single classical code it implements.

    Each data qubit contributes two bits (ids j for its bit-flip state and
    k + j for its phase state); each check contributes one bit (id 2k + c,
    its own phase state) and one parity check.  Check c is row c of the
    check matrix, its Z support on the data followed by its X support: the
    data bits it touches by CNOT, the data phase bits it touches by
    conjugate-CZ, every check phase bit with an arrow into c (see
    :func:`general_propagation`), and its own phase bit when it carries a
    self loop.
    """
    hx, hz = check_matrix(gcode)
    k = gcode.k
    rows = np.hstack([hz[:, :k], hx])
    return _classical(rows, rows[:, : 2 * k], 2 * k)
