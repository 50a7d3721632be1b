"""Graphical error-propagation rules and extraction of effective classical codes.

Under the canonical gate ordering, a bit-flip on a phase check travels through
the data qubits it controls and surfaces on the bit checks downstream; the mod-2
bookkeeping of those paths is what the functions here compute.  The resulting
"effective" classical codes govern one error species each and are what the
decoder actually works with.
"""

from __future__ import annotations

import numpy as np

from .gf2 import Gf2Matrix
from .model import ClassicalCode, CpcCode, GeneralCpcCode, require_valid
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


def _harmless_phase(code: CpcCode) -> set[int]:
    return {p for p, col in enumerate(code.mp.data.T) if not col.any()}


def _harmless_bit(code: CpcCode) -> set[int]:
    return {b for b, col in enumerate(code.mb.data.T) if not col.any()}


def effective_codes(code: CpcCode) -> tuple[ClassicalCode, ClassicalCode]:
    """The two classical codes governing bit-flip and phase errors.

    Bit code: bits are the k data qubits (ids 0..k-1) followed by the n_p
    phase checks (ids k..k+n_p-1); check i covers data j with mb[j,i] = 1 and
    phase check p with cross_propagation[i,p] = 1.

    Phase code: bits are the data qubits followed by the n_b bit checks;
    check i covers data j with mp[j,i] = 1 and bit check b with mc[b,i] = 1.

    A parity qubit that shares no gate with any data qubit cannot propagate
    errors to the data; the corresponding bit is listed as harmless.
    """
    require_valid(code)
    k = code.k
    cross = cross_propagation(code)

    bit_checks = []
    for i in range(code.n_b):
        members = {j for j in range(k) if code.mb[j, i]}
        members |= {k + p for p in range(code.n_p) if cross[i, p]}
        bit_checks.append((i, frozenset(members)))
    bit_code = ClassicalCode(
        bit_count=k + code.n_p,
        checks=tuple(bit_checks),
        harmless=frozenset(k + p for p in _harmless_phase(code)),
    )

    phase_checks = []
    for i in range(code.n_p):
        members = {j for j in range(k) if code.mp[j, i]}
        members |= {k + b for b in range(code.n_b) if code.mc[b, i]}
        phase_checks.append((i, frozenset(members)))
    phase_code = ClassicalCode(
        bit_count=k + code.n_b,
        checks=tuple(phase_checks),
        harmless=frozenset(k + b for b in _harmless_bit(code)),
    )
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
    its own phase state) and one parity check.  Check c covers the data bits
    it touches by CNOT, the data phase bits it touches by conjugate-CZ, every
    check phase bit with an arrow into c, and its own phase bit when it
    carries a self loop.
    """
    require_valid(gcode)
    k, n_c = gcode.k, gcode.n_c
    arrows, self_loops = general_propagation(gcode)
    checks = []
    for c in range(n_c):
        members = {j for j in range(k) if gcode.mbs[j, c]}
        members |= {k + j for j in range(k) if gcode.mps[j, c]}
        members |= {2 * k + a for a in range(n_c) if arrows[a, c]}
        if self_loops[c]:
            members.add(2 * k + c)
        checks.append((c, frozenset(members)))
    harmless = frozenset(
        2 * k + c
        for c in range(n_c)
        if not gcode.mbs.data[:, c].any() and not gcode.mps.data[:, c].any()
    )
    return ClassicalCode(bit_count=2 * k + n_c, checks=tuple(checks), harmless=harmless)
