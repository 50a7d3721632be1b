"""Encoded computation inside a code cycle.

Logical Paulis cost nothing: apply the physical Pauli to the data qubit and
reinterpret the affected check outcomes.  Hadamard and CNOT are realised by
pushing the gate through the encoder (``circuits.rewrite``): the gate runs
first and the rewritten encoder after it, which is unitarily equivalent to
the plain encoder followed by the gate.  Both work on split and generalized
codes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import Circuit, cnot, encode_circuit, hadamard, rewrite
from .decoding import _check_cnot, _syndrome_widths, single_error_records
from .model import CpcCode, GeneralCpcCode

__all__ = [
    "PauliFrame",
    "logical_pauli_frame",
    "logical_hadamard_circuit",
    "logical_cnot_circuit",
]


@dataclass(frozen=True)
class PauliFrame:
    """Physical gates plus the measurement reinterpretation they imply.

    ``bit_check_toggles``/``phase_check_toggles`` list the checks whose
    outcomes must be read flipped (1 <-> 0, + <-> -) once the gates are
    applied inside the cycle, on the first and second syndrome side.  Every
    check of a generalized code is on the first side: its phase toggles are empty.
    """

    gates: tuple[tuple[int, str], ...]
    bit_check_toggles: tuple[int, ...]
    phase_check_toggles: tuple[int, ...]


def logical_pauli_frame(code: CpcCode | GeneralCpcCode, paulis: str) -> PauliFrame:
    """Frame update for applying one Pauli per data qubit inside a cycle.

    ``paulis`` is a length-k string over IXYZ.  The toggle sets equal the
    syndrome the same Paulis would produce as errors, so applying the gates
    and flipping those check readings leaves an error-free cycle all-clear.
    """
    paulis = paulis.upper()
    if len(paulis) != code.k:
        raise ValueError(f"expected {code.k} Pauli letters, got {len(paulis)}")
    if any(ch not in "IXYZ" for ch in paulis):
        raise ValueError(f"Pauli letters must be I, X, Y or Z: {paulis!r}")
    records = {
        (r.qubit, r.kind): r for r in single_error_records(code) if r.qubit < code.k
    }
    gates = []
    sx = sz = 0
    for j, ch in enumerate(paulis):
        if ch == "I":
            continue
        gates.append((j, ch))
        rec = records[(j, ch)]
        sx ^= rec.sx
        sz ^= rec.sz
    n_first, n_second = _syndrome_widths(code)
    return PauliFrame(
        gates=tuple(gates),
        bit_check_toggles=tuple(i for i in range(n_first) if (sx >> i) & 1),
        phase_check_toggles=tuple(i for i in range(n_second) if (sz >> i) & 1),
    )


def logical_hadamard_circuit(code: CpcCode | GeneralCpcCode, data_qubit: int) -> Circuit:
    """Encoder rewritten to realise a logical Hadamard on one data qubit.

    The Hadamard runs first and swaps the basis of the qubit's end of each
    gate: a CNOT it controls becomes CCZX, and one it targets becomes CZ.
    """
    if not code.k:
        raise ValueError("the code has no data qubits")
    if not 0 <= data_qubit < code.k:
        raise ValueError(f"data index {data_qubit} outside 0..{code.k - 1}")
    return rewrite(encode_circuit(code), hadamard(data_qubit))


def logical_cnot_circuit(code: CpcCode | GeneralCpcCode, control: int, target: int) -> Circuit:
    """Encoder rewritten to realise a logical CNOT between two data qubits.

    The CNOT runs first; each encoder gate with its Z end on the target or
    its X end on the control is followed by a copy with that end moved to
    the other data qubit (a CNOT, or a CCZX of a generalized code).
    """
    _check_cnot(control, target, code.k)
    return rewrite(encode_circuit(code), cnot(control, target))
