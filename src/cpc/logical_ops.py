"""Encoded computation inside a code cycle.

Logical Paulis cost nothing: apply the physical Pauli to the data qubit and
reinterpret the affected check outcomes.  Hadamard and CNOT are realised by
rewriting the encoder so that the rewritten cycle is unitarily equivalent to
"gate first, then the plain encoder".
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import (
    Circuit,
    Gate,
    OPAQUE,
    _conjugate_gate_by_h,
    cnot,
    cnot_commutator,
    encode_circuit,
    hadamard,
)
from .decoding import _check_cnot, single_error_records
from .model import CpcCode, _require_split

__all__ = [
    "PauliFrame",
    "logical_pauli_frame",
    "logical_hadamard_circuit",
    "logical_cnot_circuit",
    "hadamard_rewrite",
    "cnot_rewrite",
]


@dataclass(frozen=True)
class PauliFrame:
    """Physical gates plus the measurement reinterpretation they imply.

    ``bit_check_toggles``/``phase_check_toggles`` list the checks whose
    outcomes must be read flipped (1 <-> 0, + <-> -) once the gates are
    applied inside the cycle.
    """

    gates: tuple[tuple[int, str], ...]
    bit_check_toggles: tuple[int, ...]
    phase_check_toggles: tuple[int, ...]


def logical_pauli_frame(code: CpcCode, paulis: str) -> PauliFrame:
    """Frame update for applying one Pauli per data qubit inside a cycle.

    ``paulis`` is a length-k string over IXYZ.  The toggle sets equal the
    syndrome the same Paulis would produce as errors, so applying the gates
    and flipping those check readings leaves an error-free cycle all-clear.
    """
    _require_split(code, "logical_pauli_frame")
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
    return PauliFrame(
        gates=tuple(gates),
        bit_check_toggles=tuple(i for i in range(code.n_b) if (sx >> i) & 1),
        phase_check_toggles=tuple(i for i in range(code.n_p) if (sz >> i) & 1),
    )


def hadamard_rewrite(circuit: Circuit, q: int) -> Circuit:
    """Absorb a Hadamard on qubit q applied before the circuit.

    Returns H(q) followed by every gate conjugated by H(q); the result is
    unitarily equivalent to running ``circuit`` and then H(q).
    """
    if not 0 <= q < circuit.qubit_count:
        raise ValueError(f"qubit {q} outside 0..{circuit.qubit_count - 1}")
    gates = [hadamard(q)]
    gates.extend(_conjugate_gate_by_h(g, q) for g in circuit.gates)
    return Circuit(circuit.qubit_count, tuple(gates))


def logical_hadamard_circuit(code: CpcCode, data_qubit: int) -> Circuit:
    """Encoder rewritten to realise a logical Hadamard on one data qubit.

    CNOTs controlled by the qubit become conjugate-basis controlled-Z gates,
    CNOTs targeting it become plain controlled-Z, and the Hadamard itself
    runs first.
    """
    if not 0 <= data_qubit < code.k:
        raise ValueError(f"data index {data_qubit} outside 0..{code.k - 1}")
    return hadamard_rewrite(encode_circuit(code), data_qubit)


def cnot_rewrite(circuit: Circuit, control: int, target: int) -> Circuit:
    """Absorb a CNOT(control, target) applied before the circuit.

    The CNOT runs first; pushing it through each original CNOT inserts the
    resolved operational commutator after that gate, which keeps the result
    unitarily equivalent to ``circuit`` followed by CNOT(control, target).
    """
    n = circuit.qubit_count
    inserted = cnot(control, target)
    gates: list[Gate] = [inserted]
    for g in circuit.gates:
        gates.append(g)
        comm = cnot_commutator(inserted, g, qubit_count=n)
        if comm is OPAQUE:
            raise ValueError(f"cannot commute CNOT({control},{target}) past {g}")
        gates.extend(comm.gates)
    return Circuit(n, tuple(gates))


def logical_cnot_circuit(code: CpcCode, control: int, target: int) -> Circuit:
    """Encoder rewritten to realise a logical CNOT between two data qubits."""
    _require_split(code, "logical_cnot_circuit")
    _check_cnot(control, target, code.k)
    return cnot_rewrite(encode_circuit(code), control, target)
