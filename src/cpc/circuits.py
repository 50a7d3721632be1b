"""Clifford circuits for code cycles, and Pauli propagation through them.

Gates are limited to what a parity-check cycle needs: CNOT, CZ, the
conjugate-basis controlled-Z (``CCZX``, i.e. CZ conjugated by Hadamards on
both qubits), and Hadamard.  A circuit is an ordered gate list applied left
to right; ``a + b`` runs ``a`` first and then ``b``.

As in the ZX calculus, the three two-qubit kinds are one gate: a controlled-Z
whose two ends are each read in the Z or the X basis.  One table gives each
kind's end bases (CNOT: Z then X, CZ: Z and Z, CCZX: X and X), and every
gate rule follows from it.  Conjugation fixes each end's basis Pauli and
gives its other Pauli the far end's basis Pauli; a Hadamard on a qubit swaps
the basis of that qubit's end, which names the rewritten gate.  ``rewrite``
pushes one gate through a circuit by the same two facts: an end that picks
up a far Pauli adds a copy of its gate with that end moved there.

Pauli operators are represented as X/Z bitmask pairs with a global phase
that is a power of i; the operator is ``i**phase * prod_q X_q^x Z_q^z`` with
X written before Z on each qubit (so Y carries phase exponent 1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import CpcCode, GeneralCpcCode, _integer

__all__ = [
    "Gate",
    "Circuit",
    "PauliString",
    "cnot",
    "cczx",
    "hadamard",
    "encode_circuit",
    "decode_circuit",
    "conjugate_pauli",
    "rewrite",
    "circuits_equal",
    "circuit_to_text",
]

# End bases of each two-qubit kind, in qubit order; (X, Z) is a CNOT written
# target first.
_END_BASES = {"CNOT": ("Z", "X"), "CZ": ("Z", "Z"), "CCZX": ("X", "X")}
_KIND_OF_BASES = {bases: kind for kind, bases in _END_BASES.items()}
_OTHER_BASIS = {"X": "Z", "Z": "X"}


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        kind, qubits = self.kind, self.qubits
        if kind != "H" and kind not in _END_BASES:
            raise ValueError(f"unknown gate kind {kind!r}")
        expected = 1 if kind == "H" else 2
        if len(qubits) != expected:
            raise ValueError(f"{kind} takes {expected} qubit(s), got {qubits}")
        # one or two qubits: the first and the last are all of them
        first, last = qubits[0], qubits[-1]
        if type(first) is not int or type(last) is not int:
            qubits = tuple(_integer(f"{kind} qubit", q) for q in qubits)
            object.__setattr__(self, "qubits", qubits)
        if expected == 2 and first == last:
            raise ValueError(f"{kind} qubits must be distinct: {qubits}")


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def cczx(a: int, b: int) -> Gate:
    """Conjugate-basis controlled-Z; symmetric in its two qubits."""
    return Gate("CCZX", (a, b))


def hadamard(q: int) -> Gate:
    return Gate("H", (q,))


@dataclass(frozen=True)
class Circuit:
    qubit_count: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.qubit_count < 0:
            raise ValueError(f"qubit count must be non-negative, got {self.qubit_count}")
        for g in self.gates:
            if any(q < 0 or q >= self.qubit_count for q in g.qubits):
                raise ValueError(f"gate {g} outside 0..{self.qubit_count - 1}")

    def __add__(self, other: Circuit) -> Circuit:
        if self.qubit_count != other.qubit_count:
            raise ValueError("cannot concatenate circuits with different qubit counts")
        return Circuit(self.qubit_count, self.gates + other.gates)

    def __len__(self) -> int:
        return len(self.gates)

    def reversed(self) -> Circuit:
        return Circuit(self.qubit_count, tuple(reversed(self.gates)))


@dataclass(frozen=True)
class PauliString:
    """N-qubit Pauli with bitmask support and an i-power phase."""

    qubit_count: int
    x_bits: int = 0
    z_bits: int = 0
    phase: int = 0

    def __post_init__(self):
        limit = 1 << self.qubit_count
        if not (0 <= self.x_bits < limit and 0 <= self.z_bits < limit):
            raise ValueError("mask exceeds qubit count")
        object.__setattr__(self, "phase", self.phase % 4)

    @classmethod
    def single(cls, n: int, qubit: int, kind: str) -> PauliString:
        bit = 1 << qubit
        if kind == "X":
            return cls(n, x_bits=bit)
        if kind == "Z":
            return cls(n, z_bits=bit)
        if kind == "Y":
            return cls(n, x_bits=bit, z_bits=bit, phase=1)
        raise ValueError(f"kind must be X, Y or Z, got {kind!r}")

    def commutes_with(self, other: PauliString) -> bool:
        anti = (self.x_bits & other.z_bits).bit_count() + (
            self.z_bits & other.x_bits
        ).bit_count()
        return anti % 2 == 0

    def letter(self, q: int) -> str:
        x = (self.x_bits >> q) & 1
        z = (self.z_bits >> q) & 1
        return "IXZY"[x + 2 * z]

    @property
    def support(self) -> int:
        return self.x_bits | self.z_bits

    def label(self, namer) -> str:
        """Human-readable form like 'X_d1 X_b2', qubit q named ``namer(q)``; identity reads '-'."""
        parts = []
        for q in range(self.qubit_count):
            letter = self.letter(q)
            if letter != "I":
                parts.append(f"{letter}_{namer(q)}")
        return " ".join(parts) if parts else "-"


def _ends(gate: Gate) -> tuple[tuple[int, str], ...]:
    """(qubit, basis) of each end of a two-qubit gate, in qubit order."""
    return tuple(zip(gate.qubits, _END_BASES[gate.kind]))


def _pauli_masks(basis: str, q: int) -> tuple[int, int]:
    """(x_mask, z_mask) of the single-qubit Pauli ``basis`` on qubit q."""
    return (1 << q, 0) if basis == "X" else (0, 1 << q)


# Conjugation images U g U^dagger of single-qubit X/Z generators for each
# gate, as (x_mask, z_mask) pairs over the gate's own qubits.  All images
# carry phase 0; phases only appear when products are reordered.  Cached per
# gate, so callers must not modify the returned dict.
@functools.lru_cache(maxsize=None)
def _gate_images(gate: Gate) -> dict[tuple[str, int], tuple[int, int]]:
    if gate.kind == "H":
        (q,) = gate.qubits
        return {("X", q): _pauli_masks("Z", q), ("Z", q): _pauli_masks("X", q)}
    ends = _ends(gate)
    images = {}
    for (q, basis), (far, far_basis) in (ends, ends[::-1]):
        other = _OTHER_BASIS[basis]
        (ox, oz), (fx, fz) = _pauli_masks(other, q), _pauli_masks(far_basis, far)
        images[(basis, q)] = _pauli_masks(basis, q)
        images[(other, q)] = (ox | fx, oz | fz)
    return images


def _gate_of_ends(ends) -> Gate:
    """The two-qubit gate with these (qubit, basis) ends."""
    (q0, b0), (q1, b1) = ends
    if (b0, b1) == ("X", "Z"):
        return cnot(q1, q0)
    return Gate(_KIND_OF_BASES[(b0, b1)], (q0, q1))


@functools.lru_cache(maxsize=None)
def _push(pushed: Gate, gate: Gate) -> tuple[Gate, ...] | None:
    """``pushed · gate · pushed`` as a gate list, or None when it is not one.

    A Hadamard swaps the basis of its qubit's end.  A two-qubit ``pushed``
    maps the other Pauli of each of its ends to itself times the far end's
    basis Pauli (CNOT(c, t): X_c -> X_c X_t, Z_t -> Z_c Z_t), so a ``gate``
    end read in that Pauli adds a copy of ``gate`` with the end moved to the
    far qubit and basis.  None when both ends move, when the moved end lands
    on ``gate``'s other qubit, or for a Hadamard on a qubit of ``pushed``.
    """
    if pushed.kind == "H":
        (q,) = pushed.qubits
        if gate.kind == "H" or q not in gate.qubits:
            return (gate,)
        return (_gate_of_ends([(p, _OTHER_BASIS[b] if p == q else b) for p, b in _ends(gate)]),)
    if gate.kind == "H":
        return None if gate.qubits[0] in pushed.qubits else (gate,)
    (q0, b0), (q1, b1) = _ends(pushed)
    moves = {(q0, _OTHER_BASIS[b0]): (q1, b1), (q1, _OTHER_BASIS[b1]): (q0, b0)}
    ends = list(_ends(gate))
    moved = [i for i, end in enumerate(ends) if end in moves]
    if len(moved) != 1:
        return None if moved else (gate,)
    ends[moved[0]] = moves[ends[moved[0]]]
    return None if ends[0][0] == ends[1][0] else (gate, _gate_of_ends(ends))


def rewrite(circuit: Circuit, gate: Gate) -> Circuit:
    """``gate`` first, then ``gate`` pushed through each gate of ``circuit``.

    Unitarily equivalent to ``circuit`` followed by ``gate``; a push that is
    not a gate list raises ``ValueError``.
    """
    gates = [gate]
    for g in circuit.gates:
        pushed = _push(gate, g)
        if pushed is None:
            raise ValueError(f"cannot commute {gate} past {g}")
        gates.extend(pushed)
    return Circuit(circuit.qubit_count, tuple(gates))


def _conjugate_gate(gate: Gate, p: PauliString) -> PauliString:
    touched = 0
    for q in gate.qubits:
        touched |= 1 << q
    if not (p.support & touched):
        return p
    images = _gate_images(gate)
    # Factor out the touched part (qubit-disjoint factors commute freely),
    # conjugate it as an ordered product of generator images, and recombine.
    acc_x = acc_z = 0
    phase = p.phase
    for q in sorted(gate.qubits):
        for kind, mask in (("X", p.x_bits), ("Z", p.z_bits)):
            if (mask >> q) & 1:
                gx, gz = images[(kind, q)]
                phase += 2 * (acc_z & gx).bit_count()
                acc_x ^= gx
                acc_z ^= gz
    return PauliString(
        p.qubit_count,
        (p.x_bits & ~touched) | acc_x,
        (p.z_bits & ~touched) | acc_z,
        phase,
    )


def conjugate_pauli(circuit: Circuit, p: PauliString) -> PauliString:
    """Return U p U^dagger for the circuit unitary U (gates applied in list order)."""
    if p.qubit_count != circuit.qubit_count:
        raise ValueError(
            f"pauli is on {p.qubit_count} qubits, circuit on {circuit.qubit_count}"
        )
    for gate in circuit.gates:
        p = _conjugate_gate(gate, p)
    return p


def circuits_equal(c1: Circuit, c2: Circuit) -> bool:
    """True iff the circuits implement the same unitary up to global phase.

    Conjugating the 2N single-qubit generators determines a Clifford up to
    global phase, so exact agreement of all images (signs included) is the
    right test.
    """
    if c1.qubit_count != c2.qubit_count:
        raise ValueError("qubit-count mismatch")
    n = c1.qubit_count
    for q in range(n):
        for kind in ("X", "Z"):
            gen = PauliString.single(n, q, kind)
            if conjugate_pauli(c1, gen) != conjugate_pauli(c2, gen):
                return False
    return True


def encode_circuit(code: CpcCode | GeneralCpcCode) -> Circuit:
    """Parity-gathering circuit in canonical block order B, P, C.

    Within a block, gates are ordered by check index and then data index.
    Blocks commute internally, so only the block order affects semantics.
    """
    if isinstance(code, CpcCode):
        bit, phase = code.bit_index, code.phase_index
        blocks = (
            (code.mb.data.T, lambda i, j: cnot(j, bit(i))),
            (code.mp.data.T, lambda i, j: cnot(phase(i), j)),
            (code.mc.data.T, lambda i, b: cnot(phase(i), bit(b))),
        )
    else:
        check = code.check_index
        blocks = (
            (code.mbs.data.T, lambda i, j: cnot(j, check(i))),
            (code.mps.data.T, lambda i, j: cczx(j, check(i))),
            (code.mcs.data, lambda a, b: cczx(check(a), check(b))),
        )
    # np.argwhere lists entries in row-major order: by check, then by data.
    gates = tuple(
        gate(i, j) for edges, gate in blocks for i, j in np.argwhere(edges).tolist()
    )
    return Circuit(code.qubit_count, gates)


def decode_circuit(code: CpcCode | GeneralCpcCode) -> Circuit:
    """Exact reverse of the encode sequence (every gate is self-inverse)."""
    return encode_circuit(code).reversed()


def circuit_to_text(circuit: Circuit) -> str:
    """One gate per line, e.g. 'CNOT 0 4'."""
    lines = [f"qubits {circuit.qubit_count}"]
    for g in circuit.gates:
        lines.append(" ".join([g.kind] + [str(q) for q in g.qubits]))
    return "\n".join(lines) + "\n"

