from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from conftest import fixture_code, seeded_random_codes
from cpc.circuits import (
    _push,
    Circuit,
    Gate,
    PauliString,
    circuit_to_text,
    circuits_equal,
    cnot,
    conjugate_pauli,
    cczx,
    decode_circuit,
    encode_circuit,
    hadamard,
)
from cpc.dynamics import apply_circuit, apply_pauli_masks
from cpc.model import generalize


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(ValueError):
        Gate("NOPE", (0,))


def test_encode_gate_counts_match_matrix_weights():
    code = fixture_code("11-3-3")
    enc = encode_circuit(code)
    expected = sum(int(m.data.sum()) for m in (code.mb, code.mp, code.mc))
    assert len(enc) == expected == 22


def test_encode_empty_code():
    from cpc.gf2 import Gf2Matrix
    from cpc.model import CpcCode

    empty = CpcCode(Gf2Matrix.zeros(0, 0), Gf2Matrix.zeros(0, 0), Gf2Matrix.zeros(0, 0))
    assert len(encode_circuit(empty)) == 0


def test_general_encode_gate_kinds():
    g = generalize(fixture_code("11-3-3"))
    enc = encode_circuit(g)
    kinds = [gt.kind for gt in enc.gates]
    assert kinds.count("CNOT") == int(g.mbs.data.sum()) == 6
    assert kinds.count("CCZX") == int(g.mps.data.sum() + g.mcs.data.sum()) == 16


def test_conjugate_identity_circuit():
    p = PauliString.single(3, 1, "Y")
    assert conjugate_pauli(Circuit(3), p) == p


def test_conjugate_cnot_rules():
    circ = Circuit(2, (cnot(0, 1),))
    x0 = conjugate_pauli(circ, PauliString.single(2, 0, "X"))
    assert x0 == PauliString(2, x_bits=0b11)
    z1 = conjugate_pauli(circ, PauliString.single(2, 1, "Z"))
    assert z1 == PauliString(2, z_bits=0b11)
    x1 = conjugate_pauli(circ, PauliString.single(2, 1, "X"))
    assert x1 == PauliString.single(2, 1, "X")


def test_conjugate_h_sign_on_y():
    circ = Circuit(1, (hadamard(0),))
    y = PauliString.single(1, 0, "Y")
    assert conjugate_pauli(circ, y) == PauliString(1, 1, 1, phase=3)  # -Y


def test_cczx_moves_phase_error_to_bit_flip():
    # conjugate-CZ then CNOT on the same pair gives Z on the check an X
    # component: the self-loop mechanism making a phase error detectable.
    circ = Circuit(2, (cczx(0, 1), cnot(0, 1)))
    z_check = PauliString.single(2, 1, "Z")
    out = conjugate_pauli(circ, z_check)
    assert (out.x_bits >> 1) & 1 == 1
    # statevector confirmation: the check qubit flips from |0> to |1>
    state = np.zeros(4, dtype=complex)
    state[0b00], state[0b01] = 0.6, 0.8
    s = apply_circuit(state, Circuit(2, (cnot(0, 1), cczx(0, 1))))
    s = apply_pauli_masks(s, 0, 0b10)
    s = apply_circuit(s, circ)
    check_one = np.sum(np.abs(s[2:]) ** 2)
    assert check_one == pytest.approx(1.0)


def _statevector_conjugation_oracle(circuit: Circuit, p: PauliString) -> np.ndarray:
    """Matrix-free oracle: apply U P U^dagger to every basis state."""
    n = circuit.qubit_count
    dim = 1 << n
    cols = []
    for basis in range(dim):
        state = np.zeros(dim, dtype=np.complex128)
        state[basis] = 1.0
        state = apply_circuit(state, circuit.reversed())  # U^dagger (self-inverse gates)
        state = apply_pauli_masks(state, p.x_bits, p.z_bits)
        state = (1j) ** p.phase * state
        state = apply_circuit(state, circuit)
        cols.append(state)
    return np.array(cols).T


def test_conjugation_matches_statevector_oracle():
    rng = np.random.Generator(np.random.Philox(5))
    gates = (cnot(0, 1), cczx(1, 2), Gate("CZ", (0, 2)), hadamard(1), cnot(2, 0))
    circ = Circuit(3, gates)
    for q in range(3):
        for kind in ("X", "Y", "Z"):
            p = PauliString.single(3, q, kind)
            got = conjugate_pauli(circ, p)
            want = _statevector_conjugation_oracle(circ, p)
            got_mat = _statevector_conjugation_oracle(Circuit(3), got)
            assert np.allclose(got_mat, want), (q, kind)


@pytest.mark.parametrize("kind", ["CNOT", "CZ", "CCZX"])
@pytest.mark.parametrize("end", [0, 1])
def test_hadamard_rewrite_of_each_gate_end(kind, end):
    gate = Gate(kind, (2, 0))
    q = gate.qubits[end]
    (rewritten,) = _push(hadamard(q), gate)
    assert rewritten.kind != gate.kind and set(rewritten.qubits) == {0, 2}
    h = hadamard(q)
    assert circuits_equal(Circuit(3, (rewritten,)), Circuit(3, (h, gate, h)))


@pytest.mark.parametrize(
    "gate", [hadamard(1), hadamard(0), cnot(0, 2), Gate("CZ", (2, 0)), cczx(0, 2)]
)
def test_hadamard_rewrite_passes_h_and_gates_off_its_qubit(gate):
    assert _push(hadamard(1), gate) == (gate,)


def _old_cnot_table(pushed: Gate, gate: Gate) -> tuple[Gate, ...] | None:
    """The CNOT-only commutator table that ``_push`` replaced, as a reference.

    The gates that CNOT(i, j) adds after CNOT(k, l) when pushed through it:
    one CNOT when the pushed target is the control of the other or the
    pushed control its target, none when neither, and None when both.
    """
    (i, j), (k, l) = pushed.qubits, gate.qubits
    if j == k and i == l:
        return None
    if j == k:
        return (cnot(i, l),)
    if i == l:
        return (cnot(k, j),)
    return ()


_PAIRS_ON_4 = list(permutations(range(4), 2))
_GATES_ON_4 = [Gate(kind, pair) for kind in ("CNOT", "CZ", "CCZX") for pair in _PAIRS_ON_4]
_GATES_ON_4 += [hadamard(q) for q in range(4)]


def test_push_matches_the_old_cnot_table():
    cnots = [cnot(a, b) for a, b in _PAIRS_ON_4]
    assert len(cnots) ** 2 == 144
    for pushed in cnots:
        for gate in cnots:
            extra = _old_cnot_table(pushed, gate)
            assert _push(pushed, gate) == (None if extra is None else (gate,) + extra)


def _why_not_a_gate_list(pushed: Gate, gate: Gate) -> str:
    """Which stated reason, read off Pauli conjugation, makes a push None."""
    if gate.kind == "H":
        return "H on a pushed qubit" if gate.qubits[0] in pushed.qubits else ""
    bases = {"CNOT": "ZX", "CZ": "ZZ", "CCZX": "XX"}[gate.kind]
    images = [
        conjugate_pauli(Circuit(4, (pushed,)), PauliString.single(4, q, b))
        for q, b in zip(gate.qubits, bases)
    ]
    moved = [i for i, image in enumerate(images) if image.support.bit_count() == 2]
    if len(moved) == 2:
        return "both ends move"
    if len(moved) == 1:
        (i,) = moved
        if images[i].support >> gate.qubits[1 - i] & 1:
            return "the moved end lands on the other qubit"
    return ""


@pytest.mark.parametrize("pushed", _GATES_ON_4, ids=lambda g: g.kind + "".join(map(str, g.qubits)))
def test_push_is_the_conjugated_gate_or_a_stated_refusal(pushed):
    for gate in _GATES_ON_4:
        out = _push(pushed, gate)
        if out is None:
            assert pushed.kind != "H" and _why_not_a_gate_list(pushed, gate), gate
            continue
        assert circuits_equal(Circuit(4, (pushed, gate, pushed)), Circuit(4, out)), gate
        if pushed.kind == "H":
            assert len(out) == 1, gate
        else:
            assert not _why_not_a_gate_list(pushed, gate), gate
            assert out[0] == gate and len(out) <= 2, gate


def test_decode_encode_is_identity_on_fixtures():
    for code in map(fixture_code, ("11-3-3", "12-4-3", "6-3-1", "10-3-3")):
        enc, dec = encode_circuit(code), decode_circuit(code)
        assert circuits_equal(enc + dec, Circuit(code.qubit_count))


def test_decode_encode_identity_on_random_codes():
    for code in seeded_random_codes(25, seed=77):
        enc, dec = encode_circuit(code), decode_circuit(code)
        assert circuits_equal(enc + dec, Circuit(code.qubit_count))


def test_within_block_gate_swap_is_equivalent():
    code = fixture_code("11-3-3")
    enc = encode_circuit(code)
    gates = list(enc.gates)
    # first two gates belong to the B block: swapping them changes nothing
    gates[0], gates[1] = gates[1], gates[0]
    assert circuits_equal(enc, Circuit(enc.qubit_count, tuple(gates)))


def test_extra_gate_breaks_equality():
    code = fixture_code("11-3-3")
    enc = encode_circuit(code)
    padded = enc + Circuit(enc.qubit_count, (cnot(0, 4),))
    assert not circuits_equal(enc, padded)


def test_circuit_text_round_trip():
    circ = Circuit(5, (cnot(0, 4), cczx(3, 2), hadamard(1), Gate("CZ", (0, 2))))
    text = circuit_to_text(circ)
    assert "CNOT 0 4" in text and "CCZX 3 2" in text and "H 1" in text
    assert text == "qubits 5\nCNOT 0 4\nCCZX 3 2\nH 1\nCZ 0 2\n"


def test_circuit_rejects_negative_qubit_count():
    with pytest.raises(ValueError, match="qubit count must be non-negative, got -3"):
        Circuit(-3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Circuit(2) + Circuit(3), "^cannot concatenate circuits with different qubit counts$"),
        (lambda: PauliString(2, x_bits=4), "^mask exceeds qubit count$"),
        (lambda: PauliString.single(2, 0, "W"), "^kind must be X, Y or Z, got 'W'$"),
        (
            lambda: conjugate_pauli(Circuit(3), PauliString(2)),
            "^pauli is on 2 qubits, circuit on 3$",
        ),
    ],
    ids=["concatenate", "pauli-mask", "pauli-kind", "conjugate-sizes"],
)
def test_circuit_and_pauli_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_commutator_of_bp_gates_matches_cross_propagation():
    # pushing a B-block CNOT through a P-block CNOT that shares its data
    # qubit adds the CNOT(phase -> bit) whose parity, together with the
    # direct cross checks, is exactly the cross-propagation matrix
    from cpc.propagation import cross_propagation

    for code in seeded_random_codes(20, seed=321):
        enc = encode_circuit(code)
        n_gates_b = int(code.mb.data.sum())
        n_gates_p = int(code.mp.data.sum())
        b_gates = enc.gates[:n_gates_b]
        p_gates = enc.gates[n_gates_b : n_gates_b + n_gates_p]
        induced = np.zeros((code.n_b, code.n_p), dtype=np.uint8)
        for bg in b_gates:
            for pg in p_gates:
                pushed = _push(bg, pg)
                assert pushed is not None and pushed[0] == pg
                if len(pushed) == 1:
                    continue
                gate = pushed[1]
                control, target = gate.qubits
                p = control - code.k - code.n_b
                b = target - code.k
                assert gate.kind == "CNOT" and p >= 0 and 0 <= b < code.n_b
                induced[b, p] ^= 1
        mediated = (induced ^ code.mc.data).tolist()
        assert mediated == cross_propagation(code).data.tolist()


def test_circuits_equal_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        circuits_equal(Circuit(2), Circuit(3))
