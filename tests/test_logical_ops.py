from __future__ import annotations

from itertools import permutations, product

import numpy as np
import pytest

from conftest import FIXTURE_DIR, fixture_code, seeded_random_codes
from cpc.circuits import (
    Circuit,
    PauliString,
    circuits_equal,
    cnot,
    conjugate_pauli,
    decode_circuit,
    encode_circuit,
    hadamard,
    rewrite,
)
from cpc.decoding import single_error_records
from cpc.dynamics import apply_circuit
from cpc.logical_ops import (
    logical_cnot_circuit,
    logical_hadamard_circuit,
    logical_pauli_frame,
)
from cpc.model import CpcCode


def test_pauli_frame_x_on_first_qubit():
    frame = logical_pauli_frame(fixture_code("11-3-3"), "XII")
    assert frame.gates == ((0, "X"),)
    assert frame.bit_check_toggles == (0, 2)  # b1, b3
    assert frame.phase_check_toggles == ()


def test_pauli_frame_identity():
    frame = logical_pauli_frame(fixture_code("11-3-3"), "III")
    assert frame.gates == ()
    assert frame.bit_check_toggles == () and frame.phase_check_toggles == ()


def test_pauli_frame_y_combines():
    frame = logical_pauli_frame(fixture_code("11-3-3"), "YII")
    assert frame.bit_check_toggles == (0, 2)
    assert frame.phase_check_toggles == (0, 2)  # p1, p3


def test_pauli_frame_matches_error_syndromes_exhaustively():
    # every single-qubit frame: toggles equal the error-table syndrome, so an
    # error-free cycle reads all-clear after reinterpretation
    for code in (fixture_code("11-3-3"), fixture_code("12-4-3")):
        records = {(r.qubit, r.kind): r for r in single_error_records(code)}
        for j in range(code.k):
            for kind in "XYZ":
                letters = ["I"] * code.k
                letters[j] = kind
                frame = logical_pauli_frame(code, "".join(letters))
                rec = records[(j, kind)]
                assert frame.bit_check_toggles == tuple(
                    i for i in range(code.n_b) if (rec.sx >> i) & 1
                )
                assert frame.phase_check_toggles == tuple(
                    i for i in range(code.n_p) if (rec.sz >> i) & 1
                )


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURE_DIR.glob("*.cpc")))
def test_pauli_frame_matches_decoder_conjugation(name):
    # independent oracle, split and generalized: the toggles are the check
    # flips of every data Pauli string pushed through the decoder, read as
    # error_table reads them (first side X flips, second side Z flips)
    code = fixture_code(name)
    k, n = code.k, code.qubit_count
    n_first, n_second = (code.n_b, code.n_p) if isinstance(code, CpcCode) else (code.n_c, 0)
    decoder = decode_circuit(code)
    for letters in product("IXYZ", repeat=k):
        frame = logical_pauli_frame(code, "".join(letters))
        x = sum(1 << j for j, ch in enumerate(letters) if ch in "XY")
        z = sum(1 << j for j, ch in enumerate(letters) if ch in "ZY")
        prop = conjugate_pauli(decoder, PauliString(n, x, z))
        assert frame.bit_check_toggles == tuple(
            i for i in range(n_first) if (prop.x_bits >> (k + i)) & 1
        )
        assert frame.phase_check_toggles == tuple(
            i for i in range(n_second) if (prop.z_bits >> (k + n_first + i)) & 1
        )


def test_pauli_frame_validates_input():
    with pytest.raises(ValueError):
        logical_pauli_frame(fixture_code("11-3-3"), "XX")
    with pytest.raises(ValueError):
        logical_pauli_frame(fixture_code("11-3-3"), "ABC")


def test_logical_hadamard_gate_substitution():
    code = fixture_code("11-3-3")
    circuit = logical_hadamard_circuit(code, 0)
    kinds = {}
    for g in circuit.gates:
        kinds.setdefault(g.kind, []).append(g)
    # d1 controls CNOTs to b1 and b3: those become conjugate-CZ
    assert {tuple(g.qubits) for g in kinds["CCZX"]} == {(0, 3), (0, 5)}
    # p1 and p3 target d1: those become CZ
    assert {tuple(g.qubits) for g in kinds["CZ"]} == {(7, 0), (9, 0)}
    assert kinds["H"] == [hadamard(0)]


def test_logical_hadamard_equivalence():
    code = fixture_code("11-3-3")
    enc = encode_circuit(code)
    for d in range(code.k):
        rewritten = logical_hadamard_circuit(code, d)
        target = enc + Circuit(enc.qubit_count, (hadamard(d),))
        assert circuits_equal(rewritten, target)


def test_logical_hadamard_twice_is_plain_encoder():
    code = fixture_code("11-3-3")
    enc = encode_circuit(code)
    once = logical_hadamard_circuit(code, 1)
    twice = rewrite(once, hadamard(1))
    assert circuits_equal(twice, enc)


def test_logical_hadamard_untouched_qubit():
    from cpc.gf2 import Gf2Matrix

    code = CpcCode(
        mb=Gf2Matrix([[1, 0], [0, 0]]),
        mp=Gf2Matrix.zeros(2, 0),
        mc=Gf2Matrix.zeros(2, 0),
    )
    circuit = logical_hadamard_circuit(code, 1)
    assert circuit.gates[0] == hadamard(1)
    assert all(g.kind == "CNOT" for g in circuit.gates[1:])


def test_logical_cnot_equivalence():
    code = fixture_code("11-3-3")
    enc = encode_circuit(code)
    for c, t in ((0, 1), (1, 0), (2, 0)):
        rewritten = logical_cnot_circuit(code, c, t)
        target = enc + Circuit(enc.qubit_count, (cnot(c, t),))
        assert circuits_equal(rewritten, target)


def test_logical_cnot_twice_is_plain_encoder():
    code = fixture_code("11-3-3")
    enc = encode_circuit(code)
    once = logical_cnot_circuit(code, 0, 1)
    twice = rewrite(once, cnot(0, 1))
    assert circuits_equal(twice, enc)


def test_logical_cnot_rejects_bad_indices():
    with pytest.raises(ValueError):
        logical_cnot_circuit(fixture_code("11-3-3"), 0, 0)
    with pytest.raises(ValueError):
        logical_cnot_circuit(fixture_code("11-3-3"), 0, 9)


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURE_DIR.glob("*.cpc")))
def test_logical_gates_on_every_fixture(name):
    # generalized 10-3-3 included: the CNOT is pushed through its CCZX gates too
    code = fixture_code(name)
    enc = encode_circuit(code)
    n = enc.qubit_count
    for d in range(code.k):
        assert circuits_equal(logical_hadamard_circuit(code, d), enc + Circuit(n, (hadamard(d),)))
    for c, t in permutations(range(code.k), 2):
        rewritten = logical_cnot_circuit(code, c, t)
        assert circuits_equal(rewritten, enc + Circuit(n, (cnot(c, t),))), (c, t)


def test_logical_cnot_on_the_generalized_code_round_trips_a_statevector():
    # an oracle apart from Pauli conjugation: the rewritten encoder and the
    # encoder followed by the CNOT send random states to the same state
    code = fixture_code("10-3-3")
    enc = encode_circuit(code)
    n = enc.qubit_count
    assert any(g.kind == "CCZX" for g in enc.gates)
    rng = np.random.Generator(np.random.Philox(26))
    for c, t in permutations(range(code.k), 2):
        rewritten = logical_cnot_circuit(code, c, t)
        target = enc + Circuit(n, (cnot(c, t),))
        for _ in range(3):
            state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            state /= np.linalg.norm(state)
            got, want = apply_circuit(state, rewritten), apply_circuit(state, target)
            assert abs(np.vdot(want, got)) == pytest.approx(1.0), (c, t)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda code: rewrite(encode_circuit(code), hadamard(11)),
            r"^gate Gate\(kind='H', qubits=\(11,\)\) outside 0\.\.10$",
        ),
        (lambda code: logical_hadamard_circuit(code, 3), r"^data index 3 outside 0\.\.2$"),
        # CNOT(0,1) and CNOT(1,0) share both qubits: no gate list resolves the push
        (
            lambda code: rewrite(Circuit(2, (cnot(1, 0),)), cnot(0, 1)),
            r"^cannot commute Gate\(kind='CNOT', qubits=\(0, 1\)\) "
            r"past Gate\(kind='CNOT', qubits=\(1, 0\)\)$",
        ),
        # a CNOT does not push through a Hadamard on one of its qubits
        (
            lambda code: rewrite(Circuit(2, (hadamard(1),)), cnot(0, 1)),
            r"^cannot commute Gate\(kind='CNOT', qubits=\(0, 1\)\) "
            r"past Gate\(kind='H', qubits=\(1,\)\)$",
        ),
    ],
    ids=["hadamard_rewrite", "logical_hadamard", "cnot_rewrite", "cnot_past_h"],
)
def test_rewrites_refuse_what_they_cannot_rewrite(call, message):
    with pytest.raises(ValueError, match=message):
        call(fixture_code("11-3-3"))


def test_rewrites_on_random_codes():
    # both rewrites must stay unitarily equivalent for arbitrary valid codes
    for code in seeded_random_codes(50, seed=404):
        enc = encode_circuit(code)
        n = enc.qubit_count
        rewritten = logical_hadamard_circuit(code, 0)
        assert circuits_equal(rewritten, enc + Circuit(n, (hadamard(0),)))
        if code.k >= 2:
            rewritten = logical_cnot_circuit(code, 0, 1)
            assert circuits_equal(rewritten, enc + Circuit(n, (cnot(0, 1),)))


def test_rewrites_preserve_qubit_count():
    code = fixture_code("12-4-3")
    assert logical_hadamard_circuit(code, 2).qubit_count == code.qubit_count
    assert logical_cnot_circuit(code, 0, 3).qubit_count == code.qubit_count
