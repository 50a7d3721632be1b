from __future__ import annotations

import math

import numpy as np

from conftest import FIXTURE_DIR, fixture_code, seeded_random_codes, seeded_random_general_codes
from cpc.circuits import PauliString, conjugate_pauli, decode_circuit
from cpc.faults import ErrorModel, fault_table


def _oracle_codes():
    codes = [fixture_code(p.stem) for p in sorted(FIXTURE_DIR.glob("*.cpc"))]
    assert len(codes) == 8
    return codes + seeded_random_codes(30, seed=2024) + seeded_random_general_codes(30, seed=4343)


def test_fault_table_matches_circuit_conjugation():
    # The circuit oracle of every row: the fault's Pauli pushed through the
    # decode circuit, its syndrome read as error_table reads it and its data
    # residual off the low k bits, then decoded by the table alone.
    rows = 0
    for code in _oracle_codes():
        t = fault_table(code)
        n, k = code.qubit_count, code.k
        n_first, n_second = t.table.n_first, t.table.n_second
        decoder = decode_circuit(code)
        assert t.paulis.shape == (2 * n, 2)
        for row, (x, z) in enumerate(t.paulis.tolist()):
            # record order: qubit by qubit, its X fault before its Z fault
            assert (x, z) == ((1 << row // 2, 0) if row % 2 == 0 else (0, 1 << row // 2))
            assert t.is_x[row] == (row % 2 == 0)
            prop = conjugate_pauli(decoder, PauliString(n, x, z))
            sx = (prop.x_bits >> k) & ((1 << n_first) - 1)
            sz = (prop.z_bits >> (k + n_first)) & ((1 << n_second) - 1)
            residual = np.array([prop.x_bits, prop.z_bits]) & ((1 << k) - 1)
            correction, known = t.table.lookup(sx, sz)
            assert known, (code, row)
            assert t.decoded[row].tolist() == [sx, sz, *correction.tolist()], (code, row)
            assert t.net[row].tolist() == (residual ^ correction).tolist(), (code, row)
            rows += 1
    assert rows == 906


def test_fault_probabilities_follow_the_rates():
    code = fixture_code("11-3-3")
    t = fault_table(code)
    for model in (ErrorModel(0.007, 0.0007), ErrorModel(0.0, 2.5), ErrorModel(1.0, 1.0)):
        for rate in (10.0, 100.0, 0.5):
            eps = [model.eps_bit if x else model.eps_phase for x in t.is_x]
            assert t.probs(model, rate).tolist() == [1.0 - math.exp(-e / rate) for e in eps]
