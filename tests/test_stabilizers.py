from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import (
    HAMMING_743,
    fixture_code,
    seeded_random_codes,
    seeded_random_general_codes,
)
from cpc import decoding
from cpc.circuits import PauliString, conjugate_pauli, decode_circuit, encode_circuit
from cpc.decoding import code_distance, correcting_mask, single_error_records
from cpc.gf2 import Gf2Matrix, multiply, row_space_equal, rref
from cpc.model import CpcCode, GeneralCpcCode, generalize, parse
from cpc.search import random_code, search
from cpc.stabilizers import (
    CssConversionError,
    check_matrix,
    css_to_cpc,
    logical_operators,
    stabilizer_to_text,
    stabilizers,
    symplectic_matrix,
)

# Brute-force table for the [[11,3,3]] code: conjugating the initial check
# stabilizers through the encoder, independently verified in the tests below.
EXPECTED_1133 = {
    "Z d1 d2 b1 p2 p4",
    "Z d2 d3 b2 p3 p4",
    "Z d1 d3 b3 p1 p4",
    "Z b4 p1 p2 p3 p4",
    "X d1 d2 b2 b4 p1",
    "X d2 d3 b3 b4 p2",
    "X d1 d3 b1 b4 p3",
    "X b1 b2 b3 b4 p4",
}


def _circuit_stabilizers(code: CpcCode) -> list[PauliString]:
    enc = encode_circuit(code)
    n = code.qubit_count
    gens = [
        conjugate_pauli(enc, PauliString.single(n, code.bit_index(i), "Z"))
        for i in range(code.n_b)
    ]
    gens += [
        conjugate_pauli(enc, PauliString.single(n, code.phase_index(i), "X"))
        for i in range(code.n_p)
    ]
    return gens


def _circuit_stabilizers_general(code: GeneralCpcCode) -> list[PauliString]:
    enc = encode_circuit(code)
    n = code.qubit_count
    return [
        conjugate_pauli(enc, PauliString.single(n, code.check_index(i), "Z"))
        for i in range(code.n_c)
    ]


def test_stabilizers_1133_table():
    code = fixture_code("11-3-3")
    got = {stabilizer_to_text(g, code.qubit_label) for g in stabilizers(code)}
    assert got == EXPECTED_1133


def test_stabilizers_pure_bit_flip_code():
    code = fixture_code("6-3-1")
    gens = stabilizers(code)
    assert len(gens) == 3
    texts = {stabilizer_to_text(g, code.qubit_label) for g in gens}
    assert texts == {"Z d1 d2 b1", "Z d2 d3 b2", "Z d1 d3 b3"}


def test_stabilizer_text_of_mixed_generators_and_the_identity():
    code = fixture_code("10-3-3")
    first = stabilizers(code)[0]
    assert stabilizer_to_text(first, code.qubit_label) == "Z_d1 Z_d2 Z_c1 X_c5 X_c7"
    identity = PauliString(code.qubit_count, 0, 0)
    assert stabilizer_to_text(identity, code.qubit_label) == "I"


def test_stabilizers_mutually_commute():
    for code in (fixture_code("11-3-3"), fixture_code("12-4-3"), fixture_code("13-3-3")):
        gens = stabilizers(code)
        for a in gens:
            for b in gens:
                assert a.commutes_with(b)


def test_formula_equals_circuit_on_fixtures():
    for code in map(fixture_code, ("11-3-3", "12-4-3", "6-3-1", "13-3-3")):
        assert stabilizers(code) == _circuit_stabilizers(code)


def test_formula_equals_circuit_on_random_codes():
    for code in seeded_random_codes(100, seed=13):
        assert stabilizers(code) == _circuit_stabilizers(code)


def test_general_formula_equals_circuit():
    fixtures = [fixture_code("10-3-3"), generalize(fixture_code("11-3-3"))]
    for gcode in fixtures:
        assert stabilizers(gcode) == _circuit_stabilizers_general(gcode)
    for code in seeded_random_codes(40, seed=1234):
        g = generalize(code)
        assert stabilizers(g) == _circuit_stabilizers_general(g)


def test_general_formula_equals_circuit_with_self_loops():
    # arbitrary generalized wiring, including data qubits tied to one check
    # by both edge types (Y components on the check, phases and all)
    loops_seen = 0
    for g in seeded_random_general_codes(60):
        gens = stabilizers(g)
        assert gens == _circuit_stabilizers_general(g)
        for a in gens:
            for b in gens:
                assert a.commutes_with(b)
        loops_seen += sum(
            1 for s in gens if any(s.letter(q) == "Y" for q in range(s.qubit_count))
        )
    assert loops_seen > 0


def _bit_rows(paulis: list[PauliString], n: int) -> tuple[list, list]:
    x = [[(p.x_bits >> q) & 1 for q in range(n)] for p in paulis]
    z = [[(p.z_bits >> q) & 1 for q in range(n)] for p in paulis]
    return x, z


def test_check_matrix_and_harmful_match_circuit():
    # check_matrix rows are the circuit-conjugated generators, and a record is
    # harmful exactly when its qubit is a data qubit or some X/Y/Z fault on it
    # leaves a nonzero data residual through the decode circuit.
    names = ("11-3-3", "12-4-3", "6-3-1", "11-3-1", "13-3-3", "11-3-3-cnot", "12-4-3-cnot", "10-3-3")
    codes = [fixture_code(name) for name in names] + [generalize(fixture_code("11-3-3"))]
    codes += seeded_random_codes(30, seed=4242)
    codes += seeded_random_general_codes(30, seed=4343)
    for code in codes:
        n = code.qubit_count
        if isinstance(code, CpcCode):
            circuit_gens = _circuit_stabilizers(code)
        else:
            circuit_gens = _circuit_stabilizers_general(code)
        hx, hz = check_matrix(code)
        assert hx.dtype == hz.dtype == np.uint8
        assert (hx.tolist(), hz.tolist()) == _bit_rows(circuit_gens, n)

        dec = decode_circuit(code)
        data = (1 << code.k) - 1
        for rec in single_error_records(code):
            reaches = any(
                conjugate_pauli(dec, PauliString.single(n, rec.qubit, kind)).support & data
                for kind in "XYZ"
            )
            assert rec.harmful == (rec.qubit < code.k or bool(reaches)), rec.label


def test_general_split_relabelling_recovers_split_stabilizers():
    # Hadamard on the phase checks swaps X and Z there; the generalized
    # formula then reproduces the split-code generators.
    code = fixture_code("11-3-3")
    g = generalize(code)
    split_gens = stabilizers(code)
    general_gens = stabilizers(g)
    n = code.qubit_count
    phase_mask = sum(1 << code.phase_index(i) for i in range(code.n_p))
    relabelled = []
    for gen in general_gens:
        x = (gen.x_bits & ~phase_mask) | (gen.z_bits & phase_mask)
        z = (gen.z_bits & ~phase_mask) | (gen.x_bits & phase_mask)
        relabelled.append(PauliString(n, x, z))
    # Z-type generators first in split order, then X-type
    want = [PauliString(n, g2.x_bits, g2.z_bits) for g2 in split_gens]
    assert sorted((p.x_bits, p.z_bits) for p in relabelled) == sorted(
        (p.x_bits, p.z_bits) for p in want
    )


def test_general_1033_commutes():
    gens = stabilizers(fixture_code("10-3-3"))
    assert len(gens) == 7
    for a in gens:
        for b in gens:
            assert a.commutes_with(b)


def test_general_single_check_minimal():
    gcode = GeneralCpcCode(
        mbs=Gf2Matrix([[1]]), mps=Gf2Matrix.zeros(1, 1), mcs=Gf2Matrix.zeros(1, 1)
    )
    (gen,) = stabilizers(gcode)
    assert stabilizer_to_text(gen, gcode.qubit_label) == "Z d1 c1"


def test_symplectic_structure_1133():
    code = fixture_code("11-3-3")
    g_z, g_x = symplectic_matrix(code)
    k, n_b = code.k, code.n_b
    # own-check identity blocks
    assert g_z.data[:, k : k + n_b].tolist() == np.eye(4, dtype=int).tolist()
    assert g_x.data[:, k + n_b :].tolist() == np.eye(4, dtype=int).tolist()
    # data blocks are the transposed code matrices
    assert g_z.data[:, :k].tolist() == code.mb.transpose().data.tolist()
    assert g_x.data[:, :k].tolist() == code.mp.transpose().data.tolist()
    # phase block of the Z rows is the cross propagation
    from cpc.propagation import cross_propagation

    assert g_z.data[:, k + n_b :].tolist() == cross_propagation(code).data.tolist()


def test_symplectic_commutation_fixtures_and_random():
    codes = [fixture_code(name) for name in ("11-3-3", "12-4-3", "6-3-1", "13-3-3")]
    codes += seeded_random_codes(100, seed=99)
    for code in codes:
        g_z, g_x = symplectic_matrix(code)
        assert multiply(g_z, g_x.transpose()).is_zero()


def test_symplectic_no_data():
    code = CpcCode(Gf2Matrix.zeros(0, 2), Gf2Matrix.zeros(0, 2), Gf2Matrix.zeros(2, 2))
    g_z, g_x = symplectic_matrix(code)
    assert g_z.rows == 2 and g_x.rows == 2


def _stack_css(g_z: Gf2Matrix, g_x: Gf2Matrix) -> Gf2Matrix:
    n = g_z.cols
    top = np.hstack([g_z.data, np.zeros_like(g_z.data)])
    bottom = np.hstack([np.zeros_like(g_x.data), g_x.data])
    return Gf2Matrix(np.vstack([top, bottom]))


def test_css_to_cpc_steane():
    g_z = g_x = HAMMING_743
    result = css_to_cpc(g_z, g_x)
    code = result.code
    assert (code.k, code.n_b, code.n_p) == (1, 3, 3)
    new_gz, new_gx = symplectic_matrix(code)
    inverse = np.argsort(np.array(result.permutation))
    permuted = _stack_css(
        Gf2Matrix(new_gz.data[:, inverse]), Gf2Matrix(new_gx.data[:, inverse])
    )
    assert row_space_equal(permuted, _stack_css(g_z, g_x))
    assert code_distance(code, w_max=3) == 3


def test_css_round_trip_preserves_group():
    for code in (fixture_code("11-3-3"), fixture_code("12-4-3")):
        g_z, g_x = symplectic_matrix(code)
        result = css_to_cpc(g_z, g_x)
        new_gz, new_gx = symplectic_matrix(result.code)
        inverse = np.argsort(np.array(result.permutation))
        permuted = _stack_css(
            Gf2Matrix(new_gz.data[:, inverse]), Gf2Matrix(new_gx.data[:, inverse])
        )
        assert row_space_equal(permuted, _stack_css(g_z, g_x))


def test_css_to_cpc_trivial_single_qubit():
    result = css_to_cpc(Gf2Matrix.zeros(0, 1), Gf2Matrix.zeros(0, 1))
    assert result.code.k == 1
    assert result.code.n_b == 0 and result.code.n_p == 0


def test_css_to_cpc_rejects_non_commuting():
    g_z = Gf2Matrix([[1, 0]])
    g_x = Gf2Matrix([[1, 0]])
    with pytest.raises(CssConversionError):
        css_to_cpc(g_z, g_x)


def test_css_to_cpc_rejects_column_count_mismatch():
    with pytest.raises(CssConversionError, match=r"^column-count mismatch: 3 vs 2$"):
        css_to_cpc(Gf2Matrix.zeros(1, 3), Gf2Matrix.zeros(1, 2))


def _null_space(h: Gf2Matrix) -> np.ndarray:
    """Basis of {v : h v = 0}, one row per free column of rref(h)."""
    red = rref(h)
    free = [c for c in range(h.cols) if c not in red.pivots]
    basis = np.zeros((len(free), h.cols), dtype=np.uint8)
    for row, f in enumerate(free):
        basis[row, f] = 1
        basis[row, list(red.pivots)] = red.reduced.data[: red.rank, f]
    return basis


def test_css_to_cpc_converts_every_commuting_pair():
    # Z rows at random, X rows random combinations of their null space (so
    # dependent and zero rows occur), each pair in both orientations
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(8)))
    for _ in range(150):
        n = int(rng.integers(1, 11))
        g_z = Gf2Matrix(rng.integers(0, 2, size=(int(rng.integers(0, n + 2)), n), dtype=np.uint8))
        basis = _null_space(g_z)
        mix = rng.integers(0, 2, size=(int(rng.integers(0, n + 2)), len(basis)), dtype=np.uint8)
        g_x = Gf2Matrix((mix.astype(np.int64) @ basis) % 2)
        for z, x in ((g_z, g_x), (g_x, g_z)):
            result = css_to_cpc(z, x)
            code = result.code
            assert result.permutation[code.k : code.k + code.n_b] == rref(z).pivots
            assert sorted(result.permutation) == list(range(n))
            new_gz, new_gx = symplectic_matrix(code)
            inverse = np.argsort(np.array(result.permutation))
            permuted = _stack_css(
                Gf2Matrix(new_gz.data[:, inverse]), Gf2Matrix(new_gx.data[:, inverse])
            )
            assert row_space_equal(permuted, _stack_css(z, x))


def test_cpc_to_css_1133_matches_table():
    code = fixture_code("11-3-3")
    g_z, g_x = symplectic_matrix(code)
    assert g_z.rows == 4 and g_x.rows == 4
    gens = stabilizers(code)
    for i in range(4):
        mask = sum(int(g_z.data[i, q]) << q for q in range(code.qubit_count))
        assert mask == gens[i].z_bits


def test_cpc_to_css_empty():
    code = CpcCode(Gf2Matrix.zeros(1, 0), Gf2Matrix.zeros(1, 0), Gf2Matrix.zeros(0, 0))
    g_z, g_x = symplectic_matrix(code)
    assert g_z.rows == 0 and g_x.rows == 0


def test_logical_operators_1133():
    code = fixture_code("11-3-3")
    logical_x, logical_z = logical_operators(code)
    labels = [g.label(code.qubit_label) for g in logical_x]
    assert labels == ["X_d1 X_b1 X_b3", "X_d2 X_b1 X_b2", "X_d3 X_b2 X_b3"]
    assert all(g.support.bit_count() == 3 for g in logical_x)
    # every bit check appears in exactly two logical X operators
    counts = {b: 0 for b in range(code.n_b)}
    for g in logical_x:
        for b in range(code.n_b):
            if (g.x_bits >> code.bit_index(b)) & 1:
                counts[b] += 1
    assert counts == {0: 2, 1: 2, 2: 2, 3: 0}


def _conjugated_logicals(code) -> tuple[list[PauliString], list[PauliString]]:
    """The bare data-qubit X and Z operators conjugated through the encoder."""
    enc, n = encode_circuit(code), code.qubit_count
    return tuple(
        [conjugate_pauli(enc, PauliString.single(n, j, kind)) for j in range(code.k)]
        for kind in "XZ"
    )


def test_logical_operators_equal_encoder_conjugation(fixture_dir):
    split = seeded_random_codes(150) + [
        random_code(k, n_b, n_p, np.random.default_rng(k + n_b))
        for k, n_b, n_p in ((0, 2, 2), (2, 0, 3), (3, 2, 0), (1, 0, 0))
    ]
    codes = [parse(path.read_text(encoding="utf-8")) for path in sorted(fixture_dir.glob("*.cpc"))]
    codes += split + [generalize(c) for c in split] + seeded_random_general_codes(150)
    for code in codes:
        assert logical_operators(code) == _conjugated_logicals(code), code


def test_logical_operators_commute_with_stabilizers():
    for code in (fixture_code("11-3-3"), fixture_code("12-4-3")):
        gens = stabilizers(code)
        logical_x, logical_z = logical_operators(code)
        for op in logical_x + logical_z:
            assert all(op.commutes_with(s) for s in gens)
        for i, lx in enumerate(logical_x):
            for j, lz in enumerate(logical_z):
                assert lx.commutes_with(lz) == (i != j)


def test_code_distances():
    assert code_distance(fixture_code("11-3-3")) == 3
    assert code_distance(fixture_code("6-3-1")) == 1
    assert code_distance(fixture_code("12-4-3")) == 3
    assert code_distance(fixture_code("10-3-3")) == 3


def _reference_distance(code, w_max: int) -> int | None:
    """Least weight of a Pauli that commutes with every generator and
    anticommutes with some logical operator, by enumeration."""
    n = code.qubit_count
    generators = stabilizers(code)
    logical_x, logical_z = _conjugated_logicals(code)
    logicals = logical_x + logical_z
    bits = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
    for weight in range(1, w_max + 1):
        for qubits in itertools.combinations(range(n), weight):
            for letters in itertools.product("XYZ", repeat=weight):
                p = PauliString(
                    n,
                    sum(bits[c][0] << q for q, c in zip(qubits, letters)),
                    sum(bits[c][1] << q for q, c in zip(qubits, letters)),
                )
                if all(p.commutes_with(g) for g in generators) and not all(
                    p.commutes_with(op) for op in logicals
                ):
                    return weight
    return None


def test_fixture_distances_are_pinned(fixture_dir):
    expected = {
        "10-3-3": 3, "11-3-1": 2, "11-3-3": 3, "11-3-3-cnot": 3,
        "12-4-3": 3, "12-4-3-cnot": 3, "13-3-3": 3, "6-3-1": 1,
    }
    for name, distance in expected.items():
        code = parse((fixture_dir / f"{name}.cpc").read_text(encoding="utf-8"))
        assert code_distance(code) == distance, name
        assert _reference_distance(code, 3) == distance, name


def test_code_distance_matches_reference_enumeration():
    # The seeded random codes sit at distance 1 or 2; search hits and their
    # generalized forms add distance 3, and codes without data add "none".
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(77)))
    codes = seeded_random_codes(200) + seeded_random_general_codes(200)
    found = [c for _, c in search((3, 5, 5), correcting_mask, budget=3000, seed=1, cap=8).found]
    codes += found + [generalize(c) for c in found]
    codes += [random_code(0, n_b, n_p, rng) for n_b, n_p in ((1, 1), (2, 3), (3, 0), (0, 2))]
    codes += [
        GeneralCpcCode(
            mbs=Gf2Matrix.zeros(0, n_c),
            mps=Gf2Matrix.zeros(0, n_c),
            mcs=Gf2Matrix(np.triu(rng.integers(0, 2, size=(n_c, n_c), dtype=np.uint8), k=1)),
        )
        for n_c in (1, 3, 4)
    ]
    for code in codes:
        reference = _reference_distance(code, 4)
        for w_max in range(1, 5):
            expected = reference if reference is not None and reference <= w_max else None
            assert code_distance(code, w_max=w_max) == expected, (code, w_max)
            assert _scalar_distance(code, w_max) == expected, (code, w_max)


def _scalar_distance(code, w_max: int) -> int | None:
    """code_distance as a loop over supports, XORing each fault's integer key:
    the syndrome in the low bits, the data residual above."""
    n1, n2 = decoding._syndrome_widths(code)
    syndrome_bits = (1 << (n1 + n2)) - 1
    keys = [
        r.sx | r.sz << n1 | (r.rx | r.rz << code.k) << (n1 + n2)
        for r in single_error_records(code)
    ]
    qubits = [keys[3 * q : 3 * q + 3] for q in range(code.qubit_count)]
    for weight in range(1, w_max + 1):
        for support in itertools.combinations(qubits, weight):
            xors = [0]
            for faults in support:
                xors = [a ^ b for a in xors for b in faults]
            if any(key and not key & syndrome_bits for key in xors):
                return weight
    return None


def test_code_distance_with_keys_past_64_bits():
    # 66 syndrome bits, or 66 data-residual bits: more than one key word.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(91)))
    codes = [random_code(k, n_b, n_p, rng) for k, n_b, n_p in [(2, 33, 33)] * 3 + [(33, 2, 2)]]
    # A weight-2 logical Z on d2 and the last phase check, whose faults fire
    # syndrome bit 65 only: the high word alone cancels.
    mp = codes[0].mp.data.copy()
    mp[1] = 0
    mp[1, 32] = 1
    codes.append(CpcCode(codes[0].mb, Gf2Matrix(mp), codes[0].mc))
    distances = []
    for code in codes:
        distances.append(code_distance(code, w_max=2))
        assert distances[-1] == _scalar_distance(code, 2), code
    assert distances[-1] == 2 and None in distances


def test_code_distance_blocks_cover_every_support(monkeypatch):
    codes = [fixture_code(name) for name in ("11-3-3", "10-3-3", "11-3-1", "6-3-1")]
    expected = [code_distance(code) for code in codes]
    monkeypatch.setattr(decoding, "_DISTANCE_CELLS", 1)
    assert [code_distance(code) for code in codes] == expected == [3, 3, 2, 1]


def test_code_distance_w_max_above_the_qubit_count():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(13)))
    for k, n_b, n_p in ((1, 1, 1), (2, 1, 0), (1, 2, 2), (3, 2, 1)):
        code = random_code(k, n_b, n_p, rng)
        w_max = code.qubit_count + 3
        assert code_distance(code, w_max=w_max) == _scalar_distance(code, w_max), code
        assert code_distance(code, w_max=w_max) == _reference_distance(code, w_max), code


def test_code_distance_without_data_is_none():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(17)))
    for n_b, n_p in ((1, 1), (2, 3), (3, 0), (0, 2)):
        code = random_code(0, n_b, n_p, rng)
        assert code_distance(code, w_max=code.qubit_count + 1) is None


def test_code_distance_beyond_search_limit():
    assert code_distance(fixture_code("11-3-3"), w_max=2) is None


@pytest.mark.parametrize("w_max", [0, -1])
def test_code_distance_rejects_empty_search_range(w_max):
    with pytest.raises(ValueError, match="w_max must be at least 1"):
        code_distance(fixture_code("11-3-3"), w_max=w_max)
