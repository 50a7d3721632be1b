from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_DIR, fixture_code, seeded_random_codes, seeded_random_general_codes
from cpc.circuits import Gate, cnot
from cpc.decoding import cnot_compatible, code_distance
from cpc.dynamics import SimConfig
from cpc.faults import fault_table
from cpc.gf2 import Gf2Matrix
from cpc.logical_ops import logical_cnot_circuit, logical_hadamard_circuit
from cpc.model import (
    ClassicalCode,
    CpcCode,
    CpcFormatError,
    GeneralCpcCode,
    InvalidCodeError,
    generalize,
    parse,
    parse_css,
    serialize,
    serialize_css,
)
from cpc.stabilizers import symplectic_matrix


def test_validate_good_fixture():
    code, g = fixture_code("11-3-3"), fixture_code("10-3-3")
    assert CpcCode(code.mb, code.mp, code.mc) == code
    assert GeneralCpcCode(g.mbs, g.mps, g.mcs) == g


def test_validate_dimension_violation():
    with pytest.raises(InvalidCodeError, match="rows"):
        CpcCode(mb=Gf2Matrix.zeros(2, 4), mp=Gf2Matrix.zeros(3, 4), mc=Gf2Matrix.zeros(4, 4))


def test_validate_triangularity():
    g = fixture_code("10-3-3")
    bad = np.array(g.mcs.data, copy=True)
    bad[2, 2] = 1
    with pytest.raises(InvalidCodeError, match="triangular"):
        GeneralCpcCode(mbs=g.mbs, mps=g.mps, mcs=Gf2Matrix(bad))


_Z = Gf2Matrix.zeros
# C of two checks with a diagonal entry (1,1) and a below-diagonal entry (1,0)
_LOW_C = Gf2Matrix([[0, 1], [1, 1]])
_LOW_C_MESSAGE = (
    "mcs not strictly upper triangular: entry (1,0) is 1; "
    "mcs not strictly upper triangular: entry (1,1) is 1"
)


@pytest.mark.parametrize(
    "cls, matrices, message",
    [
        (CpcCode, (_Z(2, 3), _Z(1, 4), _Z(3, 4)), "mp has 1 rows but mb has 2 (both must equal k)"),
        (CpcCode, (_Z(2, 3), _Z(2, 4), _Z(2, 4)), "mc has 2 rows but mb has 3 columns"),
        (CpcCode, (_Z(2, 3), _Z(2, 4), _Z(3, 1)), "mc has 1 columns but mp has 4 columns"),
        (
            CpcCode,
            (_Z(2, 3), _Z(1, 4), _Z(0, 0)),
            "mp has 1 rows but mb has 2 (both must equal k); "
            "mc has 0 rows but mb has 3 columns; mc has 0 columns but mp has 4 columns",
        ),
        (GeneralCpcCode, (_Z(1, 2), _Z(3, 2), _Z(2, 2)), "mps has 3 rows but mbs has 1"),
        (GeneralCpcCode, (_Z(1, 2), _Z(1, 3), _Z(2, 2)), "mps has 3 columns but mbs has 2"),
        (GeneralCpcCode, (_Z(1, 2), _Z(1, 2), _Z(2, 3)), "mcs is 2x3, not square"),
        (GeneralCpcCode, (_Z(1, 2), _Z(1, 2), _Z(3, 3)), "mcs is 3x3 but there are 2 checks"),
        (GeneralCpcCode, (_Z(1, 2), _Z(1, 2), _LOW_C), _LOW_C_MESSAGE),
        (
            GeneralCpcCode,
            (_Z(1, 2), _Z(2, 3), _LOW_C),
            "mps has 2 rows but mbs has 1; mps has 3 columns but mbs has 2; " + _LOW_C_MESSAGE,
        ),
    ],
)
def test_code_constructors_list_every_violation(cls, matrices, message):
    with pytest.raises(InvalidCodeError) as err:
        cls(*matrices)
    assert str(err.value) == message


def test_classical_code_refuses_a_bit_outside_its_range():
    with pytest.raises(ValueError, match=r"^check 1 references bit 2 outside 0\.\.1$"):
        ClassicalCode(2, (frozenset({0, 1}), frozenset({2})))


def test_serialize_refuses_an_object_that_is_not_a_code():
    with pytest.raises(TypeError, match="^not a code object: object$"):
        serialize(object())


def test_parse_refuses_c_not_strictly_upper_triangular():
    text = "CPC general\ndata 1\nchecks 2\nB\n10\nP\n01\nC\n01\n11\n"
    with pytest.raises(InvalidCodeError) as err:
        parse(text)
    assert str(err.value) == _LOW_C_MESSAGE


def test_parse_serialized_1133(fixture_dir):
    code = parse((fixture_dir / "11-3-3.cpc").read_text(encoding="utf-8"))
    assert isinstance(code, CpcCode)
    assert (code.k, code.n_b, code.n_p) == (3, 4, 4)


def test_parse_empty_code():
    text = "CPC split\ndata 0\nbit 0\nphase 0\nB\nP\nC\n"
    code = parse(text)
    assert code.qubit_count == 0


def test_parse_reports_bad_character():
    text = "CPC split\ndata 1\nbit 4\nphase 0\nB\n10a0\nP\nC\n"
    with pytest.raises(CpcFormatError) as err:
        parse(text)
    assert "column 3" in str(err.value)
    assert err.value.line == 6


def test_parse_comments_and_blank_lines():
    text = "# a comment\nCPC split\n\ndata 1\nbit 1\nphase 0\nB\n1\nP\nC\n\n"
    code = parse(text)
    assert code.k == 1 and code.n_b == 1


def test_parse_bad_header():
    with pytest.raises(CpcFormatError):
        parse("CPC nonsense\n")


# The three-bit parity check and the [7,4] Hamming data checks, from which
# fixtures/11-3-3.cpc and fixtures/12-4-3.cpc are built.
_THREE_BIT = Gf2Matrix([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
_HAMMING_74_DATA = Gf2Matrix([[1, 0, 1], [1, 1, 0], [1, 1, 1], [0, 1, 1]])


def test_from_classical_builds_1133():
    pad = Gf2Matrix(np.hstack([_THREE_BIT.data, np.zeros((3, 1), dtype=np.uint8)]))
    code = CpcCode(mb=pad, mp=pad, mc=fixture_code("11-3-3").mc)
    assert code == fixture_code("11-3-3")


def test_from_classical_hamming_1243():
    pad = Gf2Matrix(np.hstack([_HAMMING_74_DATA.data, np.zeros((4, 1), dtype=np.uint8)]))
    code = CpcCode(mb=pad, mp=pad, mc=fixture_code("12-4-3").mc)
    assert code == fixture_code("12-4-3")


def test_generalize_1133_block_layout():
    code = fixture_code("11-3-3")
    g = generalize(code)
    assert g.k == 3 and g.n_c == 8
    assert g.mbs.data[:, :4].tolist() == code.mb.data.tolist()
    assert not g.mbs.data[:, 4:].any()
    assert g.mps.data[:, 4:].tolist() == code.mp.data.tolist()
    assert not g.mps.data[:, :4].any()
    assert g.mcs.data[:4, 4:].tolist() == code.mc.data.tolist()
    assert not g.mcs.data[4:, :].any()
    assert not g.mcs.data[:, :4].any()


def test_generalize_preserves_qubit_count():
    for code in (fixture_code("11-3-3"), fixture_code("12-4-3"), fixture_code("6-3-1")):
        assert generalize(code).qubit_count == code.qubit_count


def test_generalize_empty_checks():
    code = CpcCode(mb=Gf2Matrix.zeros(2, 0), mp=Gf2Matrix.zeros(2, 0), mc=Gf2Matrix.zeros(0, 0))
    g = generalize(code)
    assert g.n_c == 0 and g.k == 2


@st.composite
def random_codes(draw):
    k = draw(st.integers(0, 4))
    n_b = draw(st.integers(0, 4))
    n_p = draw(st.integers(0, 4))
    seed = draw(st.integers(0, 2**30))
    rng = np.random.Generator(np.random.Philox(seed))
    mb = Gf2Matrix(rng.integers(0, 2, size=(k, n_b), dtype=np.uint8))
    mp = Gf2Matrix(rng.integers(0, 2, size=(k, n_p), dtype=np.uint8))
    mc = Gf2Matrix(rng.integers(0, 2, size=(n_b, n_p), dtype=np.uint8))
    return CpcCode(mb=mb, mp=mp, mc=mc)


@given(random_codes())
@settings(max_examples=60, deadline=None)
def test_round_trip_identity(code):
    assert parse(serialize(code)) == code


@given(random_codes())
@settings(max_examples=30, deadline=None)
def test_generalize_valid_whenever_input_valid(code):
    g = generalize(code)
    assert (g.k, g.n_c) == (code.k, code.n_b + code.n_p)


def test_round_trip_general(fixture_dir):
    g = fixture_code("10-3-3")
    assert parse(serialize(g)) == g
    on_disk = parse((fixture_dir / "10-3-3.cpc").read_text(encoding="utf-8"))
    assert on_disk == g


def test_parse_rejects_trailing_content():
    text = "CPC split\ndata 1\nbit 1\nphase 0\nB\n1\nP\nC\n1\n"
    with pytest.raises(CpcFormatError) as err:
        parse(text)
    assert "after the C section" in str(err.value)


_SPLIT_HEAD = "CPC split\ndata 1\nbit 2\nphase 1\n"
_GENERAL_HEAD = "CPC general\ndata 1\nchecks 2\n"
_WIDE_HEAD = "CPC split\ndata 1\nbit 4\nphase 0\n"


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("", "empty input", None),
        ("CPC nonsense\n", "expected 'CPC split' or 'CPC general', got 'CPC nonsense'", 1),
        ("CPC split\ndata x\n", "bad count in 'data x'", 2),
        ("CPC split\ndata 1\nbit 1.5\n", "bad count in 'bit 1.5'", 3),
        ("CPC general\ndata 1\nchecks -2\n", "negative count in 'checks -2'", 3),
        ("CPC split\ndata -1\n", "negative count in 'data -1'", 2),
        # int() would read each of these: only ASCII digits make a count
        ("CPC split\ndata 1_0\n", "bad count in 'data 1_0'", 2),
        ("CPC split\ndata \uff13\n", "bad count in 'data \uff13'", 2),
        ("CPC split\ndata +3\n", "bad count in 'data +3'", 2),
        ("CPC split\ndata 1\nbit -1_0\n", "bad count in 'bit -1_0'", 3),
        ("CPC split\nbit 1\n", "expected 'data <count>', got 'bit 1'", 2),
        ("CPC split\ndata 1\nphase 1\n", "expected 'bit <count>', got 'phase 1'", 3),
        ("CPC general\ndata 1\nbit 1\n", "expected 'checks <count>', got 'bit 1'", 3),
        ("CPC split\ndata 1 2\n", "expected 'data <count>', got 'data 1 2'", 2),
        ("CPC split\n", "missing 'data <k>' line", None),
        ("CPC split\ndata 1\n", "missing 'bit <n_b>' line", None),
        ("CPC split\ndata 1\nbit 2\n", "missing 'phase <n_p>' line", None),
        ("CPC general\ndata 1\n", "missing 'checks <n_c>' line", None),
        (_SPLIT_HEAD, "expected section header 'B', file ended", None),
        (_SPLIT_HEAD + "P\n", "expected section header 'B', got 'P'", 5),
        (_SPLIT_HEAD + "B\n10\nC\n", "expected section header 'P', got 'C'", 7),
        (_SPLIT_HEAD + "B\n10\nP\n1\n", "expected section header 'C', file ended", None),
        (_GENERAL_HEAD + "B\n", "section B: expected 1 rows, file ended early", None),
        (_GENERAL_HEAD + "B\n10\nP\n01\nC\n00\n", "section C: expected 2 rows, file ended early", None),
        (_SPLIT_HEAD + "B\n101\n", "section B: expected 2 columns, got 3", 6),
        (_SPLIT_HEAD + "B\n10\nP\n\n# c\n11\n", "section P: expected 1 columns, got 2", 10),
        (_GENERAL_HEAD + "B\n1x\n", "section B: non-binary character 'x' at column 2", 5),
        (_GENERAL_HEAD + "B\nx1\n", "section B: non-binary character 'x' at column 1", 5),
        (_WIDE_HEAD + "B\n0102\n", "section B: non-binary character '2' at column 4", 6),
        (
            _SPLIT_HEAD + "B\n10\nP\n1\nC\n1\nO\n",
            "section C: non-binary character 'O' at column 1",
            11,
        ),
        (_WIDE_HEAD + "B\n10 1\n", "section B: non-binary character ' ' at column 3", 6),
        (_SPLIT_HEAD + "B\n10\nP\n1\nC\n1\n0\nB\n", "unexpected content after the C section: 'B'", 12),
        (_GENERAL_HEAD + "B\n10\nP\n01\nC\n01\n00\n00\n", "unexpected content after the C section: '00'", 11),
    ],
)
def test_parse_errors_name_the_line(text, message, line):
    with pytest.raises(CpcFormatError) as err:
        parse(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


_FIXTURES = sorted(path.stem for path in FIXTURE_DIR.glob("*.cpc"))


def _codes():
    return [
        *(fixture_code(name) for name in _FIXTURES),
        *seeded_random_codes(20, seed=11),
        *seeded_random_general_codes(20, seed=12),
    ]


def test_parse_inverts_serialize_on_fixtures_and_random_codes():
    for code in _codes():
        again = parse(serialize(code))
        assert type(again) is type(code) and again == code


def test_parsed_matrices_match_checked_construction():
    for code in _codes():
        for field in dataclasses.fields(code):
            mat = getattr(parse(serialize(code)), field.name)
            assert mat.data.dtype == np.uint8 and not mat.data.flags.writeable
            checked = Gf2Matrix(mat.data.astype(np.int64))
            assert mat == checked and hash(mat) == hash(checked)


def test_parse_css_inverts_serialize_css_on_split_fixtures_and_random_codes():
    split = [code for code in _codes() if isinstance(code, CpcCode)]
    assert any(code.n_p == 0 for code in split)  # e.g. 6-3-1: a GX header and no rows
    for code in split:
        g_z, g_x = symplectic_matrix(code)
        assert parse_css(serialize_css(g_z, g_x)) == (g_z, g_x)


def _no_work(*args, **kwargs):
    raise AssertionError("worked before checking its arguments")


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda code: logical_cnot_circuit(code, True, 0), "control"),
        (lambda code: logical_cnot_circuit(code, 0, 1.0), "target"),
        (lambda code: logical_hadamard_circuit(code, 0.0), "data_qubit"),
        (lambda code: Gate("H", (1.5,)), "H qubit"),
        (lambda code: cnot(0, np.float64(1)), "CNOT qubit"),
        (lambda code: cnot_compatible(code, False, True), "control"),
        (lambda code: code_distance(code, w_max=2.5), "w_max"),
        (lambda code: code_distance(code, w_max=True), "w_max"),
        (lambda code: SimConfig(cycle_rate=10.0, t_max=1.0, trials=True), "trials"),
        (lambda code: SimConfig(cycle_rate=10.0, t_max=1.0, trials=2.5), "trials"),
        (lambda code: SimConfig(cycle_rate=10.0, t_max=1.0, trials=2, samples=4.0), "samples"),
        (
            lambda code: SimConfig(cycle_rate=10.0, t_max=1.0, trials=2, haar_states=np.True_),
            "haar_states",
        ),
    ],
    ids=[
        "cnot-control-bool", "cnot-target-float", "hadamard-float", "gate-float",
        "gate-numpy-float", "cnot-compatible-bool", "w_max-float", "w_max-bool",
        "trials-bool", "trials-float", "samples-float", "haar_states-numpy-bool",
    ],
)
def test_integer_arguments_are_refused_before_any_work(monkeypatch, call, name):
    monkeypatch.setattr("cpc.logical_ops.encode_circuit", _no_work)
    monkeypatch.setattr("cpc.decoding.single_error_records", _no_work)
    # the value's repr follows, and numpy scalars print differently across versions
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        call(fixture_code("11-3-3-cnot"))


def test_numpy_integer_arguments_are_taken_as_ints():
    gate = cnot(np.int64(0), np.uint8(1))
    assert gate == cnot(0, 1) and all(type(q) is int for q in gate.qubits)
    cfg = SimConfig(cycle_rate=10.0, t_max=1.0, trials=np.int32(3), samples=np.int64(4))
    assert (cfg.trials, cfg.samples) == (3, 4)
    assert all(type(v) is int for v in (cfg.trials, cfg.samples, cfg.haar_states))
    assert code_distance(fixture_code("11-3-3"), w_max=np.int64(3)) == 3


def _role_label(code, q: int) -> str:
    if q < code.k:
        return f"d{q + 1}"
    if isinstance(code, GeneralCpcCode):
        return f"c{q - code.k + 1}"
    if q < code.k + code.n_b:
        return f"b{q - code.k + 1}"
    return f"p{q - code.k - code.n_b + 1}"


def test_qubit_labels_follow_the_role_formula():
    for name in _FIXTURES:
        code = fixture_code(name)
        assert len(code.qubit_labels) == code.qubit_count
        for q in range(code.qubit_count):
            assert code.qubit_label(q) == _role_label(code, q)


def test_sizes_match_the_matrices():
    for code in _codes():
        if isinstance(code, CpcCode):
            sizes = (code.mb.rows, code.mb.cols, code.mp.cols)
            assert (code.k, code.n_b, code.n_p) == sizes
        else:
            sizes = (code.mbs.rows, code.mbs.cols)
            assert (code.k, code.n_c) == sizes
        assert code.qubit_count == sum(sizes)


def _twin(code):
    """An equal code built afresh from copies of the matrices."""
    matrices = (getattr(code, f.name) for f in dataclasses.fields(code))
    return type(code)(*(Gf2Matrix(m.data.copy()) for m in matrices))


@pytest.mark.parametrize("name, matrices", [("11-3-3", "mb mp mc"), ("10-3-3", "mbs mps mcs")])
def test_cached_labels_leave_fields_equality_and_hash_alone(name, matrices):
    code = parse((FIXTURE_DIR / f"{name}.cpc").read_text(encoding="utf-8"))
    twin = _twin(code)
    assert code == twin and hash(code) == hash(twin)
    labels = code.qubit_labels  # read on one side only
    assert code == twin and hash(code) == hash(twin)
    assert repr(code) == repr(twin) and serialize(code) == serialize(twin)
    assert twin.qubit_labels == labels
    assert [f.name for f in dataclasses.fields(code)] == matrices.split()


def test_codes_stay_frozen():
    code = _twin(fixture_code("11-3-3"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        code.k = 4


def test_fault_table_cache_hits_an_equal_code():
    code = fixture_code("11-3-3")
    code.qubit_labels
    table = fault_table(code)
    hits = fault_table.cache_info().hits
    assert fault_table(_twin(code)) is table
    assert fault_table.cache_info().hits == hits + 1
