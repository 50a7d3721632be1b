from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HAMMING_743, fixture_code
from cpc.gf2 import Gf2Matrix, multiply, row_space_equal, rref


def matrices(max_rows=5, max_cols=6):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(0, 1), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(Gf2Matrix)
        )
    )


def test_rejects_non_binary_entries():
    with pytest.raises(ValueError):
        Gf2Matrix([[0, 2]])


def test_rejects_arrays_that_are_not_2d():
    with pytest.raises(ValueError, match=r"^expected a 2-d array of bits, got shape \(3,\)$"):
        Gf2Matrix(np.zeros(3))


@pytest.mark.parametrize(
    "data",
    [
        [[0.5, 1.7]],
        [[-1]],
        [[1.0, float("nan")]],
        [[256, 1]],
        np.array([[0, 2]], dtype=np.uint8),
        np.array([[1, -1]], dtype=np.int8),
    ],
    ids=["fractions", "negative", "nan", "wraps to 0", "uint8 two", "int8 negative"],
)
def test_rejects_entries_other_than_exactly_0_or_1(data):
    with pytest.raises(ValueError, match="^entries must be 0 or 1$"):
        Gf2Matrix(data)


@pytest.mark.parametrize(
    "data",
    [[[1.0, 0.0]], [[True, False]], np.array([[1, 0]], dtype=np.int64)],
    ids=["float", "bool", "int64"],
)
def test_accepts_exact_bits_of_any_dtype(data):
    assert Gf2Matrix(data) == Gf2Matrix(np.array([[1, 0]], dtype=np.uint8))


def test_empty_matrices_allowed():
    m = Gf2Matrix.zeros(0, 3)
    assert m.rows == 0 and m.cols == 3
    assert rref(m).rank == 0


def test_multiply_known_product():
    # (mb)^T @ mp for the [[11,3,3]] code, checked by hand against the
    # overlap of check columns.
    code = fixture_code("11-3-3")
    product = multiply(code.mb.transpose(), code.mp)
    assert product.data.tolist() == [
        [0, 1, 1, 0],
        [1, 0, 1, 0],
        [1, 1, 0, 0],
        [0, 0, 0, 0],
    ]


def test_multiply_identity_and_zero():
    code = fixture_code("11-3-3")
    eye = Gf2Matrix(np.eye(3, dtype=np.uint8))
    assert multiply(eye, code.mb) == code.mb
    zero = Gf2Matrix.zeros(2, 3)
    assert multiply(zero, code.mb) == Gf2Matrix.zeros(2, 4)


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        multiply(Gf2Matrix.zeros(2, 3), Gf2Matrix.zeros(2, 3))


def test_rref_identity_and_zero():
    eye = Gf2Matrix(np.eye(4, dtype=np.uint8))
    res = rref(eye)
    assert res.reduced == eye and res.rank == 4
    res = rref(Gf2Matrix.zeros(3, 3))
    assert res.rank == 0 and res.pivots == ()


def test_rref_hamming_rank():
    # independent oracle: enumerate all row combinations of the 3x7 matrix
    h = HAMMING_743
    combos = set()
    for bits in range(8):
        acc = np.zeros(7, dtype=np.uint8)
        for i in range(3):
            if (bits >> i) & 1:
                acc ^= h.data[i]
        combos.add(tuple(acc))
    # 2^rank distinct sums
    assert len(combos) == 8
    assert rref(h).rank == 3


def _span(m: Gf2Matrix) -> set[int]:
    """Every XOR of a subset of the rows of ``m``, as bitmask integers."""
    span = {0}
    for row in m.to_lines():
        span |= {v ^ int(row, 2) for v in span}
    return span


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_and_row_equivalent(m):
    res = rref(m)
    assert rref(res.reduced).reduced == res.reduced
    # independent oracle: the input and reduced rows span the same 2^rank sums
    span = _span(m)
    assert _span(res.reduced) == span
    assert len(span) == 2**res.rank


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_multiply_associative(a_rows, inner1, inner2, b_cols, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    a = Gf2Matrix(rng.integers(0, 2, size=(a_rows, inner1), dtype=np.uint8))
    b = Gf2Matrix(rng.integers(0, 2, size=(inner1, inner2), dtype=np.uint8))
    c = Gf2Matrix(rng.integers(0, 2, size=(inner2, b_cols), dtype=np.uint8))
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_row_space_equal_row_operations():
    m = HAMMING_743
    permuted = Gf2Matrix(m.data[[2, 0, 1]])
    assert row_space_equal(m, permuted)
    summed = m.data.copy()
    summed[0] = summed[0] ^ summed[1]
    assert row_space_equal(m, Gf2Matrix(summed))


def test_row_space_not_equal():
    eye2, eye3 = (Gf2Matrix(np.eye(n, dtype=np.uint8)) for n in (2, 3))
    assert not row_space_equal(eye2, Gf2Matrix([[1, 0]]))
    with pytest.raises(ValueError):
        row_space_equal(eye2, eye3)
