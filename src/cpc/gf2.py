"""Dense linear algebra over GF(2).

Everything in this package reduces to arithmetic on small binary matrices:
code definitions, stabilizer tableaux, syndrome maps.  Matrices are stored
dense (uint8, row-major); the codes this library targets have at most a few
dozen columns, so sparse formats would only add complexity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Gf2Matrix", "RrefResult", "multiply", "pack_rows", "rref", "row_space_equal"]


class Gf2Matrix:
    """Immutable dense matrix with entries in {0, 1}.

    Instances are value objects: construction copies and freezes the backing
    array, so they are hashable and safe to share across threads.  Empty
    matrices (zero rows and/or zero columns) are allowed.
    """

    __slots__ = ("_data",)

    def __init__(self, data) -> None:
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array of bits, got shape {arr.shape}")
        if arr.dtype == np.uint8:
            bad = arr.size and arr.max() > 1
        else:  # exact 0/1 only: no rounding of fractions, no wrapping of negatives
            bad = arr.dtype != np.bool_ and not ((arr == 0) | (arr == 1)).all()
        if bad:
            raise ValueError("entries must be 0 or 1")
        arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        object.__setattr__(self, "_data", arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> Gf2Matrix:
        """``arr`` frozen in place, unchecked: for a fresh 2-d uint8 0/1 array."""
        arr.setflags(write=False)
        mat = object.__new__(cls)
        object.__setattr__(mat, "_data", arr)
        return mat

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Gf2Matrix:
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    def __getitem__(self, idx) -> int:
        return int(self._data[idx])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gf2Matrix):
            return NotImplemented
        return self._data.shape == other._data.shape and np.array_equal(
            self._data, other._data
        )

    def __hash__(self) -> int:
        return hash((self._data.shape, self._data.tobytes()))

    def __repr__(self) -> str:
        return f"Gf2Matrix({self._data.tolist()!r})"

    def transpose(self) -> Gf2Matrix:
        return Gf2Matrix(self._data.T)

    def is_zero(self) -> bool:
        return not self._data.any()


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only: for arrays that caches hand out."""
    array.flags.writeable = False
    return array


def pack_rows(bits: np.ndarray) -> list[int]:
    """Each row of a 2-d 0/1 array as an integer bitmask (bit j = column j)."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def multiply(a: Gf2Matrix, b: Gf2Matrix) -> Gf2Matrix:
    """Matrix product mod 2."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: ({a.rows}x{a.cols}) @ ({b.rows}x{b.cols})")
    prod = (a.data.astype(np.int64) @ b.data.astype(np.int64)) % 2
    return Gf2Matrix(prod.astype(np.uint8))


@dataclass(frozen=True)
class RrefResult:
    """Outcome of Gauss-Jordan elimination; ``rank == len(pivots)``."""

    reduced: Gf2Matrix
    pivots: tuple[int, ...]
    rank: int


def rref(a: Gf2Matrix, column_order: list[int] | None = None) -> RrefResult:
    """Reduced row echelon form over GF(2).

    ``column_order`` optionally changes the order in which pivot columns are
    searched (the default is left to right); the reduced matrix is always
    expressed in the original column order.
    """
    mat = a.data.astype(np.uint8).copy()
    rows, cols = mat.shape
    order = range(cols) if column_order is None else column_order
    pivots: list[int] = []
    pivot_row = 0
    for col in order:
        if pivot_row >= rows:
            break
        hits = np.nonzero(mat[pivot_row:, col])[0]
        if hits.size == 0:
            continue
        src = pivot_row + int(hits[0])
        if src != pivot_row:
            mat[[pivot_row, src]] = mat[[src, pivot_row]]
        others = np.nonzero(mat[:, col])[0]
        for r in others:
            if r != pivot_row:
                mat[r, :] ^= mat[pivot_row, :]
        pivots.append(col)
        pivot_row += 1
    return RrefResult(reduced=Gf2Matrix(mat), pivots=tuple(pivots), rank=len(pivots))


def _nonzero_rows(a: Gf2Matrix) -> np.ndarray:
    data = a.data
    if data.size == 0:
        return data.reshape(0, a.cols)
    keep = data.any(axis=1)
    return data[keep]


def row_space_equal(a: Gf2Matrix, b: Gf2Matrix) -> bool:
    """True iff the two matrices span the same row space."""
    if a.cols != b.cols:
        raise ValueError(f"column-count mismatch: {a.cols} vs {b.cols}")
    ra = _nonzero_rows(rref(a).reduced)
    rb = _nonzero_rows(rref(b).reduced)
    return ra.shape == rb.shape and np.array_equal(ra, rb)
