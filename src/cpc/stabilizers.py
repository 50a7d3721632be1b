"""Check matrix, stabilizer generators, CSS conversion and logicals.

Each bit check contributes one Z-type generator and each phase check one
X-type generator; the Z-type generators pick up extra support on phase checks
through the cross-propagation correction, which is exactly what makes the set
mutually commuting.  :func:`check_matrix` holds these supports; the generators
and the CSS pair here, and the single-error map and code distance of
:mod:`cpc.decoding`, read its rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .circuits import PauliString
from .gf2 import Gf2Matrix, _read_only, multiply, pack_rows, row_space_equal, rref
from .model import CpcCode, GeneralCpcCode

__all__ = [
    "split_check_rows",
    "check_matrix",
    "stabilizers",
    "symplectic_matrix",
    "css_to_cpc",
    "CssConversionError",
    "CssToCpcResult",
    "logical_operators",
    "stabilizer_to_text",
]


@functools.lru_cache(maxsize=16)
def _identity_block(lead: tuple[int, ...], n: int) -> np.ndarray:
    """Read-only n x n identities stacked on the ``lead`` axes."""
    return _read_only(np.broadcast_to(np.eye(n, dtype=np.uint8), (*lead, n, n)).copy())


def split_check_rows(mb, mp, mc) -> tuple[np.ndarray, np.ndarray]:
    """Bit-check and phase-check rows of split codes stacked on leading axes.

    From uint8 mb (..., k, n_b), mp (..., k, n_p) and mc (..., n_b, n_p),
    returns the Z supports of the bit checks (..., n_b, n) and the X supports
    of the phase checks (..., n_p, n).  Bit check i is Z on itself, on the
    data in column i of mb, and on the phase checks in row i of the cross
    propagation mc + mb^T mp.  Phase check i is X on itself, on column i of
    mp and on column i of mc.
    """
    *lead, n_b, n_p = mc.shape
    mb_t, mp_t, mc_t = (np.swapaxes(m, -1, -2) for m in (mb, mp, mc))
    # uint8 products wrap mod 256, which keeps their parity
    cross = mc ^ ((mb_t @ mp) & 1)
    return (
        np.concatenate([mb_t, _identity_block(tuple(lead), n_b), cross], axis=-1),
        np.concatenate([mp_t, mc_t, _identity_block(tuple(lead), n_p)], axis=-1),
    )


def check_matrix(code: CpcCode | GeneralCpcCode) -> tuple[np.ndarray, np.ndarray]:
    """X and Z supports of the measured stabilizer generators.

    Returns ``(hx, hz)``, uint8 arrays of shape (checks, qubits) whose row i
    is the generator read out by syndrome bit i: the n_b bit checks then the
    n_p phase checks of a split code, or the n_c checks of a generalized one.

    Split code: the rows of :func:`split_check_rows`, bit checks in ``hz``
    and phase checks in ``hx``.

    Generalized code: check i is Z on itself and on its CNOT data neighbours,
    X on its conjugate-CZ data neighbours, and X on every check j with
    mcs[j,i] + mcs[i,j] + sum_k mps[k,j]*mbs[k,i] odd (on itself too, for a
    self loop).

    A single-qubit fault anticommutes with generator i, and so flips syndrome
    bit i, exactly when the column of ``hz`` (X part) or ``hx`` (Z part) at
    its qubit has a 1 in row i.
    """
    if isinstance(code, CpcCode):
        hx = np.zeros((code.n_b + code.n_p, code.qubit_count), dtype=np.uint8)
        hz = np.zeros_like(hx)
        hz[: code.n_b], hx[code.n_b :] = split_check_rows(code.mb.data, code.mp.data, code.mc.data)
        return hx, hz
    mbs, mps, mcs = code.mbs.data, code.mps.data, code.mcs.data
    # uint8 products wrap mod 256, which keeps their parity
    net = ((mps.T @ mbs) & 1) ^ (mcs | mcs.T)
    hx = np.hstack([mps.T, net.T])
    hz = np.hstack([mbs.T, np.eye(code.n_c, dtype=np.uint8)])
    return hx, hz


def stabilizers(code: CpcCode | GeneralCpcCode) -> list[PauliString]:
    """Measured stabilizer generators, the rows of :func:`check_matrix`.

    A self loop of a generalized code puts both Z and X on the check itself.
    Signs match conjugation of the initial Z through the encoder: each data
    qubit wired to the check by both edge types contributes a factor -1
    (reordering X past Z once per such qubit).
    """
    hx, hz = check_matrix(code)
    n, data = code.qubit_count, (1 << code.k) - 1
    return [
        PauliString(n, x, z, phase=2 * ((x & z & data).bit_count() & 1))
        for x, z in zip(pack_rows(hx), pack_rows(hz))
    ]


def symplectic_matrix(code: CpcCode) -> tuple[Gf2Matrix, Gf2Matrix]:
    """Binary (Z | X) presentation of the split-code generators.

    Returns ``(g_z, g_x)`` where row i of ``g_z`` is the Z support of the
    i-th bit-check generator and row i of ``g_x`` the X support of the i-th
    phase-check generator, over the global qubit ordering.
    """
    hx, hz = check_matrix(code)
    return Gf2Matrix(hz[: code.n_b]), Gf2Matrix(hx[code.n_b :])


class CssConversionError(ValueError):
    """Raised when a CSS presentation cannot be rewritten as a CPC code."""


@dataclass(frozen=True)
class CssToCpcResult:
    """Converted code plus the column permutation that was applied.

    ``permutation[new_qubit] = original_column``: the first k entries are the
    data columns, then the bit-check columns, then the phase-check columns.
    """

    code: CpcCode
    permutation: tuple[int, ...]


def css_to_cpc(g_z: Gf2Matrix, g_x: Gf2Matrix) -> CssToCpcResult:
    """Rewrite a CSS stabilizer presentation as a split CPC code.

    The Z pivots of ``rref(g_z)``, its lexicographically first independent
    columns, become the bit checks; the pivots of ``g_x`` reduced over the
    remaining columns in order become the phase checks, and every other
    column is data.  mb, mp and mc are read off the two reduced blocks.  The
    stabilizer group is preserved exactly; the result records the column
    permutation used.
    """
    if g_z.cols != g_x.cols:
        raise CssConversionError(
            f"column-count mismatch: {g_z.cols} vs {g_x.cols}"
        )
    n = g_z.cols
    commute = multiply(g_z, g_x.transpose())
    if not commute.is_zero():
        raise CssConversionError("Z and X generators do not commute")

    # An X-group element supported only on Z pivots would anticommute with the
    # reduced Z row of each pivot it touches, so g_x keeps its full rank off
    # the Z pivots and the two pivot sets are always disjoint.
    z = rref(g_z)
    rest = [c for c in range(n) if c not in z.pivots]
    x = rref(g_x, column_order=rest)
    data_cols = [c for c in rest if c not in x.pivots]
    bit_cols, phase_cols = list(z.pivots), list(x.pivots)
    rz = z.reduced.data[: z.rank]
    rx = x.reduced.data[: x.rank]
    code = CpcCode(
        mb=Gf2Matrix(rz[:, data_cols].T),
        mp=Gf2Matrix(rx[:, data_cols].T),
        mc=Gf2Matrix(rx[:, bit_cols].T),
    )
    permutation = tuple(data_cols + bit_cols + phase_cols)

    # The conversion must reproduce the input group under the permutation;
    # CSS blocks span independently, so each block is checked on its own.
    new_gz, new_gx = symplectic_matrix(code)
    original_order = np.argsort(permutation)
    if not (
        row_space_equal(Gf2Matrix(new_gz.data[:, original_order]), g_z)
        and row_space_equal(Gf2Matrix(new_gx.data[:, original_order]), g_x)
    ):
        raise CssConversionError("converted code does not span the input group")
    return CssToCpcResult(code=code, permutation=permutation)


def logical_operators(
    code: CpcCode | GeneralCpcCode,
) -> tuple[list[PauliString], list[PauliString]]:
    """Logical X and Z operators, one pair per data qubit: the bare data-qubit
    Paulis conjugated through the encoder, read off the code matrices.

    Split code: X_j is X on d_j and on the bit checks in row j of ``mb``, Z_j
    is Z on d_j and on the phase checks in row j of ``mp``.  Generalized code:
    X_j is X on d_j and on the checks in row j of ``mbs``, Z_j is Z on d_j
    times X on the checks in row j of ``mps``.  All carry phase 0.
    """
    n, k = code.qubit_count, code.k
    if isinstance(code, CpcCode):
        x_rows, z_rows = pack_rows(code.mb.data), pack_rows(code.mp.data)
        logical_z = [PauliString(n, 0, 1 << j | m << (k + code.n_b)) for j, m in enumerate(z_rows)]
    else:
        x_rows, z_rows = pack_rows(code.mbs.data), pack_rows(code.mps.data)
        logical_z = [PauliString(n, m << k, 1 << j) for j, m in enumerate(z_rows)]
    return [PauliString(n, 1 << j | m << k) for j, m in enumerate(x_rows)], logical_z


def stabilizer_to_text(p: PauliString, namer) -> str:
    """Paper-style line: 'Z d1 d2 b1 p2 p4' for uniform generators.

    Mixed-type generators (possible for generalized codes) fall back to
    per-factor tokens like 'Z_d1 X_c3'.
    """
    x, z = p.x_bits, p.z_bits
    letters = [c for c, m in (("X", x & ~z), ("Z", z & ~x), ("Y", x & z)) if m]
    if not letters:
        return "I"
    if len(letters) == 1:
        names = [namer(q) for q in range(p.qubit_count) if p.support >> q & 1]
        return " ".join([letters[0]] + names)
    return p.label(namer)
