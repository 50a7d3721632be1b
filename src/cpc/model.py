"""Code definitions and the ``.cpc`` text format.

A split CPC code keeps two species of parity check qubit: bit checks (CNOT
targets, measured in the computational basis) and phase checks (CNOT
controls, measured in the conjugate basis).  A general CPC code has a single
species of check qubit that gathers bit information through CNOTs and phase
information through conjugate-basis controlled-Z gates.

Qubit ordering is fixed globally: data qubits first (0..k-1), then bit
checks, then phase checks; general codes order data first, then checks.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields

import numpy as np

from .gf2 import Gf2Matrix

__all__ = [
    "CpcCode",
    "GeneralCpcCode",
    "ClassicalCode",
    "CpcFormatError",
    "InvalidCodeError",
    "parse",
    "serialize",
    "generalize",
]


class CpcFormatError(ValueError):
    """Raised for malformed ``.cpc`` input; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidCodeError(ValueError):
    """Raised for a code that breaks the definition, or is the wrong kind for a task.

    ``CpcCode`` and ``GeneralCpcCode`` raise it on construction when their
    matrix shapes disagree or a generalized C is not strictly upper
    triangular, listing every violation joined by '; ', so every code object
    that exists is well formed.
    """


def _refuse(violations: list[str]) -> None:
    if violations:
        raise InvalidCodeError("; ".join(violations))


# A code's sizes (``k``, ``n_b``/``n_p`` or ``n_c``, and ``qubit_count``) are
# plain attributes set once on construction, and its labels are cached on
# first use.  Neither is a dataclass field, so ``==``, ``hash``, ``repr`` and
# ``serialize`` see the three matrices alone.
def _set_shapes(code, **sizes: int) -> None:
    sizes["qubit_count"] = sum(sizes.values())
    code.__dict__.update(sizes)


def _labels(*roles: tuple[str, int]) -> tuple[str, ...]:
    return tuple(f"{role}{i}" for role, count in roles for i in range(1, count + 1))


@dataclass(frozen=True)
class CpcCode:
    """Split CPC code defined by three adjacency matrices.

    ``mb`` (k x n_b) holds CNOTs from data qubits to bit checks, ``mp``
    (k x n_p) CNOTs from phase checks to data qubits, and ``mc`` (n_b x n_p)
    the cross checks between the two parity species.  Building a code from
    classical parity checks is this constructor: ``mb`` and ``mp`` are the
    bit and phase codes' checks, one row per data qubit.  The sizes ``k``,
    ``n_b``, ``n_p`` and ``qubit_count`` are read off the matrices once, on
    construction.
    """

    mb: Gf2Matrix
    mp: Gf2Matrix
    mc: Gf2Matrix

    def __post_init__(self):
        mb, mp, mc = self.mb, self.mp, self.mc
        violations = []
        if mp.rows != mb.rows:
            violations.append(f"mp has {mp.rows} rows but mb has {mb.rows} (both must equal k)")
        if mc.rows != mb.cols:
            violations.append(f"mc has {mc.rows} rows but mb has {mb.cols} columns")
        if mc.cols != mp.cols:
            violations.append(f"mc has {mc.cols} columns but mp has {mp.cols} columns")
        _refuse(violations)
        _set_shapes(self, k=mb.rows, n_b=mb.cols, n_p=mp.cols)

    def bit_index(self, i: int) -> int:
        return self.k + i

    def phase_index(self, i: int) -> int:
        return self.k + self.n_b + i

    @functools.cached_property
    def qubit_labels(self) -> tuple[str, ...]:
        """1-based role label of each qubit, e.g. 'd1', 'b2', 'p4'."""
        return _labels(("d", self.k), ("b", self.n_b), ("p", self.n_p))

    def qubit_label(self, q: int) -> str:
        """The role label of qubit ``q``."""
        return self.qubit_labels[q]


@dataclass(frozen=True)
class GeneralCpcCode:
    """Generalized CPC code with a single species of parity check qubit.

    ``mbs`` (k x n_c) holds CNOT edges, ``mps`` (k x n_c) conjugate-CZ edges
    between data and checks, and ``mcs`` (n_c x n_c, strictly upper
    triangular) conjugate-CZ edges between pairs of checks.  The sizes
    ``k``, ``n_c`` and ``qubit_count`` are read off the matrices once, on
    construction.
    """

    mbs: Gf2Matrix
    mps: Gf2Matrix
    mcs: Gf2Matrix

    def __post_init__(self):
        mbs, mps, mcs = self.mbs, self.mps, self.mcs
        violations = []
        if mps.rows != mbs.rows:
            violations.append(f"mps has {mps.rows} rows but mbs has {mbs.rows}")
        if mps.cols != mbs.cols:
            violations.append(f"mps has {mps.cols} columns but mbs has {mbs.cols}")
        if mcs.rows != mcs.cols:
            violations.append(f"mcs is {mcs.rows}x{mcs.cols}, not square")
        elif mcs.rows != mbs.cols:
            violations.append(f"mcs is {mcs.rows}x{mcs.cols} but there are {mbs.cols} checks")
        else:
            violations += [
                f"mcs not strictly upper triangular: entry ({i},{j}) is 1"
                for i, j in np.argwhere(np.tril(mcs.data))
            ]
        _refuse(violations)
        _set_shapes(self, k=mbs.rows, n_c=mbs.cols)

    def check_index(self, i: int) -> int:
        return self.k + i

    @functools.cached_property
    def qubit_labels(self) -> tuple[str, ...]:
        """1-based role label of each qubit, e.g. 'd1', 'c3'."""
        return _labels(("d", self.k), ("c", self.n_c))

    def qubit_label(self, q: int) -> str:
        """The role label of qubit ``q``."""
        return self.qubit_labels[q]


@dataclass(frozen=True)
class ClassicalCode:
    """Plain parity-check code: bits, checks over bit subsets, harmless bits.

    ``harmless`` flags bits derived from parity qubits that share no gate
    with any data qubit; errors there never reach the data and need no
    correction.
    """

    bit_count: int
    checks: tuple[frozenset[int], ...]
    harmless: frozenset[int] = frozenset()

    def __post_init__(self):
        for check_id, members in enumerate(self.checks):
            for b in members:
                if not 0 <= b < self.bit_count:
                    raise ValueError(
                        f"check {check_id} references bit {b} outside 0..{self.bit_count - 1}"
                    )


def generalize(code: CpcCode) -> GeneralCpcCode:
    """Embed a split code into the generalized form.

    Bit checks become checks 0..n_b-1 and phase checks become checks
    n_b..n_b+n_p-1; CNOTs from phase checks to data become conjugate-CZ edges
    (the two gates agree once the phase checks are re-expressed in the
    computational basis), and cross checks land in the upper-triangular
    bit-by-phase block.
    """
    k, n_b, n_p = code.k, code.n_b, code.n_p
    n_c = n_b + n_p
    mbs = Gf2Matrix.zeros(k, n_c).data.copy()
    mbs[:, :n_b] = code.mb.data
    mps = Gf2Matrix.zeros(k, n_c).data.copy()
    mps[:, n_b:] = code.mp.data
    mcs = Gf2Matrix.zeros(n_c, n_c).data.copy()
    mcs[:n_b, n_b:] = code.mc.data
    return GeneralCpcCode(mbs=Gf2Matrix(mbs), mps=Gf2Matrix(mps), mcs=Gf2Matrix(mcs))


def _require_split(code: CpcCode | GeneralCpcCode, what: str) -> CpcCode:
    """``code``, refused with :class:`InvalidCodeError` unless it is a split code."""
    if not isinstance(code, CpcCode):
        raise InvalidCodeError(f"{what} requires a split code")
    return code


# --- .cpc text format ------------------------------------------------------
#
#   CPC split            |  CPC general
#   data <k>             |  data <k>
#   bit <n_b>            |  checks <n_c>
#   phase <n_p>          |
#   B                    |  B            (k x n_c CNOT edges)
#   <k rows of n_b bits> |  ...
#   P                    |  P            (k x n_c conjugate-CZ edges)
#   ...                  |  ...
#   C                    |  C            (n_c x n_c cross conjugate-CZ edges)
#   ...                  |  ...
#
# Blank lines are ignored; '#' starts a comment line.


def _meaningful_lines(text: str):
    """(1-based number, stripped text) of each line that is not blank or a comment."""
    return iter(
        [
            (lineno, line)
            for lineno, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.strip()) and line[0] != "#"
        ]
    )


def _parse_count(line: str, lineno: int, keyword: str) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise CpcFormatError(f"expected '{keyword} <count>', got {line!r}", lineno)
    try:
        value = int(parts[1])
    except ValueError:
        raise CpcFormatError(f"bad count in {line!r}", lineno) from None
    if value < 0:
        raise CpcFormatError(f"negative count in {line!r}", lineno)
    return value


_BITS = bytes.maketrans(b"01", b"\0\1")


def _bit_rows(rows: list[str], cols: int) -> Gf2Matrix:
    """Rows already checked to be ``cols`` characters of '0'/'1', as one matrix."""
    bits = np.frombuffer("".join(rows).encode("ascii").translate(_BITS), dtype=np.uint8)
    return Gf2Matrix._wrap(bits.reshape(len(rows), cols))


def _parse_matrix(lines, rows: int, cols: int, section: str) -> Gf2Matrix:
    if cols == 0:
        # zero-width rows carry no text; the header fixes the shape
        return Gf2Matrix.zeros(rows, 0)
    numbered = list(itertools.islice(lines, rows))
    for lineno, line in numbered:
        if len(line) != cols:
            raise CpcFormatError(
                f"section {section}: expected {cols} columns, got {len(line)}", lineno
            )
        if line.strip("01"):  # only a bad row walks its characters, to name the column
            col, ch = next((c, ch) for c, ch in enumerate(line, start=1) if ch not in "01")
            raise CpcFormatError(
                f"section {section}: non-binary character {ch!r} at column {col}", lineno
            )
    if len(numbered) < rows:
        raise CpcFormatError(f"section {section}: expected {rows} rows, file ended early")
    return _bit_rows([line for _, line in numbered], cols)


def _expect_section(item: tuple[int, str] | None, name: str) -> None:
    """Refuse ``item``, a (number, text) line or None at the end of the file,
    unless it is the section header ``name``."""
    if item is None:
        raise CpcFormatError(f"expected section header {name!r}, file ended")
    lineno, line = item
    if line != name:
        raise CpcFormatError(f"expected section header {name!r}, got {line!r}", lineno)


# Per header: the code class, its count lines as (keyword, size) pairs, and
# the B, P and C shapes in those sizes.  Each size is also the code attribute
# that serialize writes back, and the class's fields are B, P, C in order.
_LAYOUTS = {
    "CPC split": (
        CpcCode,
        (("data", "k"), ("bit", "n_b"), ("phase", "n_p")),
        (("k", "n_b"), ("k", "n_p"), ("n_b", "n_p")),
    ),
    "CPC general": (
        GeneralCpcCode,
        (("data", "k"), ("checks", "n_c")),
        (("k", "n_c"), ("k", "n_c"), ("n_c", "n_c")),
    ),
}


def parse(text: str) -> CpcCode | GeneralCpcCode:
    """Parse the ``.cpc`` text format."""
    lines = _meaningful_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise CpcFormatError("empty input") from None
    if header not in _LAYOUTS:
        expected = " or ".join(repr(h) for h in _LAYOUTS)
        raise CpcFormatError(f"expected {expected}, got {header!r}", lineno)
    cls, counts, shapes = _LAYOUTS[header]
    sizes = {}
    for keyword, size in counts:
        lineno, line = next(lines, (None, None))
        if line is None:
            raise CpcFormatError(f"missing '{keyword} <{size}>' line")
        sizes[size] = _parse_count(line, lineno, keyword)
    matrices = []
    for section, (rows, cols) in zip("BPC", shapes):
        _expect_section(next(lines, None), section)
        matrices.append(_parse_matrix(lines, sizes[rows], sizes[cols], section))
    extra = next(lines, None)
    if extra is not None:
        raise CpcFormatError(f"unexpected content after the C section: {extra[1]!r}", extra[0])
    return cls(*matrices)


def serialize(code: CpcCode | GeneralCpcCode) -> str:
    """Serialize to the ``.cpc`` format; matrices are stored exactly as given."""
    for header, (cls, counts, _) in _LAYOUTS.items():
        if isinstance(code, cls):
            break
    else:
        raise TypeError(f"not a code object: {type(code).__name__}")
    out = [header] + [f"{keyword} {getattr(code, size)}" for keyword, size in counts]
    for section, field in zip("BPC", fields(code)):
        mat = getattr(code, field.name)
        out.append(section)
        if mat.cols:
            out.extend(mat.to_lines())
    return "\n".join(out) + "\n"
