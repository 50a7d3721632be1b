"""Syndrome tables, decode tables, correctability verdicts, code distance, ML decode Hamiltonian.

A syndrome is the tuple of parity-check measurement flips after one cycle:
for split codes the n_b bit-check outcomes followed by the n_p phase-check
outcomes, for generalized codes the n_c check outcomes.  CPC codes are CSS
codes, so the single-error map is the anticommutation pattern of the check
matrix (:func:`cpc.stabilizers.check_matrix`): a fault flips the checks whose
generators it anticommutes with.  Error propagation is linear, so the
syndrome (and the residual Pauli left on the data register) of any error
pattern is the XOR of single-qubit contributions.  An ML decode is the ground
state of :func:`ising_problem`'s spin Hamiltonian; the tests find that ground
state by enumeration and check it against a direct enumeration of error sets.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circuits import PauliString, conjugate_pauli, decode_circuit
from .gf2 import Gf2Matrix, _read_only, pack_rows
from .model import (
    ClassicalCode, CpcCode, GeneralCpcCode, InvalidCodeError, _integer, _require_split,
)
from .stabilizers import check_matrix, split_check_blocks

__all__ = [
    "Syndrome",
    "ErrorRecord",
    "error_table",
    "single_error_records",
    "CollisionGroup",
    "CorrectabilityReport",
    "is_single_error_correcting",
    "code_distance",
    "DecodeTable",
    "decode_table",
    "cnot_compatible",
    "correcting_mask",
    "cnot_compatible_mask",
    "augment_for_cnot",
    "IsingTerm",
    "IsingProblem",
    "ising_problem",
]

Syndrome = tuple[int, ...]

_KINDS = ("X", "Y", "Z")


def _syndrome(first: int, second: int, n_first: int, n_second: int) -> Syndrome:
    """The syndrome tuple of two side masks, each side least significant bit first."""
    return tuple((first >> i) & 1 for i in range(n_first)) + tuple(
        (second >> i) & 1 for i in range(n_second)
    )


def _bits_text(mask: int, width: int) -> str:
    """The low ``width`` bits of ``mask`` as a bit-string, least significant first."""
    return format(mask, f"0{width}b")[::-1] if width else ""


def _check_entries(values, count: int, name: str, noun: str) -> list[int]:
    """``values`` as a list of ``count`` ints, each 0 or 1, else ValueError.

    An entry equal to 0 or 1 of another type, such as ``1.0`` or
    ``np.float64(1)``, is read as that bit.
    """
    values = list(values)
    if len(values) != count:
        raise ValueError(f"expected {count} {noun}, got {len(values)}")
    for i, b in enumerate(values):
        if b not in (0, 1):
            raise ValueError(f"{name}[{i}] is {b!r}, expected 0 or 1")
    return [int(b) for b in values]


class ErrorRecord(NamedTuple):
    """One single-qubit error: where it lands and what it leaves behind.

    ``sx``/``sz`` are masks of fired bit/phase checks (for generalized codes
    everything is in ``sx``); ``rx``/``rz`` are the residual X/Z masks left on
    the data register after the decode step.
    """

    qubit: int
    kind: str
    label: str
    sx: int
    sz: int
    rx: int
    rz: int
    harmful: bool

    def syndrome(self, n_first: int, n_second: int) -> Syndrome:
        return _syndrome(self.sx, self.sz, n_first, n_second)


def _syndrome_widths(code: CpcCode | GeneralCpcCode) -> tuple[int, int]:
    if isinstance(code, CpcCode):
        return code.n_b, code.n_p
    return code.n_c, 0


def single_error_records(code: CpcCode | GeneralCpcCode) -> list[ErrorRecord]:
    """Syndrome and data residual of every single-qubit X, Y, Z error.

    Read off the check matrix: an X fault fires the checks in its column of
    ``hz``, a Z fault those in its column of ``hx``, and a Y fault both.  A
    data fault leaves itself on the data.  A fault on a check qubit leaves
    that check's generator restricted to the data when it has a component of
    the check's own type (Z on a bit or generalized check, X on a phase
    check); its other component only flips the check's own measurement.  A
    check fault is harmful when that generator has data support.
    """
    hx, hz = check_matrix(code)
    k = code.k
    n_first, _ = _syndrome_widths(code)
    first_mask = (1 << n_first) - 1
    x_syndromes, z_syndromes = pack_rows(hz.T), pack_rows(hx.T)
    data_x, data_z = pack_rows(hx[:, :k]), pack_rows(hz[:, :k])
    none = (0, 0)
    make = ErrorRecord._make
    records: list[ErrorRecord] = []
    for q, (xs, zs, label) in enumerate(zip(x_syndromes, z_syndromes, code.qubit_labels)):
        if q < k:
            x_res, z_res, harmful = (1 << q, 0), (0, 1 << q), True
        else:
            gen = (data_x[q - k], data_z[q - k])
            x_res, z_res = (none, gen) if hz[q - k, q] else (gen, none)
            harmful = gen != none
        (xx, xz), (zx, zz) = x_res, z_res
        ys, yx, yz = xs ^ zs, xx ^ zx, xz ^ zz
        records += (
            make((q, "X", "X_" + label, xs & first_mask, xs >> n_first, xx, xz, harmful)),
            make((q, "Y", "Y_" + label, ys & first_mask, ys >> n_first, yx, yz, harmful)),
            make((q, "Z", "Z_" + label, zs & first_mask, zs >> n_first, zx, zz, harmful)),
        )
    return records


def error_table(code: CpcCode | GeneralCpcCode) -> dict[PauliString, Syndrome]:
    """Map every single-qubit X, Y, Z error to its measured syndrome.

    The circuit route, kept as the oracle of :func:`single_error_records`:
    errors are inserted in the window between encode and decode and pushed
    through the decode circuit; bit checks are read in the computational
    basis (X flips) and phase checks in the conjugate basis (Z flips).
    """
    n, k = code.qubit_count, code.k
    n_first, n_second = _syndrome_widths(code)
    decoder = decode_circuit(code)
    table: dict[PauliString, Syndrome] = {}
    for q in range(n):
        for kind in _KINDS:
            err = PauliString.single(n, q, kind)
            prop = conjugate_pauli(decoder, err)
            first = (prop.x_bits >> k) & ((1 << n_first) - 1)
            second = (prop.z_bits >> (k + n_first)) & ((1 << n_second) - 1)
            table[err] = _syndrome(first, second, n_first, n_second)
    return table


@dataclass(frozen=True)
class CollisionGroup:
    syndrome: Syndrome
    labels: tuple[str, ...]

    def __str__(self) -> str:
        bits = _bits_text(sum(b << i for i, b in enumerate(self.syndrome)), len(self.syndrome))
        return f"syndrome {bits} shared by: {', '.join(self.labels)}"


@dataclass(frozen=True)
class CorrectabilityReport:
    ok: bool
    collisions: tuple[CollisionGroup, ...] = ()


def _syndrome_classes(
    records: list[ErrorRecord],
) -> dict[tuple[int, int], list[ErrorRecord]]:
    """Records grouped by syndrome side masks (sx, sz), in record order."""
    classes: dict[tuple[int, int], list[ErrorRecord]] = {}
    for rec in records:
        classes.setdefault((rec.sx, rec.sz), []).append(rec)
    return classes


def _correctability(code, classes) -> CorrectabilityReport:
    """Verdict of :func:`is_single_error_correcting` from the syndrome classes."""
    n1, n2 = _syndrome_widths(code)
    collisions = []
    for (sx, sz), members in sorted(classes.items()):
        if not any(m.harmful for m in members):
            continue
        if len(members) > 1 or (sx == 0 and sz == 0):
            labels = tuple(m.label for m in members)
            if sx == 0 and sz == 0:
                labels = ("no error",) + labels
            collisions.append(CollisionGroup(members[0].syndrome(n1, n2), labels))
    return CorrectabilityReport(ok=not collisions, collisions=tuple(collisions))


def is_single_error_correcting(
    code: CpcCode | GeneralCpcCode,
) -> CorrectabilityReport:
    """Check that every harmful single-qubit error is uniquely identifiable.

    Harmful means: any error on a data qubit, or any error on a parity qubit
    that shares a gate with a data qubit.  Every such error needs a syndrome
    that is nonzero and distinct from every other single-error syndrome;
    harmless errors may share syndromes only with each other (and with the
    no-error outcome).
    """
    return _correctability(code, _syndrome_classes(single_error_records(code)))


# Words of XOR accumulator per distance block, at most (a block keeps one support).
_DISTANCE_CELLS = 1 << 17


@functools.lru_cache(maxsize=16)
def _supports(n: int, weight: int) -> np.ndarray:
    """Read-only (weight, C(n, weight)) table: column i is the i-th weight-subset of n qubits."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), weight))
    table = np.fromiter(flat, dtype=np.intp, count=math.comb(n, weight) * weight)
    return _read_only(table.reshape(-1, weight).T.copy())


def _distance(code, records: list[ErrorRecord], w_max: int) -> int | None:
    """:func:`code_distance` from the code's :func:`single_error_records`."""
    n, (n1, n2) = code.qubit_count, _syndrome_widths(code)
    syndrome_words = (n1 + n2 + 63) // 64
    words = syndrome_words + (2 * code.k + 63) // 64
    # Each fault's key as 64-bit words, the syndrome's then the data residual's,
    # stacked (word, X/Y/Z, qubit).
    keys = [r.sx | r.sz << n1 | (r.rx | r.rz << code.k) << 64 * syndrome_words for r in records]
    raw = b"".join(key.to_bytes(8 * words, "little") for key in keys)
    faults = np.frombuffer(raw, dtype="<u8").reshape(n, 3, words).transpose(2, 1, 0).copy()
    for weight in range(1, min(w_max, n) + 1):
        supports = _supports(n, weight)
        step = max(1, _DISTANCE_CELLS // (3**weight * words))
        for first in range(0, supports.shape[1], step):
            block = supports[:, first : first + step]
            # the XOR of each choice of one fault per qubit: (word, choice, support)
            xors = faults.take(block[0], axis=2)
            for qubits in block[1:]:
                xors = xors[:, :, None] ^ faults.take(qubits, axis=2)[:, None]
                xors = xors.reshape(words, -1, len(qubits))
            silent = ~np.logical_or.reduce(xors[:syndrome_words])
            if (silent & np.logical_or.reduce(xors[syndrome_words:])).any():
                return weight
    return None


def _require_w_max(w_max: int) -> None:
    """Reject a non-integer or empty distance search range before any work."""
    if _integer("w_max", w_max) < 1:
        raise ValueError(f"w_max must be at least 1, got {w_max}")


def code_distance(code: CpcCode | GeneralCpcCode, w_max: int = 4) -> int | None:
    """Minimum weight of a Pauli that commutes with all stabilizers but is not one.

    A Pauli's syndrome and data residual are the XOR of those of its
    single-qubit factors in :func:`single_error_records`.  It commutes with
    every generator exactly when its syndrome is zero, and then the decoded
    checks are back in their reference states, so it is a stabilizer exactly
    when its data residual is zero too.  Exhaustive over weights 1..w_max,
    one array pass per weight over every support and choice of X, Y, Z;
    returns None when no such Pauli exists in that range (distance greater
    than w_max).
    """
    _require_w_max(w_max)
    return _distance(code, single_error_records(code), w_max)


def _frozen(values) -> np.ndarray:
    """Read-only int64 array of ``values``, or of Python ints when some pass 63 bits."""
    try:
        array = np.array(values, dtype=np.int64)
    except OverflowError:
        array = np.array(values, dtype=object)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class DecodeTable:
    """Inversion of the single-error syndrome map, built with its ``records``.

    A syndrome splits into two side masks: its bit-check and phase-check
    halves for split codes, or the whole syndrome and an empty second side
    for generalized codes.  ``first`` and ``second`` each pair the side masks
    that have a single-error explanation, increasing from 0, with their (X, Z)
    corrections, 0 correcting nothing; only :meth:`lookup` reads them.  The
    correction for side masks (a, b) is the XOR of the two, an unknown side
    contributing nothing, and the syndrome is uncorrectable when either side
    is unknown.  For split codes the halves are decoded independently
    against the X-type and Z-type errors, so mixed X/Z multi-qubit events
    (including Y errors) decompose cleanly.  Every single X or Z fault is
    known: a split code's X faults fire only bit checks and its Z faults only
    phase checks, a generalized code has one side, and each such fault's side
    mask is in its side.  ``report`` is the code's
    :func:`is_single_error_correcting` verdict.
    """

    n_first: int
    n_second: int
    records: tuple[ErrorRecord, ...] = field(repr=False)
    first: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)
    second: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)
    report: CorrectabilityReport = field(repr=False, compare=False)

    def syndrome_text(self, first: int, second: int) -> str:
        """The syndrome of side masks as a bit-string, each side least significant bit first."""
        return _bits_text(first | second << self.n_first, self.n_first + self.n_second)

    def lookup(self, first, second) -> tuple[np.ndarray, np.ndarray]:
        """(X, Z) corrections and known flags of side masks, ints or arrays alike.

        ``first`` and ``second`` are found among their side's masks, a side
        with no single-error explanation corrects nothing, and a syndrome is
        known when both of its sides are.  A mask outside ``0..2**width-1``
        of its side raises ``ValueError``.
        """
        corrections, known = 0, True
        for masks, width, (side_masks, side_corrections) in (
            (first, self.n_first, self.first), (second, self.n_second, self.second)
        ):
            masks = np.asarray(masks)
            if not masks.size:  # np.asarray([]) is float64, which does not shift
                masks = masks.astype(np.int64)
            if np.count_nonzero(masks >> width):  # a negative mask shifts to -1
                bad = masks[(masks >> width) != 0].flat[0]
                raise ValueError(f"side mask {bad} outside 0..{(1 << width) - 1}")
            at = np.minimum(np.searchsorted(side_masks, masks), side_masks.size - 1)
            hit = side_masks[at] == masks
            corrections = corrections ^ np.where(hit[..., None], side_corrections[at], 0)
            known = known & hit
        return corrections, known

    def classify(self, first, second) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`lookup`'s corrections, and categories in place of known flags.

        ``no_error`` for the zero syndrome, ``uncorrectable`` for an unknown
        one, else ``harmless`` or ``corrected`` as the correction is empty or not.
        """
        corrections, known = self.lookup(first, second)
        silent = (np.asarray(first) == 0) & (np.asarray(second) == 0)
        categories = np.select(
            [silent, ~known, (corrections != 0).any(axis=-1)],
            ["no_error", "uncorrectable", "corrected"],
            "harmless",
        )
        return corrections, categories


def _resolve_group(members: list[ErrorRecord]) -> tuple[int, int]:
    """A syndrome class's harmless reading, else its first record's (qubit order, X Y Z)."""
    residuals = {(m.rx, m.rz) for m in members}
    if (0, 0) in residuals:
        return (0, 0)
    return (members[0].rx, members[0].rz)


def decode_table(code: CpcCode | GeneralCpcCode) -> DecodeTable:
    """Build the syndrome -> correction table from the single-error model.

    Colliding syndromes resolve to the harmless explanation when one exists,
    matching maximum likelihood under independent rare errors; the table's
    ``report`` says whether any collision is between harmful errors.
    """
    records = tuple(single_error_records(code))
    classes = _syndrome_classes(records)
    n1, n2 = _syndrome_widths(code)
    # Filled in sorted order, each side's masks increase from 0.
    first, second = {0: (0, 0)}, {0: (0, 0)}
    for (sx, sz), members in sorted(classes.items()):
        rx, rz = _resolve_group(members)
        if sx and not sz:
            first[sx] = (rx, rz)
        elif sz and not sx:
            # A split code's phase side corrects Z only: a Y fault there
            # leaves its X part to the bit side.
            second[sz] = (0, rz)
    first, second = ((_frozen(list(s)), _frozen(list(s.values()))) for s in (first, second))
    return DecodeTable(n1, n2, records, first, second, _correctability(code, classes))


def _check_cnot(control: int, target: int, k: int | None = None) -> None:
    """Refuse a CNOT on non-integer qubits, from a qubit to itself, or, when k is
    given, off the k data qubits."""
    if _integer("control", control) == _integer("target", target):
        raise ValueError("control and target must differ")
    if k is not None and not (0 <= control < k and 0 <= target < k):
        raise ValueError(
            f"data indices must lie in 0..{k - 1}" if k else "the code has no data qubits"
        )


def cnot_compatible(code: CpcCode, control: int, target: int) -> CorrectabilityReport:
    """Can the code absorb the error pairs an in-cycle CNOT propagates?

    A bit-flip before the control becomes X on control and target together; a
    phase error before the target becomes Z on both.  Both propagated pairs
    join the single-error records as harmful entries, so on top of
    correctability their syndromes must be distinct from every single-error
    syndrome, from each other, and from the no-error outcome.
    """
    _check_cnot(control, target, code.k)
    records = single_error_records(code)
    by_fault = {(r.qubit, r.kind): r for r in records}
    pairs = []
    for kind in ("X", "Z"):
        c, t = by_fault[control, kind], by_fault[target, kind]
        pairs.append(
            ErrorRecord(
                control, kind, f"{c.label} {t.label}",
                c.sx ^ t.sx, c.sz ^ t.sz, c.rx ^ t.rx, c.rz ^ t.rz, True,
            )
        )
    return _correctability(code, _syndrome_classes(pairs + records))


# --- batched verdicts for the code search ------------------------------------
#
# The masks below judge N split codes at once from stacked matrices mb
# (N, k, n_b), mp (N, k, n_p) and mc (N, n_b, n_p).  A fault's key is its
# column of the check rows that :func:`check_matrix`, and so
# :func:`single_error_records`, reads, with check i at bit i + 1, packed from
# the one block of :func:`cpc.stabilizers.split_check_blocks` (or identity)
# that holds it; bit 0 is a sort tag, set on the harmful faults.

_KEY_BITS = 63


@functools.lru_cache(maxsize=32)
def _check_weights(n_b: int, n_p: int) -> np.ndarray:
    """Read-only uint64 key bits ``2 << check`` of checks 0..n_b + n_p - 1."""
    return _read_only(np.left_shift(np.uint64(2), np.arange(n_b + n_p, dtype=np.uint64)))


def _tagged_keys(mb, mp, mc, spare: int = 0) -> np.ndarray:
    """(N, 2n + 1 + spare) uint64 tagged keys of the single faults of N split codes.

    The X, then Z faults of qubits 0..n-1, a zero key, then ``spare`` columns
    for the caller.  Data faults are harmful, and a check's faults when its own
    row has data support, that is when some data fault's key holds its bit.
    """
    (count, k, n_b), n_p = mb.shape, mp.shape[2]
    if n_b + n_p > _KEY_BITS:
        raise ValueError(
            f"batched verdicts support at most {_KEY_BITS} checks, got {n_b + n_p}"
        )
    weights = _check_weights(n_b, n_p)
    w_b, w_p = weights[:n_b], weights[n_b:]
    (_, cross), _ = split_check_blocks(mb, mp, mc)
    n = k + n_b + n_p
    keys = np.zeros((count, 2 * n + 1 + spare), dtype=np.uint64)
    faults = keys[:, : 2 * n].reshape(count, 2, n)  # a view
    x, z = faults[:, 0], faults[:, 1]
    np.matmul(mb, w_b, out=x[:, :k])
    x[:, k : k + n_b] = w_b
    np.matmul(w_b, cross, out=x[:, k + n_b :])
    np.matmul(mp, w_p, out=z[:, :k])
    np.matmul(mc, w_p, out=z[:, k : k + n_b])
    z[:, k + n_b :] = w_p
    harmful = np.ones((count, 1, n), dtype=np.uint64)
    by_data = np.bitwise_or.reduce(faults[:, :, :k], axis=(1, 2))
    np.minimum(by_data[:, None] & weights, np.uint64(1), out=harmful[:, 0, k:])
    faults |= harmful
    return keys


def _unshared(keys: np.ndarray) -> np.ndarray:
    """(N,) verdicts: no harmful key shares its syndrome with another in its row.

    Sorts the tagged ``keys`` in place, so a shared harmful key is odd and
    follows its twin, harmless or harmful, or the row's zero key.  Y faults
    need no keys: X keys hold only bit-check bits, Z keys only phase-check
    bits, and a qubit's Y key is their OR.  So a Y key equal to another key
    forces, on the same qubits, an equal X or Z key or a zero one, with the
    Y key's harmful tag.
    """
    keys.sort(axis=1)
    return ((keys[:, :-1] | np.uint64(1)) != keys[:, 1:]).all(axis=1)


def correcting_mask(mb, mp, mc) -> np.ndarray:
    """Batched :func:`is_single_error_correcting` verdicts of N split codes."""
    return _unshared(_tagged_keys(mb, mp, mc))


def cnot_compatible_mask(mb, mp, mc, control: int, target: int) -> np.ndarray:
    """Batched :func:`cnot_compatible` verdicts of N split codes.

    The two propagated pair keys join their code's keys, tagged harmful, so
    the one sort also rejects a pair key equal to the other or to any fault's
    key, harmless or harmful.  A zero pair key means two data keys are equal.
    """
    _check_cnot(control, target, mb.shape[1])
    keys = _tagged_keys(mb, mp, mc, spare=2)
    n = (keys.shape[1] - 3) // 2
    # each end's X and Z keys; the XOR clears their tags
    ends = (keys[:, q : 2 * n : n] for q in (control, target))
    np.bitwise_xor(*ends, out=keys[:, 2 * n + 1 :])
    keys[:, 2 * n + 1 :] |= np.uint64(1)
    return _unshared(keys)


def augment_for_cnot(code: CpcCode, control: int, target: int) -> CpcCode:
    """Add a check pair so that :func:`cnot_compatible` holds for CNOT(control, target).

    One new bit check watches only the control, one new phase check watches
    only the target, and the pair is tied by cross checks to each other and
    to the existing check-checking qubits (the first bit check and phase
    check whose faults are harmless, i.e. that touch no data), so that errors
    on the new qubits stay distinguishable.  The result only tells the error
    pairs a CNOT propagates from mid-window single errors.  That does not
    make a cycle fail less: the compatible 11-3-3-cnot fixture fails 2.56e-5
    per cycle at r=10 and the paper's error rates, against 2.51e-5 for plain
    11-3-3.  Gate faults are not considered.
    """
    _check_cnot(control, target, _require_split(code, "augment_for_cnot").k)
    k, n_b, n_p = code.k, code.n_b, code.n_p
    harmless = sorted({r.qubit for r in single_error_records(code) if not r.harmful})
    bits = [q - k for q in harmless if q < k + n_b]
    phases = [q - k - n_b for q in harmless if q >= k + n_b]
    if not bits or not phases:
        raise InvalidCodeError(
            "augmentation needs a bit check and a phase check that touch no data"
        )
    mb = np.column_stack([code.mb.data, np.arange(k) == control])
    mp = np.column_stack([code.mp.data, np.arange(k) == target])
    mc = np.zeros((n_b + 1, n_p + 1), dtype=np.uint8)
    mc[:n_b, :n_p] = code.mc.data
    mc[bits[0], n_p] = mc[n_b, phases[0]] = mc[n_b, n_p] = 1
    return CpcCode(mb=Gf2Matrix(mb), mp=Gf2Matrix(mp), mc=Gf2Matrix(mc))


# --- maximum-likelihood decoding of classical codes -------------------------


@dataclass(frozen=True)
class IsingTerm:
    spins: tuple[int, ...]
    coefficient: float


@dataclass(frozen=True)
class IsingProblem:
    """Spin-glass form of the decode problem: one spin per classical bit.

    Energy of a configuration s in {+1,-1}^n is
    ``sum_i fields[i]*s_i + sum_t coeff_t * prod(s_j for j in t.spins)``;
    spin -1 marks an errored bit.  Check errors are implicit: a check whose
    measured parity disagrees with the inferred bit errors was itself errored.
    """

    fields: tuple[float, ...]
    terms: tuple[IsingTerm, ...]


def _check_priors(values, count, name) -> list[float]:
    values = list(values)
    if len(values) != count:
        raise ValueError(f"{name}: expected {count} probabilities, got {len(values)}")
    for p in values:
        if not 0.0 < p < 0.5:
            raise ValueError(f"{name}: probability {p} outside (0, 0.5)")
    return values


def ising_problem(
    cc: ClassicalCode,
    bit_priors,
    check_priors,
    measurements,
) -> IsingProblem:
    """Spin Hamiltonian whose ground state is the most likely error set.

    Field coefficients are log(p/(1-p)) per bit; each check contributes
    (-1)^measurement * log(p/(1-p)) on the product of its member spins.
    """
    bit_priors = _check_priors(bit_priors, cc.bit_count, "bit_priors")
    check_priors = _check_priors(check_priors, len(cc.checks), "check_priors")
    measurements = _check_entries(measurements, len(cc.checks), "measurements", "measurements")
    fields = tuple(math.log(p / (1.0 - p)) for p in bit_priors)
    terms = []
    for members, p, m in zip(cc.checks, check_priors, measurements):
        coeff = (-1) ** m * math.log(p / (1.0 - p))
        terms.append(IsingTerm(spins=tuple(sorted(members)), coefficient=coeff))
    return IsingProblem(fields=fields, terms=tuple(terms))

