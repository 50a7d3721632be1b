from __future__ import annotations

import collections
import itertools
import math

import numpy as np
import pytest

from conftest import FIXTURE_DIR, fixture_code, seeded_random_codes, seeded_random_general_codes
from ml_reference import infer_check_errors, ising_ground_state, ml_decode_exhaustive
from cpc.circuits import PauliString
from cpc.decoding import (
    CollisionGroup,
    _tagged_keys,
    augment_for_cnot,
    cnot_compatible,
    cnot_compatible_mask,
    correcting_mask,
    decode_table,
    error_table,
    is_single_error_correcting,
    ising_problem,
    single_error_records,
)
from cpc.gf2 import Gf2Matrix
from cpc.model import CpcCode, GeneralCpcCode, InvalidCodeError, generalize
from cpc.propagation import effective_codes, general_to_classical
from cpc.search import cnot_compatible_predicate, random_code, single_error_correcting_predicate
from cpc.stabilizers import check_matrix, split_check_blocks


def _syndrome_of(code, table, qubit, kind):
    return table[PauliString.single(code.qubit_count, qubit, kind)]


def _fired(code, syndrome):
    n_b = code.n_b if hasattr(code, "n_b") else 0
    labels = []
    for i, b in enumerate(syndrome):
        if b:
            labels.append(code.qubit_label(code.k + i))
    return set(labels)


def test_error_table_1133_single_data_rows():
    code = fixture_code("11-3-3")
    table = error_table(code)
    want = {
        (0, "X"): {"b1", "b3"},
        (1, "X"): {"b1", "b2"},
        (2, "X"): {"b2", "b3"},
        (0, "Z"): {"p1", "p3"},
        (1, "Z"): {"p1", "p2"},
        (2, "Z"): {"p2", "p3"},
    }
    for (q, kind), fired in want.items():
        assert _fired(code, _syndrome_of(code, table, q, kind)) == fired


def test_error_table_y_combines_sides():
    code = fixture_code("11-3-3")
    table = error_table(code)
    assert _fired(code, _syndrome_of(code, table, 0, "Y")) == {"b1", "b3", "p1", "p3"}


def test_error_table_identity_empty():
    code = fixture_code("11-3-3")
    records = single_error_records(code)
    # the all-zero syndrome never appears among harmful single errors
    assert all(r.sx or r.sz for r in records if r.harmful)


def test_error_table_matches_matrix_records():
    # circuit propagation and the matrix-derived model must agree everywhere
    codes = [fixture_code(name) for name in ("11-3-3", "12-4-3", "6-3-1", "13-3-3", "10-3-3")]
    codes.append(generalize(fixture_code("11-3-3")))
    codes += seeded_random_codes(60, seed=31)
    codes += seeded_random_general_codes(40)
    for code in codes:
        table = error_table(code)
        n1 = code.n_b if hasattr(code, "n_b") else code.n_c
        n2 = code.n_p if hasattr(code, "n_p") else 0
        for rec in single_error_records(code):
            err = PauliString.single(code.qubit_count, rec.qubit, rec.kind)
            assert table[err] == rec.syndrome(n1, n2), (code, rec.label)


def test_residuals_match_circuit_propagation():
    from cpc.circuits import conjugate_pauli, decode_circuit

    codes = [fixture_code("11-3-3"), fixture_code("10-3-3")] + seeded_random_codes(30, seed=77)
    codes += seeded_random_general_codes(30)
    for code in codes:
        dec = decode_circuit(code)
        for rec in single_error_records(code):
            err = PauliString.single(code.qubit_count, rec.qubit, rec.kind)
            prop = conjugate_pauli(dec, err)
            data_mask = (1 << code.k) - 1
            assert prop.x_bits & data_mask == rec.rx, rec.label
            assert prop.z_bits & data_mask == rec.rz, rec.label


def test_correctability_verdicts():
    assert is_single_error_correcting(fixture_code("11-3-3")).ok
    assert is_single_error_correcting(fixture_code("12-4-3")).ok
    assert is_single_error_correcting(fixture_code("10-3-3")).ok
    report = is_single_error_correcting(fixture_code("11-3-1"))
    assert not report.ok
    # the certificate names the degenerate phase check: every collision
    # fires only the last phase check p4
    assert len(report.collisions) == 1
    group = report.collisions[0]
    assert set(group.labels) == {"Z_b1", "Z_b2", "Z_b3", "Z_p4"}
    assert group.syndrome == (0, 0, 0, 0, 0, 0, 0, 1)


def test_decode_table_known_corrections():
    code = fixture_code("11-3-3")
    table = decode_table(code)
    # first side mask: bit i is bit check b(i+1); no phase check fires here
    # single data error: b1 and b3 fire
    (cx, cz), category = table.classify(0b0101, 0)
    assert (cx, cz, category) == (0b001, 0, "corrected")
    # propagated bit-flip from the first phase check: fix both data qubits
    (cx, cz), category = table.classify(0b1100, 0)
    assert (cx, cz, category) == (0b011, 0, "corrected")
    # harmless: an X on a bit check flags only itself
    (cx, cz), category = table.classify(0b0001, 0)
    assert (cx, cz, category) == (0, 0, "harmless")
    # empty syndrome
    (cx, cz), category = table.classify(0, 0)
    assert (cx, cz, category) == (0, 0, "no_error")
    # unknown syndrome
    _, category = table.classify(0b0111, 0)
    assert category == "uncorrectable"


def test_decode_corrects_every_harmful_single_error():
    codes = [fixture_code(name) for name in ("11-3-3", "12-4-3", "13-3-3", "10-3-3")]
    for code in codes:
        table = decode_table(code)
        for rec in single_error_records(code):
            (cx, cz), _ = table.classify(rec.sx, rec.sz)
            # correction must cancel the residual exactly
            assert (cx, cz) == (rec.rx, rec.rz), rec.label


def test_decode_y_on_parity_qubit_composes_sides():
    code = fixture_code("11-3-3")
    table = decode_table(code)
    recs = {(r.qubit, r.kind): r for r in single_error_records(code)}
    rec = recs[(code.phase_index(0), "Y")]  # Y on p1
    (cx, cz), _ = table.classify(rec.sx, rec.sz)
    assert (cx, cz) == (rec.rx, rec.rz)


def _side_dict(side):
    """A side's (masks, corrections) arrays as a mask -> (X, Z) dict."""
    masks, corrections = side
    assert masks.dtype == corrections.dtype == np.int64
    assert not masks.flags.writeable and not corrections.flags.writeable
    assert masks[0] == 0 and (np.diff(masks) > 0).all()
    assert corrections.shape == (masks.size, 2) and not corrections[0].any()
    return {int(m): (int(x), int(z)) for m, (x, z) in zip(masks, corrections)}


def test_side_arrays_match_decode_on_every_syndrome():
    codes = [fixture_code(name) for name in ("11-3-3", "10-3-3", "6-3-1", "11-3-1")]
    codes += seeded_random_codes(10, seed=91) + seeded_random_general_codes(10, seed=92)
    for code in codes:
        table = decode_table(code)
        assert table.records == tuple(single_error_records(code))
        first, second = _side_dict(table.first), _side_dict(table.second)
        width_a, width_b = 1 << table.n_first, 1 << table.n_second
        for a, b in itertools.product(range(width_a), range(width_b)):
            known = a in first and b in second
            (ax, az), (bx, bz) = first.get(a, (0, 0)), second.get(b, (0, 0))
            cx, cz = ax ^ bx, az ^ bz
            (lx, lz), lknown = table.lookup(a, b)
            assert (lx, lz, lknown) == (cx, cz, known), (code, a, b)
            expected = (
                "no_error" if a == b == 0 else "uncorrectable" if not known
                else "corrected" if cx or cz else "harmless"
            )
            (lx, lz), category = table.classify(a, b)
            assert (lx, lz, category) == (cx, cz, expected), (code, a, b)
        # the same lookup over arrays of side masks, every pair at once
        grid_a, grid_b = np.divmod(np.arange(width_a * width_b), width_b)
        corrections, known = table.lookup(grid_a, grid_b)
        assert corrections.shape == (grid_a.size, 2) and known.shape == grid_a.shape
        classified, categories = table.classify(grid_a, grid_b)
        assert (classified == corrections).all() and categories.shape == grid_a.shape
        for a, b, (cx, cz), ok, category in zip(
            grid_a.tolist(), grid_b.tolist(), corrections, known, categories
        ):
            (sx, sz), scalar_ok = table.lookup(a, b)
            assert (cx, cz, ok) == (sx, sz, scalar_ok), (code, a, b)
            assert category == table.classify(a, b)[1], (code, a, b)


def test_lookup_knows_every_lone_x_and_z_fault():
    # The frame kernel takes every lone X or Z fault as known: a split code's X
    # faults fire only bit checks and its Z faults only phase checks, a
    # generalized code has one side, and each side holds its faults' masks.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(29)))
    codes = [fixture_code(path.stem) for path in sorted(FIXTURE_DIR.glob("*.cpc"))]
    codes += seeded_random_codes(300, seed=93) + seeded_random_general_codes(300, seed=94)
    # empty sides: no bit checks, no phase checks, no checks at all
    for k, n_b, n_p in itertools.product((1, 3), (0, 3), (0, 3)):
        codes.append(random_code(k, n_b, n_p, rng))
    no_checks = Gf2Matrix.zeros(2, 0)
    codes.append(GeneralCpcCode(mbs=no_checks, mps=no_checks, mcs=Gf2Matrix.zeros(0, 0)))
    for code in codes:
        table = decode_table(code)
        lone = [r for r in table.records if r.kind != "Y"]
        _, known = table.lookup([r.sx for r in lone], [r.sz for r in lone])
        assert known.all(), (code, [r.label for r, ok in zip(lone, known) if not ok])


@pytest.mark.parametrize(
    "first, second, message",
    [
        (-1, 0, "side mask -1 outside 0..15"),
        (16, 0, "side mask 16 outside 0..15"),
        (0, -3, "side mask -3 outside 0..15"),
        (np.array([1, -5, 2]), np.zeros(3, dtype=np.int64), "side mask -5 outside 0..15"),
        (np.zeros(2, dtype=np.int64), np.array([15, 16]), "side mask 16 outside 0..15"),
    ],
)
def test_lookup_refuses_masks_outside_the_side(first, second, message):
    table = decode_table(fixture_code("11-3-3"))
    with pytest.raises(ValueError) as err:
        table.lookup(first, second)
    assert str(err.value) == message


def test_lookup_edges_of_the_mask_range():
    table = decode_table(fixture_code("10-3-3"))
    assert table.n_second == 0
    top = (1 << table.n_first) - 1
    (cx, cz), known = table.lookup(top, 0)
    first = _side_dict(table.first)
    assert (cx, cz, known) == (*first.get(top, (0, 0)), top in first)
    assert _side_dict(table.second) == {0: (0, 0)}
    with pytest.raises(ValueError, match=r"side mask 1 outside 0\.\.0"):
        table.lookup(0, 1)
    # a trial with no error cycles looks up empty arrays
    empty = np.zeros(0, dtype=np.int64)
    corrections, known = table.lookup(empty, empty)
    assert corrections.shape == (0, 2) and known.shape == (0,)
    corrections, categories = table.classify(empty, empty)
    assert corrections.shape == (0, 2) and categories.shape == (0,)
    # and empty lists, as the error table of a code with no qubits passes them
    corrections, known = table.lookup([], [])
    assert corrections.shape == (0, 2) and known.shape == (0,)
    corrections, categories = table.classify([], [])
    assert corrections.shape == (0, 2) and categories.shape == (0,)


def test_decode_table_keeps_masks_past_63_bits():
    # 66 data qubits: the last data qubits' corrections do not fit in int64
    rng = np.random.default_rng(3)
    k, n_c = 66, 9
    code = GeneralCpcCode(
        mbs=Gf2Matrix(rng.integers(0, 2, (k, n_c), dtype=np.uint8)),
        mps=Gf2Matrix(rng.integers(0, 2, (k, n_c), dtype=np.uint8)),
        mcs=Gf2Matrix(np.triu(rng.integers(0, 2, (n_c, n_c), dtype=np.uint8), 1)),
    )
    table = decode_table(code)
    assert table.first[1].dtype == object and not table.first[1].flags.writeable
    counts = collections.Counter((r.sx, r.sz) for r in table.records)
    unique = [r for r in table.records if counts[r.sx, r.sz] == 1 and (r.sx or r.sz)]
    assert any((r.rx | r.rz) >> 63 for r in unique)
    for rec in unique:
        (cx, cz), _ = table.classify(rec.sx, rec.sz)
        assert (cx, cz) == (rec.rx, rec.rz), rec.label


def test_decode_table_obstruction_certificate():
    table = decode_table(fixture_code("11-3-1"))
    assert not table.report.ok
    assert any("Z_b1" in group.labels for group in table.report.collisions)
    # a code that is not single-error correcting still yields a usable (best-effort) table
    assert table.classify(0, 0)[1] == "no_error"


def test_decode_table_report_is_the_correctability_verdict():
    codes = [fixture_code(path.stem) for path in sorted(FIXTURE_DIR.glob("*.cpc"))]
    codes += seeded_random_codes(100, seed=95) + seeded_random_general_codes(100, seed=96)
    for code in codes:
        assert decode_table(code).report == is_single_error_correcting(code), code


def test_cnot_compatible_fixtures():
    assert not cnot_compatible(fixture_code("11-3-3"), 0, 1).ok
    assert cnot_compatible(fixture_code("11-3-3-cnot"), 0, 1).ok
    assert cnot_compatible(fixture_code("12-4-3-cnot"), 0, 1).ok
    # a non-correcting code fails by precondition
    report = cnot_compatible(fixture_code("11-3-1"), 0, 1)
    assert not report.ok
    with pytest.raises(ValueError):
        cnot_compatible(fixture_code("11-3-3"), 1, 1)
    with pytest.raises(ValueError):
        cnot_compatible(fixture_code("11-3-3"), 0, 7)


# (k, n_b, n_p), mirrored mp = mb, code count, CNOT (control, target) pairs
_BATCH_ORACLE_CASES = [
    ((3, 6, 6), False, 3000, [(0, 1), (1, 2)]),
    ((3, 6, 6), True, 1500, [(0, 1), (2, 0)]),
    ((3, 5, 5), True, 1500, [(0, 1), (1, 2)]),
    ((3, 4, 4), False, 1500, [(2, 0)]),
    ((4, 5, 5), False, 1000, [(0, 1)]),
    ((2, 4, 4), False, 400, [(1, 0)]),
    ((1, 3, 3), False, 400, []),
    ((0, 3, 3), False, 300, []),
    ((3, 0, 4), False, 300, [(0, 1)]),
    ((3, 4, 0), False, 300, [(0, 1)]),
]


def test_stacked_split_check_blocks_match_check_matrix():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(405)))
    for (k, n_b, n_p), mirrored, _, _ in _BATCH_ORACLE_CASES:
        # two leading axes, so any stacking is exercised
        mb = rng.integers(0, 2, size=(3, 20, k, n_b), dtype=np.uint8)
        mp = mb if mirrored else rng.integers(0, 2, size=(3, 20, k, n_p), dtype=np.uint8)
        mc = rng.integers(0, 2, size=(3, 20, n_b, n_p), dtype=np.uint8)
        (bit_data, cross), (phase_data, phase_bits) = split_check_blocks(mb, mp, mc)
        assert bit_data.shape == (3, 20, n_b, k) and cross.shape == (3, 20, n_b, n_p)
        assert phase_data.shape == (3, 20, n_p, k) and phase_bits.shape == (3, 20, n_p, n_b)
        assert all(a.dtype == np.uint8 for a in (bit_data, cross, phase_data, phase_bits))
        eye_b, eye_p = np.eye(n_b, dtype=np.uint8), np.eye(n_p, dtype=np.uint8)
        for i, j in itertools.product(range(3), range(20)):
            b, p, c = mb[i, j], mp[i, j], mc[i, j]
            # the cross propagation in integers, away from uint8 wrapping
            assert np.array_equal(cross[i, j], (c + b.T.astype(int) @ p) % 2)
            hx, hz = check_matrix(CpcCode(mb=Gf2Matrix(b), mp=Gf2Matrix(p), mc=Gf2Matrix(c)))
            where = ((k, n_b, n_p), i, j)
            assert np.array_equal(hz[:n_b], np.hstack([b.T, eye_b, cross[i, j]])), where
            assert np.array_equal(hx[n_b:], np.hstack([p.T, c.T, eye_p])), where
            assert np.array_equal(bit_data[i, j], b.T) and np.array_equal(phase_bits[i, j], c.T)
            assert np.array_equal(phase_data[i, j], p.T)
            assert not hx[:n_b].any() and not hz[n_b:].any()


def test_tagged_keys_are_packed_check_matrix_columns():
    # A fault's key is its column of check_matrix (hz for X, hx for Z) with
    # check i at bit i + 1, and bit 0 its harmful flag; every row ends in one
    # zero key.  Also on a code with no qubits.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(408)))
    for (k, n_b, n_p), mirrored, _, _ in _BATCH_ORACLE_CASES + [((0, 0, 0), False, 0, [])]:
        mb = rng.integers(0, 2, size=(60, k, n_b), dtype=np.uint8)
        mp = mb if mirrored else rng.integers(0, 2, size=(60, k, n_p), dtype=np.uint8)
        mc = rng.integers(0, 2, size=(60, n_b, n_p), dtype=np.uint8)
        keys = _tagged_keys(mb, mp, mc)
        n = k + n_b + n_p
        assert keys.shape == (60, 2 * n + 1) and keys.dtype == np.uint64
        for row, b, p, c in zip(keys, mb, mp, mc):
            code = CpcCode(mb=Gf2Matrix(b), mp=Gf2Matrix(p), mc=Gf2Matrix(c))
            hx, hz = check_matrix(code)
            harmful = {(r.qubit, r.kind): r.harmful for r in single_error_records(code)}
            for kind, rows, part in (("X", hz, row[:n]), ("Z", hx, row[n : 2 * n])):
                for q in range(n):
                    syndrome = sum(int(bit) << (i + 1) for i, bit in enumerate(rows[:, q]))
                    assert int(part[q]) == syndrome | harmful[q, kind], (code, kind, q)
            assert row[2 * n] == 0


def test_batched_verdicts_match_scalar():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(404)))
    checked = 0
    hits = {"correcting": 0, (0, 1): 0, (1, 2): 0, (2, 0): 0}
    for (k, n_b, n_p), mirrored, count, pairs in _BATCH_ORACLE_CASES:
        mb = rng.integers(0, 2, size=(count, k, n_b), dtype=np.uint8)
        mp = mb if mirrored else rng.integers(0, 2, size=(count, k, n_p), dtype=np.uint8)
        mc = rng.integers(0, 2, size=(count, n_b, n_p), dtype=np.uint8)
        codes = [
            CpcCode(mb=Gf2Matrix(b), mp=Gf2Matrix(p), mc=Gf2Matrix(c))
            for b, p, c in zip(mb, mp, mc)
        ]
        shape = ((k, n_b, n_p), mirrored)
        batch = correcting_mask(mb, mp, mc)
        scalar = np.array([is_single_error_correcting(code).ok for code in codes])
        assert batch.shape == (count,)
        assert np.array_equal(batch, scalar), (shape, np.flatnonzero(batch != scalar)[:5])
        hits["correcting"] += int(batch.sum())
        for control, target in pairs:
            batch = cnot_compatible_mask(mb, mp, mc, control, target)
            scalar = np.array([cnot_compatible(code, control, target).ok for code in codes])
            assert np.array_equal(batch, scalar), (
                shape, (control, target), np.flatnonzero(batch != scalar)[:5]
            )
            if (control, target) in hits:
                hits[(control, target)] += int(batch.sum())
        checked += count
    assert checked >= 10_000
    # both verdicts occur for every predicate, so the agreement is not vacuous
    assert all(0 < n < checked for n in hits.values()), hits


def _pair_clashes(code, control, target):
    """The single-fault records whose syndrome equals a CNOT-propagated pair's."""
    records = single_error_records(code)
    by_fault = {(r.qubit, r.kind): r for r in records}
    clashes = []
    for kind in ("X", "Z"):
        c, t = by_fault[control, kind], by_fault[target, kind]
        clashes += [r for r in records if (r.sx, r.sz) == (c.sx ^ t.sx, c.sz ^ t.sz)]
    return clashes


def test_cnot_pair_keys_are_sorted_with_every_fault_key():
    # cnot_compatible_mask sorts the two pair keys, tagged harmful, with the
    # fault keys.  The pair then fails on a correcting code whose pair keys
    # clash with nothing but harmless check keys; an untagged pair would not.
    # A clash with a Y key alone cannot occur on a split code: the X pair key
    # fires only bit checks, so a Y key equal to it belongs to a qubit with a
    # Z key of 0, whose X key (with the same harmful flag) is equal as well.
    # The Z pair is the same with the roles swapped.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(407)))
    count, control, target = 4000, 0, 1
    mb, mp, mc = (
        rng.integers(0, 2, size=(count,) + shape, dtype=np.uint8)
        for shape in ((2, 6), (2, 6), (6, 6))
    )
    batch = cnot_compatible_mask(mb, mp, mc, control, target)
    cases = 0
    for b, p, c, verdict in zip(mb, mp, mc, batch):
        code = CpcCode(mb=Gf2Matrix(b), mp=Gf2Matrix(p), mc=Gf2Matrix(c))
        clashes = _pair_clashes(code, control, target)
        twins = {r.qubit for r in clashes if r.kind != "Y"}
        assert all(r.qubit in twins for r in clashes if r.kind == "Y"), code
        if not clashes or any(r.harmful for r in clashes):
            continue
        if not is_single_error_correcting(code).ok:
            continue
        assert not verdict and not cnot_compatible(code, control, target).ok, code
        cases += 1
    assert cases > 0


def test_cnot_certificate_names_the_pairs_and_their_clashes():
    report = cnot_compatible(fixture_code("11-3-3"), 0, 1)
    assert not report.ok
    got = {(g.syndrome, frozenset(g.labels)) for g in report.collisions}
    assert got == {
        ((0, 1, 1, 0, 0, 0, 0, 0), frozenset({"X_d1 X_d2", "X_d3"})),
        ((0, 0, 0, 0, 0, 1, 1, 0), frozenset({"Z_d1 Z_d2", "Z_d3"})),
    }


def test_batched_predicates_check_their_arguments():
    rng = np.random.Generator(np.random.Philox(9))
    mb, mp = rng.integers(0, 2, size=(2, 4, 3, 5), dtype=np.uint8)
    mc = rng.integers(0, 2, size=(4, 5, 5), dtype=np.uint8)
    assert np.array_equal(single_error_correcting_predicate()(mb, mp, mc), correcting_mask(mb, mp, mc))
    assert np.array_equal(
        cnot_compatible_predicate(0, 2)(mb, mp, mc), cnot_compatible_mask(mb, mp, mc, 0, 2)
    )
    with pytest.raises(ValueError, match="must differ"):
        cnot_compatible_predicate(1, 1)
    with pytest.raises(ValueError, match=r"0\.\.2"):
        cnot_compatible_predicate(0, 7)(mb, mp, mc)
    wide = np.zeros((1, 1, 32), dtype=np.uint8)
    with pytest.raises(ValueError, match="at most 63 checks"):
        correcting_mask(wide, wide, np.zeros((1, 32, 32), dtype=np.uint8))


def test_augment_for_cnot_reproduces_1333():
    aug = augment_for_cnot(fixture_code("11-3-3"), 0, 1)
    assert aug == fixture_code("13-3-3")
    assert (aug.k, aug.n_b, aug.n_p) == (3, 5, 5)
    assert cnot_compatible(aug, 0, 1).ok
    assert is_single_error_correcting(aug).ok


def test_augment_grows_dimensions_and_reports_honestly():
    # the recipe is not universal: on the Hamming-based code the new phase
    # check aliases an existing one, and the checker must say so
    aug = augment_for_cnot(fixture_code("12-4-3"), 0, 1)
    assert (aug.n_b, aug.n_p) == (5, 5)
    report = is_single_error_correcting(aug)
    assert not report.ok
    assert any("X_p5" in g.labels for g in report.collisions)


def test_augment_requires_check_checking_qubits():
    with pytest.raises(ValueError):
        augment_for_cnot(fixture_code("6-3-1"), 0, 1)


def test_augment_for_cnot_refuses_a_generalized_code():
    with pytest.raises(InvalidCodeError, match="^augment_for_cnot requires a split code$"):
        augment_for_cnot(fixture_code("10-3-3"), 0, 1)


@pytest.mark.parametrize("control, target", [(0, 7), (-1, 1)])
def test_augment_for_cnot_refuses_indices_off_the_data(control, target):
    with pytest.raises(ValueError, match=r"^data indices must lie in 0\.\.2$"):
        augment_for_cnot(fixture_code("11-3-3"), control, target)


def test_ising_field_coefficient_value():
    cc, _ = effective_codes(fixture_code("6-3-1"))
    problem = ising_problem(cc, [0.1] * 3, [0.1] * 3, [0, 0, 0])
    assert problem.fields[0] == pytest.approx(math.log(1 / 9), abs=1e-9)
    assert problem.fields[0] == pytest.approx(-2.1972, abs=5e-4)


def test_ising_all_even_ground_state_is_error_free():
    cc, _ = effective_codes(fixture_code("6-3-1"))
    problem = ising_problem(cc, [0.1] * 3, [0.1] * 3, [0, 0, 0])
    assert ising_ground_state(problem) == frozenset()


def test_ising_flips_shared_bit():
    # syndrome 011 on the three-bit code: both firing checks cover bit C
    cc, _ = effective_codes(fixture_code("6-3-1"))
    problem = ising_problem(cc, [0.1] * 3, [0.1] * 3, [0, 1, 1])
    assert ising_ground_state(problem) == frozenset({2})


@pytest.mark.parametrize("one", [1.0, np.float64(1)])
def test_ising_problem_reads_a_bit_of_another_type_as_that_bit(one):
    cc, _ = effective_codes(fixture_code("11-3-3"))
    priors = [0.1] * cc.bit_count, [0.1] * 4
    assert ising_problem(cc, *priors, [one, 0, 0, 0]) == ising_problem(cc, *priors, [1, 0, 0, 0])


def test_ising_rejects_bad_priors():
    cc, _ = effective_codes(fixture_code("6-3-1"))
    with pytest.raises(ValueError):
        ising_problem(cc, [0.6] * 3, [0.1] * 3, [0, 0, 0])
    with pytest.raises(ValueError):
        ising_problem(cc, [0.1] * 3, [0.0] * 3, [0, 0, 0])
    with pytest.raises(ValueError, match=r"^bit_priors: expected 3 probabilities, got 2$"):
        ising_problem(cc, [0.1] * 2, [0.1] * 3, [0, 0, 0])
    with pytest.raises(ValueError, match=r"^check_priors: expected 3 probabilities, got 4$"):
        ising_problem(cc, [0.1] * 3, [0.1] * 4, [0, 0, 0])


def test_ml_decode_zero_syndrome():
    cc, _ = effective_codes(fixture_code("11-3-3"))
    result = ml_decode_exhaustive(cc, [0] * 4, [0.05] * cc.bit_count, [0.05] * 4)
    assert result.bit_errors == frozenset() and result.check_errors == frozenset()


def test_ml_decode_check_only_explanation():
    # a single fired check with no consistent cheap bit explanation: the
    # check itself is the most likely culprit
    cc, _ = effective_codes(fixture_code("11-3-3"))
    result = ml_decode_exhaustive(cc, [1, 0, 0, 0], [0.05] * cc.bit_count, [0.05] * 4)
    assert result.bit_errors == frozenset()
    assert result.check_errors == frozenset({0})


def test_ml_decode_reports_check_positions():
    from cpc.model import ClassicalCode

    cc = ClassicalCode(2, (frozenset({0, 1}), frozenset({1})))
    for syndrome in itertools.product((0, 1), repeat=2):
        ml = ml_decode_exhaustive(cc, syndrome, [0.01] * 2, [0.3] * 2)
        assert ml.check_errors == infer_check_errors(cc, syndrome, ml.bit_errors)
    # cheap checks: a fired check is its own error, reported by its position
    assert ml_decode_exhaustive(cc, [0, 1], [0.01] * 2, [0.3] * 2).check_errors == {1}


def test_ising_matches_ml_on_both_1133_effective_codes():
    bit_code, phase_code = effective_codes(fixture_code("11-3-3"))
    for cc in (bit_code, phase_code):
        n_checks = len(cc.checks)
        for bits in itertools.product((0, 1), repeat=n_checks):
            problem = ising_problem(cc, [0.05] * cc.bit_count, [0.05] * n_checks, bits)
            ground = ising_ground_state(problem)
            ml = ml_decode_exhaustive(cc, bits, [0.05] * cc.bit_count, [0.05] * n_checks)
            assert ground == ml.bit_errors, bits
            assert infer_check_errors(cc, bits, ground) == ml.check_errors


def test_ising_matches_ml_on_general_classical_code():
    cc = general_to_classical(fixture_code("10-3-3"))
    n_checks = len(cc.checks)
    rng = np.random.Generator(np.random.Philox(3))
    for _ in range(40):
        bits = [int(b) for b in rng.integers(0, 2, size=n_checks)]
        problem = ising_problem(cc, [0.08] * cc.bit_count, [0.08] * n_checks, bits)
        ml = ml_decode_exhaustive(cc, bits, [0.08] * cc.bit_count, [0.08] * n_checks)
        assert ising_ground_state(problem) == ml.bit_errors


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda cc: ising_problem(cc, [0.1] * cc.bit_count, [0.1] * 4, [0, 3, 0, 0]),
            r"measurements\[1\] is 3, expected 0 or 1",
        ),
        (
            lambda cc: ml_decode_exhaustive(cc, [2, 0, 0, 0], [0.1] * cc.bit_count, [0.1] * 4),
            r"syndrome\[0\] is 2, expected 0 or 1",
        ),
        (
            lambda cc: infer_check_errors(cc, [0, 0, 0, 2], frozenset()),
            r"syndrome\[3\] is 2, expected 0 or 1",
        ),
        (
            lambda cc: infer_check_errors(cc, [1], frozenset()),
            "expected 4 syndrome bits",
        ),
    ],
    ids=[
        "ising_problem", "ml_decode_exhaustive",
        "infer_check_errors", "infer_check_errors_length",
    ],
)
def test_malformed_syndromes_are_rejected(call, message):
    cc, _ = effective_codes(fixture_code("11-3-3"))
    with pytest.raises(ValueError, match=message):
        call(cc)


def test_ml_decode_too_large():
    from cpc.model import ClassicalCode

    cc = ClassicalCode(bit_count=25, checks=(frozenset({0}),))
    with pytest.raises(ValueError):
        ml_decode_exhaustive(cc, [0], [0.1] * 25, [0.1])


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda cc: ising_problem(cc, [0.1] * cc.bit_count, [0.1] * 4, [0, 1]),
            r"^expected 4 measurements, got 2$",
        ),
        (
            lambda cc: ml_decode_exhaustive(cc, [0] * 5, [0.1] * cc.bit_count, [0.1] * 4),
            r"^expected 4 syndrome bits, got 5$",
        ),
        (
            lambda cc: infer_check_errors(cc, [1], frozenset()),
            r"^expected 4 syndrome bits, got 1$",
        ),
    ],
    ids=["ising_problem", "ml_decode_exhaustive", "infer_check_errors"],
)
def test_wrong_length_syndromes_name_both_lengths(call, message):
    cc, _ = effective_codes(fixture_code("11-3-3"))
    with pytest.raises(ValueError, match=message):
        call(cc)


@pytest.mark.parametrize("bad", [99, -1, 7])
def test_infer_check_errors_refuses_bits_outside_the_code(bad):
    cc, _ = effective_codes(fixture_code("11-3-3"))
    assert cc.bit_count == 7
    with pytest.raises(ValueError, match=rf"bit error {bad} outside 0\.\.6"):
        infer_check_errors(cc, [0, 0, 0, 0], {0, bad})
    assert infer_check_errors(cc, [0, 0, 0, 0], {6}) == infer_check_errors(cc, [0, 0, 0, 0], [6])


def test_collision_text_is_the_syndrome_bit_string():
    # the verify listing's bit-string is the syndrome tuple in order, as
    # DecodeTable.syndrome_text writes it, for any width including none
    for code in map(fixture_code, ("6-3-1", "11-3-1")):
        report = is_single_error_correcting(code)
        assert report.collisions
        for group in report.collisions:
            bits = "".join(str(b) for b in group.syndrome)
            assert str(group) == f"syndrome {bits} shared by: {', '.join(group.labels)}"
    first = is_single_error_correcting(fixture_code("6-3-1")).collisions[0]
    assert str(first) == "syndrome 000 shared by: no error, Z_d1, Z_d2, Z_d3, Z_b1, Z_b2, Z_b3"
    assert str(CollisionGroup((0, 1, 1, 0, 0), ("X_d1",))) == "syndrome 01100 shared by: X_d1"
    assert str(CollisionGroup((), ("no error", "Z_d1"))) == "syndrome  shared by: no error, Z_d1"
