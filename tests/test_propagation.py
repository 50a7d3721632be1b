from __future__ import annotations

from conftest import fixture_code, seeded_random_codes
from cpc.decoding import single_error_records
from cpc.gf2 import Gf2Matrix
from cpc.model import CpcCode, generalize
from cpc.propagation import (
    cross_propagation,
    effective_codes,
    general_propagation,
    general_to_classical,
)


def test_cross_propagation_1133():
    # mod-2 of mc plus data-mediated paths, and consistent with the
    # Z-type stabilizer support on phase checks (e.g. check b1 -> p2, p4)
    cross = cross_propagation(fixture_code("11-3-3"))
    assert cross.data.tolist() == [
        [0, 1, 0, 1],
        [0, 0, 1, 1],
        [1, 0, 0, 1],
        [1, 1, 1, 1],
    ]


def test_cross_propagation_zero_without_phase_side():
    code = fixture_code("6-3-1")
    assert cross_propagation(code) == Gf2Matrix.zeros(3, 0)


def test_cross_propagation_cancellation():
    # one shared data qubit plus an existing cross edge: 1 + 1 = 0
    code = CpcCode(
        mb=Gf2Matrix([[1]]), mp=Gf2Matrix([[1]]), mc=Gf2Matrix([[1]])
    )
    assert cross_propagation(code) == Gf2Matrix([[0]])


def _syndrome_signatures(cc):
    """Syndrome of each single bit error plus each check error; None if clash."""
    signatures = {}
    for bit in range(cc.bit_count):
        fired = frozenset(cid for cid, members in enumerate(cc.checks) if bit in members)
        signatures[f"bit{bit}"] = fired
    for cid in range(len(cc.checks)):
        signatures[f"check{cid}"] = frozenset([cid])
    return signatures


def test_effective_codes_1133_unique_signatures():
    bit_code, phase_code = effective_codes(fixture_code("11-3-3"))
    for cc in (bit_code, phase_code):
        sigs = _syndrome_signatures(cc)
        assert len(set(sigs.values())) == len(sigs)
    # harmless bits: the check-checking qubits only (p4 and b4, bit id k+3)
    assert bit_code.harmless == frozenset({6})
    assert phase_code.harmless == frozenset({6})


def test_effective_codes_1131_phase_degenerate():
    bit_code, phase_code = effective_codes(fixture_code("11-3-1"))
    bit_sigs = _syndrome_signatures(bit_code)
    assert len(set(bit_sigs.values())) == len(bit_sigs)
    phase_sigs = _syndrome_signatures(phase_code)
    collisions = {}
    for name, sig in phase_sigs.items():
        collisions.setdefault(sig, []).append(name)
    degenerate = [names for names in collisions.values() if len(names) > 1]
    # bit checks b1, b2, b3 and the final phase check all alias one signature
    assert degenerate == [["bit3", "bit4", "bit5", "check3"]]


def test_effective_code_minimal():
    code = CpcCode(mb=Gf2Matrix([[1]]), mp=Gf2Matrix.zeros(1, 0), mc=Gf2Matrix.zeros(1, 0))
    bit_code, phase_code = effective_codes(code)
    assert bit_code.checks == (frozenset({0}),)
    assert phase_code.checks == ()


def test_effective_codes_match_circuit_syndromes():
    # cross-module oracle: the classical-code signatures equal the
    # circuit-propagated syndromes for every single X/Z error location
    for code in seeded_random_codes(100, seed=42):
        bit_code, phase_code = effective_codes(code)
        records = {(r.qubit, r.kind): r for r in single_error_records(code)}
        k = code.k
        for cc, kind, offset, own in (
            (bit_code, "X", k, code.n_b),
            (phase_code, "Z", k, code.n_p),
        ):
            for bit in range(cc.bit_count):
                fired = frozenset(cid for cid, members in enumerate(cc.checks) if bit in members)
                if bit < k:
                    qubit = bit
                elif kind == "X":
                    qubit = code.phase_index(bit - k)
                else:
                    qubit = code.bit_index(bit - k)
                rec = records[(qubit, kind)]
                mask = rec.sx if kind == "X" else rec.sz
                assert fired == frozenset(
                    i for i in range(own) if (mask >> i) & 1
                ), (bit, kind)


def test_general_propagation_matches_split_cross():
    code = fixture_code("11-3-3")
    g = generalize(code)
    arrows, loops = general_propagation(g)
    assert loops == (0,) * 8
    cross = cross_propagation(code)
    for b in range(code.n_b):
        for p in range(code.n_p):
            assert arrows[code.n_b + p, b] == cross[b, p]


def test_general_propagation_matches_on_random_codes():
    for code in seeded_random_codes(40, seed=9):
        g = generalize(code)
        arrows, loops = general_propagation(g)
        assert loops == (0,) * g.n_c
        cross = cross_propagation(code)
        for b in range(code.n_b):
            for p in range(code.n_p):
                assert arrows[code.n_b + p, b] == cross[b, p]


def test_general_propagation_1033_reproduces_1133_pattern():
    # merging the two check-checking qubits leaves the propagation intact:
    # checks c1..c6 correspond to b1..b3, p1..p3 and c7 plays b4/p4
    arrows, loops = general_propagation(fixture_code("10-3-3"))
    assert loops == (0,) * 7
    cross = cross_propagation(fixture_code("11-3-3"))
    for b in range(3):
        for p in range(3):
            assert arrows[3 + p, b] == cross[b, p]
        assert arrows[6, b] == cross[b, 3]


def test_general_propagation_even_paths_cancel():
    # two data qubits each wired by both edge types to the same pair of checks
    mbs = Gf2Matrix([[1, 0], [1, 0]])
    mps = Gf2Matrix([[0, 1], [0, 1]])
    mcs = Gf2Matrix.zeros(2, 2)
    from cpc.model import GeneralCpcCode

    arrows, loops = general_propagation(GeneralCpcCode(mbs, mps, mcs))
    assert arrows.is_zero() and loops == (0, 0)


def test_self_loop_detection():
    from cpc.model import GeneralCpcCode

    gcode = GeneralCpcCode(
        mbs=Gf2Matrix([[1]]), mps=Gf2Matrix([[1]]), mcs=Gf2Matrix.zeros(1, 1)
    )
    arrows, loops = general_propagation(gcode)
    assert loops == (1,)


def test_general_to_classical_1033():
    cc = general_to_classical(fixture_code("10-3-3"))
    assert cc.bit_count == 2 * 3 + 7
    assert len(cc.checks) == 7
    # only the merged check-checking qubit is harmless
    assert cc.harmless == frozenset({6 + 6})
    sigs = _syndrome_signatures(cc)
    harmful_sigs = [s for name, s in sigs.items() if name not in {"bit12"}]
    assert len(set(harmful_sigs)) == len(harmful_sigs)


def test_general_to_classical_union_of_split_codes():
    code = fixture_code("11-3-3")
    g = generalize(code)
    cc = general_to_classical(g)
    bit_code, phase_code = effective_codes(code)
    k = code.k
    for cid, members in enumerate(cc.checks):
        if cid < code.n_b:
            want = set()
            for m in bit_code.checks[cid]:
                want.add(m if m < k else 2 * k + (m - k) + code.n_b)
            assert members == frozenset(want)
        else:
            pid = cid - code.n_b
            want = set()
            for m in phase_code.checks[pid]:
                want.add(m + k if m < k else 2 * k + (m - k))
            assert members == frozenset(want)


def test_general_to_classical_empty():
    from cpc.model import GeneralCpcCode

    empty = GeneralCpcCode(
        Gf2Matrix.zeros(0, 0), Gf2Matrix.zeros(0, 0), Gf2Matrix.zeros(0, 0)
    )
    cc = general_to_classical(empty)
    assert cc.bit_count == 0 and cc.checks == ()
