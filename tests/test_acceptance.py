"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers.  Criterion 8 runs a full Monte
Carlo protection experiment and dominates the runtime (a few minutes).
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from conftest import HAMMING_743, fixture_code, seeded_random_codes
from ml_reference import infer_check_errors, ising_ground_state, ml_decode_exhaustive
from cpc.circuits import (
    Circuit,
    PauliString,
    circuits_equal,
    cnot,
    conjugate_pauli,
    decode_circuit,
    encode_circuit,
    hadamard,
)
from cpc.decoding import (
    augment_for_cnot,
    cnot_compatible,
    code_distance,
    error_table,
    is_single_error_correcting,
    ising_problem,
)
from cpc.dynamics import ErrorModel, SimConfig, coherent_fidelity_631, fit_half_life, simulate
from cpc.gf2 import Gf2Matrix, multiply, row_space_equal
from cpc.logical_ops import logical_cnot_circuit, logical_hadamard_circuit
from cpc.propagation import effective_codes
from cpc.search import search, single_error_correcting_predicate
from cpc.stabilizers import (
    css_to_cpc,
    stabilizer_to_text,
    stabilizers,
    symplectic_matrix,
)

EXPECTED_STABILIZERS_1133 = {
    "Z d1 d2 b1 p2 p4",
    "Z d2 d3 b2 p3 p4",
    "Z d1 d3 b3 p1 p4",
    "Z b4 p1 p2 p3 p4",
    "X d1 d2 b2 b4 p1",
    "X d2 d3 b3 b4 p2",
    "X d1 d3 b1 b4 p3",
    "X b1 b2 b3 b4 p4",
}


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {detail}")
    assert ok, detail


def test_criterion_1_stabilizer_table():
    start = time.perf_counter()
    code = fixture_code("11-3-3")
    got = {stabilizer_to_text(g, code.qubit_label) for g in stabilizers(code)}
    elapsed = time.perf_counter() - start
    ok = got == EXPECTED_STABILIZERS_1133 and elapsed < 1.0
    _report(1, ok, f"stabilizer table reproduced exactly in {elapsed:.3f}s")


def test_criterion_2_error_table():
    start = time.perf_counter()
    code = fixture_code("11-3-3")
    table = error_table(code)
    n = code.qubit_count

    def fired(syndrome):
        return {code.qubit_label(code.k + i) for i, b in enumerate(syndrome) if b}

    want = {
        ("X", 0): {"b1", "b3"},
        ("X", 1): {"b1", "b2"},
        ("X", 2): {"b2", "b3"},
        ("Z", 0): {"p1", "p3"},
        ("Z", 1): {"p1", "p2"},
        ("Z", 2): {"p2", "p3"},
    }
    ok = all(
        fired(table[PauliString.single(n, q, kind)]) == target
        for (kind, q), target in want.items()
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(2, ok, f"all six single-data-qubit error rows exact in {elapsed:.3f}s")


def test_criterion_3_correctability_verdicts():
    timings = []
    verdicts = []
    for code, want in (
        (fixture_code("11-3-3"), True),
        (fixture_code("12-4-3"), True),
        (fixture_code("11-3-1"), False),
        (fixture_code("10-3-3"), True),
    ):
        start = time.perf_counter()
        report = is_single_error_correcting(code)
        timings.append(time.perf_counter() - start)
        verdicts.append(report.ok == want)
        if not want:
            # certificate must name the degenerate phase check (p4 alias group)
            labels = set(itertools.chain.from_iterable(g.labels for g in report.collisions))
            verdicts.append("Z_p4" in labels and {"Z_b1", "Z_b2", "Z_b3"} <= labels)
    ok = all(verdicts) and max(timings) < 1.0
    _report(3, ok, f"verdicts correct, certificate names degenerate check, max {max(timings):.3f}s")


def _criterion_codes():
    codes = [fixture_code(name) for name in ("11-3-3", "12-4-3", "6-3-1", "13-3-3")]
    return codes + seeded_random_codes(100, seed=8128, k_max=4, n_max=5)


def test_criterion_4_identity_and_formula_circuit_agreement():
    start = time.perf_counter()
    failures = 0
    for code in _criterion_codes():
        n = code.qubit_count
        enc, dec = encode_circuit(code), decode_circuit(code)
        if not circuits_equal(enc + dec, Circuit(n)):
            failures += 1
        circuit_gens = [
            conjugate_pauli(enc, PauliString.single(n, code.bit_index(i), "Z"))
            for i in range(code.n_b)
        ] + [
            conjugate_pauli(enc, PauliString.single(n, code.phase_index(i), "X"))
            for i in range(code.n_p)
        ]
        if circuit_gens != stabilizers(code):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    _report(4, ok, f"decode*encode identity and formula==circuit on 104 codes, {failures} failures, {elapsed:.1f}s")


def test_criterion_5_symplectic_commutation():
    failures = 0
    for code in _criterion_codes():
        g_z, g_x = symplectic_matrix(code)
        # the symplectic products <Z_i, X_j> must all vanish; over GF(2) the
        # two cross terms are transposes, so both are checked explicitly
        if not multiply(g_z, g_x.transpose()).is_zero():
            failures += 1
        if not multiply(g_x, g_z.transpose()).is_zero():
            failures += 1
    ok = failures == 0
    _report(5, ok, f"symplectic commutation holds on all 104 codes, {failures} failures")


def test_criterion_6_css_round_trip():
    start = time.perf_counter()
    g_z = g_x = HAMMING_743
    result = css_to_cpc(g_z, g_x)
    code = result.code  # a valid code: the code types refuse malformed matrices
    new_gz, new_gx = symplectic_matrix(code)
    inverse = np.argsort(np.array(result.permutation))

    def stack(a, b):
        top = np.hstack([a.data, np.zeros_like(a.data)])
        bot = np.hstack([np.zeros_like(b.data), b.data])
        return Gf2Matrix(np.vstack([top, bot]))

    group_equal = row_space_equal(
        stack(Gf2Matrix(new_gz.data[:, inverse]), Gf2Matrix(new_gx.data[:, inverse])),
        stack(g_z, g_x),
    )
    distance = code_distance(code, w_max=3)
    elapsed = time.perf_counter() - start
    ok = group_equal and distance == 3 and elapsed < 5.0
    _report(6, ok, f"Steane conversion: group preserved={group_equal}, distance={distance}, {elapsed:.2f}s")


def test_criterion_7_coherent_fidelity():
    start = time.perf_counter()
    eps = 0.01
    res = coherent_fidelity_631(eps)
    ratio = (1.0 - res.fidelity) / eps**4
    p000_target = 1 - 6 * eps**2 + 17 * eps**4
    p111_target = 3 * eps**4
    checks = (
        abs(ratio - 15.0) / 15.0 <= 0.02,
        abs(res.syndrome_probs["000"] - p000_target) / p000_target <= 0.02,
        abs(res.syndrome_probs["111"] - p111_target) / p111_target <= 0.02,
    )
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 1.0
    _report(7, ok, f"(1-F)/eps^4={ratio:.4f}, p000 and p111 match series, {elapsed:.3f}s")


def test_criterion_8_monte_carlo_protection():
    start = time.perf_counter()
    model = ErrorModel(eps_bit=0.007, eps_phase=0.0007)
    rates = (10.0, 50.0, 100.0)
    half_lives = []
    for r in rates:
        cfg = SimConfig(
            cycle_rate=r,
            t_max=600.0 * r,
            trials=2000,
            haar_states=10,
            rng_seed=2718,
            samples=30,
            metrics=("Frand",),
        )
        res = simulate(fixture_code("11-3-3"), model, cfg)
        fit = fit_half_life(res.times, res.means["Frand"])
        half_lives.append(fit.lambda_half)
    lam = dict(zip(rates, half_lives))
    unprotected = math.log(2.0) / model.eps_bit  # ~99 s
    protection = lam[100.0] / unprotected

    slope, intercept = np.polyfit(rates, half_lives, 1)
    predicted = slope * np.array(rates) + intercept
    ss_res = float(np.sum((np.array(half_lives) - predicted) ** 2))
    ss_tot = float(np.sum((np.array(half_lives) - np.mean(half_lives)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot

    cfg631 = SimConfig(
        cycle_rate=100.0,
        t_max=2000.0,
        trials=400,
        haar_states=5,
        rng_seed=31415,
        samples=20,
        metrics=("Fplus",),
    )
    res631 = simulate(fixture_code("6-3-1"), ErrorModel(eps_bit=0.007, eps_phase=0.0), cfg631)
    fplus, fplus_err = res631.means["Fplus"], res631.errors["Fplus"]
    fplus_ok = bool(np.all(np.abs(fplus - 1.0) <= 3 * fplus_err + 1e-12))

    elapsed = time.perf_counter() - start
    ok = (
        lam[100.0] >= 10 * unprotected
        and r_squared >= 0.9
        and fplus_ok
        and elapsed <= 600.0
    )
    _report(
        8,
        ok,
        "half-lives " + ", ".join(f"r={r:g}: {l:.0f}s" for r, l in lam.items())
        + f"; protection x{protection:.0f} (>=10 needed), R^2={r_squared:.4f}, "
        f"bit-flip-free Fplus==1: {fplus_ok}, {elapsed:.0f}s",
    )


def test_criterion_9_encoded_gates():
    start = time.perf_counter()
    failures = 0
    codes = [fixture_code(name) for name in ("11-3-3", "12-4-3", "6-3-1", "13-3-3")]
    codes += seeded_random_codes(50, seed=5050, k_max=4, n_max=5)
    for code in codes:
        enc = encode_circuit(code)
        n = enc.qubit_count
        if not circuits_equal(
            logical_hadamard_circuit(code, 0), enc + Circuit(n, (hadamard(0),))
        ):
            failures += 1
        if code.k >= 2 and not circuits_equal(
            logical_cnot_circuit(code, 0, 1), enc + Circuit(n, (cnot(0, 1),))
        ):
            failures += 1
    search_found = (
        cnot_compatible(fixture_code("11-3-3-cnot"), 0, 1).ok
        and cnot_compatible(fixture_code("12-4-3-cnot"), 0, 1).ok
    )
    aug = augment_for_cnot(fixture_code("11-3-3"), 0, 1)
    augment_ok = aug == fixture_code("13-3-3") and cnot_compatible(aug, 0, 1).ok
    elapsed = time.perf_counter() - start
    ok = failures == 0 and search_found and augment_ok and elapsed < 30.0
    _report(
        9,
        ok,
        f"gate rewrites equivalent on 54 codes ({failures} failures), "
        f"search-found codes CNOT-ready={search_found}, augmentation exact={augment_ok}, {elapsed:.1f}s",
    )


def test_criterion_10_decoder_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    total = 0
    for cc in effective_codes(fixture_code("11-3-3")):
        n_checks = len(cc.checks)
        bit_priors = [0.05] * cc.bit_count
        check_priors = [0.05] * n_checks
        for bits in itertools.product((0, 1), repeat=n_checks):
            problem = ising_problem(cc, bit_priors, check_priors, bits)
            ground = ising_ground_state(problem)
            ml = ml_decode_exhaustive(cc, bits, bit_priors, check_priors)
            total += 1
            if ground != ml.bit_errors:
                mismatches += 1
            elif infer_check_errors(cc, bits, ground) != ml.check_errors:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    _report(10, ok, f"Ising ground state == ML on {total} syndromes, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_11_search_regression():
    first = search((3, 4, 4), single_error_correcting_predicate(), 100_000, seed=0, threads=1)
    second = search((3, 4, 4), single_error_correcting_predicate(), 100_000, seed=0, threads=4)
    found = first.successes
    identical = first == second
    for trial, code in first.found:
        assert is_single_error_correcting(code).ok
    ok = found >= 1 and identical
    _report(
        11,
        ok,
        f"budget 10^5, seed 0: {found} code(s) found at trials "
        f"{[t for t, _ in first.found]}, identical across thread counts: {identical}",
    )
