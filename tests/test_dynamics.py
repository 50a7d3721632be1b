from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import fixture_code, run_python
from cpc import dynamics
from cpc.decoding import decode_table, single_error_records
from cpc.dynamics import (
    ErrorModel,
    SimConfig,
    coherent_fidelity_631,
    fit_half_life,
    simulate,
)
from cpc.faults import fault_table


def _trial_rng(seed: int, trial: int, stream: int) -> np.random.Generator:
    """A new generator on the stream of (trial, stream): the reference that
    ``simulate``'s reset generators are tested against."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial, stream))
    return np.random.Generator(np.random.Philox(ss))


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random pure state: normalized i.i.d. complex Gaussians, real
    then imaginary: the reference that ``simulate``'s Haar blocks are tested
    against."""
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def test_error_model_validation():
    with pytest.raises(ValueError):
        ErrorModel(eps_bit=-1.0, eps_phase=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ErrorModel(eps_bit=bad, eps_phase=0.0)
        with pytest.raises(ValueError, match="finite"):
            ErrorModel(eps_bit=0.0, eps_phase=bad)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(cycle_rate=0.0, t_max=1.0, trials=1)
    with pytest.raises(ValueError):
        SimConfig(cycle_rate=1.0, t_max=1.0, trials=0)
    with pytest.raises(ValueError):
        SimConfig(cycle_rate=1.0, t_max=1.0, trials=1, metrics=("F9",))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(cycle_rate=bad, t_max=1.0, trials=1)
        with pytest.raises(ValueError, match="finite"):
            SimConfig(cycle_rate=1.0, t_max=bad, trials=1)
    for t_max in (0.0, -5.0):
        with pytest.raises(ValueError, match="t_max"):
            SimConfig(cycle_rate=1.0, t_max=t_max, trials=1)
    with pytest.raises(ValueError, match="samples"):
        SimConfig(cycle_rate=1.0, t_max=1.0, trials=1, samples=0)
    with pytest.raises(ValueError, match="haar_states"):
        SimConfig(cycle_rate=1.0, t_max=1.0, trials=1, haar_states=0)
    # Haar states are only drawn for Frand
    SimConfig(cycle_rate=1.0, t_max=1.0, trials=1, haar_states=0, metrics=("F0", "Fplus"))


def test_zero_rates_give_unit_fidelity():
    cfg = SimConfig(cycle_rate=10.0, t_max=5.0, trials=5, haar_states=4, rng_seed=1, samples=5)
    res = simulate(fixture_code("11-3-3"), ErrorModel(0.0, 0.0), cfg)
    for metric in ("F0", "Fplus"):
        assert np.all(res.means[metric] == 1.0)
        assert np.all(res.errors[metric] == 0.0)
    assert np.allclose(res.means["Frand"], 1.0, atol=1e-12)
    assert np.all(res.errors["Frand"] < 1e-12)


def test_fidelities_stay_in_unit_interval():
    cfg = SimConfig(cycle_rate=5.0, t_max=10.0, trials=20, haar_states=5, rng_seed=5, samples=8)
    res = simulate(fixture_code("11-3-3"), ErrorModel(0.5, 0.2), cfg)
    for metric in ("F0", "Fplus", "Frand"):
        mean = res.means[metric]
        assert np.all(mean >= 0.0) and np.all(mean <= 1.0)


def test_631_fplus_immune_to_bit_flips():
    cfg = SimConfig(cycle_rate=100.0, t_max=400.0, trials=150, haar_states=4, rng_seed=9, samples=8)
    res = simulate(fixture_code("6-3-1"), ErrorModel(0.007, 0.0), cfg)
    assert np.all(res.means["Fplus"] == 1.0)
    assert np.all(res.errors["Fplus"] == 0.0)


def test_reproducibility_same_seed():
    cfg = SimConfig(cycle_rate=20.0, t_max=20.0, trials=30, haar_states=4, rng_seed=17, samples=6)
    a = simulate(fixture_code("11-3-3"), ErrorModel(0.1, 0.05), cfg)
    b = simulate(fixture_code("11-3-3"), ErrorModel(0.1, 0.05), cfg)
    for metric in ("F0", "Fplus", "Frand"):
        assert np.array_equal(a.means[metric], b.means[metric])
        assert np.array_equal(a.errors[metric], b.errors[metric])
    assert a.uncorrectable_cycles == b.uncorrectable_cycles


def test_different_seed_changes_results():
    cfg1 = SimConfig(cycle_rate=20.0, t_max=50.0, trials=30, haar_states=4, rng_seed=17, samples=6)
    cfg2 = SimConfig(cycle_rate=20.0, t_max=50.0, trials=30, haar_states=4, rng_seed=18, samples=6)
    a = simulate(fixture_code("11-3-3"), ErrorModel(0.3, 0.1), cfg1)
    b = simulate(fixture_code("11-3-3"), ErrorModel(0.3, 0.1), cfg2)
    assert not np.array_equal(a.means["Frand"], b.means["Frand"])


_AGREEMENT_CASES = [
    # error-heavy settings exercise multi-error cycles
    ("6-3-1", (2.0, 0.8), SimConfig(10.0, 3.0, 10, haar_states=3, rng_seed=7, samples=6)),
    # X-basis checks: conjugate-basis readout and reset
    ("11-3-3", (1.5, 1.0), SimConfig(10.0, 2.0, 6, haar_states=2, rng_seed=41, samples=4)),
    ("10-3-3", (1.0, 0.5), SimConfig(10.0, 2.0, 6, haar_states=2, rng_seed=23, samples=4)),
] + [
    (name, (1.0, 0.5), SimConfig(10.0, 1.5, 3, haar_states=2, rng_seed=11, samples=4))
    for name in ("11-3-3-cnot", "12-4-3", "12-4-3-cnot", "13-3-3")
] + [
    # 70 trials: both backends cross a 64-trial block boundary, and the flawed
    # code's uncorrectable cycles are counted in both blocks
    ("11-3-1", (1.0, 1.0), SimConfig(10.0, 1.0, 70, haar_states=2, rng_seed=3, samples=4)),
]


@pytest.mark.parametrize(
    "name, eps, cfg", _AGREEMENT_CASES, ids=[case[0] for case in _AGREEMENT_CASES]
)
def test_backends_agree(name, eps, cfg):
    # the Pauli-frame fast path and the full statevector evolution are the
    # same physics, on every fixture (11-3-1 is also checked on its own below)
    code = fixture_code(name)
    frame = simulate(code, ErrorModel(*eps), cfg, backend="pauli_frame")
    vector = simulate(code, ErrorModel(*eps), cfg, backend="statevector")
    for metric in ("F0", "Fplus", "Frand"):
        assert np.allclose(frame.means[metric], vector.means[metric], atol=1e-10)
    assert frame.uncorrectable_cycles == vector.uncorrectable_cycles


@pytest.mark.parametrize(
    "name, check", [("6-3-1", 0), ("11-3-3", 4), ("10-3-3", 5)], ids=["6-3-1", "11-3-3", "10-3-3"]
)
def test_statevector_backend_refuses_a_check_off_its_eigenstates(monkeypatch, name, check):
    # an H after decoding leaves the check off the eigenstates of its measured
    # Pauli (Z on 6-3-1's check 0 and generalized 10-3-3's check 5, X on 11-3-3's
    # phase check 4): its weight spreads over two syndrome blocks
    from cpc.circuits import Circuit, decode_circuit, hadamard

    def broken_decode(code):
        circuit = decode_circuit(code)
        return circuit + Circuit(circuit.qubit_count, (hadamard(code.k + check),))

    monkeypatch.setattr(dynamics, "decode_circuit", broken_decode)
    cfg = SimConfig(10.0, 2.0, 2, haar_states=1, rng_seed=1, samples=2)
    with pytest.raises(RuntimeError, match=f"check {check} is not in an eigenstate"):
        simulate(fixture_code(name), ErrorModel(2.0, 0.0), cfg, backend="statevector")


@pytest.mark.parametrize("metrics", [("F0", "Fplus", "Frand"), ("Frand",), ("Fplus",)])
def test_backends_count_the_same_uncorrectable_cycles_on_a_flawed_code(metrics):
    # each backend counts its own unexplained syndromes: the statevector
    # oracle reads them off its measured check outcomes
    code = fixture_code("11-3-1")
    model = ErrorModel(eps_bit=1.0, eps_phase=1.0)
    cfg = SimConfig(10.0, 3.0, 4, haar_states=2, rng_seed=5, samples=3, metrics=metrics)
    frame = simulate(code, model, cfg, backend="pauli_frame")
    vector = simulate(code, model, cfg, backend="statevector")
    assert frame.uncorrectable_cycles > 0
    assert vector.uncorrectable_cycles == frame.uncorrectable_cycles
    for metric in metrics:
        assert np.allclose(frame.means[metric], vector.means[metric], atol=1e-10)


def test_sim_config_refuses_empty_metrics():
    with pytest.raises(ValueError, match="at least one of F0, Fplus, Frand"):
        SimConfig(cycle_rate=1.0, t_max=1.0, trials=1, metrics=())


def test_simulate_refuses_an_unknown_backend():
    cfg = SimConfig(cycle_rate=1.0, t_max=1.0, trials=1)
    with pytest.raises(ValueError, match="^unknown backend 'bogus'$"):
        simulate(fixture_code("6-3-1"), ErrorModel(0.0, 0.0), cfg, backend="bogus")


def test_statevector_qubit_limit():
    cfg = SimConfig(cycle_rate=1.0, t_max=1.0, trials=1)
    big = fixture_code("13-3-3")  # 13 qubits: fine
    simulate(big, ErrorModel(0.0, 0.0), cfg, backend="statevector")
    from cpc.decoding import augment_for_cnot

    bigger = augment_for_cnot(big, 0, 2)  # 15 qubits: over the limit
    with pytest.raises(ValueError):
        simulate(bigger, ErrorModel(0.0, 0.0), cfg, backend="statevector")


def test_statevector_stack_memory_bound(monkeypatch, capsys, fixture_dir):
    # 2 + 600 probes of 2**13 amplitudes is over 2**22: refused before any work
    def no_work(*args, **kwargs):
        raise AssertionError("the simulation started")

    # the first work of a simulation is its code's (cached) fault table
    monkeypatch.setattr(dynamics, "fault_table", no_work)
    code = fixture_code("13-3-3")
    cfg = SimConfig(cycle_rate=1.0, t_max=1.0, trials=1, haar_states=600)
    with pytest.raises(ValueError, match="lower haar_states"):
        simulate(code, ErrorModel(0.0, 0.0), cfg, backend="statevector")
    # 2 + 510 probes is exactly 2**22 amplitudes, and without Frand there are 2
    for cfg in (replace(cfg, haar_states=510), replace(cfg, metrics=("F0", "Fplus"))):
        with pytest.raises(AssertionError, match="the simulation started"):
            simulate(code, ErrorModel(0.0, 0.0), cfg, backend="statevector")
    from cpc.cli import main

    argv = ["simulate", str(fixture_dir / "13-3-3.cpc"), "--eps-bit", "0.1", "--rate", "1",
            "--t-max", "1", "--trials", "1", "--haar-states", "600", "--backend", "statevector"]
    assert main(argv) == 2
    assert "haar_states" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["pauli_frame", "statevector"])
@pytest.mark.parametrize("n_checks", [0, 1])
def test_simulate_refuses_a_code_with_no_data_qubit(backend, n_checks):
    # no data qubit, no fidelity: neither a fault table with no rows nor a
    # check qubit read as data qubit 0
    from cpc.gf2 import Gf2Matrix
    from cpc.model import CpcCode

    code = CpcCode(
        mb=Gf2Matrix.zeros(0, n_checks),
        mp=Gf2Matrix.zeros(0, n_checks),
        mc=Gf2Matrix(np.ones((n_checks, n_checks), dtype=np.uint8)),
    )
    cfg = SimConfig(cycle_rate=10.0, t_max=2.0, trials=2, haar_states=1, samples=2)
    with pytest.raises(ValueError, match="at least one data qubit"):
        simulate(code, ErrorModel(1.0, 1.0), cfg, backend=backend)


def test_pauli_frame_qubit_limit():
    from cpc.gf2 import Gf2Matrix
    from cpc.model import CpcCode

    k = 61  # 63 qubits: the int64 frame masks would overflow
    code = CpcCode(
        mb=Gf2Matrix([[1]] * k),
        mp=Gf2Matrix([[1]] * k),
        mc=Gf2Matrix([[0]]),
    )
    cfg = SimConfig(cycle_rate=1.0, t_max=1.0, trials=1, metrics=("F0",))
    with pytest.raises(ValueError, match="at most 62 qubits"):
        simulate(code, ErrorModel(0.1, 0.1), cfg)


def test_split_code_with_21_bit_checks_decodes_and_simulates():
    from cpc.gf2 import Gf2Matrix
    from cpc.model import CpcCode

    # [[11,3,3]] plus 17 bit checks that touch nothing: 21 bit checks in all
    base = fixture_code("11-3-3")
    code = CpcCode(
        mb=Gf2Matrix(np.hstack([base.mb.data, np.zeros((base.k, 17), dtype=np.uint8)])),
        mp=base.mp,
        mc=Gf2Matrix(np.vstack([base.mc.data, np.zeros((17, base.n_p), dtype=np.uint8)])),
    )
    assert code.n_b == 21
    table = decode_table(code)
    for rec in table.records:
        (cx, cz), _ = table.classify(rec.sx, rec.sz)
        assert (cx, cz) == (rec.rx, rec.rz), rec.label
    cfg = SimConfig(cycle_rate=10.0, t_max=20.0, trials=4, haar_states=2, samples=4)
    res = simulate(code, ErrorModel(0.05, 0.05), cfg)
    assert res.trials == 4 and res.uncorrectable_cycles > 0
    for metric in cfg.metrics:
        assert res.means[metric].shape == (5,) and np.isfinite(res.means[metric]).all()


@pytest.mark.parametrize("metrics", [("F0",), ("Fplus",), ("Frand", "F0"), ("Fplus", "Frand")])
def test_csv_holds_the_requested_metrics(metrics):
    base = dict(cycle_rate=10.0, t_max=100.0, trials=8, haar_states=2, rng_seed=4, samples=6)
    model = ErrorModel(0.05, 0.02)
    code = fixture_code("11-3-3")
    full = simulate(code, model, SimConfig(**base)).to_csv().splitlines()
    part = simulate(code, model, SimConfig(**base, metrics=metrics)).to_csv().splitlines()
    header = full[0].split(",")
    keep = [0] + [
        i for i, name in enumerate(header) if name.removesuffix("_err") in metrics
    ]
    assert part == [",".join(line.split(",")[i] for i in keep) for line in full]
    assert len(part[0].split(",")) == 1 + 2 * len(metrics)


def test_uncorrectable_cycles_logged_for_flawed_code():
    # the flawed code keeps running; ambiguous syndromes are only counted
    cfg = SimConfig(cycle_rate=10.0, t_max=50.0, trials=20, haar_states=2, rng_seed=3, samples=5)
    res = simulate(fixture_code("11-3-1"), ErrorModel(0.5, 0.5), cfg)
    assert res.uncorrectable_cycles > 0


def test_fit_recovers_exact_exponential():
    times = np.linspace(0.0, 200.0, 40)
    lam = 50.0
    values = 0.25 + 0.75 * np.exp(-math.log(2.0) * times / lam)
    fit = fit_half_life(times, values)
    assert fit.lambda_half == pytest.approx(lam, rel=1e-6)
    assert fit.f_inf == pytest.approx(0.25, abs=1e-6)
    assert not fit.degenerate


def test_fit_unprotected_decay_rate():
    # survival probability exp(-eps t) has half-life ln2/eps ~ 99 s
    eps = 0.007
    times = np.linspace(0.0, 400.0, 60)
    values = np.exp(-eps * times)
    fit = fit_half_life(times, values)
    assert fit.lambda_half == pytest.approx(math.log(2.0) / eps, rel=0.01)
    assert fit.f_inf < 0.01


def test_fit_flags_constant_series():
    fit = fit_half_life(np.arange(10.0), np.ones(10))
    assert fit.degenerate and math.isinf(fit.lambda_half)


def test_fit_needs_four_points():
    with pytest.raises(ValueError):
        fit_half_life([0.0, 1.0, 2.0], [1.0, 0.9, 0.8])


def test_fit_refuses_mismatched_lengths():
    with pytest.raises(ValueError, match=r"^times and values differ in shape: \(5,\) vs \(4,\)$"):
        fit_half_life([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 0.9, 0.8, 0.7])


@pytest.mark.parametrize(
    "times, values",
    [
        ([0.0, 1.0, 2.0, 3.0], [1.0, 0.9, math.nan, 0.7]),
        ([0.0, 1.0, 2.0, math.inf], [1.0, 0.9, 0.8, 0.7]),
        ([0.0, math.nan, 2.0, 3.0], [1.0, 0.9, 0.8, 0.7]),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, -math.inf]),
    ],
)
def test_fit_refuses_non_finite_input(times, values):
    with pytest.raises(ValueError, match="^times and values must be finite$"):
        fit_half_life(times, values)


@pytest.mark.parametrize(
    "times, values, message",
    [
        (np.zeros((2, 2)), np.ones((2, 2)), r"times and values must be 1-D, got shape \(2, 2\)"),
        ([-1.0, 0.0, 1.0, 2.0], [1.0, 0.9, 0.8, 0.7], "times must be non-negative, got -1"),
        ([0.0, 0.0, 0.0, 0.0], [1.0, 0.9, 0.8, 0.7], "need at least 2 distinct times"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 0.8, 0.6, 5.0], r"values must lie in \[0, 1\], got 0.6..5"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 0.8, 0.6, -1e-8], r"values must lie in \[0, 1\]"),
    ],
    ids=["2-D", "negative time", "one distinct time", "value above 1", "value below 0"],
)
def test_fit_refuses_out_of_domain_input(times, values, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        fit_half_life(times, values)


def test_fit_admits_values_within_rounding_of_the_unit_interval():
    times = np.linspace(0.0, 200.0, 40)
    values = 0.25 + 0.75 * np.exp(-math.log(2.0) * times / 50.0)
    values[0] = 1.0 + 1e-12
    assert fit_half_life(times, values).lambda_half == pytest.approx(50.0, rel=1e-4)


def _least_squares_fit(times, values) -> tuple[float, float, float]:
    """The oracle: the fit as ``scipy.optimize.least_squares`` computes it,
    called with fit_half_life's start point, bounds and evaluation cap."""
    from scipy.optimize import least_squares

    def model(t, lam, f_inf):
        return f_inf + (1.0 - f_inf) * np.exp(-math.log(2.0) * t / lam)

    f0 = float(np.clip(values.min(), 0.0, 1.0))
    below = np.nonzero(values < (1.0 + f0) / 2.0)[0]
    lam0 = float(times[below[0]]) if below.size and times[below[0]] > 0 else float(times[-1])
    res = least_squares(
        lambda params: model(times, *params) - values,
        [max(lam0, 1e-6), f0],
        bounds=([1e-9, 0.0], [np.inf, 1.0]),
        max_nfev=20000,
    )
    assert res.success, res.message
    lam, f_inf = float(res.x[0]), float(res.x[1])
    return lam, f_inf, float(np.sqrt(np.mean((model(times, lam, f_inf) - values) ** 2)))


def _oracle_curves():
    """Seeded series of 4, 5, 12 and 31 points: exact and noisy exponentials
    with F_inf at 0, inside (0, 1) and at 1, and series whose fit ends on or
    starts next to a bound."""
    rng = np.random.default_rng(20)
    for i in range(320):
        kind, m = i % 8, (4, 5, 12, 31)[i // 8 % 4]
        times = np.sort(rng.uniform(0.0, 400.0, m))
        times[0] = 0.0 if i % 3 else times[0]
        decay = 2.0 ** (-times / 10 ** rng.uniform(0.5, 3.0))
        noise = rng.normal(size=m)
        if kind == 0:  # exact, F_inf = 0
            values = decay
        elif kind == 1:  # exact, F_inf inside (0, 1)
            f_inf = rng.uniform(0.0, 1.0)
            values = f_inf + (1 - f_inf) * decay
        elif kind == 2:  # noisy, F_inf inside (0, 1)
            f_inf = rng.uniform(0.0, 1.0)
            values = f_inf + (1 - f_inf) * decay + 0.02 * noise
        elif kind == 3:  # noisy about F_inf = 0, clipped there
            values = decay + 0.1 * noise
        elif kind == 4:  # noisy about F_inf = 1
            values = 1.0 - 0.03 * np.abs(noise)
        elif kind == 5:  # overshoots F_inf = 0: the fit ends on that bound
            a = rng.uniform(0.05, 0.3)
            values = (1 + a) * decay - a
        elif kind == 6:  # within 1e-10 of 1: the fit starts next to that bound
            values = 1.0 - 10 ** rng.uniform(-12.0, -10.0, m)
        else:  # a step down, then flat up to noise
            values = np.full(m, rng.uniform(0.1, 0.9)) + 1e-3 * noise
            values[0] = 1.0
        yield times, np.clip(values, 0.0, 1.0)


def _oracle_simulate_curves():
    errors = ErrorModel(eps_bit=0.05, eps_phase=0.01)
    for name in ("11-3-3", "10-3-3"):
        for seed in range(4):
            cfg = SimConfig(
                cycle_rate=10.0, t_max=200.0, trials=8, haar_states=3, rng_seed=seed, samples=12
            )
            res = simulate(fixture_code(name), errors, cfg)
            for metric in ("F0", "Frand"):
                yield res.times, res.means[metric]


def test_fit_is_bitwise_least_squares():
    fits, differ = [], []
    for times, values in [*_oracle_curves(), *_oracle_simulate_curves()]:
        if np.ptp(values) < 1e-12:  # degenerate: no fit is made
            continue
        fit = fit_half_life(times, values)
        got = (fit.lambda_half, fit.f_inf, fit.residual_rms)
        if got != _least_squares_fit(times, values):
            differ.append((times, values))
        fits.append(got)
    assert len(fits) >= 300
    assert differ == []
    f_inf = np.array([fit[1] for fit in fits])
    # fits that end on the bound F_inf = 0, and that start and stay next to 1
    assert np.sum(f_inf < 1e-12) >= 10 and np.sum(f_inf > 1 - 1e-9) >= 10


_GESDD_ORACLE = """
import sys
import numpy as np
if sys.argv[1] == "scipy.linalg":
    import scipy.linalg
from cpc import dynamics
got = dynamics._gesdd()
names = ("scipy.linalg._flapack_64", "scipy.linalg._flapack")
name = next(n for n in names if n in sys.modules)
module = sys.modules[name]
from scipy.linalg import lapack
want = lapack.get_lapack_funcs(("gesdd", "gesdd_lwork"), (np.empty(2),), ilp64="preferred")
assert len(got) == 2 and all(g is w for g, w in zip(got, want)), (got, want)
assert getattr(lapack, name.rsplit(".", 1)[1]) is module, name
"""


@pytest.mark.parametrize("first", ["cpc", "scipy.linalg"])
def test_fit_svd_is_scipys_own_gesdd(first):
    # the fit loads scipy's LAPACK module by itself and registers it; whichever
    # of cpc and scipy.linalg loads it first, both hold the one module object
    # and call the very same gesdd
    proc = run_python("-c", _GESDD_ORACLE, first)
    assert proc.returncode == 0, proc.stderr


def test_fit_without_scipys_lapack_module_is_an_import_error(monkeypatch, tmp_path):
    import scipy

    for name in ("scipy.linalg._flapack_64", "scipy.linalg._flapack"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack"):
        dynamics._gesdd.__wrapped__()


def test_apply_pauli_masks_on_a_stack_matches_row_by_row():
    rng = np.random.Generator(np.random.Philox(8))
    states = np.array([haar_state(16, rng) for _ in range(5)])
    for x_mask, z_mask in ((0, 0), (0b1010, 0), (0, 0b0110), (0b1011, 0b1101)):
        stacked = dynamics.apply_pauli_masks(states, x_mask, z_mask)
        rows = [dynamics.apply_pauli_masks(s, x_mask, z_mask) for s in states]
        assert np.array_equal(stacked, np.array(rows))
    # a mask per row: each state gets its own Pauli, as the scalar call gives it
    x_masks, z_masks = rng.integers(0, 16, size=(2, 5))
    stacked = dynamics.apply_pauli_masks(states, x_masks, z_masks)
    rows = [
        dynamics.apply_pauli_masks(s, int(x), int(z)) for s, x, z in zip(states, x_masks, z_masks)
    ]
    assert np.array_equal(stacked, np.array(rows))
    # (runs, 1) masks over a (runs, states, 2**n) stack, as the Frand pass applies each
    # run's frame to all of its trial's Haar states
    runs = np.array([[haar_state(16, rng) for _ in range(3)] for _ in range(4)])
    x_masks, z_masks = rng.integers(0, 16, size=(2, 4, 1))
    stacked = dynamics.apply_pauli_masks(runs, x_masks, z_masks)
    for run, states_of_run, x, z in zip(stacked, runs, x_masks[:, 0], z_masks[:, 0]):
        rows = [dynamics.apply_pauli_masks(s, int(x), int(z)) for s in states_of_run]
        assert np.array_equal(run, np.array(rows))


def test_apply_circuit_on_a_stack_matches_row_by_row():
    # the statevector oracle evolves all its probes as one stack
    from cpc.circuits import Circuit, Gate, cczx, cnot, hadamard

    rng = np.random.Generator(np.random.Philox(9))
    states = np.array([haar_state(16, rng) for _ in range(5)])
    gates = (
        hadamard(2), cnot(0, 3), cnot(3, 1), Gate("CZ", (1, 2)), cczx(0, 2), hadamard(0), cczx(3, 1)
    )
    circuit = Circuit(4, gates)
    rows = [dynamics.apply_circuit(s, circuit) for s in states]
    assert np.array_equal(dynamics.apply_circuit(states, circuit), np.array(rows))


def test_cnot_keeps_a_stack_c_ordered():
    # a fancy-index gather along the last axis returns the stack Fortran-ordered,
    # and every later gate, norm and readout of the oracle would walk strided memory
    from cpc.circuits import cnot

    rng = np.random.Generator(np.random.Philox(10))
    states = np.array([haar_state(16, rng) for _ in range(6)])
    for a, b in ((0, 3), (3, 1), (2, 0)):
        assert dynamics.apply_gate(states, cnot(a, b)).flags.c_contiguous


def test_haar_states_unit_norm_and_purity():
    rng = np.random.Generator(np.random.Philox(21))
    dim = 8
    purities = []
    for _ in range(1000):
        psi = haar_state(dim, rng)
        assert np.abs(np.linalg.norm(psi) - 1.0) < 1e-12
        rho = psi.reshape(4, 2)  # qubit 0 is the fast (little-endian) index
        red = np.einsum("ai,aj->ij", rho.conj(), rho)  # reduced state of qubit 0
        purities.append(float(np.real(np.trace(red @ red))))
    mean = np.mean(purities)
    sem = np.std(purities, ddof=1) / math.sqrt(len(purities))
    # Haar expectation for a 2 x 4 split: (2 + 4) / (2*4 + 1)
    assert abs(mean - 6.0 / 9.0) < 3 * sem + 1e-3


def test_haar_block_is_bitwise_the_repeated_haar_state():
    # simulate draws each trial's Haar states in one normal() call on the trial's
    # own stream and normalises them with _haar_states, a block's stacked draws
    # at once on either backend.  Each trial's states must equal count
    # successive haar_state calls, the two-draw formula the pinned curves assume.
    for dim in (2, 4, 8, 16, 32, 64):
        for count in (1, 3, 10, 20):
            for seed in (0, 7, 101):
                parts = _trial_rng(seed, 0, 1).normal(size=(count, 2, dim))
                rng = _trial_rng(seed, 0, 1)
                want = np.array([haar_state(dim, rng) for _ in range(count)])
                assert np.array_equal(dynamics._haar_states(parts), want)
    for trials in (1, 8, 64):
        for dim, count, seed in ((2, 20, 0), (8, 3, 7), (64, 1, 101), (16, 10, 2**40 + 3)):
            parts = [_trial_rng(seed, t, 1).normal(size=(count, 2, dim)) for t in range(trials)]
            block = dynamics._haar_states(np.stack(parts))
            for t in range(trials):
                rng = _trial_rng(seed, t, 1)
                want = np.array([haar_state(dim, rng) for _ in range(count)])
                assert np.array_equal(block[t], want), (trials, dim, count, seed, t)


def test_size_answers_only_np_prod():
    # _Size's __array_function__ answers np.prod with itself and refuses every
    # other numpy function rather than return a wrong value
    for n in (1, 42, 2**32 + 1):
        assert np.prod(dynamics._Size(n)) == n
    with pytest.raises(TypeError):
        np.sum(dynamics._Size(3))


@pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2,
    reason="the np.prod(size) call in Generator.integers is numpy 2's",
)
def test_integers_reaches_the_size_hook_once():
    seen = []

    class Counted(dynamics._Size):
        def __array_function__(self, func, types, args, kwargs):
            seen.append(func)
            return super().__array_function__(func, types, args, kwargs)

    rng = np.random.Generator(np.random.Philox(0))
    assert rng.integers(0, 1000, size=Counted(5)).shape == (5,)
    assert len(seen) == 1 and seen[0] is np.prod


def test_sized_draw_is_the_plain_int_draw():
    # _sample_error_events sizes its integers draws with _Size, whose np.prod
    # numpy's C dispatcher answers through __array_function__ instead of
    # building an array: the values and the generator state after them must be
    # a plain int size's, with and without a buffered 32-bit half before them.
    # At 2**31 + 1 Lemire's method rejects about half the words; 2**32 + 1 takes
    # the 64-bit path.  420 and 4,096 are sweep-sized draws (an r=100 X fault
    # draws about 420 cycles).
    for n in (1, 60_000, 2**31 + 1, 2**32, 2**32 + 1):
        for buffered in (0, 1):
            plain, sized = (np.random.Generator(np.random.Philox(n)) for _ in range(2))
            for size in (*range(1, 65), 420, 4096):
                if plain.bit_generator.state["has_uint32"] != buffered:
                    for rng in (plain, sized):
                        rng.integers(0, 7, size=1, dtype=np.uint32)
                assert sized.bit_generator.state["has_uint32"] == buffered
                want = plain.integers(0, n, size=size)
                got = sized.integers(0, n, size=dynamics._Size(size))
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert str(sized.bit_generator.state) == str(plain.bit_generator.state)


def test_int32_draw_is_the_default_draw():
    # Below 2**31 cycles _sample_error_events draws its cycles as int32.  Under
    # a bound below 2**32 numpy's int32 and default int64 draws run the same
    # 32-bit Lemire routine, so they must give the same values and leave the
    # generator in the same state, between binomial draws as the sampler makes
    # them.  A draw of an odd count of 32-bit words leaves a buffered half.
    def state(rng):
        s = rng.bit_generator.state
        return (
            s["state"]["counter"].tolist(), s["state"]["key"].tolist(),
            s["buffer"].tolist(), s["buffer_pos"], s["has_uint32"], s["uinteger"],
        )

    buffered = set()
    for n in (1, 2, 60_000, 6_000_000, 2**31 - 1):
        plain, narrow = (np.random.Generator(np.random.Philox(n)) for _ in range(2))
        for size in (1, 42, 420) * 3:
            for prob in (0.3, 1e-4):
                assert plain.binomial(n, prob) == narrow.binomial(n, prob)
            want = plain.integers(0, n, size=size)
            got = narrow.integers(0, n, size=dynamics._Size(size), dtype=np.int32)
            assert got.dtype == np.int32 and np.array_equal(got, want), (n, size)
            assert state(narrow) == state(plain), (n, size)
            buffered.add(state(plain)[4])
    assert buffered == {0, 1}


def test_reset_generator_draws_the_trial_streams():
    # simulate resets one generator per stream to each trial's key from the
    # search's key kernel; after any earlier draws (a buffered 32-bit half, a
    # cached binomial set-up) it must draw what _trial_rng's fresh one draws.
    from cpc.search import _philox_keys

    probs = np.array([0.0, 0.3, 1e-3, 0.05, 0.9])
    rng = np.random.Generator(np.random.Philox(99))
    for seed in (0, 2**40 + 3, 2**150 + 12345):
        seq = np.random.SeedSequence(seed)
        for trials in (range(0, 3), range(2**32 - 1, 2**32 + 1)):
            for stream in (0, 1):
                for trial, key in zip(trials, _philox_keys(seq, trials, stream).tolist()):
                    rng.integers(0, 7, size=3, dtype=np.uint32)
                    rng.binomial(10, 0.4)
                    fresh = _trial_rng(seed, trial, stream)
                    reset = dynamics._reset(rng, key)
                    state = reset.bit_generator.state
                    assert str(state) == str(fresh.bit_generator.state)
                    want = dynamics._sample_error_events(fresh, probs, 50)
                    got = dynamics._sample_error_events(reset, probs, 50)
                    assert all(np.array_equal(g, w) for g, w in zip(got, want))
                    fresh = _trial_rng(seed, trial, stream)
                    parts = dynamics._reset(rng, key).normal(size=(3, 2, 8))
                    assert np.array_equal(parts, fresh.normal(size=(3, 2, 8)))


def test_interleaved_simulations_keep_their_results():
    # the per-code fault tables are cached: a call on one code between two on
    # another must leave both calls' curves as they were
    model = ErrorModel(eps_bit=2.0, eps_phase=1.0)
    cfg = SimConfig(10.0, 3.0, 5, haar_states=2, rng_seed=13, samples=4)
    fault_table.cache_clear()
    results = []
    for name in ("11-3-3", "10-3-3", "11-3-3", "10-3-3", "11-3-3"):
        res = simulate(fixture_code(name), model, cfg)
        results.append((res.to_csv(), res.uncorrectable_cycles))
    assert results[0] != results[1]
    assert results == results[:2] * 2 + results[:1]


def test_cached_fault_arrays_are_read_only():
    faults = fault_table(fixture_code("10-3-3"))
    arrays = [faults.is_x, faults.decoded, faults.paulis, faults.net]
    arrays += [*faults.table.first, *faults.table.second]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_statevector_norm_preserved():
    from cpc.circuits import encode_circuit
    from cpc.dynamics import apply_circuit, zero_state

    code = fixture_code("11-3-3")
    state = zero_state(code.qubit_count)
    state = apply_circuit(state, encode_circuit(code))
    assert abs(np.linalg.norm(state) - 1.0) < 1e-10


def test_coherent_fidelity_limits():
    res = coherent_fidelity_631(0.0)
    assert res.fidelity == pytest.approx(1.0, abs=1e-12)
    assert res.syndrome_probs["000"] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        coherent_fidelity_631(1.0)


def test_coherent_fidelity_series_values():
    eps = 0.01
    res = coherent_fidelity_631(eps)
    assert (1.0 - res.fidelity) / eps**4 == pytest.approx(15.0, rel=0.02)
    assert res.syndrome_probs["000"] == pytest.approx(1 - 6 * eps**2 + 17 * eps**4, rel=2e-7)
    assert res.syndrome_probs["111"] == pytest.approx(3 * eps**4, rel=0.02)
    assert sum(res.syndrome_probs.values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "data_state, message",
    [
        (np.ones(8), "unit norm, got norm 2.82843"),
        (2.0, r"shape \(8,\), got \(\)"),
        (np.ones(4) / 2, r"shape \(8,\), got \(4,\)"),
    ],
    ids=["unnormalized", "scalar", "too short"],
)
def test_coherent_fidelity_refuses_bad_data_state(data_state, message):
    with pytest.raises(ValueError, match=message):
        coherent_fidelity_631(0.1, data_state)


def test_coherent_fidelity_of_a_haar_state():
    state = haar_state(8, np.random.default_rng(3))
    res = coherent_fidelity_631(0.1, state)
    assert 0.0 < res.fidelity < 1.0
    assert sum(res.syndrome_probs.values()) == pytest.approx(1.0, abs=1e-12)
    assert coherent_fidelity_631(0.1, np.eye(8)[0]) == coherent_fidelity_631(0.1)


def test_coherent_fidelity_quartic_scaling():
    # the loss (1-F) shrinks ~16x when epsilon halves
    f1 = 1.0 - coherent_fidelity_631(0.02).fidelity
    f2 = 1.0 - coherent_fidelity_631(0.01).fidelity
    assert f1 / f2 == pytest.approx(16.0, rel=0.05)


def _curve_sha256(res) -> str:
    h = hashlib.sha256()
    for metric in sorted(res.means):
        h.update(res.means[metric].tobytes())
        h.update(res.errors[metric].tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "code, model, cfg, uncorrectable, digest",
    [
        (
            fixture_code("11-3-3"),
            ErrorModel(0.5, 0.3),
            SimConfig(cycle_rate=10.0, t_max=20.0, trials=12, haar_states=3, rng_seed=101, samples=10),
            81,
            "ecc27ee3fcf27ee302e7a335e3d14edb43431a4bf25288cc9665e59c975545f3",
        ),
        (
            fixture_code("10-3-3"),
            ErrorModel(0.4, 0.2),
            SimConfig(cycle_rate=10.0, t_max=20.0, trials=12, haar_states=3, rng_seed=202, samples=10),
            173,
            "f9513f07e2675612e5f9861984978a01ec8f322d600dcb9eaed85d153b843244",
        ),
    ],
    ids=["11-3-3", "10-3-3"],
)
def test_fixed_seed_output_is_pinned(code, model, cfg, uncorrectable, digest):
    # Exact bytes of the curves: a speed-up must not move a fixed-seed result.
    res = simulate(code, model, cfg)
    assert res.uncorrectable_cycles == uncorrectable
    assert _curve_sha256(res) == digest


# --- scalar reference for the batched Pauli-frame kernel -----------------------
#
# The one-cycle-at-a-time sampler and frame loop the array kernel replaced.
# Corrections come from DecodeTable.decode, not from the dense arrays.


def _scalar_distinct_cycles(rng, n_cycles, count, rounds):
    """First ``count`` distinct draws from Uniform{0..n_cycles-1}."""
    chosen: dict[int, None] = {}
    n_rounds = 0
    while len(chosen) < count:
        n_rounds += 1
        draws = rng.integers(0, n_cycles, size=count - len(chosen))
        for d in draws:
            chosen.setdefault(int(d), None)
    rounds.append(n_rounds)
    return list(chosen)


def _scalar_sample_error_cycles(rng, n_qubits, n_cycles, p_x, p_z, rounds):
    """Cycle -> [x_mask, z_mask] for every cycle with at least one error."""
    events: dict[int, list[int]] = {}
    for q in range(n_qubits):
        for prob, part in ((p_x, 0), (p_z, 1)):
            if prob <= 0.0:
                continue
            count = int(rng.binomial(n_cycles, prob))
            if not count:
                continue
            for c in _scalar_distinct_cycles(rng, n_cycles, count, rounds):
                events.setdefault(c, [0, 0])[part] ^= 1 << q
    return events


def _scalar_cycle_effect(records, x_mask, z_mask):
    """Syndrome and residual masks of one cycle's sampled error pattern."""
    sx = sz = rx = rz = 0
    for kind, mask in (("X", x_mask), ("Z", z_mask)):
        q = 0
        while mask >> q:
            if (mask >> q) & 1:
                rec = records[(q, kind)]
                sx, sz, rx, rz = sx ^ rec.sx, sz ^ rec.sz, rx ^ rec.rx, rz ^ rec.rz
            q += 1
    return sx, sz, rx, rz


def _frame_overlaps(frame_x: int, frame_z: int, states: np.ndarray) -> np.ndarray:
    """|<psi| X^fx Z^fz |psi>|^2 for each row of ``states`` (dim 2^k each)."""
    signed = dynamics.apply_pauli_masks(states, frame_x, frame_z)
    return np.abs(np.einsum("ij,ij->i", states.conj(), signed)) ** 2


def _scalar_frame_trial(table, records, ordered_events, sample_cycles, haar, metrics):
    frame_x = frame_z = 0
    bad = 0
    values = {m: np.zeros(len(sample_cycles)) for m in metrics}
    ev_idx = 0
    for s_idx, limit in enumerate(sample_cycles):
        while ev_idx < len(ordered_events) and ordered_events[ev_idx][0] < limit:
            _, (x_mask, z_mask) = ordered_events[ev_idx]
            ev_idx += 1
            sx, sz, rx, rz = _scalar_cycle_effect(records, x_mask, z_mask)
            (cx, cz), category = table.classify(sx, sz)
            if category == "uncorrectable":
                bad += 1
            frame_x ^= rx ^ int(cx)
            frame_z ^= rz ^ int(cz)
        if "F0" in metrics:
            values["F0"][s_idx] = 0.0 if frame_x & 1 else 1.0
        if "Fplus" in metrics:
            values["Fplus"][s_idx] = 0.0 if frame_z & 1 else 1.0
        if "Frand" in metrics:
            values["Frand"][s_idx] = float(
                np.mean(_frame_overlaps(frame_x, frame_z, haar))
            )
    return values, bad


def _scalar_simulate(code, model, cfg, log):
    """The Pauli-frame simulate loop, one cycle at a time."""
    table = decode_table(code)
    records = {(r.qubit, r.kind): r for r in single_error_records(code)}
    n, k, r = code.qubit_count, code.k, cfg.cycle_rate
    n_cycles = max(1, int(round(cfg.t_max * r)))
    p_x = 1.0 - math.exp(-model.eps_bit / r)
    p_z = 1.0 - math.exp(-model.eps_phase / r)
    times = np.linspace(0.0, cfg.t_max, cfg.samples + 1)
    sample_cycles = np.minimum(np.floor(times * r + 1e-9).astype(int), n_cycles)
    sums = {m: np.zeros(times.size) for m in cfg.metrics}
    sumsq = {m: np.zeros(times.size) for m in cfg.metrics}
    uncorrectable = 0
    for trial in range(cfg.trials):
        rng_events = _trial_rng(cfg.rng_seed, trial, 0)
        rng_haar = _trial_rng(cfg.rng_seed, trial, 1)
        haar = (
            np.array([haar_state(1 << k, rng_haar) for _ in range(cfg.haar_states)])
            if "Frand" in cfg.metrics
            else None
        )
        events = _scalar_sample_error_cycles(
            rng_events, n, n_cycles, p_x, p_z, log["rounds"]
        )
        log["events"].append(events)
        values, bad = _scalar_frame_trial(
            table, records, sorted(events.items()), sample_cycles, haar, cfg.metrics
        )
        uncorrectable += bad
        for m in cfg.metrics:
            sums[m] += values[m]
            sumsq[m] += values[m] ** 2
    means = {m: sums[m] / cfg.trials for m in cfg.metrics}
    errors = {}
    for m in cfg.metrics:
        if cfg.trials > 1:
            var = (sumsq[m] - cfg.trials * means[m] ** 2) / (cfg.trials - 1)
            errors[m] = np.sqrt(np.maximum(var, 0.0) / cfg.trials)
        else:
            errors[m] = np.zeros_like(means[m])
    return means, errors, uncorrectable


def _batched_events(code, model, cfg, trial):
    """The array sampler's events of one trial, in the scalar sampler's form."""
    r = cfg.cycle_rate
    faults = fault_table(code)
    cycles, fault_ids = dynamics._sample_error_events(
        _trial_rng(cfg.rng_seed, trial, 0),
        faults.probs(model, r),
        max(1, int(round(cfg.t_max * r))),
    )
    events: dict[int, list[int]] = {}
    for c, f in zip(cycles.tolist(), fault_ids.tolist()):
        mask = events.setdefault(c, [0, 0])
        mask[0] ^= int(faults.paulis[f, 0])
        mask[1] ^= int(faults.paulis[f, 1])
    return events


def _coincident_cycles(code, trial_events):
    """For each cycle where two or more faults coincide: whether its looked-up
    net frame change differs from the XOR of its faults' own net changes, and
    whether its syndrome is known.
    """
    table = decode_table(code)
    records = {(r.qubit, r.kind): r for r in single_error_records(code)}

    def net_change(x_mask, z_mask):
        sx, sz, rx, rz = _scalar_cycle_effect(records, x_mask, z_mask)
        (cx, cz), known = table.lookup(sx, sz)
        return (rx ^ int(cx), rz ^ int(cz)), bool(known)

    out = []
    for events in trial_events:
        for x_mask, z_mask in events.values():
            faults = [(1 << q, 0) for q in range(code.qubit_count) if x_mask >> q & 1]
            faults += [(0, 1 << q) for q in range(code.qubit_count) if z_mask >> q & 1]
            if len(faults) < 2:
                continue
            xor_x = xor_z = 0
            for fault in faults:
                (fx, fz), _ = net_change(*fault)
                xor_x, xor_z = xor_x ^ fx, xor_z ^ fz
            change, known = net_change(x_mask, z_mask)
            out.append((change != (xor_x, xor_z), known))
    return out


def _oracle_configs():
    """Fixed corner cases plus seeded random configs on four fixtures."""
    codes = {
        "11-3-3": fixture_code("11-3-3"),
        "10-3-3": fixture_code("10-3-3"),
        "6-3-1": fixture_code("6-3-1"),
        "11-3-1": fixture_code("11-3-1"),
    }
    cases = [
        # no errors at all, a single trial
        ("11-3-3", 0.0, 0.0, SimConfig(10.0, 5.0, 1, haar_states=2, rng_seed=1, samples=4)),
        ("10-3-3", 0.0, 0.0, SimConfig(10.0, 5.0, 3, haar_states=1, rng_seed=2, samples=1)),
        # p close to 1: most cycles fire, so the distinct-draw rejection loop
        # runs many rounds and cycles carry many errors
        ("11-3-3", 30.0, 20.0, SimConfig(10.0, 2.0, 2, haar_states=2, rng_seed=3, samples=5)),
        ("10-3-3", 25.0, 25.0, SimConfig(10.0, 2.0, 2, haar_states=2, rng_seed=4, samples=5)),
        ("6-3-1", 30.0, 0.0, SimConfig(10.0, 3.0, 2, haar_states=2, rng_seed=5, samples=6)),
        # p = 1.0: every cycle fires, and the last missing cycles take many rounds
        ("6-3-1", 400.0, 0.0, SimConfig(10.0, 300.0, 1, haar_states=1, rng_seed=7, samples=4)),
        # single trial at the rates of the protection experiment
        ("11-3-3", 0.007, 0.0007, SimConfig(100.0, 600.0, 1, haar_states=3, rng_seed=6, samples=10)),
    ]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(8128)))
    metric_sets = [("F0", "Fplus", "Frand"), ("Frand",), ("F0",), ("Fplus", "F0")]
    for i in range(24):
        name = list(codes)[i % len(codes)]
        rate = float(rng.choice([2.0, 5.0, 10.0, 40.0]))
        eps_bit = float(rng.uniform(0.0, 3.0) * rate / 10.0)
        eps_phase = 0.0 if name == "6-3-1" else float(rng.uniform(0.0, 2.0) * rate / 10.0)
        cfg = SimConfig(
            cycle_rate=rate,
            t_max=float(rng.uniform(0.5, 6.0)),
            trials=int(rng.integers(1, 5)),
            haar_states=int(rng.integers(1, 4)),
            rng_seed=int(rng.integers(0, 2**31)),
            samples=int(rng.integers(1, 12)),
            metrics=metric_sets[i % len(metric_sets)],
        )
        cases.append((name, eps_bit, eps_phase, cfg))
    return [(codes[name], ErrorModel(eb, ep), cfg) for name, eb, ep, cfg in cases]


def test_batched_kernel_matches_scalar_reference():
    log = {"rounds": [], "events": []}
    total_uncorrectable = 0
    coincident = []
    for code, model, cfg in _oracle_configs():
        start = len(log["events"])
        means, errors, uncorrectable = _scalar_simulate(code, model, cfg, log)
        for trial in range(cfg.trials):
            assert _batched_events(code, model, cfg, trial) == log["events"][start + trial]
        res = simulate(code, model, cfg)
        assert res.uncorrectable_cycles == uncorrectable
        for m in cfg.metrics:
            assert np.array_equal(res.means[m], means[m]), (cfg, m)
            assert np.array_equal(res.errors[m], errors[m]), (cfg, m)
        total_uncorrectable += uncorrectable
        coincident += _coincident_cycles(code, log["events"][start:])
    # the configs exercised what they were chosen for
    all_events = [e for events in log["events"] for e in events.values()]
    assert max(log["rounds"]) > 1
    assert sum(1 for x, z in all_events if bin(x).count("1") + bin(z).count("1") > 2) > 100
    assert total_uncorrectable > 100
    assert any(not events for events in log["events"])
    # coincident faults the kernel must look up again, not XOR their own changes
    assert any(differs for differs, _ in coincident)
    assert any(differs and not known for differs, known in coincident)


@pytest.mark.parametrize(
    "name, eps",
    [
        ("11-3-3", (30.0, 20.0)),
        ("10-3-3", (25.0, 25.0)),
        ("11-3-1", (20.0, 10.0)),
        ("6-3-1", (30.0, 5.0)),
    ],
)
def test_trial_block_size_does_not_change_the_output(monkeypatch, name, eps):
    # p near 1: most cycles carry coincident faults; 11-3-1 and 6-3-1 have faults
    # whose own net change is nonzero.  Blocks of 1, 3 and 7 trials, and a cell
    # budget that cuts every block to one trial, give the same bytes, on either
    # backend.
    code = fixture_code(name)
    cfg = SimConfig(10.0, 2.0, 7, haar_states=2, rng_seed=19, samples=5)
    default_block, default_cells = dynamics._TRIAL_BLOCK, dynamics._BLOCK_CELLS
    for backend in ("pauli_frame", "statevector"):
        results = []
        for block, cells in [(1, None), (3, None), (default_block, None), (default_block, 1)]:
            monkeypatch.setattr(dynamics, "_TRIAL_BLOCK", block)
            monkeypatch.setattr(dynamics, "_BLOCK_CELLS", cells or default_cells)
            res = simulate(code, ErrorModel(*eps), cfg, backend=backend)
            results.append((res.uncorrectable_cycles, _curve_sha256(res)))
        assert results[0][0] > 0
        assert results == [results[0]] * len(results)


def test_kernel_matches_scalar_reference_near_2_to_the_62_cycles():
    # 2**62 cycles: no cycle-valued key may wrap.  p = 1 - exp(-1.2e-16) is the
    # float spacing just below 1, about 1.1e-16, so each fault still fires some
    # 500 times per trial; on 11-3-1 a lone phase fault changes the frame.
    rate = 2.0**31
    code = fixture_code("11-3-1")
    cfg = SimConfig(rate, 2.0**31, 2, haar_states=2, rng_seed=62, samples=6)
    model = ErrorModel(0.0, 1.2e-16 * rate)
    log = {"rounds": [], "events": []}
    means, errors, uncorrectable = _scalar_simulate(code, model, cfg, log)
    assert max(max(events) for events in log["events"]) > 2**61
    res = simulate(code, model, cfg)
    assert res.uncorrectable_cycles == uncorrectable
    assert res.means["Fplus"].min() < 1.0
    for m in cfg.metrics:
        assert np.array_equal(res.means[m], means[m]), m
        assert np.array_equal(res.errors[m], errors[m]), m


@pytest.mark.parametrize("n_cycles, dtype", [(2**31 - 1, np.int32), (2**31, np.int64)])
def test_kernel_matches_scalar_reference_at_the_int32_cycle_bound(n_cycles, dtype):
    # A sample cycle can equal n_cycles, so cycle indices are int32 only below
    # 2**31 cycles; at 2**31 the same code runs on int64.  p = 500 / n_cycles:
    # each of 11-3-1's phase faults fires some 500 times per trial, cycles near
    # the bound included, and a lone phase fault changes the frame.
    code = fixture_code("11-3-1")
    cfg = SimConfig(float(n_cycles), 1.0, 2, haar_states=2, rng_seed=31, samples=6)
    model = ErrorModel(0.0, 500.0)
    log = {"rounds": [], "events": []}
    means, errors, uncorrectable = _scalar_simulate(code, model, cfg, log)
    assert max(max(events) for events in log["events"]) > n_cycles - 2**22
    probs = fault_table(code).probs(model, cfg.cycle_rate)
    cycles, _ = dynamics._sample_error_events(_trial_rng(cfg.rng_seed, 0, 0), probs, n_cycles)
    assert cycles.dtype == dtype
    for trial, events in enumerate(log["events"]):
        assert _batched_events(code, model, cfg, trial) == events
    res = simulate(code, model, cfg)
    assert res.uncorrectable_cycles == uncorrectable
    assert res.means["Fplus"].min() < 1.0
    for m in cfg.metrics:
        assert np.array_equal(res.means[m], means[m]), m
        assert np.array_equal(res.errors[m], errors[m]), m
