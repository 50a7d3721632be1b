from __future__ import annotations

import importlib.util
import sys

import pytest

from conftest import REPO_ROOT, run_python

from cpc import dynamics
from cpc.cli import main

_RATES = ("10", "20")
_SETTINGS = {
    "--eps-bit": "0.05",
    "--eps-phase": "0.01",
    "--trials": "6",
    "--haar-states": "3",
    "--samples": "10",
    "--seed": "7",
}
_T_MAX_PER_RATE = 20.0


def _half_life_experiment(*argv):
    return run_python(str(REPO_ROOT / "scripts" / "run_half_life_experiment.py"), *argv)


def _small_sweep(fixture_dir, out_dir, **overrides):
    settings = {**_SETTINGS, **overrides}
    return _half_life_experiment(
        str(fixture_dir / "11-3-3.cpc"), "--rates", *_RATES,
        "--t-max-per-rate", str(_T_MAX_PER_RATE),
        *[arg for pair in settings.items() for arg in pair], "--out", str(out_dir),
    )


def test_half_life_experiment_matches_simulate(tmp_path, fixture_dir):
    code_path = str(fixture_dir / "11-3-3.cpc")
    out_dir = tmp_path / "results"
    settings = [arg for pair in _SETTINGS.items() for arg in pair]
    proc = _small_sweep(fixture_dir, out_dir)
    assert proc.returncode == 0, proc.stderr
    assert "linear fit: lambda = " in proc.stdout
    assert sorted(p.name for p in out_dir.iterdir()) == [f"rate-{r}.csv" for r in _RATES]
    for rate in _RATES:
        expected = tmp_path / f"simulate-{rate}.csv"
        argv = [
            "simulate", code_path, "--rate", rate,
            "--t-max", str(_T_MAX_PER_RATE * float(rate)), *settings, "--out", str(expected),
        ]
        assert main(argv) == 0
        assert (out_dir / f"rate-{rate}.csv").read_bytes() == expected.read_bytes()


@pytest.mark.parametrize(
    "code, argv, message",
    [
        ("11-3-3.cpc", ["--rates", "0"], "cycle_rate must be positive"),
        ("11-3-3.cpc", ["--rates", "20", "10", "20"], "--rates must be distinct"),
        ("11-3-3.cpc", ["--trials", "0"], "trials must be at least 1"),
        ("missing.cpc", [], "No such file or directory"),
    ],
    ids=["zero rate", "repeated rate", "no trials", "missing code"],
)
def test_half_life_experiment_refuses_bad_input_before_any_work(
    tmp_path, fixture_dir, code, argv, message
):
    out_dir = tmp_path / "results"
    proc = _half_life_experiment(str(fixture_dir / code), *argv, "--out", str(out_dir))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert proc.stdout == "" and not out_dir.exists()


def test_half_life_experiment_too_large_for_memory_exits_2(tmp_path, fixture_dir):
    # 10**18 cycles: one fault's ~10**17 cycle indices (676 PiB) are far beyond
    # any address space, and numpy refuses them without allocating
    proc = _half_life_experiment(
        str(fixture_dir / "11-3-3.cpc"), "--eps-bit", "0.1", "--rates", "1",
        "--t-max-per-rate", "1e18", "--out", str(tmp_path / "results"),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: Unable to allocate ") and proc.stdout == ""


def test_half_life_experiment_without_bit_errors(tmp_path, fixture_dir):
    proc = _small_sweep(fixture_dir, tmp_path, **{"--eps-bit": "0", "--eps-phase": "0.05"})
    assert proc.returncode == 0, proc.stderr
    assert "unprotected bit half-life: inf s\n" in proc.stdout
    assert "linear fit: lambda = " in proc.stdout


def test_half_life_experiment_reports_a_degenerate_fit(tmp_path, fixture_dir):
    # too few errors for any decay: the fit has no half-life to report
    proc = _small_sweep(fixture_dir, tmp_path, **{"--eps-bit": "1e-9", "--eps-phase": "0"})
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.count("degenerate series: no decay to fit") == len(_RATES)
    assert "nan" not in proc.stdout and "linear fit: lambda" not in proc.stdout


def test_half_life_experiment_reports_a_fit_that_does_not_converge(
    tmp_path, fixture_dir, monkeypatch, capsys
):
    # in this process, so that the evaluation cap can be lowered
    path = REPO_ROOT / "scripts" / "run_half_life_experiment.py"
    spec = importlib.util.spec_from_file_location("run_half_life_experiment", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    settings = [arg for pair in _SETTINGS.items() for arg in pair]
    monkeypatch.setattr(dynamics, "FIT_MAX_NFEV", 3)
    monkeypatch.setattr(sys, "argv", [
        str(path), str(fixture_dir / "11-3-3.cpc"), "--rates", *_RATES,
        "--t-max-per-rate", str(_T_MAX_PER_RATE), *settings, "--out", str(tmp_path),
    ])
    assert script.main() == 1
    out, err = capsys.readouterr()
    assert err == (
        "error: rate 10 /s: Optimal parameters not found: "
        "The maximum number of function evaluations is exceeded.\n"
    )
    assert out == ""
