from __future__ import annotations

import os
import subprocess
import sys

from conftest import REPO_ROOT

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


def test_half_life_experiment_matches_simulate(tmp_path, fixture_dir):
    code_path = str(fixture_dir / "11-3-3.cpc")
    out_dir = tmp_path / "results"
    settings = [arg for pair in _SETTINGS.items() for arg in pair]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [
            sys.executable, str(REPO_ROOT / "scripts" / "run_half_life_experiment.py"),
            code_path, "--rates", *_RATES, "--t-max-per-rate", str(_T_MAX_PER_RATE),
            *settings, "--out", str(out_dir),
        ],
        capture_output=True, text=True, env=env, timeout=300,
    )
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
