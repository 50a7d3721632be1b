"""Self-test of the benchmark at tiny size.

    python3 -m pytest -q bench/test_bench.py

Runs every workload for one second, untraced on the golden seed and on one
other seed, and traced twice on one seed.  Checks that the printed metric
names and units are those of ``BENCHMARK.json``, that no operation failed,
that traced counts repeat exactly, and that the per-layer self times add up
to the untraced wall time within the reported tracing overhead.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / SPEC["command"][1]), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(workload: str, seed: int, trace: int):
    proc = _run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    *_, info, last = proc.stdout.strip().splitlines()
    result, info = json.loads(last), json.loads(info)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    assert info["report"]["failed_frac"] == 0
    return result["metrics"], info


def _spec_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [0, 7])
def test_end_to_end_metrics(workload, seed):
    metrics, info = _result(workload, seed, trace=0)
    assert {k: v["unit"] for k, v in metrics.items()} == _spec_units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())
    assert info["meta"]["src_cpc_lines"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, _ = _result(workload, 3, trace=1)
    second, _ = _result(workload, 3, trace=1)
    assert {k: v["unit"] for k, v in first.items()} == _spec_units("per_layer")
    exact = [k for k, v in first.items() if v["unit"] in ("count", "ratio")]
    assert exact
    for k in exact:
        assert first[k]["value"] == second[k]["value"], k
    self_sum = first["trace.self_sum_s"]["value"]
    untraced = first["trace.untraced_s"]["value"]
    overhead = abs(first["trace.overhead_s"]["value"])
    # The outermost spans sit inside the timed calls, a few microseconds each.
    assert abs(self_sum - untraced) <= overhead + 0.01 * untraced


def test_fails_without_the_library():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(WORKLOADS[0], 0, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
