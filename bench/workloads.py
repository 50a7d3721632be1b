"""The benchmark's three workloads and the checks on their outputs.

Each workload is a cyclic schedule of groups of calls into the library.  A
group's calls depend only on the workload seed and the group index modulo
``schedule_groups``, so the golden capture (taken at ``GOLDEN_SEED``) covers
every call a run can make, and a call that comes round again must repeat its
first output exactly.  The library is always reached through module
attributes at call time, so the tracer's wrappers see every call.

Why these workloads:

- ``protection_sweep``: a reduced criterion 8.  ``cpc.dynamics`` does over
  90% of the work; the three cycle rates move cost between event sampling
  and per-sample Haar overlaps, 10-3-3 takes the generalized decode branch,
  and 6-3-1 (Fplus only, no phase errors) does no Haar work.
- ``code_search``: a reduced criterion 11 on (3,4,4).  The correctability
  predicate and the per-trial RNG draw do almost all the work; the CNOT
  phase builds the single-error records twice per trial that passes the
  first predicate.
- ``code_analysis``: in-process ``cpc`` CLI calls on every fixture and on
  seeded random codes: many calls of a few ms in cli, model, circuits,
  stabilizers and decoding set-up, with no Monte Carlo.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

# Modules by import path: the package binds ``cpc.search`` to the function.
cli = importlib.import_module("cpc.cli")
decoding = importlib.import_module("cpc.decoding")
dynamics = importlib.import_module("cpc.dynamics")
model = importlib.import_module("cpc.model")
search = importlib.import_module("cpc.search")

GOLDEN_SEED = 0


@dataclass(frozen=True)
class Call:
    key: str  # stable identity of the call's inputs; golden records use it
    phase: str
    ops: int  # units of work: Monte Carlo trials, search trials or CLI calls
    run: Callable[[], Any]


def _stream_seed(seed: int, stream: int, index: int) -> int:
    """A library seed for (workload seed, stream, index), as a 63-bit int."""
    state = np.random.SeedSequence([seed, stream, index]).generate_state(2, np.uint32)
    return (int(state[0]) << 31) ^ int(state[1])


def _syndrome_widths(code) -> tuple[int, int]:
    if isinstance(code, model.CpcCode):
        return code.n_b, code.n_p
    return code.n_c, 0


def circuit_route_problems(code, require_correcting: bool) -> list[str]:
    """Compare the matrix-derived records with the decode-circuit error table.

    With ``require_correcting`` the circuit syndromes must also give every
    harmful error a nonzero syndrome that no other single error shares.
    """
    n1, n2 = _syndrome_widths(code)
    records = decoding.single_error_records(code)
    harmful = {(r.qubit, r.kind) for r in records if r.harmful}
    circuit = {}
    for pauli, syndrome in decoding.error_table(code).items():
        (qubit,) = [q for q in range(code.qubit_count) if pauli.letter(q) != "I"]
        circuit[(qubit, pauli.letter(qubit))] = tuple(syndrome)
    problems = [
        f"{r.label}: matrix syndrome {r.syndrome(n1, n2)} != circuit {circuit[(r.qubit, r.kind)]}"
        for r in records
        if tuple(r.syndrome(n1, n2)) != circuit[(r.qubit, r.kind)]
    ]
    if require_correcting:
        by_syndrome: dict[tuple, list] = {}
        for key, syndrome in circuit.items():
            by_syndrome.setdefault(syndrome, []).append(key)
        for syndrome, keys in by_syndrome.items():
            bad = [k for k in keys if k in harmful]
            if bad and (len(keys) > 1 or not any(syndrome)):
                problems.append(f"harmful collision at {syndrome}: {sorted(keys)}")
    return problems


class Workload:
    name = ""
    schedule_groups = 1  # distinct groups before the schedule repeats
    trace_groups_per_s = 1.0  # fixed work of a traced run, per --seconds

    def __init__(self, root: Path, seed: int, golden: dict, workdir: Path):
        self.root = root
        self.seed = seed
        self.golden = golden
        self.workdir = workdir

    def group(self, g: int) -> list[Call]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def record(self, call: Call, out) -> dict:
        """JSON form of an output, compared with the golden capture."""
        raise NotImplementedError

    def check(self, call: Call, out) -> list[str]:
        """Problems that hold for any seed; empty when the output is right."""
        return []

    def counts(self, call: Call, out) -> dict[str, int]:
        return {}

    def golden_applies(self, key: str) -> bool:
        return self.seed == GOLDEN_SEED

    def same(self, got: dict, want: dict) -> bool:
        return got == want

    def final_checks(self) -> list[str]:
        return []

    def named_metrics(self, phases: dict, latencies_ms: list[float]) -> dict:
        return {}

    def trace_groups(self, seconds: int) -> int:
        return max(1, round(seconds * self.trace_groups_per_s))


def _per_s(phases: dict, *names: str) -> float:
    ops = sum(phases[n]["ops"] for n in names if n in phases)
    secs = sum(phases[n]["seconds"] for n in names if n in phases)
    return ops / secs if secs else 0.0


# --- protection_sweep ---------------------------------------------------------

# (phase, fixture file, cycle rate, eps_bit, eps_phase, metric, trials, t_max)
_SWEEP = (
    ("11-3-3@10", "11-3-3.cpc", 10.0, 0.007, 0.0007, "Frand", 8, 6000.0),
    ("11-3-3@50", "11-3-3.cpc", 50.0, 0.007, 0.0007, "Frand", 8, 30000.0),
    ("11-3-3@100", "11-3-3.cpc", 100.0, 0.007, 0.0007, "Frand", 8, 60000.0),
    ("10-3-3@100", "10-3-3.cpc", 100.0, 0.007, 0.0007, "Frand", 8, 60000.0),
    ("6-3-1@100", "6-3-1.cpc", 100.0, 0.007, 0.0, "Fplus", 32, 2000.0),
)
_HAAR_STATES = 10
_SAMPLES = 30


def _curve_digest(res) -> str:
    h = hashlib.sha256()
    for metric in sorted(res.means):
        h.update(np.round(res.means[metric], 12).tobytes())
        h.update(np.round(res.errors[metric], 12).tobytes())
    return h.hexdigest()[:16]


class ProtectionSweep(Workload):
    name = "protection_sweep"
    schedule_groups = 96
    trace_groups_per_s = 1.0

    def __init__(self, *args):
        super().__init__(*args)
        self.codes = {
            f: model.parse((self.root / "fixtures" / f).read_text(encoding="utf-8"))
            for f in {row[1] for row in _SWEEP}
        }

    def _call(self, g: int, row) -> Call:
        phase, fixture, rate, eps_bit, eps_phase, metric, trials, t_max = row
        code = self.codes[fixture]
        errors = dynamics.ErrorModel(eps_bit=eps_bit, eps_phase=eps_phase)
        cfg = dynamics.SimConfig(
            cycle_rate=rate,
            t_max=t_max,
            trials=trials,
            haar_states=_HAAR_STATES,
            rng_seed=_stream_seed(self.seed, 0, g),
            samples=_SAMPLES,
            metrics=(metric,),
        )

        def run():
            res = dynamics.simulate(code, errors, cfg)
            return res, dynamics.fit_half_life(res.times, res.means[metric])

        return Call(f"g{g}/{phase}", phase, trials, run)

    def group(self, g: int) -> list[Call]:
        g %= self.schedule_groups
        return [self._call(g, row) for row in _SWEEP]

    def warm_up(self) -> None:
        for row in _SWEEP:
            phase, fixture, rate, eps_bit, eps_phase, metric, _, _ = row
            cfg = dynamics.SimConfig(
                cycle_rate=rate, t_max=100.0, trials=1, haar_states=2,
                rng_seed=self.seed, samples=4, metrics=(metric,),
            )
            dynamics.simulate(
                self.codes[fixture], dynamics.ErrorModel(eps_bit, eps_phase), cfg
            )
        t = np.linspace(0.0, 300.0, 31)
        dynamics.fit_half_life(t, 0.25 + 0.75 * 2.0 ** (-t / 50.0))

    def record(self, call, out) -> dict:
        res, fit = out
        return {
            "digest": _curve_digest(res),
            "uncorrectable": int(res.uncorrectable_cycles),
            "lambda_half": fit.lambda_half,
            "f_inf": fit.f_inf,
        }

    def same(self, got, want) -> bool:
        return (
            got["digest"] == want["digest"]
            and got["uncorrectable"] == want["uncorrectable"]
            and all(
                math.isclose(got[k], want[k], rel_tol=1e-6, abs_tol=1e-9)
                for k in ("lambda_half", "f_inf")
            )
        )

    def check(self, call, out) -> list[str]:
        res, fit = out
        row = next(r for r in _SWEEP if r[0] == call.phase)
        metric, trials = row[5], row[6]
        f = res.means[metric]
        problems = []
        if res.trials != trials:
            problems.append(f"{res.trials} trials, expected {trials}")
        if not np.all((f >= -1e-12) & (f <= 1.0 + 1e-12)):
            problems.append(f"{metric} outside [0, 1]")
        if abs(f[0] - 1.0) > 1e-9:
            problems.append(f"{metric}(0) = {f[0]!r}, expected 1")
        if row[4] == 0.0 and metric == "Fplus":
            # No phase errors: no bit of the frame can ever flip |+>.
            if not (np.all(f == 1.0) and np.all(res.errors[metric] == 0.0)):
                problems.append("Fplus is not exactly 1 with eps_phase = 0")
            if not (fit.degenerate and fit.f_inf == 1.0):
                problems.append("constant Fplus series not fitted as degenerate")
        elif not fit.lambda_half > 0.0 or not 0.0 <= fit.f_inf <= 1.0:
            problems.append(f"fit out of range: {fit}")
        return problems

    def counts(self, call, out) -> dict[str, int]:
        res, _ = out
        return {
            "dynamics.trials": res.trials,
            "dynamics.uncorrectable_cycles": res.uncorrectable_cycles,
        }

    def named_metrics(self, phases, latencies_ms) -> dict:
        return {"sim_trials_per_s": (_per_s(phases, *phases), "1/s")}


# --- code_search --------------------------------------------------------------

_DIMS = (3, 4, 4)
_BUDGET = 100


class CodeSearch(Workload):
    name = "code_search"
    schedule_groups = 256
    trace_groups_per_s = 3.2

    def __init__(self, *args):
        super().__init__(*args)
        self._serial = {}  # group -> threads=1 result, compared with threads=2

    def group(self, g: int) -> list[Call]:
        g %= self.schedule_groups
        sec_seed = _stream_seed(self.seed, 1, g)
        cnot_seed = _stream_seed(self.seed, 2, g)

        def sec(threads):
            return lambda: search.search(
                _DIMS, search.single_error_correcting_predicate(), _BUDGET,
                seed=sec_seed, threads=threads,
            )

        def cnot():
            return search.search(
                _DIMS, search.cnot_compatible_predicate(0, 1), _BUDGET,
                seed=cnot_seed, constraint="mirror_bp", threads=1,
            )

        return [
            Call(f"s{g}/sec-t1", "sec_t1", _BUDGET, sec(1)),
            Call(f"s{g}/sec-t2", "sec_t2", _BUDGET, sec(2)),
            Call(f"s{g}/cnot-t1", "cnot_t1", _BUDGET, cnot),
        ]

    def warm_up(self) -> None:
        for call in self.group(self.schedule_groups - 1):
            call.run()

    def record(self, call, out) -> dict:
        return {
            "trials": out.trials,
            "successes": out.successes,
            "found": [[t, model.serialize(code)] for t, code in out.found],
        }

    def check(self, call, out) -> list[str]:
        problems = []
        group = call.key.split("/")[0]
        if call.phase == "sec_t1":
            self._serial[group] = out
        elif call.phase == "sec_t2" and self._serial.pop(group, None) != out:
            problems.append("threads=2 result differs from threads=1")
        trials = [t for t, _ in out.found]
        if out.trials != _BUDGET or out.successes != len(out.found):
            problems.append(f"counts {out.trials}/{out.successes} for {len(trials)} found")
        if trials != sorted(set(trials)) or any(not 0 <= t < _BUDGET for t in trials):
            problems.append(f"found trial indices {trials} not sorted within budget")
        for trial, code in out.found:
            if call.phase == "cnot_t1":
                ok = code.mb == code.mp and decoding.cnot_compatible(code, 0, 1).ok
            else:
                ok = decoding.is_single_error_correcting(code).ok
            if not ok:
                problems.append(f"trial {trial}: found code fails the predicate")
            problems += [
                f"trial {trial}: {p}"
                for p in circuit_route_problems(code, require_correcting=True)
            ]
        return problems

    def counts(self, call, out) -> dict[str, int]:
        return {"search.trials": out.trials, "search.successes": out.successes}

    def named_metrics(self, phases, latencies_ms) -> dict:
        return {
            "search_trials_per_s": (_per_s(phases, "sec_t1", "cnot_t1"), "1/s"),
            "search_trials_per_s_t2": (_per_s(phases, "sec_t2"), "1/s"),
        }


# --- code_analysis ------------------------------------------------------------

_SUBCOMMANDS = (
    ("verify",),
    ("distance",),
    ("stabilizers",),
    ("logicals",),
    ("error-table",),
    ("decode-table",),
    ("effective",),
    ("cpc-to-css",),
    ("emit-circuit",),
    ("logical-h", "--qubit", "0"),
    ("logical-cnot", "--control", "0", "--target", "1"),
)

# Non-zero exits that are the correct answer: 11-3-1 and 6-3-1 are not
# single-error correcting, and the generalized 10-3-3 has no split form.
_EXPECTED_EXIT = {
    ("11-3-1.cpc", "verify"): 1,
    ("11-3-1.cpc", "decode-table"): 1,
    ("6-3-1.cpc", "verify"): 1,
    ("6-3-1.cpc", "decode-table"): 1,
    ("10-3-3.cpc", "logicals"): 2,
    ("10-3-3.cpc", "cpc-to-css"): 2,
    ("10-3-3.cpc", "logical-h"): 2,
    ("10-3-3.cpc", "logical-cnot"): 2,
}
_RANDOM_CODES = 4


class CodeAnalysis(Workload):
    name = "code_analysis"
    schedule_groups = 1
    trace_groups_per_s = 0.6

    def __init__(self, *args):
        super().__init__(*args)
        self.files = sorted((self.root / "fixtures").glob("*.cpc"))
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence([self.seed, 3]))
        )
        self.random_codes = []
        for i in range(_RANDOM_CODES):
            code = search.random_code(*_DIMS, rng)
            path = self.workdir / f"random-{i}.cpc"
            path.write_text(model.serialize(code), encoding="utf-8")
            self.random_codes.append(code)
            self.files.append(path)

    @staticmethod
    def _cli(argv: list[str]):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
            return rc, out.getvalue()

        return run

    def _key(self, path: Path, sub: str) -> str:
        if path.parent == self.workdir:
            return f"{path.stem}/{sub}"
        return f"fixture/{path.name}/{sub}"

    def group(self, g: int) -> list[Call]:
        return [
            Call(self._key(path, sub[0]), sub[0], 1, self._cli([sub[0], str(path), *sub[1:]]))
            for path in self.files
            for sub in _SUBCOMMANDS
        ]

    def warm_up(self) -> None:
        for sub in _SUBCOMMANDS:
            self._cli([sub[0], str(self.files[0]), *sub[1:]])()

    def golden_applies(self, key: str) -> bool:
        return key.startswith("fixture/") or self.seed == GOLDEN_SEED

    def record(self, call, out) -> dict:
        rc, stdout = out
        return {"exit": rc, "stdout": stdout}

    def check(self, call, out) -> list[str]:
        rc, stdout = out
        if call.key.startswith("fixture/"):
            _, fixture, sub = call.key.split("/")
            expected = _EXPECTED_EXIT.get((fixture, sub), 0)
            if rc != expected:
                return [f"exit {rc}, expected {expected}"]
        elif rc not in (0, 1, 2):
            return [f"exit {rc}"]
        if rc == 0 and not stdout:
            return ["exit 0 with no output"]
        return []

    def final_checks(self) -> list[str]:
        return [
            f"random code {i}: {p}"
            for i, code in enumerate(self.random_codes)
            for p in circuit_route_problems(code, require_correcting=False)
        ]

    def named_metrics(self, phases, latencies_ms) -> dict:
        return {
            "analysis_calls_per_s": (_per_s(phases, *phases), "1/s"),
            "analysis_latency_ms_p50": (float(np.percentile(latencies_ms, 50)), "ms"),
            "analysis_latency_ms_p99": (float(np.percentile(latencies_ms, 99)), "ms"),
        }


WORKLOADS = {w.name: w for w in (ProtectionSweep, CodeSearch, CodeAnalysis)}
