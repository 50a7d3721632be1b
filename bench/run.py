#!/usr/bin/env python3
"""cpc-qec benchmark.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload code_search --seed 0 --seconds 30 --trace 0

Each workload (see ``workloads.py``) runs in this one process as a closed
loop with a single caller: the next call into the library starts when the
previous one has returned and its output has been checked.  Outputs are
checked against ``golden.json`` (captured at seed 0 by ``capture_golden.py``)
and against checks that hold for any seed; a mismatch, or an exception that
the library did not catch, is a failed operation.

``--trace 0`` runs groups of calls until ``--seconds`` have passed and
reports the end-to-end metrics, the same on every workload:

- ``ops_per_s``: units of work per second of time spent in library calls
  (Monte Carlo trials, search trials, or CLI calls);
- ``call_ms_p50`` and ``call_ms_p95``: latency of one call into the library
  (``simulate`` + ``fit_half_life``, one ``search``, one ``cli.main``);
- ``setup_s``: median over this process and ``SETUP_PROBES`` fresh
  interpreters of the time to import, load the fixtures and golden capture,
  write the random codes and warm up;
- ``peak_rss_mb``: peak resident memory of this process.

The three timed metrics are scaled by the machine's speed around each call,
measured with a fixed reference kernel (see ``REF_NOMINAL_S``).

``--trace 1`` runs a fixed number of groups (set by the workload seed and
``--seconds`` only, so counts repeat exactly), once untraced and once with
spans recorded around every public function of ``cpc``, and reports the
per-layer metrics of ``BENCHMARK.json``.  Spans are written to
``.bench_out/``.

The last line of standard output is the result JSON; the line before it
holds the run's metadata and workload-specific figures.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import MODULES, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
GOLDEN = BENCH_DIR / "golden.json"
SETUP_PROBES = 4
# On a shared machine the CPU speed changes several times a second, by up to
# 1.6x, with the load of other tenants.  A fixed reference kernel, timed after
# every REF_EVERY_S of measured calls, tracks it: each call's time is scaled
# by the mean of the reference runs just before and after it, to read as at
# the speed where the kernel takes REF_NOMINAL_S (its usual time on a loaded
# 2-core 2.1 GHz Xeon VM).  The unscaled figures are in the report line.
REF_EVERY_S = 0.1
REF_NOMINAL_S = 0.003


def reference_kernel() -> int:
    """Fixed mix of small-array numpy calls and interpreter work, like cpc's."""
    import numpy as np

    acc = 0
    table: dict[tuple[int, int], int] = {}
    rows = np.arange(12, dtype=np.uint8).reshape(3, 4) & 1
    for i in range(200):
        m = np.asarray(rows ^ (i & 1), dtype=np.uint8).copy()
        m.setflags(write=False)
        prod = (m.astype(np.int64) @ m.T.astype(np.int64)) % 2
        key = (int(prod[0, 0]), i & 63)
        table[key] = table.get(key, 0) + 1
        for j in range(20):
            acc ^= (i * 2654435761 + j) & 0xFFFF
            acc = (acc >> 1) | ((acc & 1) << 15)
    return acc + len(table)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def setup(name: str, seed: int, workdir: Path):
    """Import the library from this checkout, load inputs and warm up."""
    if not (SRC / "cpc" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        raise SystemExit(f"benchmark: no cpc sources or fixtures under {ROOT}")
    sys.path.insert(0, str(SRC))
    import cpc

    if Path(cpc.__file__).resolve().parent != (SRC / "cpc").resolve():
        raise SystemExit(f"benchmark: imported cpc from {cpc.__file__}, not {SRC}")
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {name!r}; one of {sorted(WORKLOADS)}")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    workload = WORKLOADS[name](ROOT, seed, golden["records"].get(name, {}), workdir)
    workload.warm_up()
    return workload


class Harness:
    """Runs calls, times them, checks outputs and counts failures."""

    def __init__(self, workload):
        self.workload = workload
        self.tracer = None  # set while the traced pass runs
        self.first: dict[str, dict] = {}  # each call's first output record
        self.ref_times: list[float] | None = None  # set to time the reference
        self.ref_after: list[int] = []  # per call: index of the next reference
        self._since_ref = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.call_phases: list[str] = []
        self.phases: dict[str, dict] = {}
        self.counts: dict[str, int] = {}

    def problems(self, call, out) -> list[str]:
        wl = self.workload
        problems = wl.check(call, out)
        record = wl.record(call, out)
        first = self.first.setdefault(call.key, record)
        if first is not record and not wl.same(record, first):
            problems.append("differs from its first run in this process")
        if wl.golden_applies(call.key):
            want = wl.golden.get(call.key)
            if want is None:
                problems.append("no golden record")
            elif not wl.same(record, want):
                problems.append("differs from the golden record")
        return problems

    def run(self, call) -> None:
        self.attempted += 1
        tracer = self.tracer
        start = time.perf_counter()
        try:
            if tracer:
                tracer.on = True
            try:
                out = call.run()
            finally:
                if tracer:
                    tracer.on = False
                elapsed = time.perf_counter() - start
        except Exception:  # uncaught by the library: a failed operation
            self.failures.append(f"{call.key}: {traceback.format_exc(limit=-3)}")
            return
        phase = self.phases.setdefault(call.phase, {"ops": 0, "seconds": 0.0})
        phase["ops"] += call.ops
        phase["seconds"] += elapsed
        self.latencies.append(elapsed * 1e3)
        self.call_phases.append(call.phase)
        if self.ref_times is not None:
            self.ref_after.append(len(self.ref_times))
            self._since_ref += elapsed
            if self._since_ref >= REF_EVERY_S:
                self.sample_reference()
        problems = self.problems(call, out)
        if problems:
            self.failures.append(f"{call.key}: " + "; ".join(problems))
        for name, value in self.workload.counts(call, out).items():
            self.counts[name] = self.counts.get(name, 0) + int(value)

    def sample_reference(self) -> None:
        self._since_ref = 0.0
        start = time.perf_counter()
        reference_kernel()
        self.ref_times.append(time.perf_counter() - start)

    def scaled_latencies(self) -> list[float]:
        """Latencies at nominal speed, by the reference runs around each call."""
        ref, last = self.ref_times, len(self.ref_times) - 1
        return [
            ms * 2 * REF_NOMINAL_S / (ref[i - 1] + ref[min(i, last)])
            for ms, i in zip(self.latencies, self.ref_after)
        ]

    def run_groups(self, groups) -> None:
        for g in groups:
            for call in self.workload.group(g):
                self.run(call)

    def run_for(self, seconds: float) -> None:
        self.ref_times = []
        self.sample_reference()
        start = time.perf_counter()
        g = 0
        while time.perf_counter() - start < seconds:
            self.run_groups([g])
            g += 1

    def final_checks(self) -> None:
        for problem in self.workload.final_checks():
            self.attempted += 1
            self.failures.append(problem)

    @property
    def failed_frac(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 0.0

    @property
    def call_seconds(self) -> float:
        return sum(p["seconds"] for p in self.phases.values())


def metadata() -> dict:
    import numpy
    import scipy

    files = sorted((SRC / "cpc").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += len(data.splitlines())
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "commit": commit,
        "src_cpc_sha256": digest.hexdigest()[:16],
        "src_cpc_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def setup_probe_seconds(args) -> list[float]:
    """Set-up time of fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def percentile(values, q) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def end_to_end(args, harness, setup_s: float) -> dict:
    setups = [setup_s] + setup_probe_seconds(args)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ops = sum(p["ops"] for p in harness.phases.values())
    raw = {
        "ops_per_s": ops / harness.call_seconds,
        "call_ms_p50": percentile(harness.latencies, 50),
        "call_ms_p95": percentile(harness.latencies, 95),
    }
    scaled = harness.scaled_latencies()
    metrics = {
        "ops_per_s": (ops / (sum(scaled) / 1e3), "1/s"),
        "call_ms_p50": (percentile(scaled, 50), "ms"),
        "call_ms_p95": (percentile(scaled, 95), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    phases = {name: {"ops": p["ops"], "seconds": 0.0} for name, p in harness.phases.items()}
    for phase, ms in zip(harness.call_phases, scaled):
        phases[phase]["seconds"] += ms / 1e3
    report = {
        "calls": len(harness.latencies),
        "call_seconds": harness.call_seconds,
        "reference_samples": len(harness.ref_times),
        "reference_mean_s": statistics.fmean(harness.ref_times),
        "unscaled": {**raw, "phases": harness.phases},
        "setup_s_samples": setups,
        "failed_frac": harness.failed_frac,
        "phases": phases,
        **{k: {"value": v, "unit": u} for k, (v, u) in
           harness.workload.named_metrics(phases, scaled).items()},
    }
    return metrics, report


def per_layer(tracer, harness, untraced_s: float) -> dict:
    self_s, calls = tracer.self_times()
    traced_s = harness.call_seconds
    metrics = {}
    for name in MODULES:
        metrics[f"{name}.self_s"] = (
            sum((v for k, v in self_s.items() if k.startswith(name + ".")), 0.0), "s"
        )
    wanted_calls = (
        "search.search", "search.random_code", "decoding.single_error_records",
        "decoding.is_single_error_correcting", "decoding.cnot_compatible",
        "decoding.decode_table", "decoding.error_table", "gf2.multiply", "gf2.rref",
        "model.require_valid", "model.parse", "circuits.decode_circuit",
        "circuits.encode_circuit", "circuits.conjugate_pauli", "dynamics.simulate",
        "dynamics.haar_state", "cli.main",
    )
    for name in wanted_calls:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    wanted_self = wanted_calls + (
        "dynamics.fit_half_life", "propagation.cross_propagation",
        "propagation.effective_codes", "stabilizers.stabilizers_split",
        "stabilizers.code_distance", "logical_ops.logical_hadamard_circuit",
        "logical_ops.logical_cnot_circuit",
    )
    for name in wanted_self:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    metrics["gf2.Gf2Matrix.builds"] = (tracer.builds, "count")
    verdicts = tracer.outermost_count(
        {"decoding.is_single_error_correcting", "decoding.cnot_compatible",
         "decoding.decode_table"}
    )
    records = calls.get("decoding.single_error_records", 0)
    metrics["decoding.records_per_verdict"] = (records / verdicts if verdicts else 0.0, "ratio")
    trials = harness.counts.get("search.trials", 0)
    metrics["search.hit_ratio"] = (
        harness.counts.get("search.successes", 0) / trials if trials else 0.0, "ratio"
    )
    for name in ("dynamics.trials", "dynamics.uncorrectable_cycles"):
        metrics[name] = (harness.counts.get(name, 0), "count")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.self_sum_s"] = (sum(self_s.values()), "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics


def traced_run(args, workload, harness, meta):
    """Fixed work untraced, then the same work traced; per-layer metrics."""
    groups = range(workload.trace_groups(args.seconds))
    harness.run_groups(groups)
    untraced_s = harness.call_seconds
    tracer = Tracer()
    tracer.install()
    try:
        harness.tracer = tracer
        harness.phases, harness.counts = {}, {}
        harness.run_groups(groups)
    finally:
        tracer.uninstall()
        harness.tracer = None
    harness.final_checks()
    tracer.write(
        OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz",
        {**meta, "workload": args.workload, "seed": args.seed},
    )
    report = {"groups": len(groups), "failed_frac": harness.failed_frac}
    return per_layer(tracer, harness, untraced_s), report


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = setup(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        meta = metadata()
        harness = Harness(workload)
        if args.trace:
            metrics, report = traced_run(args, workload, harness, meta)
        else:
            harness.run_for(args.seconds)
            harness.final_checks()
            metrics, report = end_to_end(args, harness, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in harness.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "meta": meta, "report": report,
    }))
    print(json.dumps({
        "correct": not harness.failures,
        "attempted": harness.attempted,
        "failed": len(harness.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
