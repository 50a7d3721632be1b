#!/usr/bin/env python3
"""Capture ``golden.json``: every call of every workload's schedule at seed 0.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 bench/capture_golden.py

A call whose output fails the workload's own checks aborts the capture.
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    sys.path.insert(0, str(run.SRC))
    from workloads import GOLDEN_SEED, WORKLOADS

    records = {}
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        for name, cls in WORKLOADS.items():
            workload = cls(run.ROOT, GOLDEN_SEED, {}, Path(workdir))
            captured = records[name] = {}
            for g in range(workload.schedule_groups):
                for call in workload.group(g):
                    out = call.run()
                    problems = workload.check(call, out)
                    if problems:
                        raise SystemExit(f"{name} {call.key}: {'; '.join(problems)}")
                    captured[call.key] = workload.record(call, out)
            problems = workload.final_checks()
            if problems:
                raise SystemExit(f"{name}: {'; '.join(problems)}")
            print(f"{name}: {len(captured)} calls", file=sys.stderr)
    run.GOLDEN.write_text(
        json.dumps({"seed": GOLDEN_SEED, "records": records}, indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
