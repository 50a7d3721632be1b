#!/usr/bin/env python3
"""Half-life sweep for a code under ion-trap-like error rates.

Runs the Monte Carlo cycle simulation across several correction rates,
fits the random-state fidelity decay, and writes one CSV per rate plus a
summary of the fitted half-lives (which should grow linearly with the rate).

Example:
    python scripts/run_half_life_experiment.py fixtures/11-3-3.cpc \
        --rates 10 50 100 --trials 2000 --out results/
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from cpc.dynamics import ErrorModel, SimConfig, fit_half_life, simulate
from cpc.model import parse


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("code")
    ap.add_argument("--eps-bit", type=float, default=0.007)
    ap.add_argument("--eps-phase", type=float, default=0.0007)
    ap.add_argument("--rates", type=float, nargs="+", default=[10.0, 50.0, 100.0])
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--haar-states", type=int, default=10)
    ap.add_argument("--samples", type=int, default=30)
    ap.add_argument("--t-max-per-rate", type=float, default=600.0,
                    help="simulated seconds per unit of cycle rate")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=Path("half-life-results"))
    args = ap.parse_args()
    try:
        return _sweep(args)
    except (OSError, ValueError, MemoryError) as exc:  # as `cpc`: bad input exits 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _sweep(args) -> int:
    code = parse(Path(args.code).read_text(encoding="utf-8"))
    model = ErrorModel(eps_bit=args.eps_bit, eps_phase=args.eps_phase)
    if len(set(args.rates)) != len(args.rates):
        raise ValueError("--rates must be distinct")
    # every configuration is checked before any simulation runs
    configs = [
        SimConfig(
            cycle_rate=rate,
            t_max=args.t_max_per_rate * rate,
            trials=args.trials,
            haar_states=args.haar_states,
            rng_seed=args.seed,
            samples=args.samples,
        )
        for rate in args.rates
    ]
    args.out.mkdir(parents=True, exist_ok=True)

    half_lives = []
    degenerate = False
    for rate, cfg in zip(args.rates, configs):
        result = simulate(code, model, cfg)
        csv_path = args.out / f"rate-{rate:g}.csv"
        csv_path.write_text(result.to_csv(), encoding="utf-8", newline="")
        try:
            fit = fit_half_life(result.times, result.means["Frand"])
        except RuntimeError as exc:  # no convergence: exit 1, as for a degenerate series
            print(f"error: rate {rate:g} /s: {exc}", file=sys.stderr)
            return 1
        half_lives.append(fit.lambda_half)
        if fit.degenerate:
            degenerate = True
            print(f"rate {rate:6g} /s: degenerate series: no decay to fit, wrote {csv_path}")
            continue
        print(
            f"rate {rate:6g} /s: lambda_half = {fit.lambda_half:9.0f} s, "
            f"F_inf = {fit.f_inf:.3f}, wrote {csv_path}"
        )

    unprotected = math.log(2.0) / model.eps_bit if model.eps_bit else math.inf
    print(f"unprotected bit half-life: {unprotected:.1f} s")
    if degenerate:
        print("no linear fit: a degenerate series has no half-life")
        return 1
    if len(args.rates) >= 2:
        slope, intercept = np.polyfit(args.rates, half_lives, 1)
        pred = slope * np.array(args.rates) + intercept
        ss_res = float(np.sum((np.array(half_lives) - pred) ** 2))
        ss_tot = float(np.sum((np.array(half_lives) - np.mean(half_lives)) ** 2))
        print(f"linear fit: lambda = {slope:.1f} * r + {intercept:.1f}, "
              f"R^2 = {1 - ss_res / ss_tot:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
