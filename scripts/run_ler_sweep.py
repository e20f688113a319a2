#!/usr/bin/env python3
"""Sweep logical error rate over code distance and physical error rate.

Uses the rare-event estimator so the low-p corner of the sweep is
resolvable with modest shot counts.  Example:

    python3 scripts/run_ler_sweep.py --distances 3 5 --ps 1e-3 3e-3 \
        --shots-per-k 2000 --out sweep.csv
"""
import argparse
import csv
import sys
import time

from surfmatch import ExperimentConfig, run_rare_event
from surfmatch.harness import PREDECODERS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--distances", type=int, nargs="+", default=[3, 5])
    ap.add_argument("--ps", type=float, nargs="+", default=[1e-3])
    ap.add_argument("--predecoder", choices=PREDECODERS, default="adaptive")
    ap.add_argument("--shots-per-k", type=int, default=2000)
    ap.add_argument("--k-max", type=int, default=16)
    ap.add_argument("--master-seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args(argv)

    configs = [ExperimentConfig(distance=d, p=p, predecoder=args.predecoder,
                                shots_per_k=args.shots_per_k, k_max=args.k_max,
                                master_seed=args.master_seed)
               for d in args.distances for p in args.ps]
    try:
        for cfg in configs:  # the whole grid, before any work
            cfg.validate()
        rows = sweep(configs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        print(f"wrote {args.out}")
    return 0


def sweep(configs: list[ExperimentConfig]) -> list[tuple]:
    rows = [("distance", "p", "predecoder", "ler", "stderr", "truncation", "seconds")]
    print(f"{'d':>3} {'p':>10} {'ler':>12} {'stderr':>10} {'trunc':>10} {'sec':>7}")
    for cfg in configs:
        t0 = time.perf_counter()
        est = run_rare_event(cfg)
        dt = time.perf_counter() - t0
        print(f"{cfg.distance:>3} {cfg.p:>10.2e} {est.ler:>12.4e} {est.stderr:>10.2e} "
              f"{est.truncation:>10.2e} {dt:>7.1f}")
        rows.append((cfg.distance, cfg.p, cfg.predecoder, est.ler, est.stderr,
                     est.truncation, round(dt, 2)))
    return rows


if __name__ == "__main__":
    sys.exit(main())
