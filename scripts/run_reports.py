#!/usr/bin/env python3
"""Pipeline reports for one configuration: weight histograms, latency, steps.

Samples syndromes heavier than the main stage's cap and reports what the
predecoder did with them, for each predecoder in --predecoders.  Example:

    python3 scripts/run_reports.py --distance 11 --p 1e-4 --shots-per-k 500
"""
import argparse
import json
import sys
from dataclasses import replace

from surfmatch import (ExperimentConfig, report_hw_distribution, report_latency,
                       report_step_usage)
from surfmatch.harness import PREDECODERS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--distance", type=int, default=11)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--p", type=float, default=1e-4)
    ap.add_argument("--predecoders", nargs="+", default=["adaptive", "greedy"],
                    choices=PREDECODERS)
    ap.add_argument("--shots-per-k", type=int, default=500)
    ap.add_argument("--master-seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="optional JSON path")
    args = ap.parse_args(argv)

    base = ExperimentConfig(distance=args.distance, rounds=args.rounds, p=args.p,
                            master_seed=args.master_seed)
    try:
        base.validate()
        results = reports(base, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2)
        print(f"wrote {args.out}")
    return 0


def reports(base: ExperimentConfig, args) -> dict:
    graph, table = base.build()  # depends on distance, rounds and p only
    results = {}
    for predecoder in args.predecoders:
        cfg = replace(base, predecoder=predecoder)
        hw = report_hw_distribution(cfg, graph, table, args.shots_per_k)
        lat = report_latency(cfg, graph, table, args.shots_per_k)
        steps = report_step_usage(cfg, graph, table, args.shots_per_k)
        results[hw["predecoder"]] = {"hw": hw, "latency": lat, "steps": steps}

        print(f"== {hw['predecoder']} ==")
        print(f"  samples (HW > cap): {hw['samples']}, abort rate {hw['abort_rate']:.2e}")
        post = ", ".join(f"{h}:{f:.3f}" for h, f in sorted(hw["post"].items()))
        print(f"  residual HW        {post}")
        print(f"  predecode ns       mean {lat['predecode_mean_ns']:.0f} "
              f"max {lat['predecode_max_ns']:.0f}")
        print(f"  total ns           mean {lat['total_mean_ns']:.0f} "
              f"max {lat['total_max_ns']:.0f} (budget {lat['budget_ns']:.0f})")
        if steps["steps"]:
            usage = ", ".join(f"{s}:{f:.4f}" for s, f in steps["steps"].items())
            print(f"  deepest step       {usage}")
    return results


if __name__ == "__main__":
    sys.exit(main())
