#!/usr/bin/env python3
"""Record a parent/change benchmark comparison as ``BENCH_<pr>.json``.

Runs ``perfbench/run.py`` as a subprocess in two checkouts, the parent and
the change, and writes one JSON document with:

- the untraced end-to-end metrics of each side: medians, quartiles, every
  value, per pair whether the change was better, and the pair count that
  the observed change needs to stand out of the parent's spread
  (``pairs_needed``, also printed);
- the traced per-layer metrics and counts of each side at one seed;
- the modeled-behaviour fingerprint SHAs of every run;
- the machine block perfbench prints;
- the tier-1 pass count and seconds, read from a saved pytest log.

There are ``PAIRS`` untraced pairs per workload, each run as long as
BENCHMARK.json's ``run_seconds``.  Pair i runs both sides at seed
``--seed + i``; the side that runs first alternates from pair to pair, so a
drift in the host's speed falls on both.  The traced runs take
``TRACED_SECONDS`` at seed ``TRACED_SEED``.  Example, from the change
checkout:

    python3 scripts/bench_record.py --pr N --parent ../parent \\
        --tier1-log test_output.txt
"""
from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# Untraced parent/change pairs per workload: ten is the fewest that can
# show a change better in nine of ten pairs.
PAIRS = 10
# The traced run's seed and length (the seed the fingerprints are quoted at).
TRACED_SEED = 3001
TRACED_SECONDS = 12.0


def parse_run(stdout: str) -> dict:
    """The fields of one ``perfbench/run.py`` output that a record keeps.

    Lines that are not JSON objects (e.g. a traceback) are skipped.
    """
    out: dict = {}
    for line in stdout.splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if not isinstance(doc, dict):
            continue
        if "machine" in doc:
            out["machine"] = doc["machine"]
        elif "sha256" in doc:
            out["sha256"] = doc["sha256"]
            out["counts"] = doc["fingerprint"].get("counts")
        elif "metrics" in doc:
            out["correct"] = doc["correct"] and doc["failed"] == 0
            out["metrics"] = {k: m["value"] for k, m in doc["metrics"].items()}
    missing = {"machine", "sha256", "metrics"} - set(out)
    if missing:
        raise ValueError(f"perfbench output lacks {sorted(missing)}")
    return out


def parse_tier1(log: str) -> dict:
    """Counts and seconds from the last summary line of a pytest log."""
    summaries = re.findall(r"^=+ (.+) in ([0-9.]+)s\b.*=+$", log, re.M)
    if not summaries:
        raise ValueError("no pytest summary line in the tier-1 log")
    counts, seconds = summaries[-1]
    doc = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", counts)}
    doc["seconds"] = float(seconds)
    return doc


def spread(values: list[float]) -> dict:
    """Median, quartiles and the values themselves."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def pairs_needed(change_over_parent: float, parent_iqr_over_median: float) -> int | None:
    """The fewest pairs at which the observed change exceeds two standard errors.

    One run's relative spread is taken as sigma = (parent IQR / median) /
    1.349, the IQR of a normal distribution being 1.349 sigma.  A pair
    compares two runs, so over n pairs the standard error of the relative
    change is sigma * sqrt(2 / n), and the answer is the least n with
    ``|change_over_parent - 1| > 2 * sigma * sqrt(2 / n)``.  None when
    nothing changed, as no pair count shows a change of 0.
    """
    delta = abs(change_over_parent - 1.0)
    if delta == 0.0:
        return None
    sigma = parent_iqr_over_median / 1.349
    return math.floor(8.0 * sigma * sigma / (delta * delta)) + 1


def summarize_untraced(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-side spreads and per-pair comparisons of each end-to-end metric.

    ``pairs`` holds ``{"seed", "parent", "change"}`` with the parsed runs;
    ``end_to_end`` is the list of the same name in BENCHMARK.json.  A
    "does not move" reading is only as good as ``pairs_needed``: a change
    smaller than the spread needs more pairs than were run to show.
    """
    doc: dict = {"pairs": len(pairs), "seeds": [p["seed"] for p in pairs]}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        sides = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
        parent = spread(sides["parent"])
        change = spread(sides["change"])
        better = sum((c > p) if higher else (c < p)
                     for p, c in zip(sides["parent"], sides["change"]))
        ratio = change["median"] / parent["median"]
        iqr = (parent["q3"] - parent["q1"]) / parent["median"]
        doc[name] = {
            "parent": parent,
            "change": change,
            "change_over_parent": ratio,
            "change_better_pairs": better,
            "parent_iqr_over_median": iqr,
            "pairs_needed": pairs_needed(ratio, iqr),
        }
    doc["sha256"] = {s: [p[s]["sha256"] for p in pairs] for s in SIDES}
    doc["fingerprints_equal"] = doc["sha256"]["parent"] == doc["sha256"]["change"]
    doc["correct"] = all(p[s]["correct"] for p in pairs for s in SIDES)
    return doc


def summarize_traced(runs: dict) -> dict:
    """Per side: fingerprint SHA, counts, correctness and per-layer metrics."""
    return {side: {key: run[key] for key in ("sha256", "counts", "correct", "metrics")}
            for side, run in runs.items()}


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float,
                  trace: int) -> str:
    """One perfbench run's stdout; its stderr passes through to ours.

    perfbench exits 1 when a verification fails but still prints its
    metrics, which the record keeps; any other failure raises.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          check=False)
    if proc.returncode != 0 and '"metrics"' not in proc.stdout:
        raise RuntimeError(f"perfbench exited {proc.returncode} without metrics")
    return proc.stdout


def collect(checkouts: dict, workloads: list[str], end_to_end: list[dict], *,
            pairs: int, seed: int, seconds: float, traced_seed: int,
            traced_seconds: float, run=run_perfbench, log=print) -> dict:
    """Run every pair and traced run; ``run(checkout, workload, seed,
    seconds, trace)`` returns one perfbench stdout."""
    doc: dict = {"untraced": {"seconds": seconds, "workloads": {}},
                 "traced": {"seed": traced_seed, "seconds": traced_seconds,
                            "workloads": {}}}
    machine = None

    def measure(side, wl, seed, seconds, trace):
        try:
            return parse_run(run(checkouts[side], wl, seed, seconds, trace))
        except (RuntimeError, ValueError) as exc:
            raise RuntimeError(f"{side} checkout {checkouts[side]}, workload {wl}, "
                               f"seed {seed}, trace {trace}: {exc}") from exc

    for wl in workloads:
        done = []
        for i in range(pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed + i}
            for side in order:
                pair[side] = measure(side, wl, seed + i, seconds, 0)
                machine = machine or pair[side]["machine"]
                log(f"{wl} pair {i} {side}: shots_per_s "
                    f"{pair[side]['metrics']['shots_per_s']:.1f}")
            done.append(pair)
        summary = doc["untraced"]["workloads"][wl] = summarize_untraced(done, end_to_end)
        for spec in end_to_end:
            m = summary[spec["name"]]
            log(f"{wl} {spec['name']}: change/parent {m['change_over_parent']:.4f}, "
                f"better in {m['change_better_pairs']} of {pairs} pairs, "
                f"pairs needed {m['pairs_needed']}")
        traced = {side: measure(side, wl, traced_seed, traced_seconds, 1)
                  for side in SIDES}
        doc["traced"]["workloads"][wl] = summarize_traced(traced)
    doc["machine"] = machine
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, default=ROOT,
                    help="change checkout (default: this one)")
    ap.add_argument("--seed", type=int, default=3001, help="seed of pair 0")
    ap.add_argument("--tier1-log", type=Path, default=None,
                    help="pytest log of the change's tier-1 run")
    ap.add_argument("--out", type=Path, default=None,
                    help="default: BENCH_<pr>.json in the change checkout")
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    tier1 = (parse_tier1(args.tier1_log.read_text(encoding="utf-8"))
             if args.tier1_log else None)
    workloads = [w["name"] for w in spec["workloads"]]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {"pr": args.pr,
           "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
           "command": spec["command"]}
    doc.update(collect(checkouts, workloads, spec["end_to_end"], pairs=PAIRS,
                       seed=args.seed, seconds=spec["run_seconds"],
                       traced_seed=TRACED_SEED, traced_seconds=TRACED_SECONDS,
                       log=lambda msg: print(msg, file=sys.stderr, flush=True)))
    doc["tier1"] = tier1
    out = args.out or args.change / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
