#!/usr/bin/env python3
"""surfmatch benchmark: shots/s of the public estimator API, per workload.

    python3 perfbench/run.py --workload rare-d5 --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from
``src/`` beside this directory.  One process, one thread, one workload.
``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` reports the per-layer metrics of a traced run.  The last
line of stdout is the result as JSON; earlier lines carry machine and run
info, the span summary and the modeled-behaviour fingerprint.  See
README.md in this directory for every metric.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # leave the checkout as it was

from reference import ref_kernel, slowdown, warm_up  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-up is ExperimentConfig.build(); it is repeated until both bounds are
# met and the median is reported, since one d=11 build varies by ~40%.
SETUP_MIN_BUILDS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_BUILDS = 200

# A reference-kernel round (reference.py) takes ~2.6 ms; one per 0.25 s of
# passes adds about 1% to a run.
REF_EVERY_S = 0.25

SCOPE = ("wall time from time.perf_counter and peak RSS from getrusage of "
         "this process only, times scaled by a reference kernel timed in the "
         "same process; no perf counters, no cache drops, no system settings "
         "changed")


def import_program():
    """Import surfmatch from this checkout's src/, or raise ImportError."""
    sys.path.insert(0, str(SRC))
    import surfmatch
    if not Path(surfmatch.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"surfmatch imported from {surfmatch.__file__}, not {SRC}")
    return surfmatch


def machine_info() -> dict:
    import numpy
    import scipy
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def plain_call(name, fn, *args):
    return fn(*args)


def median_setup(wl, seed):
    """Median time of ExperimentConfig.build() on the reference host, plus
    the last build."""
    from workloads import config
    times, rounds = [], [ref_kernel()]
    t_end = perf_counter() + SETUP_MIN_S
    while len(times) < SETUP_MIN_BUILDS or (
            perf_counter() < t_end and len(times) < SETUP_MAX_BUILDS):
        graph = table = None  # free the previous table before building the next
        cfg = config(wl, seed)
        t0 = perf_counter()
        graph, table = cfg.build()
        times.append(perf_counter() - t0)
        rounds.append(ref_kernel())
    return statistics.median(times) / slowdown(rounds), graph, table


def measure(wl, graph, table, seed, seconds, call, before_pass=None):
    """Run passes back to back until ``seconds`` have elapsed.

    Returns the pass results, the reference-kernel rounds, the shots
    of the passes that raised or broke an estimator invariant, and the
    problems found.
    """
    from workloads import PassResult, config, pass_seed, run_pass
    results, failed_shots, problems = [], 0, []
    rounds = [ref_kernel()]
    deadline = perf_counter() + seconds
    j = 0
    while True:
        cfg = config(wl, pass_seed(seed, j))
        if before_pass is not None:
            before_pass(j)
        t0 = perf_counter()
        try:
            res = run_pass(wl, cfg, graph, table, call)
        except Exception:  # a raising estimator is a failed operation, not a crash
            traceback.print_exc()
            res = PassResult(1, {}, ["estimator raised"])
        res.wall_s = perf_counter() - t0
        # About one kernel round per REF_EVERY_S of passes, so that the
        # run's median round is as well sampled as its passes.
        rounds += [ref_kernel() for _ in range(max(1, round(res.wall_s / REF_EVERY_S)))]
        if res.problems:
            failed_shots += res.shots
            problems.extend(res.problems)
        results.append(res)
        j += 1
        if perf_counter() >= deadline:
            return results, rounds, failed_shots, problems


def fingerprint(outputs: dict, extra: dict | None = None) -> dict:
    doc = {"pass0": outputs, **(extra or {})}
    text = json.dumps(doc, sort_keys=True, default=str)
    return {"fingerprint": doc, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def untraced_run(wl, seed, seconds):
    from checks import self_test
    from workloads import config
    warm_up()
    setup_s, graph, table = median_setup(wl, seed)
    self_ok = self_test(graph, table, config(wl, seed))
    results, rounds, failed, problems = measure(wl, graph, table, seed, seconds,
                                             plain_call)
    shots = sum(r.shots for r in results)
    print(json.dumps(fingerprint(results[0].outputs)))
    print(json.dumps({"unscaled": {
        "shots_per_wall_s": statistics.median(r.raw_rate for r in results),
        "host_slowdown": slowdown(rounds),
        "kernel_rounds": len(rounds),
        "passes": len(results)}}))
    metrics = {
        "shots_per_s": (scaled_rate(results, rounds), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return shots + 1, failed + (not self_ok), problems, metrics


def scaled_rate(results, rounds) -> float:
    """Median over passes of trials per second, on the reference host.

    The median is robust to a pass slowed by a burst of other load; the
    reference kernel takes out the slower drift of the host's speed.
    """
    return statistics.median(r.raw_rate for r in results) * slowdown(rounds)


def _pct(values, q) -> float:
    import numpy
    return float(numpy.percentile(values, q)) if len(values) else 0.0


def probes(seed, table) -> dict:
    """Path-table build at d in {5, 11, 13}; exact match at HW {6, 8, 10, 12}.

    HW 14 is left out: brute force there takes seconds per call.
    """
    import numpy
    from surfmatch import MAX_HW_CAP, brute_force_mwpm, build_decoding_graph, build_path_table
    out = {}
    for d in (5, 11, 13):
        graph = build_decoding_graph(d, None, 1e-3)
        times = []
        for _ in range(3):
            t0 = perf_counter()
            build_path_table(graph)
            times.append(perf_counter() - t0)
        out[f"graph.path_table_s.d{d}"] = (statistics.median(times), "s")
    rng = numpy.random.default_rng(seed)
    for hw, reps in ((6, 15), (8, 9), (10, 5), (12, 3)):
        times = []
        for _ in range(reps):
            defects = rng.choice(table.n, size=hw, replace=False).tolist()
            t0 = perf_counter()
            brute_force_mwpm(defects, table, hw_cap=MAX_HW_CAP)
            times.append(perf_counter() - t0)
        out[f"maindecoder.match_us.hw{hw}"] = (statistics.median(times) * 1e6, "us")
    return out


def _overhead(plain, traced) -> float:
    """Traced over untraced wall time of the passes both halves ran, minus one.

    Both halves start at pass 0, so pass j has the same inputs in each.
    """
    n = min(len(plain), len(traced))
    return (sum(r.wall_s for r in traced[:n]) / sum(r.wall_s for r in plain[:n])
            - 1.0)


def traced_run(wl, seed, seconds):
    import numpy
    from checks import TrialAudit, self_test
    from tracing import Tracer
    from workloads import config, s_to_10pct_rel_stderr

    tracer = Tracer()
    warm_up()
    with tracer.installed({}):
        _, graph, table = median_setup(wl, seed)
    cfg = config(wl, seed)
    self_ok = self_test(graph, table, cfg)
    metrics = probes(seed, table)

    # Untraced half first: the overhead compares the same passes.
    plain, rounds, failed_plain, problems = measure(wl, graph, table, seed,
                                                 seconds / 2, plain_call)
    audit = TrialAudit(graph, cfg.budget_ns)

    marks = []  # time spent in the checks before each pass

    def before_pass(j):
        audit.counting = j == 0
        marks.append(tracer.observe_s)

    with tracer.installed(audit.observers()):
        traced, _, failed_traced, more = measure(wl, graph, table, seed,
                                                 seconds / 2, tracer.call, before_pass)
    marks.append(tracer.observe_s)
    for res, start, end in zip(traced, marks, marks[1:]):
        res.wall_s -= end - start  # the benchmark's checks are not traced work
    problems += more + audit.problems
    missing = [s for s in wl.expected if tracer.stat(s).calls == 0]
    for span in missing:
        print(f"missing span: {span} recorded no calls on {wl.name}", file=sys.stderr)

    st = tracer.stat
    wall = sum(r.wall_s for r in traced)
    c = audit.counts

    def mean_us(*names):
        calls = sum(st(n).calls for n in names)
        return sum(st(n).total_s for n in names) / calls * 1e6 if calls else 0.0

    def share(*names, self_time=False):
        return sum(st(n).self_s if self_time else st(n).total_s for n in names) / wall

    def ratio(a, b):
        return a / b if b else 0.0

    pre = st("predecoder.adaptive_predecode").durations
    dec = st("maindecoder.decode").durations
    chain = st("harness.run_chain").durations
    noise = ("noise.trial_seed", "noise.sample_iid", "noise.inject_k_errors",
             "noise.syndrome_from_errors")
    harness_spans = [n for n in tracer.stats if n.startswith("harness.")]
    metrics.update({
        "graph.build_s": (_pct(st("graph.build_decoding_graph").durations, 50), "s"),
        "graph.path_table_s": (_pct(st("graph.build_path_table").durations, 50), "s"),
        "graph.path_table_mb": (sum(v.nbytes for v in vars(table).values()
                                    if isinstance(v, numpy.ndarray)) / 2**20, "MB"),
        "noise.seed_us": (mean_us("noise.trial_seed"), "us"),
        "noise.sample_us": (mean_us("noise.sample_iid", "noise.inject_k_errors"), "us"),
        "noise.syndrome_us": (mean_us("noise.syndrome_from_errors"), "us"),
        "noise.share": (share(*noise, self_time=True), "ratio"),
        "noise.hw0_fraction": (ratio(c["hw0"], c["syndromes"]), "ratio"),
        "predecoder.calls": (c["predecoder.calls"], "count"),
        "predecoder.us_p50": (_pct(pre, 50) * 1e6, "us"),
        "predecoder.us_p99": (_pct(pre, 99) * 1e6, "us"),
        "predecoder.share": (share("predecoder.adaptive_predecode"), "ratio"),
        "predecoder.rounds_mean": (ratio(c["predecoder.rounds"], c["predecoder.calls"]), "rounds"),
        "predecoder.aborts": (c["predecoder.aborts"], "count"),
        "predecoder.modeled_cycles_sum": (c["predecoder.cycles"], "cycles"),
        "predecoder.useful_ratio": (ratio(c["predecoder.calls"] - c["predecoder.aborts"],
                                          c["predecoder.calls"]), "ratio"),
        "maindecoder.calls": (c["maindecoder.calls"], "count"),
        "maindecoder.us_p50": (_pct(dec, 50) * 1e6, "us"),
        "maindecoder.us_p99": (_pct(dec, 99) * 1e6, "us"),
        "maindecoder.share": (share("maindecoder.decode"), "ratio"),
        "maindecoder.input_hw_mean": (ratio(c["matcher.hw"], c["matcher.calls"]), "defects"),
        "maindecoder.enumerated_sum": (c["matcher.enumerated"], "pairings"),
        "maindecoder.modeled_pairings_sum": (c["matcher.modeled"], "pairings"),
        "harness.self_share": (share(*harness_spans, self_time=True), "ratio"),
        "harness.chain_us_p50": (_pct(chain, 50) * 1e6, "us"),
        "harness.chain_us_p99": (_pct(chain, 99) * 1e6, "us"),
        "harness.failures": (c["failures"], "count"),
        "harness.modeled_total_ns_max": (audit.total_ns_max, "ns"),
        "harness.s_to_10pct_rel_stderr": (s_to_10pct_rel_stderr(plain), "s"),
        "harness.shots_per_wall_s": (statistics.median(r.raw_rate for r in plain), "1/s"),
        "harness.host_slowdown": (slowdown(rounds), "ratio"),
        "trace.overhead": (_overhead(plain, traced), "ratio"),
        "trace.coverage": (ratio(audit.records, audit.syndromes), "ratio"),
    })

    print(json.dumps({"spans": tracer.summary()}))
    print(json.dumps(fingerprint(traced[0].outputs, {
        "counts": dict(sorted(c.items())),
        "residual_hw": dict(sorted(audit.residual_hw.items())),
        "modeled_total_ns_max": audit.total_ns_max})))
    shots = sum(r.shots for r in plain) + sum(r.shots for r in traced)
    attempted = shots + 1 + len(wl.expected)
    failed = (failed_plain + failed_traced + audit.bad_records + (not self_ok)
              + len(missing))
    return attempted, min(failed, attempted), problems, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="direct-d5, rare-d5 or heavy-d11")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import surfmatch from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    print(json.dumps({"machine": machine_info(), "scope": SCOPE,
                      "run": {"workload": wl.name, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace}}))
    run = traced_run if args.trace else untraced_run
    attempted, failed, problems, metrics = run(wl, args.seed, args.seconds)
    for p in problems[:10]:
        print(f"check failed: {p}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
