"""The three workloads and how one pass of each runs, is checked and counted.

A run repeats passes back to back (a closed loop with one caller).  Pass j
calls the public estimator API with ``master_seed = seed + j * 2**32``, so
pass 0 gets the workload seed unchanged and no two passes of a run share a
trial.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from surfmatch import ExperimentConfig, harness

from checks import check_direct, check_rare, check_reports


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "direct", "rare" or "reports"
    distance: int
    p: float
    shots: int         # shots_direct, or shots_per_k for "rare" and "reports"
    k_max: int = 24
    # Spans that must record calls in a traced run of this workload.
    expected: tuple[str, ...] = ()


_COMMON = ("graph.build_decoding_graph", "graph.build_path_table",
           "noise.trial_seed", "noise.syndrome_from_errors", "harness.run_chain",
           "maindecoder.decode", "maindecoder.brute_force_mwpm")
_EXACT_K = _COMMON + ("noise.inject_k_errors", "predecoder.adaptive_predecode")

# Why each workload: direct-d5 is light shots (mean weight < 1, mostly HW 0)
# where noise sampling dominates and the predecoder never runs; rare-d5
# injects exactly k <= 16 errors so the exact matcher at HW 6-10 dominates;
# heavy-d11 is the report bundle of scripts/run_reports.py, HW 9-48, where
# predecoder and matcher split the time and the d=11 path table weighs in
# set-up.
WORKLOADS = {w.name: w for w in (
    Workload("direct-d5", "direct", 5, 1e-3, 10_000,
             expected=_COMMON + ("noise.sample_iid",)),
    Workload("rare-d5", "rare", 5, 1e-3, 50, k_max=16, expected=_EXACT_K),
    Workload("heavy-d11", "reports", 11, 1e-4, 10, expected=_EXACT_K),
)}


def config(wl: Workload, master_seed: int) -> ExperimentConfig:
    return ExperimentConfig(distance=wl.distance, p=wl.p, k_max=wl.k_max,
                            shots_per_k=wl.shots, shots_direct=wl.shots,
                            master_seed=master_seed)


def pass_seed(seed: int, j: int) -> int:
    return seed + (j << 32)


@dataclass
class PassResult:
    shots: int                 # trials sampled and decoded
    outputs: dict              # estimator outputs, part of the fingerprint
    problems: list[str] = field(default_factory=list)
    ler: float | None = None   # LER estimate and its variance, when the
    var: float | None = None   # workload makes one
    wall_s: float = 0.0

    @property
    def raw_rate(self) -> float:
        """Trials per second of wall time on this host."""
        return self.shots / self.wall_s


def run_pass(wl: Workload, cfg: ExperimentConfig, graph, table, call) -> PassResult:
    """One estimator pass; ``call(span, fn, *args)`` runs an estimator entry point."""
    if wl.kind == "direct":
        est = call("harness.run_direct", harness.run_direct, cfg, graph, table)
        n = cfg.shots_direct
        return PassResult(n, {"failures": round(est.ler * n), "ler": est.ler},
                          check_direct(est, n), est.ler, est.stderr ** 2)
    if wl.kind == "rare":
        est = call("harness.run_rare_event", harness.run_rare_event, cfg, graph, table)
        outputs = {"failures_per_k": [s.failures for s in est.per_k],
                   "ler": est.ler, "stderr": est.stderr}
        return PassResult(sum(s.shots for s in est.per_k), outputs,
                          check_rare(est, cfg), est.ler, est.stderr ** 2)
    hw = call("harness.report_hw_distribution", harness.report_hw_distribution,
              cfg, graph, table, wl.shots)
    lat = call("harness.report_latency", harness.report_latency,
               cfg, graph, table, wl.shots)
    steps = call("harness.report_step_usage", harness.report_step_usage,
                 cfg, graph, table, wl.shots)
    # A trial is one corpus syndrome; the three reports describe the same
    # corpus, so a change that decodes it once reports three times faster.
    return PassResult(hw["samples"], {"hw": hw, "latency": lat, "steps": steps},
                      check_reports(hw, lat, steps))


def s_to_10pct_rel_stderr(results: list[PassResult]) -> float:
    """Wall time to reach a 10% relative standard error on the pooled LER.

    ``wall_s * (stderr / ler / 0.1)**2`` over the mean of the passes'
    independent estimates; 0 when the workload makes no LER estimate or
    saw no failure.
    """
    lers = [r.ler for r in results if r.ler is not None]
    if not lers or sum(lers) == 0.0:
        return 0.0
    ler = sum(lers) / len(lers)
    stderr = math.sqrt(sum(r.var for r in results)) / len(lers)
    return sum(r.wall_s for r in results) * (stderr / ler / 0.1) ** 2
