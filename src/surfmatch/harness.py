"""Experiment harness: logical-error-rate estimation and pipeline reports.

Two estimators are provided.  ``run_direct`` Monte-Carlo samples the iid
edge-flip model and counts decode failures.  ``run_rare_event`` stratifies
by the number of injected errors k and combines the per-stratum failure
probabilities with the analytic occurrence probabilities,

    LER = sum_k P_occ(k) * P_fail(k),   k = 0 .. k_max,

which resolves logical error rates far below the reach of direct sampling.
P_fail(0) is 0 by definition (no errors, empty syndrome, no failure) and
the neglected tail sum_{k > k_max} P_occ(k) is reported as ``truncation``.

Trials are embarrassingly parallel: every trial's generator is seeded from
(master_seed, stream, k, index), so results are reproducible bit-for-bit
regardless of execution order.  The implementation here runs them serially
and reduces in index order.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .graph import DetectorGraph, PathTable, build_decoding_graph, build_path_table
from .maindecoder import MAX_HW_CAP, DecodeOutcome, decode
from .noise import (Syndrome, inject_k_errors, occurrence_probability,
                    occurrence_tail, sample_iid, syndrome_from_errors, trial_seed)
from .oracle import GREEDY_LABEL, greedy_baseline
from .predecoder import STEP_RANK, PredecodeConfig, adaptive_predecode

SCHEMA_VERSION = 1

PREDECODERS = ("adaptive", "greedy", "none")

# Seed-path stream tags so the estimators and reports draw disjoint streams.
_STREAM_DIRECT = 1
_STREAM_RARE = 2
_STREAM_REPORT = 3


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment."""

    distance: int = 3
    rounds: int | None = None
    p: float = 1e-3
    predecoder: str = "adaptive"
    main_hw_cap: int = 10
    hw_target: int = 10
    budget_ns: float = 960.0
    clock_mhz: float = 250.0
    k_max: int = 24
    shots_per_k: int = 100_000
    shots_direct: int = 100_000
    master_seed: int = 0

    def validate(self, graph: DetectorGraph | None = None) -> None:
        if self.distance < 3 or self.distance % 2 == 0:
            raise ValueError(f"distance must be an odd integer >= 3, got {self.distance}")
        if self.rounds is not None and self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not 0.0 < self.p < 0.5:
            raise ValueError(f"p must be in (0, 0.5), got {self.p}")
        if self.predecoder not in PREDECODERS:
            raise ValueError(f"predecoder must be one of {PREDECODERS}, got {self.predecoder!r}")
        if not 1 <= self.main_hw_cap <= MAX_HW_CAP:
            raise ValueError(
                f"main_hw_cap must be in [1, {MAX_HW_CAP}], got {self.main_hw_cap}")
        if self.hw_target not in (6, 8, 10):
            raise ValueError(f"hw_target must be 6, 8 or 10, got {self.hw_target}")
        if self.budget_ns <= 0:
            raise ValueError(f"budget_ns must be positive, got {self.budget_ns}")
        if self.clock_mhz <= 0:
            raise ValueError(f"clock_mhz must be positive, got {self.clock_mhz}")
        if self.k_max < 0:
            raise ValueError(f"k_max must be >= 0, got {self.k_max}")
        if self.shots_per_k <= 0 or self.shots_direct <= 0:
            raise ValueError("shot counts must be positive")
        if graph is not None and self.k_max > graph.n_edges:
            raise ValueError(
                f"k_max {self.k_max} exceeds the {graph.n_edges} edges of the graph")

    @property
    def predecoder_label(self) -> str:
        return GREEDY_LABEL if self.predecoder == "greedy" else self.predecoder

    def predecode_config(self) -> PredecodeConfig:
        return PredecodeConfig(hw_target=self.hw_target,
                               budget_ns=self.budget_ns,
                               clock_mhz=self.clock_mhz)

    def build(self) -> tuple[DetectorGraph, PathTable]:
        graph = build_decoding_graph(self.distance, self.rounds, self.p)
        self.validate(graph)
        return graph, build_path_table(graph)


@dataclass(frozen=True)
class TrialRecord:
    """Chain-level result of decoding one sampled syndrome."""

    failure: bool
    pre_hw: int
    post_hw: int
    predecode_cycles: int
    predecode_ns: float
    total_ns: float | None
    aborted: bool
    bypassed: bool
    deepest_step: str | None
    outcome: DecodeOutcome | None = None


def run_chain(graph: DetectorGraph, table: PathTable, syndrome: Syndrome,
              cfg: ExperimentConfig,
              pcfg: PredecodeConfig | None = None) -> TrialRecord:
    """Run the configured predecode-then-match chain on one syndrome.

    Syndromes at or below the main stage's cap bypass the predecoder.  An
    abort (budget exhausted, or a greedy residual the main stage cannot
    take) counts as a logical failure.
    """
    pcfg = pcfg if pcfg is not None else cfg.predecode_config()
    hw = syndrome.hamming_weight
    period = pcfg.cycle_ns

    if cfg.predecoder == "none" or hw <= cfg.main_hw_cap:
        if hw > cfg.main_hw_cap:
            return TrialRecord(True, hw, hw, 0, 0.0, None, True, True, None)
        out = decode(graph, table, syndrome, None, cfg.main_hw_cap)
        return TrialRecord(out.logical_failure, hw, hw, 0, 0.0,
                           pcfg.main_latency(hw), False, True, None, out)

    if cfg.predecoder == "adaptive":
        pre = adaptive_predecode(graph, table, syndrome, pcfg)
        post = pre.residual.hamming_weight
        deepest = _deepest_step(pre)
        if pre.aborted:
            return TrialRecord(True, hw, post, pre.cycles, pre.cycles * period,
                               None, True, False, deepest)
        out = decode(graph, table, syndrome, pre, cfg.main_hw_cap)
        total = pre.cycles * period + pcfg.main_latency(post)
        return TrialRecord(out.logical_failure, hw, post, pre.cycles,
                           pre.cycles * period, total, False, False, deepest, out)

    # Greedy baseline: no budget logic of its own, so the chain applies the
    # same real-time predicate after the fact.
    pre = greedy_baseline(graph, syndrome, cfg.hw_target)
    post = pre.residual.hamming_weight
    deepest = _deepest_step(pre)
    total = pre.cycles * period + pcfg.main_latency(post)
    if post > cfg.main_hw_cap or total > cfg.budget_ns:
        return TrialRecord(True, hw, post, pre.cycles, pre.cycles * period,
                           None, True, False, deepest)
    out = decode(graph, table, syndrome, pre, cfg.main_hw_cap)
    return TrialRecord(out.logical_failure, hw, post, pre.cycles,
                       pre.cycles * period, total, False, False, deepest, out)


def _deepest_step(pre) -> str | None:
    if not pre.prematches:
        return None
    return max((pm.step for pm in pre.prematches), key=STEP_RANK.get).value


@dataclass(frozen=True)
class KStratum:
    k: int
    p_occ: float
    p_fail: float
    failures: int
    shots: int


@dataclass(frozen=True)
class LerEstimate:
    """A logical-error-rate estimate with its statistical uncertainty."""

    ler: float
    per_k: tuple[KStratum, ...]
    stderr: float
    truncation: float = 0.0

    def to_dict(self) -> dict:
        return {
            "ler": self.ler,
            "stderr": self.stderr,
            "truncation": self.truncation,
            "per_k": [
                {"k": s.k, "p_occ": s.p_occ, "p_fail": s.p_fail,
                 "failures": s.failures, "shots": s.shots}
                for s in self.per_k
            ],
        }


def run_direct(cfg: ExperimentConfig, graph: DetectorGraph | None = None,
               table: PathTable | None = None, decode_fn=None,
               p_override: float | None = None) -> LerEstimate:
    """Monte-Carlo LER: decode iid samples and count failures.

    ``p_override`` changes only the sampling rate, not the graph weights
    (``0.0`` is allowed and gives empty error sets, hence LER 0).
    """
    if graph is None or table is None:
        graph, table = cfg.build()
    else:
        cfg.validate(graph)
    pcfg = cfg.predecode_config()
    failures = 0
    for i in range(cfg.shots_direct):
        seed = trial_seed(cfg.master_seed, _STREAM_DIRECT, i)
        errors = sample_iid(graph, p_override, seed)
        syndrome = syndrome_from_errors(graph, errors)
        if decode_fn is not None:
            failed = bool(decode_fn(graph, table, syndrome))
        else:
            failed = run_chain(graph, table, syndrome, cfg, pcfg).failure
        failures += failed
    n = cfg.shots_direct
    ler = failures / n
    stderr = math.sqrt(ler * (1.0 - ler) / n)
    return LerEstimate(ler, (), stderr, 0.0)


def run_rare_event(cfg: ExperimentConfig, graph: DetectorGraph | None = None,
                   table: PathTable | None = None, decode_fn=None) -> LerEstimate:
    """Rare-event LER: per-k failure rates combined with occurrence weights."""
    if graph is None or table is None:
        graph, table = cfg.build()
    else:
        cfg.validate(graph)
    pcfg = cfg.predecode_config()
    strata: list[KStratum] = []
    for k in range(cfg.k_max + 1):
        p_occ = occurrence_probability(k, graph.n_edges, graph.p)
        if k == 0:
            strata.append(KStratum(0, p_occ, 0.0, 0, 0))
            continue
        failures = 0
        for i in range(cfg.shots_per_k):
            seed = trial_seed(cfg.master_seed, _STREAM_RARE, k, i)
            errors = inject_k_errors(graph, k, seed)
            syndrome = syndrome_from_errors(graph, errors)
            if decode_fn is not None:
                failed = bool(decode_fn(graph, table, syndrome))
            else:
                failed = run_chain(graph, table, syndrome, cfg, pcfg).failure
            failures += failed
        strata.append(KStratum(k, p_occ, failures / cfg.shots_per_k,
                               failures, cfg.shots_per_k))
    ler = sum(s.p_occ * s.p_fail for s in strata)
    var = sum((s.p_occ ** 2) * s.p_fail * (1.0 - s.p_fail) / s.shots
              for s in strata if s.shots > 0)
    truncation = occurrence_tail(cfg.k_max, graph.n_edges, graph.p)
    return LerEstimate(ler, tuple(strata), math.sqrt(var), truncation)


@dataclass
class _Stratum:
    k: int
    p_occ: float
    shots: int
    records: list[TrialRecord] = field(default_factory=list)

    @property
    def weight(self) -> float:
        # Occurrence-weighted share of high-HW syndromes coming from this k.
        return self.p_occ * (len(self.records) / self.shots) if self.shots else 0.0


def _high_hw_corpus(cfg: ExperimentConfig, graph: DetectorGraph,
                    table: PathTable, shots_per_k: int | None = None) -> list[_Stratum]:
    """Per-k samples of syndromes above the main stage's cap.

    k below ceil((cap+1)/2) cannot exceed the cap (each error flips at
    most two detectors) so those strata are skipped.  Stratum statistics
    are later combined with weights P_occ(k) * P(HW > cap | k), matching
    how the per-sample frequencies arise under the iid model.
    """
    pcfg = cfg.predecode_config()
    shots = shots_per_k if shots_per_k is not None else cfg.shots_per_k
    k_lo = cfg.main_hw_cap // 2 + 1
    strata = []
    for k in range(k_lo, cfg.k_max + 1):
        stratum = _Stratum(k, occurrence_probability(k, graph.n_edges, graph.p),
                           shots)
        for i in range(shots):
            seed = trial_seed(cfg.master_seed, _STREAM_REPORT, k, i)
            errors = inject_k_errors(graph, k, seed)
            syndrome = syndrome_from_errors(graph, errors)
            if syndrome.hamming_weight <= cfg.main_hw_cap:
                continue
            stratum.records.append(run_chain(graph, table, syndrome, cfg, pcfg))
        strata.append(stratum)
    return strata


def _weighted(strata: list[_Stratum], value) -> float:
    """Combine a per-record statistic across strata with occurrence weights."""
    total_w = sum(s.weight for s in strata if s.records)
    if total_w == 0.0:
        return 0.0
    acc = 0.0
    for s in strata:
        if not s.records:
            continue
        acc += s.weight * (sum(value(r) for r in s.records) / len(s.records))
    return acc / total_w


def report_hw_distribution(cfg: ExperimentConfig,
                           graph: DetectorGraph | None = None,
                           table: PathTable | None = None,
                           shots_per_k: int | None = None) -> dict:
    """Hamming-weight histograms before and after predecoding."""
    if graph is None or table is None:
        graph, table = cfg.build()
    else:
        cfg.validate(graph)
    strata = _high_hw_corpus(cfg, graph, table, shots_per_k)
    pre: Counter = Counter()
    post: Counter = Counter()
    total_w = sum(s.weight for s in strata if s.records)
    samples = sum(len(s.records) for s in strata)
    for s in strata:
        if not s.records or total_w == 0.0:
            continue
        share = s.weight / total_w
        n = len(s.records)
        for r in s.records:
            # Both histograms cover every trial; `post` uses the residual
            # weight handed to (or stranded short of) the main stage, so
            # with no predecoder it is identical to `pre`.  Aborts are
            # reported separately in abort_rate.
            pre[r.pre_hw] += share / n
            post[r.post_hw] += share / n
    abort_rate = _weighted(strata, lambda r: float(r.aborted))
    return {
        "predecoder": cfg.predecoder_label,
        "samples": samples,
        "pre": {hw: pre[hw] for hw in sorted(pre)},
        "post": {hw: post[hw] for hw in sorted(post)},
        "abort_rate": abort_rate,
    }


def report_latency(cfg: ExperimentConfig, graph: DetectorGraph | None = None,
                   table: PathTable | None = None,
                   shots_per_k: int | None = None) -> dict:
    """Modeled predecode and total latency over high-HW syndromes."""
    if graph is None or table is None:
        graph, table = cfg.build()
    else:
        cfg.validate(graph)
    strata = _high_hw_corpus(cfg, graph, table, shots_per_k)
    ok = [r for s in strata for r in s.records if not r.aborted]
    report = {
        "predecoder": cfg.predecoder_label,
        "samples": sum(len(s.records) for s in strata),
        "budget_ns": cfg.budget_ns,
        "abort_rate": _weighted(strata, lambda r: float(r.aborted)),
        "predecode_max_ns": max((r.predecode_ns for r in ok), default=0.0),
        "predecode_mean_ns": _weighted(
            strata, lambda r: r.predecode_ns if not r.aborted else 0.0),
        "total_max_ns": max((r.total_ns for r in ok), default=0.0),
        "total_mean_ns": _weighted(
            strata, lambda r: r.total_ns if not r.aborted else 0.0),
    }
    return report


def report_step_usage(cfg: ExperimentConfig, graph: DetectorGraph | None = None,
                      table: PathTable | None = None,
                      shots_per_k: int | None = None) -> dict:
    """Fraction of decoded high-HW syndromes whose deepest step is each step."""
    if graph is None or table is None:
        graph, table = cfg.build()
    else:
        cfg.validate(graph)
    strata = _high_hw_corpus(cfg, graph, table, shots_per_k)
    steps = sorted({r.deepest_step for s in strata for r in s.records
                    if not r.aborted and r.deepest_step is not None})
    freqs = {
        step: _weighted(strata, lambda r, st=step:
                        float(not r.aborted and r.deepest_step == st))
        for step in steps
    }
    decoded_w = _weighted(strata, lambda r: float(not r.aborted))
    if decoded_w > 0.0:
        freqs = {step: f / decoded_w for step, f in freqs.items()}
    return {
        "predecoder": cfg.predecoder_label,
        "samples": sum(len(s.records) for s in strata),
        "abort_rate": _weighted(strata, lambda r: float(r.aborted)),
        "steps": freqs,
    }
