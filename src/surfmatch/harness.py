"""Experiment harness: logical-error-rate estimation and pipeline reports.

Two estimators are provided.  ``run_direct`` Monte-Carlo samples the iid
edge-flip model and counts decode failures.  ``run_rare_event`` stratifies
by the number of injected errors k and combines the per-stratum failure
probabilities with the analytic occurrence probabilities,

    LER = sum_k P_occ(k) * P_fail(k),   k = 0 .. k_max,

which resolves logical error rates far below the reach of direct sampling.
P_fail(0) is 0 by definition (no errors, empty syndrome, no failure) and
the neglected tail sum_{k > k_max} P_occ(k) is reported as ``truncation``.

Trials are drawn in blocks of ``_BLOCK``: block b of a stream takes one
generator seeded from (master_seed, stream, [k,] b).  A block of i.i.d.
trials is one ``sample_iid`` call on it; in an exact-k block each trial
takes the draws that follow those of the trials before it.  Results are
reproducible bit-for-bit, and each block is the same whatever order the
blocks run in, so blocks (not single trials) can run in parallel.  The
implementation here runs them serially and reduces in index order.

The three estimators run their trials through one loop,
``_decoded_trials``, which is handed only error sets with at least one edge.
``run_direct`` filters out the error-free i.i.d. trials before the loop:
such a trial is a success without decoding, as its syndrome is empty and
its observable 0, and the chain bypasses the predecoder on it
(``fits(0, 0)`` holds), admits it and predicts 0.  The exact-k strata have
k >= 1.  The loop sets the ``outcome`` of each ``run_chain`` record to None
before it yields the record, so a record holds only atomic values, and its
outcome, matching, prematches and correction sets are freed by reference
counting at once.  The memo holds such records only, and the reports hold
none: their one pass adds each heavy record into weighted sums
(``_reports``).  Every trial's record is a pure function of its error set
under a fixed config, so within one estimator call the loop decodes each
distinct light error set once and gives its repeats the same record
object.  Light means a weight (number of edges) up to the largest w for
which weights 1..w have at most ``_MEMO_ENTRIES`` distinct sets in all,
one edge at d=5: under i.i.d. noise most trials with an error are that
light, while the sets of a heavier weight are too many to repeat often.
The memo lives for that call only and so holds at most ``_MEMO_ENTRIES``
error sets by construction; any heavier error set is decoded every time
it occurs.
"""
from __future__ import annotations

import math
from collections import Counter
from copy import deepcopy
from dataclasses import astuple, dataclass, replace
from itertools import islice, repeat

from .graph import (DetectorGraph, PathTable, build_decoding_graph, build_path_table,
                    check_code_params)
from .maindecoder import DEFAULT_HW_CAP, DecodeOutcome, check_detector_ids, decode
from .noise import (Syndrome, check_integer, inject_k_errors, make_rng,
                    occurrence_probability, occurrence_tail, sample_iid,
                    syndrome_from_errors, trial_seed)
from .predecoder import (GREEDY_LABEL, STEP_RANK, PredecodeConfig, adaptive_predecode,
                         greedy_baseline)

SCHEMA_VERSION = 1

PREDECODERS = ("adaptive", "greedy", "none")

# Seed-path stream tags so the estimators and reports draw disjoint streams.
_STREAM_DIRECT = 1
_STREAM_RARE = 2
_STREAM_REPORT = 3

# Trials per generator: one SeedSequence and PCG64 serve this many trials.
_BLOCK = 1024

# Distinct error sets one estimator call may remember the records of: the
# memo admits the weights 1..w that have at most this many sets in all
# (``_memo_weight``).
_MEMO_ENTRIES = 4096

# ExperimentConfig fields that must be integers (``rounds`` may be None).
_COUNT_FIELDS = ("distance", "rounds", "k_max", "shots_per_k", "shots_direct",
                 "master_seed")


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment."""

    distance: int = 3
    rounds: int | None = None
    p: float = 1e-3
    predecoder: str = "adaptive"
    main_hw_cap: int = DEFAULT_HW_CAP
    budget_ns: float = 960.0
    clock_mhz: float = 250.0
    k_max: int = 24
    shots_per_k: int = 100_000
    shots_direct: int = 100_000
    master_seed: int = 0

    def validate(self, graph: DetectorGraph | None = None) -> None:
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if not (name == "rounds" and value is None):
                check_integer(name, value)
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        check_code_params(self.distance, self.rounds, self.p)
        if self.predecoder not in PREDECODERS:
            raise ValueError(f"predecoder must be one of {PREDECODERS}, got {self.predecoder!r}")
        self.predecode_config()  # checks main_hw_cap, budget_ns and clock_mhz
        if self.k_max < 0:
            raise ValueError(f"k_max must be >= 0, got {self.k_max}")
        for name in ("shots_per_k", "shots_direct"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if graph is None:
            return
        have = (graph.distance, graph.rounds, graph.p)
        want = (self.distance, self.rounds or self.distance, self.p)
        if have != want:
            raise ValueError(f"graph (distance, rounds, p) {have} does not match "
                             f"the config's {want}")
        if self.k_max > graph.n_edges:
            raise ValueError(
                f"k_max {self.k_max} exceeds the {graph.n_edges} edges of the graph")

    @property
    def predecoder_label(self) -> str:
        return GREEDY_LABEL if self.predecoder == "greedy" else self.predecoder

    def predecode_config(self) -> PredecodeConfig:
        return PredecodeConfig(main_hw_cap=self.main_hw_cap,
                               budget_ns=self.budget_ns,
                               clock_mhz=self.clock_mhz)

    def build(self) -> tuple[DetectorGraph, PathTable]:
        self.validate()  # every field, before a graph is built
        graph = build_decoding_graph(self.distance, self.rounds, self.p)
        self.validate(graph)
        return graph, build_path_table(graph)


@dataclass(slots=True)
class TrialRecord:
    """Chain-level result of decoding one sampled syndrome.

    Not frozen, so that it is cheap to build, and so not hashable; treat
    it as read-only.  ``outcome`` is None on an abort, and on the records
    the estimators keep, which release it (``_decoded_trials``).
    """

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

    The cap, budget and clock come from ``pcfg`` (default
    ``cfg.predecode_config()``).  The adaptive and greedy chains bypass the
    predecoder where ``pcfg.fits(hw, 0)`` holds and admit a residual their
    predecoder did not abort, as it stops only where ``fits`` holds.  The
    offline baseline, no predecoder, admits a syndrome within the cap at
    any modeled time.  An abort counts as a logical failure.  Flipped ids
    outside the graph's detectors raise ``ValueError`` on every path:
    ``build_subgraph`` refuses them before a predecode and ``decode`` on a
    bypass, so the chain checks them itself only on a bypass it does not
    admit.
    """
    pcfg = pcfg if pcfg is not None else cfg.predecode_config()
    cap = pcfg.main_hw_cap
    hw = syndrome.hamming_weight
    pre = None
    if cfg.predecoder == "adaptive" and not pcfg.fits(hw, 0):
        pre = adaptive_predecode(graph, table, syndrome, pcfg)
    elif cfg.predecoder == "greedy" and not pcfg.fits(hw, 0):
        pre = greedy_baseline(graph, syndrome, pcfg)
    bypassed = pre is None
    post = hw if bypassed else pre.residual.hamming_weight
    cycles = 0 if bypassed else pre.cycles
    deepest = None if bypassed else _deepest_step(pre)
    pre_ns = cycles * pcfg.cycle_ns

    admitted = post <= cap if bypassed else not pre.aborted
    if not admitted:
        if bypassed:
            check_detector_ids(graph, syndrome.flipped)
        return TrialRecord(True, hw, post, cycles, pre_ns, None, True, bypassed, deepest)
    out = decode(graph, table, syndrome, pre, cap)
    return TrialRecord(out.logical_failure, hw, post, cycles, pre_ns,
                       pre_ns + pcfg.main_latency(post), False, bypassed, deepest, out)


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


def _graph_and_table(cfg: ExperimentConfig, graph: DetectorGraph | None,
                     table: PathTable | None) -> tuple[DetectorGraph, PathTable]:
    """The caller's graph and table checked against ``cfg``, or new ones."""
    if graph is None or table is None:
        return cfg.build()
    cfg.validate(graph)
    return graph, table


def _block_rngs(master_seed: int, n: int, *path: int):
    """(generator, trial count) of each block of ``n`` trials of the stream ``path``.

    Block b covers trials b * _BLOCK onwards and its generator is seeded
    from (master_seed, *path, b).
    """
    for b in range(-(-n // _BLOCK)):
        yield make_rng(trial_seed(master_seed, *path, b)), min(_BLOCK, n - b * _BLOCK)


def _trial_rngs(master_seed: int, n: int, *path: int):
    """The generator of each of ``n`` trials of the stream ``path``.

    Trial i draws from the generator of its block right after the draws of
    the trials before it in that block; so the trials of a block must be
    drawn in order.
    """
    for rng, size in _block_rngs(master_seed, n, *path):
        yield from repeat(rng, size)


def _exact_k_trials(graph: DetectorGraph, master_seed: int, shots: int,
                    stream: int, ks):
    """``shots`` exact-k error sets of the stream for each k of ``ks`` in turn."""
    for k in ks:
        for rng in _trial_rngs(master_seed, shots, stream, k):
            yield inject_k_errors(graph, k, rng)


def _memo_weight(n_edges: int) -> int:
    """The heaviest error-set weight w the trial memo admits.

    The weights 1..w have at most ``_MEMO_ENTRIES`` distinct sets in all, so
    the memo cannot outgrow that bound and a stream of such trials repeats
    soon.  A heavier set is one of too many to repeat often: keeping its
    record until the call ends would save little and let the memo grow with
    the number of trials.
    """
    w, sets = 0, 0
    while w < n_edges:
        sets += math.comb(n_edges, w + 1)
        if sets > _MEMO_ENTRIES:
            break
        w += 1
    return w


def _decoded_trials(graph: DetectorGraph, table: PathTable, cfg: ExperimentConfig,
                    trials, min_hw: int = 0):
    """The ``TrialRecord`` of each non-empty error set of ``trials``, or None.

    None marks a trial whose syndrome weighs less than ``min_hw``, which is
    not decoded.  Each record is yielded with its ``outcome`` released
    (set to None), so it holds atomic values only and keeps no decode
    object alive.  A repeated error set the memo holds gets the record
    object of its first occurrence without a new syndrome or chain (see
    the module docstring).
    """
    pcfg = cfg.predecode_config()
    memo: dict[frozenset, TrialRecord | None] = {}
    w_max = _memo_weight(graph.n_edges)
    for errors in trials:
        if errors in memo:
            yield memo[errors]
        else:
            syndrome = syndrome_from_errors(graph, errors)
            record = None
            if syndrome.hamming_weight >= min_hw:
                record = run_chain(graph, table, syndrome, cfg, pcfg)
                record.outcome = None
            if len(errors) <= w_max:
                memo[errors] = record
            yield record


def run_direct(cfg: ExperimentConfig, graph: DetectorGraph | None = None,
               table: PathTable | None = None) -> LerEstimate:
    """Monte-Carlo LER: decode iid samples and count failures.

    Each block of trials is one ``sample_iid`` call on the block's
    generator, which samples the block's flips by their gaps, so the draw
    costs about the block's expected number of flips.  Only the trials
    with an error are decoded: an error-free one cannot fail (see the
    module docstring).
    """
    graph, table = _graph_and_table(cfg, graph, table)
    trials = (errors for rng, size in _block_rngs(cfg.master_seed, cfg.shots_direct,
                                                  _STREAM_DIRECT)
              for errors in filter(None, sample_iid(graph, rng, size)))
    failures = sum(r.failure for r in _decoded_trials(graph, table, cfg, trials))
    n = cfg.shots_direct
    ler = failures / n
    stderr = math.sqrt(ler * (1.0 - ler) / n)
    return LerEstimate(ler, (), stderr, 0.0)


def run_rare_event(cfg: ExperimentConfig, graph: DetectorGraph | None = None,
                   table: PathTable | None = None) -> LerEstimate:
    """Rare-event LER: per-k failure rates combined with occurrence weights."""
    graph, table = _graph_and_table(cfg, graph, table)
    shots = cfg.shots_per_k
    ks = range(1, cfg.k_max + 1)
    records = _decoded_trials(graph, table, cfg, _exact_k_trials(
        graph, cfg.master_seed, shots, _STREAM_RARE, ks))
    strata = [KStratum(0, occurrence_probability(0, graph.n_edges, graph.p), 0.0, 0, 0)]
    for k in ks:
        failures = sum(r.failure for r in islice(records, shots))
        strata.append(KStratum(k, occurrence_probability(k, graph.n_edges, graph.p),
                               failures / shots, failures, shots))
    ler = sum(s.p_occ * s.p_fail for s in strata)
    var = sum((s.p_occ ** 2) * s.p_fail * (1.0 - s.p_fail) / s.shots
              for s in strata if s.shots > 0)
    truncation = occurrence_tail(cfg.k_max, graph.n_edges, graph.p)
    return LerEstimate(ler, tuple(strata), math.sqrt(var), truncation)


# The three reports of the last corpus pass, as (graph, table, key, reports).
# One slot is enough: the three reports of one configuration run back to
# back.  The slot holds graph and table, so their ids cannot be reused while
# it compares them, and it is read once per call so that a caller replacing
# it mixes no entries.
_last_reports: tuple | None = None


def _reports(cfg: ExperimentConfig, graph: DetectorGraph | None,
             table: PathTable | None,
             shots_per_k: int | None) -> tuple[dict, dict, dict]:
    """The HW-distribution, latency and step-usage reports of one corpus pass.

    The corpus is the exact-k trials of the report stream whose syndromes
    exceed the main stage's cap.  k below ceil((cap+1)/2) cannot exceed the
    cap (each error flips at most two detectors), so those strata are not
    sampled.  Every statistic is a mean over the corpus in which a trial of
    stratum k weighs P_occ(k): each stratum draws the same number of
    trials, so this is the stratified estimate of the statistic over i.i.d.
    syndromes above the cap.  The latency means and the step shares are
    over the decoded (not aborted) trials alone.

    A call with the same graph and table objects, an equal config and the
    same shot count as the previous call returns the previous reports, so
    the three reports of one configuration sample and decode once.
    """
    global _last_reports
    cfg = cfg if shots_per_k is None else replace(cfg, shots_per_k=shots_per_k)
    cfg.validate()  # the shot count too, before a graph is built
    graph, table = _graph_and_table(cfg, graph, table)
    shots, key = cfg.shots_per_k, astuple(cfg)
    memo = _last_reports
    if memo and memo[0] is graph and memo[1] is table and memo[2] == key:
        return memo[3]
    ks = range(cfg.main_hw_cap // 2 + 1, cfg.k_max + 1)
    records = _decoded_trials(graph, table, cfg, _exact_k_trials(
        graph, cfg.master_seed, shots, _STREAM_REPORT, ks), cfg.main_hw_cap + 1)
    pre: Counter = Counter()
    post: Counter = Counter()
    steps: Counter = Counter()
    samples = 0
    total = aborted = decoded = pre_ns = total_ns = pre_max = total_max = 0.0
    for k in ks:
        w = occurrence_probability(k, graph.n_edges, graph.p)
        for r in islice(records, shots):
            if r is None:
                continue
            # Both histograms cover every trial; `post` is the residual
            # weight handed to (or stranded short of) the main stage, so
            # with no predecoder it equals `pre`.
            samples += 1
            total += w
            pre[r.pre_hw] += w
            post[r.post_hw] += w
            if r.aborted:
                aborted += w
                continue
            decoded += w
            pre_ns += w * r.predecode_ns
            total_ns += w * r.total_ns
            pre_max = max(pre_max, r.predecode_ns)
            total_max = max(total_max, r.total_ns)
            if r.deepest_step is not None:
                steps[r.deepest_step] += w
    label = cfg.predecoder_label
    abort_rate = aborted / total if total else 0.0
    decoded = decoded or 1.0  # with nothing decoded, every sum is 0.0
    reports = (
        {"predecoder": label, "samples": samples,
         "pre": {hw: pre[hw] / total for hw in sorted(pre)} if total else {},
         "post": {hw: post[hw] / total for hw in sorted(post)} if total else {},
         "abort_rate": abort_rate},
        {"predecoder": label, "samples": samples, "budget_ns": cfg.budget_ns,
         "abort_rate": abort_rate,
         "predecode_max_ns": pre_max, "predecode_mean_ns": pre_ns / decoded,
         "total_max_ns": total_max, "total_mean_ns": total_ns / decoded},
        {"predecoder": label, "samples": samples, "abort_rate": abort_rate,
         "steps": {step: steps[step] / decoded for step in sorted(steps)}},
    )
    _last_reports = (graph, table, key, reports)
    return reports


def report_hw_distribution(cfg: ExperimentConfig,
                           graph: DetectorGraph | None = None,
                           table: PathTable | None = None,
                           shots_per_k: int | None = None) -> dict:
    """Hamming-weight histograms before and after predecoding."""
    return deepcopy(_reports(cfg, graph, table, shots_per_k)[0])


def report_latency(cfg: ExperimentConfig, graph: DetectorGraph | None = None,
                   table: PathTable | None = None,
                   shots_per_k: int | None = None) -> dict:
    """Modeled predecode and total latency over high-HW syndromes."""
    return deepcopy(_reports(cfg, graph, table, shots_per_k)[1])


def report_step_usage(cfg: ExperimentConfig, graph: DetectorGraph | None = None,
                      table: PathTable | None = None,
                      shots_per_k: int | None = None) -> dict:
    """Fraction of decoded high-HW syndromes whose deepest step is each step."""
    return deepcopy(_reports(cfg, graph, table, shots_per_k)[2])
