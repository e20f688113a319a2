"""Output checks: per-trial verification and estimator invariants.

``verify_record`` checks one ``TrialRecord`` against the syndrome it
decoded.  ``TrialAudit`` applies it to every record of a traced phase and,
while ``counting`` is set, accumulates the modeled-behaviour counts that
repeat exactly for a fixed seed.  The ``check_*`` functions test the
invariants of each estimator's output and return a list of problems.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

from surfmatch import (ErrorSet, inject_k_errors, matching_search_size, run_chain,
                       syndrome_from_errors, trial_seed)


def correction_parity(graph, edge_ids) -> int:
    obs = 0
    for eid in edge_ids:
        obs ^= graph.edges[eid].flips_observable
    return int(obs)


def verify_record(graph, syndrome, record, budget_ns: float) -> list[str]:
    """Problems with one decode; an empty list means it checks out.

    The budget check covers decodes that went through the predecoder.  A
    syndrome at or below the main stage's cap bypasses the predecoder and
    its budget logic, so its modeled time is not bounded by the budget.
    """
    if record.aborted:
        return [] if record.failure else ["aborted decode not counted as a failure"]
    out = record.outcome
    if out is None:
        return ["non-aborted decode has no outcome"]
    problems = []
    fixed = syndrome_from_errors(graph, ErrorSet(frozenset(out.correction_edges)))
    if fixed.flipped != syndrome.flipped:
        problems.append("syndrome of the correction differs from the flipped set")
    if correction_parity(graph, out.correction_edges) != out.predicted_observable:
        problems.append("predicted_observable differs from the correction's parity")
    if record.failure != (out.predicted_observable != syndrome.true_observable):
        problems.append("failure flag disagrees with the predicted observable")
    if not record.bypassed and (record.total_ns is None or record.total_ns > budget_ns):
        problems.append(f"predecoded total_ns {record.total_ns} exceeds budget {budget_ns}")
    return problems


class TrialAudit:
    """Observers for the traced spans: verification plus fingerprint counts."""

    def __init__(self, graph, budget_ns: float) -> None:
        self.graph = graph
        self.budget_ns = budget_ns
        self.counting = False
        self.counts: Counter = Counter()
        self.residual_hw: Counter = Counter()
        self.total_ns_max = 0.0
        self.syndromes = 0
        self.records = 0
        self.bad_records = 0
        self.problems: list[str] = []

    def observers(self) -> dict:
        return {
            "noise.syndrome_from_errors": self._on_syndrome,
            "harness.run_chain": self._on_record,
            "predecoder.adaptive_predecode": self._on_predecode,
            "maindecoder.decode": self._on_decode,
            "maindecoder.brute_force_mwpm": self._on_match,
        }

    def _on_syndrome(self, args, syndrome) -> None:
        self.syndromes += 1
        if self.counting:
            self.counts["syndromes"] += 1
            self.counts["hw0"] += syndrome.hamming_weight == 0

    def _on_record(self, args, record) -> None:
        self.records += 1
        problems = verify_record(self.graph, args[2], record, self.budget_ns)
        if problems:
            self.bad_records += 1
            self.problems.extend(problems[: max(0, 10 - len(self.problems))])
        if not self.counting:
            return
        c = self.counts
        c["records"] += 1
        c["failures"] += record.failure
        c["aborts"] += record.aborted
        self.residual_hw[record.post_hw] += 1
        if not record.aborted and record.total_ns is not None:
            self.total_ns_max = max(self.total_ns_max, record.total_ns)
            # Bypassed decodes carry the main stage's modeled time, which
            # the budget does not bound (e.g. 3780 ns at HW 9-10).
            c["bypass_over_budget"] += record.bypassed and record.total_ns > self.budget_ns

    def _on_predecode(self, args, pre) -> None:
        if self.counting:
            c = self.counts
            c["predecoder.calls"] += 1
            c["predecoder.aborts"] += pre.aborted
            c["predecoder.rounds"] += pre.rounds_executed
            c["predecoder.cycles"] += pre.cycles

    def _on_decode(self, args, outcome) -> None:
        if self.counting:
            self.counts["maindecoder.calls"] += 1

    def _on_match(self, args, matching) -> None:
        if self.counting:
            hw = len(args[0])
            c = self.counts
            c["matcher.calls"] += 1
            c["matcher.hw"] += hw
            c["matcher.enumerated"] += matching.enumerated
            c["matcher.modeled"] += matching_search_size(hw)


def self_test(graph, table, cfg) -> bool:
    """The verifier passes a real decode and flags a corrupted correction."""
    pcfg = cfg.predecode_config()
    for i in range(100):
        errors = inject_k_errors(graph, 2, trial_seed(cfg.master_seed, 99, i))
        syndrome = syndrome_from_errors(graph, errors)
        record = run_chain(graph, table, syndrome, cfg, pcfg)
        if record.outcome is not None and record.outcome.correction_edges:
            break
    else:
        return False
    if verify_record(graph, syndrome, record, cfg.budget_ns):
        return False
    # Toggling any edge changes the syndrome of the correction.
    bad = record.outcome.correction_edges ^ {0}
    corrupted = replace(record, outcome=replace(record.outcome, correction_edges=bad))
    return bool(verify_record(graph, syndrome, corrupted, cfg.budget_ns))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-300)


def check_direct(est, shots: int) -> list[str]:
    problems = []
    failures = est.ler * shots
    if not 0.0 <= est.ler <= 1.0 or abs(failures - round(failures)) > 1e-6:
        problems.append(f"direct ler {est.ler} is not failures/shots for {shots} shots")
    if not _close(est.stderr, math.sqrt(est.ler * (1.0 - est.ler) / shots)):
        problems.append("direct stderr is not the binomial stderr")
    return problems


def check_rare(est, cfg) -> list[str]:
    problems = []
    if [s.k for s in est.per_k] != list(range(cfg.k_max + 1)):
        problems.append("rare-event strata are not k = 0..k_max")
    for s in est.per_k:
        if not 0 <= s.failures <= s.shots:
            problems.append(f"k={s.k}: failures {s.failures} outside [0, {s.shots}]")
        if s.shots and s.p_fail != s.failures / s.shots:
            problems.append(f"k={s.k}: p_fail is not failures/shots")
    if not _close(est.ler, sum(s.p_occ * s.p_fail for s in est.per_k)):
        problems.append("ler differs from sum of p_occ * p_fail")
    return problems


def check_reports(hw: dict, lat: dict, steps: dict) -> list[str]:
    problems = []
    if not hw["samples"] == lat["samples"] == steps["samples"]:
        problems.append("the three reports disagree on the corpus size")
    if not hw["abort_rate"] == lat["abort_rate"] == steps["abort_rate"]:
        problems.append("the three reports disagree on the abort rate")
    if not 0.0 <= hw["abort_rate"] <= 1.0:
        problems.append(f"abort_rate {hw['abort_rate']} outside [0, 1]")
    if hw["samples"] and not (_close(sum(hw["pre"].values()), 1.0)
                              and _close(sum(hw["post"].values()), 1.0)):
        problems.append("HW histograms do not sum to 1")
    if steps["steps"] and not _close(sum(steps["steps"].values()), 1.0):
        problems.append("step usage does not sum to 1")
    if not lat["predecode_max_ns"] <= lat["total_max_ns"] <= lat["budget_ns"]:
        problems.append("latency report maximum exceeds the budget")
    return problems
