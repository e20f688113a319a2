"""Acceptance gate: nine end-to-end criteria, one test each.

Covers exact enumeration counts, oracle equivalence, predecoder safety and
coverage, singleton/parity invariants, chain-length statistics, rare-event
estimator consistency, step-usage dominance, and the real-time latency
budget.  Corpus sizes follow the shipping bar (10^3-10^5 syndromes per
criterion), so the module takes a few minutes; run it alone with

    python3 -m pytest tests/test_acceptance.py -v -s

Each test prints a ``[PASS] criterion N`` line with the measured statistics
once its assertions hold.
"""

import time

import numpy as np
import pytest

from surfmatch import (ExperimentConfig, PredecodeConfig, Step,
                       adaptive_predecode, brute_force_mwpm,
                       build_decoding_graph, build_path_table, decode,
                       inject_k_errors, make_rng, occurrence_probability,
                       report_latency, report_step_usage, run_chain,
                       run_direct, run_rare_event, sample_iid,
                       syndrome_from_errors)

from oracles import (chain_length_counts, double_factorial, enumerate_mwpm,
                     oracle_mwpm, predecode_result_to_json)

BUDGET_NS = 960.0
SAFE_STEPS = {Step.S1, Step.S2_1, Step.S2_2, Step.S3}

# Modeled end-to-end latency of every non-aborted decode run anywhere in
# this module; audited by criterion 9.
_MODELED_TOTALS: list[float] = []


@pytest.fixture(scope="module")
def d5_mid():
    graph = build_decoding_graph(5, 5, 0.005)
    return graph, build_path_table(graph)


@pytest.fixture(scope="module")
def d7_low():
    graph = build_decoding_graph(7, 7, 1e-4)
    return graph, build_path_table(graph)


@pytest.fixture(scope="module")
def d11_low():
    graph = build_decoding_graph(11, 11, 1e-4)
    return graph, build_path_table(graph)


def _conditional_high_hw(graph, n, hw_lo, hw_hi, seed):
    """Sample n syndromes with hw_lo < HW <= hw_hi, k occurrence-weighted."""
    ks = np.arange(6, 25)
    pmf = np.array([occurrence_probability(int(k), graph.n_edges, graph.p)
                    for k in ks])
    pmf = pmf / pmf.sum()
    rng = make_rng(seed)
    corpus = []
    while len(corpus) < n:
        k = int(rng.choice(ks, p=pmf))
        syndrome = syndrome_from_errors(graph, inject_k_errors(graph, k, rng))
        if hw_lo < syndrome.hamming_weight <= hw_hi:
            corpus.append(syndrome)
    return corpus


@pytest.fixture(scope="module")
def d11_sweep(d11_low):
    """10^5 high-HW predecodes at d=11; aggregate stats shared by tests 4/5/9."""
    graph, table = d11_low
    pcfg = PredecodeConfig()
    rng = make_rng(2611)
    stats = {
        "total": 0, "aborted": 0, "max_residual": 0, "rounds": 0,
        "trace_entries": 0, "safety_violations": 0, "parity_violations": 0,
        "first": [],
    }
    while stats["total"] < 100_000:
        k = int(rng.integers(6, 25))
        syndrome = syndrome_from_errors(graph, inject_k_errors(graph, k, rng))
        if syndrome.hamming_weight <= pcfg.main_hw_cap:
            continue
        result = adaptive_predecode(graph, table, syndrome, pcfg,
                                    record_trace=True)
        stats["total"] += 1
        stats["rounds"] += result.rounds_executed
        parity = syndrome.hamming_weight % 2
        for entry in result.trace:
            stats["trace_entries"] += 1
            if entry.step in SAFE_STEPS and \
                    entry.singletons_after > entry.singletons_before:
                stats["safety_violations"] += 1
            if entry.hw_after % 2 != parity:
                stats["parity_violations"] += 1
        if result.aborted:
            stats["aborted"] += 1
        else:
            hw = result.residual.hamming_weight
            stats["max_residual"] = max(stats["max_residual"], hw)
            _MODELED_TOTALS.append(result.cycles * pcfg.cycle_ns
                                   + pcfg.main_latency(hw))
        if len(stats["first"]) < 100:
            stats["first"].append((syndrome, predecode_result_to_json(result, table)))
    return stats


def test_criterion_1_matching_count_exactness(g5, pt5):
    start = time.perf_counter()
    counts = {}
    for m in (2, 4, 6, 8, 10):
        result = brute_force_mwpm(tuple(range(m)), pt5, hw_cap=10,
                                  allow_boundary=False)
        counts[m] = result.enumerated
        assert result.enumerated == double_factorial(m - 1)
    elapsed = time.perf_counter() - start
    assert counts[10] == 945
    assert elapsed < 1.0
    for m, count in counts.items():
        visited = enumerate_mwpm(tuple(range(m)), pt5, hw_cap=10,
                                 allow_boundary=False).enumerated
        assert visited == count
    print(f"\n[PASS] criterion 1: boundary-off enumeration counts {counts} "
          f"match (m-1)!! and the reference enumerator in {elapsed:.3f}s")


def test_criterion_2_oracle_equivalence_low_hw(g5, pt5):
    rng = make_rng(202)
    checked = 0
    while checked < 10_000:
        syndrome = syndrome_from_errors(g5, sample_iid(g5, rng_seed=rng)[0])
        if syndrome.hamming_weight > 10:
            continue
        checked += 1
        main = decode(pt5, syndrome)
        floor = oracle_mwpm(g5, pt5, syndrome)
        assert main.total_weight == floor.total_weight
    print(f"\n[PASS] criterion 2: {checked} low-HW decodes match the oracle "
          "weight in hops exactly")


def test_criterion_3_predecoder_near_optimality(d5_mid):
    graph, table = d5_mid
    cfg_adaptive = ExperimentConfig(distance=5, rounds=5, p=0.005)
    cfg_greedy = ExperimentConfig(distance=5, rounds=5, p=0.005,
                                  predecoder="greedy")
    corpus = _conditional_high_hw(graph, 1000, hw_lo=10, hw_hi=14, seed=303)
    equal_adaptive = equal_greedy = aborted_adaptive = aborted_greedy = 0
    for syndrome in corpus:
        floor = oracle_mwpm(graph, table, syndrome).total_weight
        chain = run_chain(graph, table, syndrome, cfg_adaptive)
        if chain.aborted:
            aborted_adaptive += 1
        else:
            assert chain.outcome.total_weight >= floor
            equal_adaptive += chain.outcome.total_weight == floor
            _MODELED_TOTALS.append(chain.total_ns)
        greedy = run_chain(graph, table, syndrome, cfg_greedy)
        if greedy.aborted:
            aborted_greedy += 1
        else:
            equal_greedy += greedy.outcome.total_weight == floor
            _MODELED_TOTALS.append(greedy.total_ns)
    n = len(corpus)
    assert equal_adaptive / n >= 0.80
    assert equal_greedy < equal_adaptive
    print(f"\n[PASS] criterion 3: adaptive weight >= oracle on all "
          f"{n - aborted_adaptive} decoded, equal on {equal_adaptive}/{n} "
          f"(>= 80%); greedy-nosafety equal on {equal_greedy}/{n} "
          f"(aborted {aborted_greedy})")


def test_criterion_4_coverage_guarantee(d11_sweep):
    stats = d11_sweep
    abort_rate = stats["aborted"] / stats["total"]
    assert stats["total"] == 100_000
    assert PredecodeConfig().main_hw_cap <= 10
    assert stats["max_residual"] <= PredecodeConfig().main_hw_cap
    assert abort_rate < 1e-2
    print(f"\n[PASS] criterion 4: {stats['total']} high-HW d=11 predecodes, "
          f"max residual HW {stats['max_residual']} <= 10, "
          f"abort rate {abort_rate:.2e} < 1e-2")


def test_criterion_5_singleton_invariants(d11_low, d11_sweep):
    graph, table = d11_low
    stats = d11_sweep
    assert stats["rounds"] >= 100_000
    assert stats["safety_violations"] == 0
    assert stats["parity_violations"] == 0
    replayed = 0
    for syndrome, expected in stats["first"]:
        again = adaptive_predecode(graph, table, syndrome, PredecodeConfig(),
                                   record_trace=True)
        assert predecode_result_to_json(again, table) == expected
        replayed += 1
    print(f"\n[PASS] criterion 5: {stats['rounds']} prematch rounds "
          f"({stats['trace_entries']} trace entries): safe steps never "
          f"raised the singleton count, HW parity held, {replayed} replays "
          f"bit-identical")


def test_criterion_6_chain_length_statistic(d7_low):
    graph, table = d7_low
    rng = make_rng(606)
    kept = []
    while len(kept) < 10_000:
        syndrome = syndrome_from_errors(graph, sample_iid(graph, rng_seed=rng)[0])
        if 0 < syndrome.hamming_weight <= 14:
            kept.append(syndrome)
    counts = chain_length_counts(graph, table, kept)
    total = sum(counts.values())
    fraction = counts[1] / total
    assert total > 0
    assert fraction > 0.85
    print(f"\n[PASS] criterion 6: {len(kept)} nonempty d=7 syndromes, "
          f"{total} matched chains, length-1 fraction {fraction:.4f} > 0.85")


def test_criterion_7_estimator_consistency(g3, pt3):
    cfg = ExperimentConfig(distance=3, rounds=3, p=0.01, predecoder="none",
                           main_hw_cap=14, k_max=6, shots_per_k=3000,
                           shots_direct=100_000, master_seed=7)
    rare = run_rare_event(cfg, g3, pt3)
    direct = run_direct(cfg, g3, pt3)
    combined = (rare.stderr ** 2 + direct.stderr ** 2) ** 0.5
    z = abs(rare.ler - direct.ler) / combined
    assert rare.truncation < combined
    assert z < 3.0
    print(f"\n[PASS] criterion 7: rare {rare.ler:.3e} +- {rare.stderr:.1e} "
          f"vs direct {direct.ler:.3e} +- {direct.stderr:.1e}, "
          f"|diff| = {z:.2f} combined stderr < 3")


def test_criterion_8_step_usage_dominance(d11_low):
    graph, table = d11_low
    cfg = ExperimentConfig(distance=11, rounds=11, p=1e-4, k_max=24,
                           shots_per_k=400, master_seed=5)
    report = report_step_usage(cfg, graph, table)
    s1 = report["steps"].get("S1", 0.0)
    assert report["samples"] > 1000
    assert s1 > 0.95
    print(f"\n[PASS] criterion 8: isolated-pair step resolves {s1:.4f} of "
          f"decoded high-HW d=11 samples (> 0.95; "
          f"{report['samples']} samples, abort rate "
          f"{report['abort_rate']:.1e})")


def test_criterion_9_budget_enforcement(g5, pt5, d11_low, d11_sweep):
    graph, table = d11_low
    # every chain record of the real-time predecoders, bypassed ones too,
    # over d=5 exact-k syndromes at HW 1-14
    rng = make_rng(909)
    corpus = []
    for k in range(1, 11):
        for _ in range(100):
            syndrome = syndrome_from_errors(g5, inject_k_errors(g5, k, rng))
            if 1 <= syndrome.hamming_weight <= 14:
                corpus.append(syndrome)
    assert {s.hamming_weight for s in corpus} == set(range(1, 15))
    for predecoder in ("adaptive", "greedy"):
        cfg5 = ExperimentConfig(distance=5, rounds=5, p=0.003, predecoder=predecoder)
        for syndrome in corpus:
            record = run_chain(g5, pt5, syndrome, cfg5)
            if not record.aborted:
                _MODELED_TOTALS.append(record.total_ns)
    assert len(_MODELED_TOTALS) > 0
    worst = max(_MODELED_TOTALS)
    assert worst <= BUDGET_NS
    cfg = ExperimentConfig(distance=11, rounds=11, p=1e-4, k_max=24,
                           shots_per_k=100, master_seed=9)
    report = report_latency(cfg, graph, table)
    assert report["total_max_ns"] <= BUDGET_NS
    print(f"\n[PASS] criterion 9: {len(_MODELED_TOTALS)} non-aborted decodes "
          f"modeled at <= {worst:.1f} ns; latency report max "
          f"{report['total_max_ns']:.1f} ns <= {BUDGET_NS:.0f} ns budget")
