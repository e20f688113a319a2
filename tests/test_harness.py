import math

import pytest

from surfmatch import (MAX_HW_CAP, ErrorSet, ExperimentConfig, Syndrome,
                       make_rng, occurrence_probability, occurrence_tail,
                       run_chain, run_direct, run_rare_event,
                       report_hw_distribution, report_latency,
                       report_step_usage, syndrome_from_errors)
from surfmatch.harness import _high_hw_corpus
from surfmatch.oracle import GREEDY_LABEL

from patterns import find_adjacent_pair, find_disjoint_chains, find_disjoint_pairs


def syndrome_of(nodes, obs=0):
    return Syndrome(frozenset(nodes), obs)


def independent_set(graph, size):
    nodes, blocked = [], set()
    for i in range(graph.n_detectors):
        if i in blocked:
            continue
        nodes.append(i)
        blocked.add(i)
        blocked |= {v for v, _ in graph.detector_neighbors[i]}
        if len(nodes) == size:
            return nodes
    raise AssertionError("graph too small for independent set")


# ------------------------------------------------------------- config


def test_config_validation_rejects_bad_fields():
    bad = [
        dict(distance=4), dict(distance=1), dict(rounds=0), dict(p=0.0),
        dict(p=0.6), dict(predecoder="fancy"), dict(main_hw_cap=0),
        dict(main_hw_cap=15), dict(hw_target=7), dict(budget_ns=0.0),
        dict(clock_mhz=0.0), dict(k_max=-1), dict(shots_per_k=0),
        dict(shots_direct=0), dict(hw_target="adaptive"),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs).validate()
    ExperimentConfig().validate()


def test_config_main_hw_cap_bounded_by_matcher_cap():
    ExperimentConfig(main_hw_cap=MAX_HW_CAP).validate()
    with pytest.raises(ValueError, match=rf"\[1, {MAX_HW_CAP}\]"):
        ExperimentConfig(main_hw_cap=MAX_HW_CAP + 1).validate()


def test_config_k_max_checked_against_graph(g32):
    cfg = ExperimentConfig(distance=3, rounds=2, p=0.01, k_max=10_000)
    cfg.validate()  # graph-independent checks pass
    with pytest.raises(ValueError, match="exceeds"):
        cfg.validate(g32)


def test_config_target_and_label():
    assert ExperimentConfig(hw_target=6).predecode_config().hw_target == 6
    assert ExperimentConfig(predecoder="greedy").predecoder_label == GREEDY_LABEL
    assert ExperimentConfig(predecoder="adaptive").predecoder_label == "adaptive"
    pcfg = ExperimentConfig(clock_mhz=500.0).predecode_config()
    assert pcfg.hw_target == 10 and pcfg.cycle_ns == pytest.approx(2.0)


def test_config_build():
    cfg = ExperimentConfig(distance=3, rounds=2, p=0.01, k_max=8)
    graph, table = cfg.build()
    assert (graph.distance, graph.rounds, graph.p) == (3, 2, 0.01)
    assert table.weight.shape == (graph.n_detectors, graph.n_detectors)


# ------------------------------------------------------------ run_chain


def test_chain_bypasses_small_syndromes(g5, pt5):
    cfg = ExperimentConfig(distance=5, rounds=5, p=0.003)
    u, v = find_adjacent_pair(g5)
    rec = run_chain(g5, pt5, syndrome_of({u, v}), cfg)
    assert rec.bypassed and not rec.aborted and not rec.failure
    assert (rec.pre_hw, rec.post_hw) == (2, 2)
    assert rec.predecode_cycles == 0 and rec.predecode_ns == 0.0
    assert rec.total_ns == pytest.approx(4.0)  # one modeled matching
    assert rec.deepest_step is None
    assert rec.outcome is not None and rec.outcome.matching.enumerated == 2


def test_chain_none_aborts_above_cap(g5, pt5):
    cfg = ExperimentConfig(distance=5, rounds=5, p=0.003, predecoder="none")
    pairs = find_disjoint_pairs(g5, 6)
    rec = run_chain(g5, pt5, syndrome_of({u for p in pairs for u in p}), cfg)
    assert rec.aborted and rec.failure and rec.bypassed
    assert rec.pre_hw == rec.post_hw == 12
    assert rec.total_ns is None and rec.outcome is None


def test_chain_adaptive_six_pairs(g5, pt5):
    cfg = ExperimentConfig(distance=5, rounds=5, p=0.003)
    pairs = find_disjoint_pairs(g5, 6)
    errors = ErrorSet(frozenset(g5.edge_between(*p).id for p in pairs))
    rec = run_chain(g5, pt5, syndrome_from_errors(g5, errors), cfg)
    assert not rec.aborted and not rec.bypassed and not rec.failure
    assert (rec.pre_hw, rec.post_hw) == (12, 0)
    assert rec.predecode_cycles == 6
    assert rec.predecode_ns == pytest.approx(24.0)
    assert rec.total_ns == pytest.approx(28.0)
    assert rec.deepest_step == "S1"


def test_chain_greedy_stops_at_target_and_misses_budget(g7, pt7):
    # greedy parks at residual 10, whose modeled main stage (3780 ns)
    # blows the deadline, so the chain calls it an abort
    cfg = ExperimentConfig(distance=7, rounds=3, p=0.01, predecoder="greedy")
    chains = find_disjoint_chains(g7, 3, 4)
    rec = run_chain(g7, pt7, syndrome_of({u for ch in chains for u in ch}), cfg)
    assert rec.pre_hw == 12 and rec.post_hw == 10
    assert rec.aborted and rec.failure
    assert rec.total_ns is None and rec.outcome is None
    assert rec.deepest_step == "GREEDY"


def test_chain_greedy_strands_singletons_above_cap(g5, pt5):
    cfg = ExperimentConfig(distance=5, rounds=5, p=0.003, predecoder="greedy")
    syn = syndrome_of(independent_set(g5, 12))  # no subgraph edges at all
    rec = run_chain(g5, pt5, syn, cfg)
    assert rec.post_hw == 12 > cfg.main_hw_cap
    assert rec.aborted and rec.failure
    assert rec.predecode_cycles == 0 and rec.deepest_step is None


# ----------------------------------------------------------- direct LER


def test_direct_zero_noise(g32, pt32):
    cfg = ExperimentConfig(distance=3, rounds=2, p=0.01, k_max=8, shots_direct=200)
    est = run_direct(cfg, g32, pt32, p_override=0.0)
    assert est.ler == 0.0 and est.stderr == 0.0
    assert est.per_k == () and est.truncation == 0.0


def test_direct_deterministic(g3, pt3):
    cfg = ExperimentConfig(distance=3, rounds=3, p=0.01, shots_direct=300)
    assert run_direct(cfg, g3, pt3) == run_direct(cfg, g3, pt3)


def test_direct_always_fails(g32, pt32):
    cfg = ExperimentConfig(distance=3, rounds=2, p=0.01, k_max=8, shots_direct=500)
    est = run_direct(cfg, g32, pt32, decode_fn=lambda g, t, s: True)
    assert est.ler == 1.0 and est.stderr == 0.0


# ------------------------------------------------------- rare-event LER


def rare_cfg(**kwargs):
    base = dict(distance=3, rounds=2, p=0.01, k_max=6, shots_per_k=200)
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_rare_event_always_fails(g32, pt32):
    cfg = rare_cfg()
    est = run_rare_event(cfg, g32, pt32, decode_fn=lambda g, t, s: True)
    # the k = 0 stratum cannot fail and is never sampled
    assert est.per_k[0] == est.per_k[0].__class__(
        0, occurrence_probability(0, g32.n_edges, g32.p), 0.0, 0, 0)
    assert all(s.p_fail == 1.0 and s.shots == 200 for s in est.per_k[1:])
    expect = sum(occurrence_probability(k, g32.n_edges, g32.p)
                 for k in range(cfg.k_max + 1) if k > 0)
    assert est.ler == expect  # bit-identical left-to-right sums
    assert est.stderr == 0.0
    assert est.truncation == occurrence_tail(cfg.k_max, g32.n_edges, g32.p)


def test_rare_event_never_fails(g32, pt32):
    est = run_rare_event(rare_cfg(), g32, pt32, decode_fn=lambda g, t, s: False)
    assert est.ler == 0.0 and est.stderr == 0.0
    assert all(s.failures == 0 for s in est.per_k)


def test_rare_event_recomputable_from_strata(g32, pt32):
    est = run_rare_event(rare_cfg(), g32, pt32)
    assert est.ler == sum(s.p_occ * s.p_fail for s in est.per_k)
    var = sum(s.p_occ ** 2 * s.p_fail * (1 - s.p_fail) / s.shots
              for s in est.per_k if s.shots > 0)
    assert est.stderr == math.sqrt(var)
    assert [s.k for s in est.per_k] == list(range(7))
    doc = est.to_dict()
    assert set(doc) == {"ler", "stderr", "truncation", "per_k"}
    assert len(doc["per_k"]) == 7


def test_rare_event_deterministic(g32, pt32):
    assert run_rare_event(rare_cfg(), g32, pt32) == run_rare_event(rare_cfg(), g32, pt32)


def test_rare_event_distance_ordering():
    # same physical rate, higher distance, lower logical rate
    lers = {}
    for d in (3, 5):
        cfg = ExperimentConfig(distance=d, rounds=d, p=0.003, k_max=5,
                               shots_per_k=500)
        lers[d] = run_rare_event(cfg).ler
    assert lers[3] > lers[5]
    assert lers[3] > 0.0


# ------------------------------------------------------------- reports


def report_corpus_cfg(**kwargs):
    base = dict(distance=5, rounds=5, p=0.003, k_max=12, master_seed=7)
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_high_hw_corpus_strata(g5, pt5):
    cfg = report_corpus_cfg()
    strata = _high_hw_corpus(cfg, g5, pt5, shots_per_k=40)
    # k below 6 cannot push the weight past the cap of 10
    assert [s.k for s in strata] == list(range(6, 13))
    records = [r for s in strata for r in s.records]
    assert records
    assert all(r.pre_hw > cfg.main_hw_cap for r in records)


def test_report_hw_distribution_none_is_identity(g5, pt5):
    cfg = report_corpus_cfg(predecoder="none")
    rep = report_hw_distribution(cfg, g5, pt5, shots_per_k=40)
    assert rep["predecoder"] == "none"
    assert rep["samples"] > 0
    assert rep["pre"] == rep["post"]
    assert rep["abort_rate"] == 1.0  # nothing above the cap ever decodes
    assert min(rep["pre"]) > cfg.main_hw_cap
    assert sum(rep["pre"].values()) == pytest.approx(1.0)


def test_report_hw_distribution_adaptive(g5, pt5):
    cfg = report_corpus_cfg()
    rep = report_hw_distribution(cfg, g5, pt5, shots_per_k=40)
    assert rep["samples"] > 0
    assert rep["abort_rate"] == 0.0
    assert min(rep["pre"]) > cfg.main_hw_cap
    assert max(rep["post"]) <= cfg.main_hw_cap
    assert sum(rep["post"].values()) == pytest.approx(1.0)


def test_report_latency_fields_and_budget(g5, pt5):
    cfg = report_corpus_cfg()
    rep = report_latency(cfg, g5, pt5, shots_per_k=40)
    assert rep["predecoder"] == "adaptive"
    assert rep["budget_ns"] == 960.0
    assert 0.0 < rep["predecode_mean_ns"] <= rep["predecode_max_ns"]
    assert rep["predecode_max_ns"] <= rep["total_max_ns"] <= cfg.budget_ns
    assert rep["total_mean_ns"] <= rep["total_max_ns"]


def test_report_latency_empty_corpus(g32, pt32):
    # 8 detectors can never exceed a cap of 12, so no samples qualify
    cfg = ExperimentConfig(distance=3, rounds=2, p=0.01, main_hw_cap=12,
                           k_max=8, shots_per_k=5)
    rep = report_latency(cfg, g32, pt32)
    assert rep["samples"] == 0
    assert rep["predecode_max_ns"] == 0.0 and rep["total_max_ns"] == 0.0
    assert rep["abort_rate"] == 0.0


def test_report_step_usage_mostly_isolated_pairs():
    # in the sparse regime almost every over-cap syndrome is a scatter of
    # isolated pairs, and the low strata carry nearly all the weight
    cfg = ExperimentConfig(distance=7, rounds=7, p=1e-4, k_max=8,
                           master_seed=7)
    graph, table = cfg.build()
    rep = report_step_usage(cfg, graph, table, shots_per_k=40)
    assert rep["samples"] > 0
    assert sum(rep["steps"].values()) == pytest.approx(1.0)
    # collisions shrink with lattice size; 0.82 here, > 0.95 by d = 11
    assert rep["steps"]["S1"] > 0.6
    assert rep["steps"]["S1"] == max(rep["steps"].values())


def test_reports_deterministic(g5, pt5):
    cfg = report_corpus_cfg()
    a = report_hw_distribution(cfg, g5, pt5, shots_per_k=25)
    b = report_hw_distribution(cfg, g5, pt5, shots_per_k=25)
    assert a == b
