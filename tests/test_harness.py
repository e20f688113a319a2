import hashlib
import itertools
import json
import math
import numbers
import re
from copy import deepcopy
from dataclasses import FrozenInstanceError, astuple, fields, is_dataclass, replace
from functools import partial

import numpy as np
import pytest

from surfmatch import (DEFAULT_HW_CAP, GREEDY_LABEL, MAX_HW_CAP, ErrorSet, ExperimentConfig,
                       PredecodeConfig, Syndrome, TrialRecord, adaptive_predecode,
                       build_decoding_graph,
                       build_path_table, build_subgraph, greedy_baseline, harness,
                       inject_k_errors, make_rng,
                       occurrence_probability, occurrence_tail,
                       run_chain, run_direct, run_rare_event,
                       report_hw_distribution, report_latency,
                       report_step_usage, sample_iid, syndrome_from_errors)

from oracles import (block_stream, direct_failures, edge_between, iid_stream,
                     per_trial_stream, rare_failures, real_time_chain, reference_reports)
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
        dict(main_hw_cap=15), dict(budget_ns=0.0), dict(budget_ns=-1.0),
        dict(clock_mhz=0.0), dict(k_max=-1), dict(shots_per_k=0),
        dict(shots_direct=0),
        dict(budget_ns=math.nan), dict(budget_ns=math.inf),
        dict(clock_mhz=math.nan), dict(clock_mhz=math.inf),
        # counts must be integers, and the master seed non-negative
        dict(distance=5.0), dict(rounds=3.0), dict(main_hw_cap=10.0),
        dict(k_max=2.0), dict(shots_per_k=10.5), dict(shots_direct=2.5),
        dict(shots_direct=True), dict(master_seed=1.0), dict(master_seed=-1),
        dict(main_hw_cap=9.5), dict(main_hw_cap=True), dict(budget_ns=3.9),
        # p, the budget and the clock must be real numbers, and not bools
        dict(p="0.01"), dict(p=None), dict(p=True), dict(budget_ns=None),
        dict(budget_ns="960"), dict(budget_ns=True), dict(clock_mhz=None),
        dict(clock_mhz=True), dict(clock_mhz="250"),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs).validate()
    with pytest.raises(ValueError, match="p must be a real number"):
        run_direct(ExperimentConfig(p="0.01"))  # refused before a graph is built
    with pytest.raises(TypeError):  # the residual target is the cap
        ExperimentConfig(hw_target=10)
    ExperimentConfig().validate()
    ExperimentConfig(distance=np.int64(5), rounds=np.int32(3), main_hw_cap=np.int64(8),
                     k_max=np.uint8(4), shots_per_k=np.int64(10),
                     shots_direct=np.int16(10), master_seed=np.uint64(2**63)).validate()


def test_config_main_hw_cap_bounded_by_matcher_cap():
    ExperimentConfig(main_hw_cap=MAX_HW_CAP).validate()
    with pytest.raises(ValueError, match=rf"\[1, {MAX_HW_CAP}\]"):
        ExperimentConfig(main_hw_cap=MAX_HW_CAP + 1).validate()


def test_config_k_max_checked_against_graph(g32):
    cfg = ExperimentConfig(distance=3, rounds=2, p=0.01, k_max=10_000)
    cfg.validate()  # graph-independent checks pass
    with pytest.raises(ValueError, match="exceeds"):
        cfg.validate(g32)


@pytest.mark.parametrize("graph_args", [(5, 5, 1e-3), (3, 2, 1e-3), (3, 3, 1e-2)])
def test_config_rejects_graph_of_another_config(graph_args, chain_calls):
    # rounds=None means rounds=distance, so only a d=3, rounds=3, p=1e-3
    # graph fits; one differing in d, rounds or p is refused before any trial
    cfg = ExperimentConfig(distance=3, rounds=None, p=1e-3, k_max=4,
                           shots_per_k=10, shots_direct=10)
    cfg.validate(build_decoding_graph(3, 3, 1e-3))
    graph = build_decoding_graph(*graph_args)
    table = build_path_table(graph)
    with pytest.raises(ValueError, match="does not match"):
        cfg.validate(graph)
    for run in (run_direct, run_rare_event, report_hw_distribution):
        with pytest.raises(ValueError, match="does not match"):
            run(cfg, graph, table)
    assert chain_calls == []


def test_corpus_memo_rejects_mismatched_graph(g5, pt5, chain_calls):
    cfg = report_corpus_cfg()
    report_step_usage(cfg, g5, pt5, shots_per_k=20)
    n = len(chain_calls)
    cfg.p = 0.001  # the memo's graph and table no longer fit the config
    with pytest.raises(ValueError, match="does not match"):
        report_step_usage(cfg, g5, pt5, shots_per_k=20)
    assert len(chain_calls) == n


def test_table_of_another_graph_is_refused(g5, pt7, chain_calls):
    # A d=7 table handed in with the d=5 graph the config fits: the
    # estimators and the reports used to decode every trial against the
    # d=7 paths without a word.  Each call is refused before any trial, and
    # run_chain refuses the pair too.
    cfg = ExperimentConfig(distance=5, p=g5.p, k_max=6, shots_per_k=20,
                           shots_direct=200, master_seed=1)
    cfg.validate(g5)
    for run in (run_direct, run_rare_event, report_latency):
        with pytest.raises(ValueError, match="not built from the given graph"):
            run(cfg, g5, pt7)
    assert chain_calls == []
    u, v = find_adjacent_pair(g5)
    with pytest.raises(ValueError, match="not built from the given graph"):
        run_chain(g5, pt7, syndrome_of({u, v}), cfg)


def test_config_target_and_label():
    assert ExperimentConfig(main_hw_cap=6).predecode_config().main_hw_cap == 6
    assert ExperimentConfig(predecoder="greedy").predecoder_label == GREEDY_LABEL
    assert ExperimentConfig(predecoder="adaptive").predecoder_label == "adaptive"
    pcfg = ExperimentConfig(clock_mhz=500.0).predecode_config()
    assert pcfg.main_hw_cap == 10 and pcfg.cycle_ns == pytest.approx(2.0)


def test_config_build():
    cfg = ExperimentConfig(distance=3, rounds=2, p=0.01, k_max=8)
    graph, table = cfg.build()
    assert (graph.distance, graph.rounds, graph.p) == (3, 2, 0.01)
    assert table.hops.shape == (graph.n_detectors, graph.n_detectors)


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
    errors = ErrorSet(frozenset(edge_between(g5, *p).id for p in pairs))
    rec = run_chain(g5, pt5, syndrome_from_errors(g5, errors), cfg)
    assert not rec.aborted and not rec.bypassed and not rec.failure
    assert (rec.pre_hw, rec.post_hw) == (12, 0)
    assert rec.predecode_cycles == 6
    assert rec.predecode_ns == pytest.approx(24.0)
    assert rec.total_ns == pytest.approx(28.0)
    assert rec.deepest_step == "S1"


def test_chain_greedy_stops_where_main_stage_fits(g7, pt7):
    # residual 10 would model 945 matchings (3780 ns), past the budget, so
    # greedy goes on to 8, as the adaptive predecoder does
    cfg = ExperimentConfig(distance=7, rounds=3, p=0.01, predecoder="greedy")
    chains = find_disjoint_chains(g7, 3, 4)
    rec = run_chain(g7, pt7, syndrome_of({u for ch in chains for u in ch}), cfg)
    assert rec.pre_hw == 12 and rec.post_hw == 8
    assert not rec.aborted and not rec.bypassed
    assert rec.predecode_cycles == 9 + 7
    assert rec.total_ns == pytest.approx(16 * 4.0 + 105 * 4.0)
    assert rec.total_ns <= cfg.budget_ns
    assert len(rec.outcome.prematches) == 2
    assert rec.deepest_step == "GREEDY"


def test_chain_greedy_strands_singletons_above_cap(g5, pt5):
    cfg = ExperimentConfig(distance=5, rounds=5, p=0.003, predecoder="greedy")
    syn = syndrome_of(independent_set(g5, 12))  # no subgraph edges at all
    rec = run_chain(g5, pt5, syn, cfg)
    assert rec.post_hw == 12 > cfg.main_hw_cap
    assert rec.aborted and rec.failure
    assert rec.predecode_cycles == 0 and rec.deepest_step is None


@pytest.mark.parametrize("bad", [1.5, "a", True])
@pytest.mark.parametrize("predecoder", harness.PREDECODERS)
def test_chain_refuses_non_integer_detector_ids(g5, pt5, predecoder, bad):
    # alone and among three ids (a bypass), and among eleven (above the
    # cap: a predecode, or not admitted).  Each used to raise TypeError, and
    # True ran as id 1.
    cfg = ExperimentConfig(distance=5, rounds=5, p=0.003, predecoder=predecoder)
    nodes = sorted(u for p in find_disjoint_pairs(g5, 6) for u in p)
    for flipped in ([bad], nodes[:3] + [bad], nodes[1:] + [bad]):
        with pytest.raises(ValueError, match=re.escape(
                f"flipped id must be an integer, got {bad!r}")):
            run_chain(g5, pt5, syndrome_of(flipped), cfg)


def integers_in(obj):
    """Every integer field or item reachable from a result, bools aside."""
    if is_dataclass(obj):
        for f in fields(obj):
            yield from integers_in(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list, frozenset, set)):
        for x in obj:
            yield from integers_in(x)
    elif isinstance(obj, numbers.Integral) and not isinstance(obj, bool):
        yield obj


def test_chain_takes_numpy_detector_ids(g5, pt5):
    # A bypass (a pair and a boundary match) and a predecode (six S1 pairs
    # and a residual pair): numpy ids give the outcome that ints give, with
    # every id in it, and in the predecode's prematches and residual, an int.
    pairs = find_disjoint_pairs(g5, 6)
    nodes = [u for p in pairs for u in p]
    cfg = ExperimentConfig(distance=5, rounds=5, p=0.003)
    for flipped, bypassed in ((nodes[:2], True), ([2, 3, 40], True),
                              (nodes, False), (nodes + [40, 45], False)):
        rec = run_chain(g5, pt5, syndrome_of(flipped), cfg)
        got = run_chain(g5, pt5, syndrome_of(map(np.int64, flipped)), cfg)
        assert got == rec and got.bypassed is bypassed
        ids = list(integers_in(got.outcome))
        assert ids and all(type(x) is int for x in ids), ids
        if not bypassed:
            pre = adaptive_predecode(g5, pt5, syndrome_of(map(np.int64, flipped)),
                                     cfg.predecode_config())
            assert pre == adaptive_predecode(g5, pt5, syndrome_of(flipped),
                                             cfg.predecode_config())
            ids = list(integers_in((pre.prematches, pre.residual)))
            assert ids and all(type(x) is int for x in ids), ids
    with pytest.raises(ValueError, match=re.escape(
            f"flipped ids outside detector range: [{g5.n_detectors}]")):
        run_chain(g5, pt5, syndrome_of(map(np.int64, [g5.n_detectors] + nodes[:1])), cfg)


@pytest.mark.parametrize("predecoder", harness.PREDECODERS)
def test_chain_refuses_detector_ids_out_of_range(g5, pt5, predecoder):
    # on every path: a bypass, a predecode that is admitted, and a syndrome
    # that is not (above the cap with no predecoder, or an aborted
    # predecode).  The chain checks ids itself only on a bypass it does not
    # admit; build_subgraph refuses them before a predecode, decode after a
    # bypass.
    paths = ["bypass", "not admitted"] + (["predecoded"] if predecoder != "none" else [])
    for path in paths:
        pairs = find_disjoint_pairs(g5, 3 if path == "bypass" else 6)
        nodes = sorted(u for p in pairs for u in p)
        budget = 4.0 if path == "not admitted" and predecoder != "none" else 960.0
        cfg = ExperimentConfig(distance=5, rounds=5, p=0.003, predecoder=predecoder,
                               budget_ns=budget)
        rec = run_chain(g5, pt5, syndrome_of(nodes), cfg)
        assert rec.bypassed == (path == "bypass" or predecoder == "none")
        assert rec.aborted == (path == "not admitted")
        for bad in (g5.n_detectors, -1):
            with pytest.raises(ValueError,
                               match=rf"flipped ids outside detector range: \[{bad}\]"):
                run_chain(g5, pt5, syndrome_of(nodes[:-1] + [bad]), cfg)


def test_chain_adaptive_shrinks_to_cap_below_10(g5, pt5):
    # HW 8 fits the budget but not a cap of 6, so the predecoder goes on:
    # with no subgraph edges, one S3 round (8 * 7 paths examined) pairs two
    # singletons and leaves a residual the main stage takes
    cfg = ExperimentConfig(distance=5, rounds=5, p=0.003, main_hw_cap=6)
    rec = run_chain(g5, pt5, syndrome_of(independent_set(g5, 8)), cfg)
    assert rec.pre_hw == 8 and rec.post_hw == cfg.main_hw_cap
    assert not rec.aborted and not rec.bypassed
    assert rec.predecode_cycles == 56 and rec.deepest_step == "S3"
    assert rec.total_ns == pytest.approx(56 * 4.0 + 15 * 4.0)
    assert rec.total_ns <= cfg.budget_ns
    assert rec.outcome is not None and rec.failure == rec.outcome.logical_failure


def test_per_trial_records_are_slotted(g5, pt5):
    # the records built per decode carry no instance __dict__
    cfg = ExperimentConfig(distance=5, rounds=5, p=0.003, main_hw_cap=6)
    syndrome = syndrome_of(independent_set(g5, 8))
    pre = adaptive_predecode(g5, pt5, syndrome, cfg.predecode_config())
    rec = run_chain(g5, pt5, syndrome, cfg)
    out = rec.outcome
    for obj in (syndrome, rec, out.matching, out, out.prematches[0], pre):
        assert "__slots__" in vars(type(obj)) and not hasattr(obj, "__dict__")
    flipped = replace(rec, failure=not rec.failure)
    assert flipped.failure != rec.failure and replace(flipped, failure=rec.failure) == rec
    flipped = replace(out, logical_failure=not out.logical_failure)
    assert flipped.logical_failure != out.logical_failure
    assert replace(flipped, logical_failure=out.logical_failure) == out
    # not frozen, but equal field by field as before
    again = run_chain(g5, pt5, syndrome, cfg)
    assert again == rec and again.outcome is not out
    assert adaptive_predecode(g5, pt5, syndrome, cfg.predecode_config()) == pre
    # and, being mutable with eq, no longer hashable
    for obj in (rec, out, out.matching, out.prematches[0], pre):
        with pytest.raises(TypeError):
            hash(obj)
    # the corruption perfbench's self test makes leaves the original as it was
    bad = out.correction_edges ^ {0}
    corrupted = replace(rec, outcome=replace(out, correction_edges=bad))
    assert corrupted != rec and out.correction_edges != bad == corrupted.outcome.correction_edges
    # the trial inputs stay immutable, hashable and equal by value
    errors = ErrorSet({0, 1})
    assert len({errors, ErrorSet(frozenset({1, 0})), syndrome,
                syndrome_of(independent_set(g5, 8))}) == 2
    assert not hasattr(errors, "add") and not hasattr(errors, "__dict__")
    with pytest.raises(FrozenInstanceError):
        syndrome.flipped = frozenset()


@pytest.mark.parametrize("predecoder", harness.PREDECODERS)
def test_chain_empty_syndrome_succeeds(g5, pt5, predecoder):
    # run_direct scores error-free trials as successes without this call
    for cap in (1, 6, 8, 10, MAX_HW_CAP):
        cfg = ExperimentConfig(distance=5, rounds=5, p=0.003, predecoder=predecoder,
                               main_hw_cap=cap)
        rec = run_chain(g5, pt5, syndrome_of([]), cfg)
        assert not rec.failure and not rec.aborted
        assert rec.bypassed and rec.pre_hw == rec.post_hw == 0
        assert rec.outcome.predicted_observable == 0


def test_rare_event_adaptive_target_above_cap_completes(g5, pt5, monkeypatch):
    # A cap below 10: the predecoder goes down to the cap, so no predecoded
    # record aborts.  The pinned LER equals that of the earlier code with
    # its separate residual target set to the cap.
    cfg = ExperimentConfig(distance=5, rounds=5, p=0.003, main_hw_cap=6,
                           k_max=5, shots_per_k=200)
    records = []

    def recording(*args):
        records.append(run_chain(*args))
        return records[-1]

    monkeypatch.setattr(harness, "run_chain", recording)
    est = run_rare_event(cfg, g5, pt5)
    assert [s.shots for s in est.per_k[1:]] == [200] * 5
    assert sum(s.failures for s in est.per_k) == sum(r.failure for r in records)
    predecoded = [r for r in records if not r.bypassed]
    assert len(predecoded) == 262
    assert not any(r.aborted for r in predecoded)
    assert all(r.post_hw <= cfg.main_hw_cap for r in predecoded)
    assert est.ler == 0.0002035042721420369


def d5_corpus(graph, hw_lo, hw_hi, per_hw, seed):
    """Up to ``per_hw`` d=5 syndromes of each weight in [hw_lo, hw_hi]."""
    rng = make_rng(seed)
    by_hw = {hw: [] for hw in range(hw_lo, hw_hi + 1)}
    for _ in range(200):
        for k in range(1, 13):
            syn = syndrome_from_errors(graph, inject_k_errors(graph, k, rng))
            if len(by_hw.get(syn.hamming_weight, (None,) * per_hw)) < per_hw:
                by_hw[syn.hamming_weight].append(syn)
    return [syn for hw in sorted(by_hw) for syn in by_hw[hw]]


def test_chain_admission_matches_real_time_rule(g5, pt5):
    corpus = d5_corpus(g5, 1, 20, 8, seed=909)
    assert {syn.hamming_weight for syn in corpus} == set(range(1, 21))
    seen = set()
    for cap in (6, 8, 10, 12, 14):
        for budget in (120.0, 960.0, 5000.0):
            for predecoder in ("adaptive", "greedy"):
                cfg = ExperimentConfig(distance=5, rounds=5, p=0.003, predecoder=predecoder,
                                       main_hw_cap=cap, budget_ns=budget)
                pcfg = cfg.predecode_config()
                if predecoder == "adaptive":
                    predecode = partial(adaptive_predecode, g5, pt5, config=pcfg)
                else:
                    predecode = partial(greedy_baseline, g5, config=pcfg)
                for syn in corpus:
                    rec = run_chain(g5, pt5, syn, cfg, pcfg)
                    pre, admitted = real_time_chain(syn, predecoder, pcfg, predecode)
                    assert rec.bypassed == (pre is None)
                    assert rec.aborted == (not admitted)
                    if pre is not None:
                        assert rec.post_hw == pre.residual.hamming_weight
                        assert rec.predecode_cycles == pre.cycles
                    seen.add((pre is None, pre is not None and pre.aborted, rec.aborted))
    # bypassed, predecoded and admitted, predecoder aborted; a residual the
    # predecoder did not abort always fits, so none is refused after it
    assert seen == {(True, False, False), (False, False, False), (False, True, True)}


def test_greedy_never_ends_over_budget(g5):
    # a tight budget that greedy used to run past, keeping on matching
    pcfg = PredecodeConfig(budget_ns=120.0)
    rng = make_rng(11)
    results = []
    for k in range(6, 13):
        for _ in range(300):
            syn = syndrome_from_errors(g5, inject_k_errors(g5, k, rng))
            if syn.hamming_weight > pcfg.main_hw_cap:
                results.append(greedy_baseline(g5, syn, pcfg))
    done = [r for r in results if not r.aborted]
    assert len(results) > 1000 and 0 < len(done) < len(results)
    assert all(pcfg.fits(r.residual.hamming_weight, r.cycles) for r in done)
    # an abort stops on the round that crosses the budget
    assert all(r.cycles * pcfg.cycle_ns > pcfg.budget_ns
               for r in results if r.aborted and build_subgraph(g5, r.residual).edges)


def test_greedy_chain_decodes_heavy_syndromes(g5, pt5):
    cfg = ExperimentConfig(distance=5, rounds=5, p=0.003, predecoder="greedy")
    corpus = d5_corpus(g5, 11, 14, 100, seed=910)
    assert len(corpus) == 400
    records = [run_chain(g5, pt5, syn, cfg) for syn in corpus]
    assert sum(r.aborted for r in records) < 0.01 * len(records)
    decoded = [r for r in records if not r.aborted]
    assert all(r.post_hw <= cfg.main_hw_cap for r in decoded)
    assert all(r.total_ns <= cfg.budget_ns for r in decoded)


# ----------------------------------------------------------- direct LER


def distinct_heavier(error_sets, t: int) -> list:
    """The distinct error sets of more than ``t`` edges, in first-seen order."""
    return list(dict.fromkeys(e for e in error_sets if len(e) > t))


def fixed_chain(monkeypatch, failure: bool) -> list:
    """Make every chain report ``failure``; returns the syndromes it is given."""
    seen = []

    def chain(graph, table, syndrome, cfg, pcfg=None):
        seen.append(syndrome)
        hw = syndrome.hamming_weight
        return TrialRecord(failure, hw, hw, 0, 0.0, None, False, True, None)

    monkeypatch.setattr(harness, "run_chain", chain)
    return seen


def test_direct_zero_noise(g32, pt32, monkeypatch, chain_calls):
    cfg = ExperimentConfig(distance=3, rounds=2, p=0.01, k_max=8, shots_direct=200)
    monkeypatch.setattr(harness, "sample_iid",
                        lambda graph, rng, shots: [ErrorSet(frozenset())] * shots)
    est = run_direct(cfg, g32, pt32)
    assert est.ler == 0.0 and est.stderr == 0.0
    assert est.per_k == () and est.truncation == 0.0
    assert chain_calls == []  # error-free trials are not decoded


def test_direct_deterministic(g3, pt3):
    cfg = ExperimentConfig(distance=3, rounds=3, p=0.01, shots_direct=300)
    assert run_direct(cfg, g3, pt3) == run_direct(cfg, g3, pt3)


def test_direct_always_fails(g32, pt32, monkeypatch):
    cfg = ExperimentConfig(distance=3, rounds=2, p=0.01, k_max=8, shots_direct=1500)
    t = harness.t_safe(cfg)
    assert t == 1
    seen = fixed_chain(monkeypatch, True)
    heavy = ErrorSet(frozenset({0, 1}))  # two edges, more than t_safe
    with monkeypatch.context() as m:
        m.setattr(harness, "sample_iid", lambda graph, rng, shots: [heavy] * shots)
        est = run_direct(cfg, g32, pt32)
    assert est.ler == 1.0 and est.stderr == 0.0
    # one error set repeated: the chain sees its syndrome once
    assert seen == [syndrome_from_errors(g32, heavy)]
    # Under the real sampler only the trials heavier than t_safe count, and
    # the chain sees each distinct one once, in first-seen order.
    drawn = iid_stream(g32, cfg.master_seed, (harness._STREAM_DIRECT,),
                       cfg.shots_direct, 1024)
    heavier = sum(len(e) > t for e in drawn)
    seen.clear()
    est = run_direct(cfg, g32, pt32)
    assert 0 < heavier < sum(len(e) > 0 for e in drawn) < cfg.shots_direct
    assert est.ler == heavier / cfg.shots_direct
    assert seen == [syndrome_from_errors(g32, e) for e in distinct_heavier(drawn, t)]
    assert len(seen) < heavier


# ------------------------------------------------------------- t_safe
#
# run_direct skips the trials of at most t_safe(cfg) edges: exact MWPM
# corrects any such set that reaches it, and the chain sends it there.

# (main_hw_cap, budget_ns): the defaults, then a low cap or a tight budget.
T_SAFE_SETTINGS = ((DEFAULT_HW_CAP, 960.0), (1, 960.0), (2, 960.0),
                   (DEFAULT_HW_CAP, 120.0), (DEFAULT_HW_CAP, 4.0))


def test_t_safe_pinned_values():
    assert [harness.t_safe(ExperimentConfig(distance=d)) for d in (3, 5, 7, 9)] == [1, 2, 3, 4]
    assert harness.t_safe(ExperimentConfig(distance=5, rounds=2)) == 2  # rounds play no part
    assert harness.t_safe(ExperimentConfig(distance=9, main_hw_cap=1)) == 0
    assert harness.t_safe(ExperimentConfig(distance=9, predecoder="none", main_hw_cap=2)) == 1
    # the 4 ns floor admits one cycle, a syndrome of weight <= 2; no predecoder
    # has no budget
    assert harness.t_safe(ExperimentConfig(distance=9, budget_ns=4.0)) == 1
    assert harness.t_safe(ExperimentConfig(distance=9, predecoder="none", budget_ns=4.0)) == 4
    # 120 ns is 30 cycles: weight 6 needs 15, weight 8 needs 105
    assert harness.t_safe(ExperimentConfig(distance=9, budget_ns=120.0)) == 3


def test_fits_is_monotone_in_weight():
    for cap in range(1, MAX_HW_CAP + 1):
        for budget in (4.0, 7.9, 12.0, 120.0, 960.0, 4e6):
            pcfg = PredecodeConfig(main_hw_cap=cap, budget_ns=budget)
            fits = [pcfg.fits(h, 0) for h in range(MAX_HW_CAP + 3)]
            assert fits[0] and fits == sorted(fits, reverse=True), (cap, budget)


def assert_corrected(graph, table, cfg, error_sets) -> int:
    """Decode each error set through ``run_chain`` and assert that the chain
    bypasses the predecoder, admits the syndrome and corrects it; returns
    the number of sets."""
    pcfg = cfg.predecode_config()
    n = 0
    for errors in error_sets:
        r = run_chain(graph, table, syndrome_from_errors(graph, errors), cfg, pcfg)
        assert r.bypassed and not r.aborted and not r.failure, sorted(errors)
        n += 1
    return n


def sets_up_to(n_edges: int, t: int):
    """Every error set of at most ``t`` of ``n_edges`` edges."""
    for w in range(t + 1):
        yield from map(frozenset, itertools.combinations(range(n_edges), w))


@pytest.mark.parametrize("predecoder", harness.PREDECODERS)
def test_t_safe_trials_are_always_corrected(predecoder):
    # every set of weight <= t_safe, exhaustively at d=3 and d=5 (rounds 5,
    # and rounds 2 and 7 at the defaults), and 33,600 sampled sets per
    # chain at d=7 and d=9: over 10^5 across the three chains
    def cfg_of(d, rounds, cap=DEFAULT_HW_CAP, budget=960.0):
        return ExperimentConfig(distance=d, rounds=rounds, predecoder=predecoder,
                                main_hw_cap=cap, budget_ns=budget)

    for d, rounds, settings in ((3, 3, T_SAFE_SETTINGS), (5, 5, T_SAFE_SETTINGS),
                                (5, 2, T_SAFE_SETTINGS[:1]), (5, 7, T_SAFE_SETTINGS[:1])):
        graph, table = cfg_of(d, rounds).build()
        for cap, budget in settings:
            cfg = cfg_of(d, rounds, cap, budget)
            t = harness.t_safe(cfg)
            n = assert_corrected(graph, table, cfg, sets_up_to(graph.n_edges, t))
            assert n == sum(math.comb(graph.n_edges, w) for w in range(t + 1))
    sampled = 0
    rng = make_rng(2024)
    for d in (7, 9):
        graph, table = cfg_of(d, d).build()
        cfgs = [cfg_of(d, d, cap, budget) for cap, budget in T_SAFE_SETTINGS]
        heavy = [cfg for cfg in cfgs if harness.t_safe(cfg) >= 2]
        for cfg in cfgs:
            t = harness.t_safe(cfg)
            if t < 2:
                assert_corrected(graph, table, cfg, sets_up_to(graph.n_edges, t))
                continue
            shots = 16_800 // len(heavy)
            sampled += assert_corrected(graph, table, cfg, (
                inject_k_errors(graph, int(k), rng) for k in rng.integers(1, t + 1, shots)))
    assert sampled == 33_600


# Every setting the skip can take: both code sizes, a low cap, no
# predecoder, the budget floor and a tight budget.
SKIP_CONFIGS = (
    dict(distance=3, p=1e-2),
    dict(distance=5, rounds=2, p=3e-3),
    dict(distance=5, rounds=2, p=3e-3, main_hw_cap=1),
    dict(distance=5, rounds=2, p=3e-3, main_hw_cap=2),
    dict(distance=5, rounds=2, p=3e-3, predecoder="none"),
    dict(distance=5, rounds=2, p=3e-3, predecoder="none", main_hw_cap=2),
    dict(distance=5, rounds=2, p=3e-3, budget_ns=4.0),
    dict(distance=5, rounds=2, p=3e-3, budget_ns=120.0),
)


@pytest.mark.parametrize("kwargs", SKIP_CONFIGS, ids=lambda kw: "-".join(
    f"{k}={v}" for k, v in kw.items()))
def test_direct_skip_matches_per_trial_reference(kwargs):
    # the per-trial reference decodes every trial, the skipped ones too
    cfg = ExperimentConfig(master_seed=37, shots_direct=4 * 1024 + 7, **kwargs)
    graph, table = cfg.build()
    est = run_direct(cfg, graph, table)
    failures = direct_failures(graph, table, cfg, harness._STREAM_DIRECT, 1024)
    assert est.ler == failures / cfg.shots_direct
    drawn = iid_stream(graph, cfg.master_seed, (harness._STREAM_DIRECT,),
                       cfg.shots_direct, 1024)
    t = harness.t_safe(cfg)
    assert t == 0 or any(0 < len(e) <= t for e in drawn)  # the skip acted


# ------------------------------------------------------- rare-event LER


def rare_cfg(**kwargs):
    base = dict(distance=3, rounds=2, p=0.01, k_max=6, shots_per_k=200)
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_rare_event_always_fails(g32, pt32, monkeypatch):
    cfg = rare_cfg()
    fixed_chain(monkeypatch, True)
    est = run_rare_event(cfg, g32, pt32)
    # the k = 0 stratum cannot fail and is never sampled
    assert est.per_k[0] == est.per_k[0].__class__(
        0, occurrence_probability(0, g32.n_edges, g32.p), 0.0, 0, 0)
    assert all(s.p_fail == 1.0 and s.shots == 200 for s in est.per_k[1:])
    expect = sum(occurrence_probability(k, g32.n_edges, g32.p)
                 for k in range(cfg.k_max + 1) if k > 0)
    assert est.ler == expect  # bit-identical left-to-right sums
    assert est.stderr == 0.0
    assert est.truncation == occurrence_tail(cfg.k_max, g32.n_edges, g32.p)


def test_rare_event_never_fails(g32, pt32, monkeypatch):
    fixed_chain(monkeypatch, False)
    est = run_rare_event(rare_cfg(), g32, pt32)
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


@pytest.mark.parametrize("predecoder", ["adaptive", "greedy"])
@pytest.mark.parametrize("d", [3, 5])
def test_rare_event_failures_do_not_depend_on_p(d, predecoder):
    # the exact-k streams, the predecoders and the hop-count matcher read
    # nothing that depends on p, so only P_occ(k) moves with it
    per_k = set()
    for p in (1e-4, 1e-3, 1e-2, 0.05):
        cfg = ExperimentConfig(distance=d, p=p, predecoder=predecoder, k_max=10,
                               shots_per_k=150, master_seed=7)
        per_k.add(tuple((s.k, s.failures, s.shots) for s in run_rare_event(cfg).per_k))
    assert len(per_k) == 1
    assert sum(failures for _, failures, _ in next(iter(per_k))) > 0


def test_rare_event_distance_ordering():
    # same physical rate, higher distance, lower logical rate
    lers = {}
    for d in (3, 5):
        cfg = ExperimentConfig(distance=d, rounds=d, p=0.003, k_max=5,
                               shots_per_k=500)
        lers[d] = run_rare_event(cfg).ler
    assert lers[3] > lers[5]
    assert lers[3] > 0.0


# -------------------------------------------------------- trial streams


def chain_failures(graph, table, syndromes, cfg):
    return sum(run_chain(graph, table, s, cfg).failure for s in syndromes)


def test_direct_stream_is_block_seeded(g3, pt3, chain_calls, monkeypatch):
    assert harness._BLOCK == 1024
    cfg = ExperimentConfig(distance=3, rounds=3, p=0.01, master_seed=11,
                           shots_direct=1024 + 3)  # crosses a block boundary
    drawn = []

    def recording(graph, rng, shots):
        drawn.extend(sample_iid(graph, rng, shots))
        return drawn[-shots:]

    monkeypatch.setattr(harness, "sample_iid", recording)
    ref = iid_stream(g3, 11, (harness._STREAM_DIRECT,), cfg.shots_direct, 1024)
    est = run_direct(cfg, g3, pt3)
    assert drawn == ref
    # the chain sees each distinct error set heavier than t_safe once, in
    # first-seen order; the failures are those of every trial with an error
    t = harness.t_safe(cfg)
    decoded = [syndrome_from_errors(g3, e) for e in ref if e]
    distinct = [syndrome_from_errors(g3, e) for e in distinct_heavier(ref, t)]
    assert [args[2] for args in chain_calls] == distinct
    assert 0 < len(distinct) <= sum(len(e) > t for e in ref) < len(decoded) < len(ref)
    assert round(est.ler * cfg.shots_direct) == chain_failures(g3, pt3, decoded, cfg) > 0


def test_direct_triage_exact_at_budget_floor():
    # one 4 ns cycle, the lowest budget: the empty syndrome still fits, so
    # skipping error-free trials stays exact while most decodes abort
    cfg = ExperimentConfig(distance=3, rounds=3, p=0.02, master_seed=21,
                           shots_direct=3000, budget_ns=4.0)
    graph, table = cfg.build()
    est = run_direct(cfg, graph, table)
    failures = direct_failures(graph, table, cfg, harness._STREAM_DIRECT, 1024)
    assert est.ler == failures / cfg.shots_direct
    assert 0 < failures < cfg.shots_direct
    # below one cycle even the empty syndrome would abort: refused
    cfg.budget_ns = 3.9
    with pytest.raises(ValueError, match="budget_ns"):
        run_direct(cfg, graph, table)


# run_direct's failure counts on the direct-d5 benchmark configuration
# (d=5, p=1e-3, 10^4 shots), pinned from the sampler that built a new set
# for every trial with an error: master seeds 3001-3012 and the first
# eight later seeds with a failure.  Most seeds have none at this rate.
DIRECT_D5_FAILURES = {3001: 0, 3002: 0, 3003: 0, 3004: 0, 3005: 0, 3006: 0,
                      3007: 0, 3008: 0, 3009: 0, 3010: 0, 3011: 0, 3012: 2,
                      3032: 1, 3050: 2, 3065: 1, 3089: 1, 3116: 1, 3134: 1,
                      3142: 1, 3165: 1}


@pytest.fixture(scope="module")
def direct_d5():
    """The direct-d5 configuration with its graph and path table."""
    cfg = ExperimentConfig(distance=5, p=1e-3, shots_direct=10_000)
    return (cfg, *cfg.build())


@pytest.mark.parametrize("seed", list(DIRECT_D5_FAILURES))
def test_direct_d5_failures_pinned(direct_d5, seed):
    # pinned, and equal to the reference that decodes every trial
    cfg, graph, table = direct_d5
    cfg = replace(cfg, master_seed=seed)
    failures = DIRECT_D5_FAILURES[seed]
    assert run_direct(cfg, graph, table).ler == failures / cfg.shots_direct
    assert direct_failures(graph, table, cfg, harness._STREAM_DIRECT, 1024) == failures


def test_direct_triage_matches_per_trial_reference():
    # d=3, p=0.02 over three blocks: every trial decoded, error-free or not
    cfg = ExperimentConfig(distance=3, rounds=3, p=0.02, master_seed=21,
                           shots_direct=2 * 1024 + 5)
    graph, table = cfg.build()
    est = run_direct(cfg, graph, table)
    failures = direct_failures(graph, table, cfg, harness._STREAM_DIRECT, 1024)
    assert round(est.ler * cfg.shots_direct) == failures > 0
    assert est.ler == failures / cfg.shots_direct


# ------------------------------------------------------- trial memo
#
# Each estimator call decodes a distinct error set once and reuses its
# record for repeats.  These configs repeat often: at d=3, rounds=2 most
# light trials are one of a few dozen single-edge sets.


def memo_cfg(**kwargs):
    base = dict(distance=3, rounds=2, p=0.02, master_seed=13,
                shots_direct=2 * 1024 + 5, k_max=4, shots_per_k=300)
    base.update(kwargs)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def hot32():
    """The d=3, rounds=2, p=0.02 graph and path table."""
    return memo_cfg().build()


@pytest.mark.parametrize("predecoder", harness.PREDECODERS)
def test_direct_memo_matches_per_trial_reference(hot32, chain_calls, predecoder):
    # At the default cap t_safe is 1, so only the sets of two or more edges
    # reach the memo; at cap 1 it is 0 and every trial with an error does.
    g32, pt32 = hot32
    for cap, t, calls_per_trial in ((DEFAULT_HW_CAP, 1, 0.8), (1, 0, 0.5)):
        cfg = memo_cfg(predecoder=predecoder, main_hw_cap=cap)
        assert harness.t_safe(cfg) == t
        chain_calls.clear()
        est = run_direct(cfg, g32, pt32)
        failures = direct_failures(g32, pt32, cfg, harness._STREAM_DIRECT, 1024)
        assert est.ler == failures / cfg.shots_direct
        assert failures > 0
        drawn = iid_stream(g32, cfg.master_seed, (harness._STREAM_DIRECT,),
                           cfg.shots_direct, 1024)
        heavier = sum(len(e) > t for e in drawn)
        assert len(chain_calls) == len(distinct_heavier(drawn, t)) < calls_per_trial * heavier


@pytest.mark.parametrize("predecoder", harness.PREDECODERS)
def test_rare_event_memo_matches_per_trial_reference(hot32, chain_calls, predecoder):
    g32, pt32 = hot32
    cfg = memo_cfg(predecoder=predecoder)
    est = run_rare_event(cfg, g32, pt32)
    ref = rare_failures(g32, pt32, cfg, harness._STREAM_RARE, 1024)
    assert [s.failures for s in est.per_k[1:]] == ref
    assert sum(ref) > 0
    assert len(chain_calls) < cfg.k_max * cfg.shots_per_k


def test_memo_bound_changes_no_output(hot32, monkeypatch):
    g32, pt32 = hot32
    cfg = memo_cfg()
    rcfg = report_corpus_cfg(distance=3, rounds=2, p=0.02, main_hw_cap=2, k_max=4)

    def outputs():
        monkeypatch.setattr(harness, "_last_reports", None)
        reps = [report(rcfg, g32, pt32, shots_per_k=300) for report in REPORTS]
        return run_direct(cfg, g32, pt32), run_rare_event(cfg, g32, pt32), reps

    calls = []

    def counting(*args):
        calls.append(args)
        return run_chain(*args)

    monkeypatch.setattr(harness, "run_chain", counting)
    full = outputs()
    n_full = len(calls)
    monkeypatch.setattr(harness, "_MEMO_ENTRIES", 1)
    assert outputs() == full
    assert len(calls) - n_full > n_full  # the bound holds one error set per call


def test_memo_admits_only_light_weights(g32, pt32, chain_calls, monkeypatch):
    # d=3, rounds=2: 22 edges, so weights 1-3 (22 + 231 + 1,540 = 1,793 sets)
    # are admitted and weight 4 (7,315 more) is not; one edge at d=5 (173, 14,878)
    assert [harness._memo_weight(n) for n in (22, 35, 173, 1931, 10)] == [3, 2, 1, 1, 10]
    for n in range(1, 200):  # the memo is bounded by the weight rule alone
        w = harness._memo_weight(n)
        sets = sum(math.comb(n, i) for i in range(1, w + 1))
        assert sets <= harness._MEMO_ENTRIES
        assert w == n or sets + math.comb(n, w + 1) > harness._MEMO_ENTRIES
    cfg = ExperimentConfig(distance=3, rounds=2, p=0.01, k_max=8, shots_direct=50)
    for weight, calls in ((3, 1), (4, 50)):
        errors = ErrorSet(frozenset(range(weight)))
        monkeypatch.setattr(harness, "sample_iid", lambda graph, rng, shots: [errors] * shots)
        chain_calls.clear()
        run_direct(cfg, g32, pt32)
        assert len(chain_calls) == calls


def heavy_report_errors(graph, cfg, shots):
    """The report stream's error sets whose syndromes exceed the cap, in order."""
    out = []
    for k in range(cfg.main_hw_cap // 2 + 1, cfg.k_max + 1):
        out += [e for e in block_stream(cfg.master_seed, (harness._STREAM_REPORT, k),
                                        shots, 1024, partial(inject_k_errors, graph, k))
                if syndrome_from_errors(graph, e).hamming_weight > cfg.main_hw_cap]
    return out


def test_corpus_repeats_share_one_record(hot32, chain_calls):
    # each light error set of the corpus is decoded once, a heavier one each time
    g32, pt32 = hot32
    cfg = report_corpus_cfg(distance=3, rounds=2, p=0.02, main_hw_cap=2, k_max=4)
    rep = report_hw_distribution(cfg, g32, pt32, shots_per_k=300)
    heavy = heavy_report_errors(g32, cfg, 300)
    w = harness._memo_weight(g32.n_edges)
    light = {e for e in heavy if len(e) <= w}
    assert rep["samples"] == len(heavy)
    assert len(chain_calls) == len(light) + sum(len(e) > w for e in heavy)
    assert len(chain_calls) < len(heavy)


ATOMIC = {bool, int, float, str, type(None)}


def nested_values(obj):
    """``obj`` and everything inside it, through dicts, tuples and lists."""
    yield obj
    if isinstance(obj, dict):
        obj = [v for item in obj.items() for v in item]
    if isinstance(obj, (tuple, list)):
        for value in obj:
            yield from nested_values(value)


def test_memo_and_corpus_rows_hold_only_atomic_values(hot32, g5, pt5, chain_calls,
                                                      monkeypatch):
    # the memo keeps run_chain's records with their outcome released, so
    # every field is a plain value, and repeats share one record object; the
    # report slot keeps no record at all
    g32, pt32 = hot32
    returned = []  # did each run_chain result carry its outcome when returned?
    chain = harness.run_chain

    def observed(*args):
        record = chain(*args)
        returned.append(record.aborted or record.outcome is not None)
        return record

    monkeypatch.setattr(harness, "run_chain", observed)
    cfg = memo_cfg()
    rows = list(harness._decoded_trials(g32, pt32, cfg, harness._exact_k_trials(
        g32, cfg.master_seed, cfg.shots_per_k, harness._STREAM_RARE, range(1, 5))))
    assert len({id(r) for r in rows}) == len(chain_calls) < len(rows)
    heavy = []
    for predecoder in harness.PREDECODERS:
        rcfg = report_corpus_cfg(predecoder=predecoder)
        heavy += [r for r in harness._decoded_trials(g5, pt5, rcfg, harness._exact_k_trials(
            g5, rcfg.master_seed, 20, harness._STREAM_REPORT, range(6, 13)), 11) if r]
        reps = [report(rcfg, g5, pt5, shots_per_k=20) for report in REPORTS]
        graph, table, key, slot = harness._last_reports
        assert graph is g5 and table is pt5 and list(slot) == reps
        held = list(nested_values((key, slot)))
        assert not any(isinstance(v, TrialRecord) for v in held)
        assert {type(v) for v in held} <= ATOMIC | {tuple, dict}
    for row in rows + heavy:
        assert type(row) is TrialRecord and row.outcome is None
        assert {type(v) for v in astuple(row)} <= ATOMIC, row
    assert len(returned) == len(chain_calls) and all(returned)
    assert any(not r.aborted for r in rows + heavy)
    assert {type(r.deepest_step) for r in heavy} == {str, type(None)}
    assert {type(r.total_ns) for r in heavy} == {float, type(None)}


def test_direct_memo_lives_for_one_call(hot32, chain_calls):
    g32, pt32 = hot32
    cfg = memo_cfg()
    first = run_direct(cfg, g32, pt32)
    n = len(chain_calls)
    assert n > 0
    assert run_direct(cfg, g32, pt32) == first
    assert len(chain_calls) == 2 * n


def test_rare_event_stream_is_block_seeded(g32, pt32):
    cfg = rare_cfg(k_max=3, shots_per_k=1024 + 3, master_seed=5)
    est = run_rare_event(cfg, g32, pt32)
    for s in est.per_k[1:]:
        ref = block_stream(5, (harness._STREAM_RARE, s.k), cfg.shots_per_k, 1024,
                           lambda rng: syndrome_from_errors(
                               g32, inject_k_errors(g32, s.k, rng)))
        assert s.failures == chain_failures(g32, pt32, ref, cfg)
    assert sum(s.failures for s in est.per_k) > 0


def test_corpus_stream_is_block_seeded(g5, pt5, chain_calls):
    # the corpus decodes the block stream's syndromes above the cap, in order
    # (no d=5 error set of k >= 6 edges is light enough to be remembered)
    cfg = report_corpus_cfg(k_max=8)
    rep = report_latency(cfg, g5, pt5, shots_per_k=30)
    ref = [syndrome_from_errors(g5, e) for e in heavy_report_errors(g5, cfg, 30)]
    assert [args[2] for args in chain_calls] == ref
    assert rep["samples"] == len(ref) > 0


# The differential tests below compare the block streams with the per-trial
# seeding they replaced, on 20,000 trials per scheme, each scheme under its
# own master seed so that no trial is shared.  Every comparison is held to
# 4 sigma of the difference of two independent sample means.
STREAM_TRIALS = 20_000


def test_block_streams_match_per_trial_iid_statistics(g3):
    # d=3, p=0.01: the i.i.d. error count and the HW-0 fraction
    def draw(rng):
        errors = sample_iid(g3, rng)[0]
        return len(errors), syndrome_from_errors(g3, errors).hamming_weight == 0

    n = STREAM_TRIALS
    block = np.array([draw(rng) for rng in
                      harness._trial_rngs(1, n, harness._STREAM_DIRECT)], dtype=float)
    ref = np.array(per_trial_stream(2, (harness._STREAM_DIRECT,), n, draw), dtype=float)
    for col in range(2):
        a, b = block[:, col], ref[:, col]
        sigma = math.sqrt(a.var() / n + b.var() / n)
        assert abs(a.mean() - b.mean()) <= 4 * sigma


def test_block_streams_match_per_trial_exact_k_edge_frequencies(g3):
    n, k = STREAM_TRIALS, 3

    def edge_frequencies(error_sets):
        counts = np.zeros(g3.n_edges)
        for errors in error_sets:
            counts[list(errors)] += 1
        return counts / n

    block = edge_frequencies(inject_k_errors(g3, k, rng) for rng in
                             harness._trial_rngs(3, n, harness._STREAM_RARE, k))
    ref = edge_frequencies(per_trial_stream(4, (harness._STREAM_RARE, k), n,
                                            lambda rng: inject_k_errors(g3, k, rng)))
    q = k / g3.n_edges
    sigma = math.sqrt(2 * q * (1 - q) / n)
    assert np.all(np.abs(block - ref) <= 4 * sigma)


# ------------------------------------------------------------- reports


def report_corpus_cfg(**kwargs):
    base = dict(distance=5, rounds=5, p=0.003, k_max=12, master_seed=7)
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_high_hw_corpus_strata(g5, pt5, chain_calls, monkeypatch):
    cfg = report_corpus_cfg()
    drawn = []

    def counting(graph, k, rng):
        drawn.append(k)
        return inject_k_errors(graph, k, rng)

    monkeypatch.setattr(harness, "inject_k_errors", counting)
    rep = report_step_usage(cfg, g5, pt5, shots_per_k=40)
    # k below 6 cannot push the weight past the cap of 10
    assert drawn == [k for k in range(6, 13) for _ in range(40)]
    assert rep["samples"] == len(chain_calls) > 0
    assert all(args[2].hamming_weight > cfg.main_hw_cap for args in chain_calls)


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


def test_report_latency_means_over_decoded_records():
    # a tight budget, so that some heavy syndromes abort
    cfg = ExperimentConfig(distance=7, p=1e-3, budget_ns=120.0, k_max=16, master_seed=1)
    graph, table = cfg.build()
    rep = report_latency(cfg, graph, table, shots_per_k=40)
    ref = reference_reports(graph, table, replace(cfg, shots_per_k=40),
                            harness._STREAM_REPORT, 1024)[1]
    assert 0.05 < rep["abort_rate"] < 0.06
    assert rep["predecode_mean_ns"] == pytest.approx(ref["predecode_mean_ns"], rel=1e-12)
    assert rep["total_mean_ns"] == pytest.approx(ref["total_mean_ns"], rel=1e-12)
    assert rep["total_mean_ns"] == pytest.approx(55.61, abs=0.01)
    assert rep["predecode_mean_ns"] <= rep["predecode_max_ns"]
    assert rep["total_mean_ns"] <= rep["total_max_ns"] <= cfg.budget_ns


def test_report_latency_nothing_decoded(g5, pt5):
    rep = report_latency(report_corpus_cfg(predecoder="none"), g5, pt5, shots_per_k=40)
    assert rep["samples"] > 0 and rep["abort_rate"] == 1.0
    assert rep["predecode_mean_ns"] == rep["total_mean_ns"] == 0.0


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
    # a new graph and table miss the corpus memo, so this resamples
    b = report_hw_distribution(cfg, *cfg.build(), shots_per_k=25)
    assert a == b


REPORTS = (report_hw_distribution, report_latency, report_step_usage)


@pytest.fixture
def chain_calls(monkeypatch):
    """Empty the report memo and count the run_chain calls made after."""
    monkeypatch.setattr(harness, "_last_reports", None)
    calls = []

    def counting(*args):
        calls.append(args)
        return run_chain(*args)

    monkeypatch.setattr(harness, "run_chain", counting)
    return calls


def test_reports_share_one_corpus(g5, pt5, chain_calls):
    cfg = report_corpus_cfg()
    reps = [report(cfg, g5, pt5, shots_per_k=20) for report in REPORTS]
    n = len(chain_calls)
    assert n == reps[0]["samples"] > 0
    assert [r["samples"] for r in reps] == [n] * 3
    # each call returns its own copy: editing one, nested dicts included,
    # leaves the next call's report as it was
    for report, rep in zip(REPORTS, reps):
        kept = deepcopy(rep)
        for value in rep.values():
            if isinstance(value, dict):
                value.clear()
        rep["samples"] = -1
        assert report(cfg, g5, pt5, shots_per_k=20) == kept
    assert len(chain_calls) == n


@pytest.mark.parametrize("change", [
    "master_seed", "predecoder", "shots_per_k", "table", "mutated_cfg"])
def test_corpus_recomputed_when_key_changes(g5, pt5, chain_calls, change):
    cfg = report_corpus_cfg()
    report_latency(cfg, g5, pt5, shots_per_k=20)
    n = len(chain_calls)
    table, shots = pt5, 20
    if change == "master_seed":
        cfg = report_corpus_cfg(master_seed=8)
    elif change == "predecoder":
        cfg = report_corpus_cfg(predecoder="greedy")
    elif change == "shots_per_k":
        shots = 21
    elif change == "table":
        table = build_path_table(g5)
    else:
        cfg.budget_ns = 480.0
    report_latency(cfg, g5, table, shots_per_k=shots)
    assert len(chain_calls) > n


def test_corpus_memo_validates_every_call(g5, pt5, chain_calls):
    cfg = report_corpus_cfg()
    report_step_usage(cfg, g5, pt5, shots_per_k=20)
    report_step_usage(cfg, g5, pt5, shots_per_k=20)  # a hit
    n = len(chain_calls)
    cfg.budget_ns = -1.0
    with pytest.raises(ValueError, match="budget_ns"):
        report_step_usage(cfg, g5, pt5, shots_per_k=20)
    assert len(chain_calls) == n


@pytest.mark.parametrize("report", REPORTS)
@pytest.mark.parametrize("shots", [True, "3", 2.5, 0])
def test_report_shot_override_refused_before_any_work(report, shots, chain_calls,
                                                      monkeypatch):
    # True is not one shot, and '3' and 2.5 are not counts; each is refused
    # with ValueError before a graph is built or a trial sampled
    def no_build(*args):
        raise AssertionError("built a graph for a refused shot count")

    monkeypatch.setattr(harness, "_graph_and_table", no_build)
    with pytest.raises(ValueError, match="shots_per_k"):
        report(report_corpus_cfg(), shots_per_k=shots)
    assert chain_calls == []


def assert_reports_close(got, want, path="report"):
    """Equal keys in equal order, equal non-floats, floats within 1e-12 relative."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_reports_close(got[key], want[key], f"{path}[{key!r}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), path
    else:
        assert got == want, path


@pytest.mark.parametrize("case", ["adaptive", "greedy", "none", "budget_120", "cap_6",
                                  "empty"])
def test_reports_match_per_stratum_reference(g5, pt5, g32, pt32, case):
    # one weighted pass gives each report the per-stratum means combined
    # with weights P_occ(k) * (share of stratum k above the cap)
    graph, table, shots = g5, pt5, 30
    if case in harness.PREDECODERS:
        cfg = report_corpus_cfg(predecoder=case)
    elif case == "budget_120":
        cfg = report_corpus_cfg(budget_ns=120.0)
    elif case == "cap_6":
        cfg = report_corpus_cfg(main_hw_cap=6, k_max=8)
    else:  # 8 detectors can never exceed a cap of 12
        graph, table, shots = g32, pt32, 5
        cfg = ExperimentConfig(distance=3, rounds=2, p=0.01, main_hw_cap=12, k_max=8)
    reps = [report(cfg, graph, table, shots_per_k=shots) for report in REPORTS]
    refs = reference_reports(graph, table, replace(cfg, shots_per_k=shots),
                             harness._STREAM_REPORT, 1024)
    for got, want in zip(reps, refs):
        assert_reports_close(got, want)
    lat = reps[1]
    if case == "budget_120":
        assert 0.0 < lat["abort_rate"] < 1.0
    if case == "empty":
        assert lat["samples"] == 0 and reps[0]["pre"] == {}
    else:
        assert lat["samples"] > 0


def test_reports_pinned_behaviour(g5, pt5):
    """Every report field for three predecoders over a fixed d=5 corpus.

    The digest was re-taken when the reports became one P_occ-weighted sum
    over the corpus instead of per-stratum means: the floats moved in their
    last bits with the summation order (within 5e-15 relative), and every
    sample count, key and non-float value stayed the same.  A change to it
    is a change of report contents and must be declared.
    """
    digest = hashlib.sha256()
    for predecoder in ("adaptive", "greedy", "none"):
        cfg = report_corpus_cfg(predecoder=predecoder)
        reps = [report(cfg, g5, pt5, shots_per_k=30) for report in REPORTS]
        assert [r["samples"] for r in reps] == [155] * 3
        digest.update(json.dumps(reps, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "9692bc9db97ae628ae3eb7bec576cc9639762d97ff40621e4de562387982e99d")
