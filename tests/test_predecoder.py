import hashlib
import math
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfmatch import predecoder
from surfmatch import (MAX_HW_CAP, ErrorSet, Prematch, PredecodeConfig, Step, Syndrome,
                       adaptive_predecode, build_decoding_graph, build_path_table,
                       build_subgraph, creates_singleton, greedy_baseline,
                       inject_k_errors, make_rng, reconstruct_path, sample_iid,
                       scan_candidates, step3_singleton_path, syndrome_from_errors,
                       trial_seed)
from oracles import (bfs_hops, brute_step3, edge_between, induced_neighbors,
                     predecode_result_to_json, reference_scan, reference_step3,
                     removal_strands)
from patterns import (find_adjacent_pair, find_disjoint_chains,
                      find_disjoint_pairs, find_induced_chain,
                      find_star_with_tail, find_two_hop_singletons)


def syndrome_of(nodes, obs=0):
    return Syndrome(frozenset(nodes), obs)


def chain_union_syndrome(chains):
    return syndrome_of({u for ch in chains for u in ch})


# ---------------------------------------------------------------- subgraph


def test_subgraph_empty(g3):
    sub = build_subgraph(g3, syndrome_of(()))
    assert sub.nodes == set()
    assert sub.adj == {}
    assert sub.edges == {}
    assert sub.singletons() == set()
    assert scan_candidates(sub) == ([], {})


def test_subgraph_rejects_bad_ids(g3):
    with pytest.raises(ValueError):
        build_subgraph(g3, syndrome_of({g3.n_detectors}))


def test_subgraph_adjacent_pair(g3, pt3):
    u, v = find_adjacent_pair(g3)
    sub = build_subgraph(g3, syndrome_of({u, v}))
    eid = edge_between(g3, u, v).id
    assert set(sub.edges) == {eid}
    assert sub.adj == {u: {v: eid}, v: {u: eid}}
    assert {i: len(sub.adj[i]) for i in sub.nodes} == {u: 1, v: 1}
    assert sub.dependent_counts() == {u: 1, v: 1}
    assert sub.singletons() == set()
    batch, regs = scan_candidates(sub)
    [pm] = batch
    assert (pm.a, pm.b, pm.step) == (*sorted((u, v)), Step.S1)
    assert reconstruct_path(pt3, pm.a, pm.b) == [eid]
    assert regs == {}


def test_subgraph_star_with_tail(g3):
    a, b, c, d, e, f = find_star_with_tail(g3)
    sub = build_subgraph(g3, syndrome_of({a, b, c, d, e, f}))
    assert len(sub.adj[a]) == 4
    assert len(sub.adj[e]) == 2 and len(sub.adj[f]) == 1
    # b, c, d lean on a; e has f, and a is not e's only neighbor
    assert sub.dependent_counts() == {a: 3, e: 1}
    assert sub.singletons() == set()


@pytest.mark.parametrize("name", ["g3", "g5", "g7"])
def test_remove_pair_matches_fresh_build(name, request):
    graph = request.getfixturevalue(name)
    rng = make_rng(29)
    removals = 0
    for p in (0.03, 0.06, 0.12):
        hot = build_decoding_graph(graph.distance, graph.rounds, p)
        for _ in range(60):
            errors = sample_iid(hot, rng)[0]
            sub = build_subgraph(graph, syndrome_from_errors(graph, errors))
            while len(sub.nodes) >= 2:
                # half the removals take an edge, half any two nodes
                if sub.edges and rng.random() < 0.5:
                    a, b = sub.edges[sorted(sub.edges)[rng.integers(len(sub.edges))]]
                else:
                    a, b = rng.choice(sorted(sub.nodes), size=2, replace=False).tolist()
                sub.remove_pair(a, b)
                removals += 1
                fresh = build_subgraph(graph, syndrome_of(sub.nodes))
                assert sub.adj == fresh.adj
                assert sub.edges == fresh.edges
                assert list(sub.edges) == sorted(sub.edges)  # removal keeps id order
                nbrs = induced_neighbors(graph, set(sub.nodes))
                assert sub.singletons() == {u for u, vs in nbrs.items() if not vs}
                assert {u: set(vs) for u, vs in sub.adj.items()} == nbrs
                dep = {u: sum(len(nbrs[v]) == 1 for v in vs) for u, vs in nbrs.items()}
                assert sub.dependent_counts() == {u: n for u, n in dep.items() if n}
    assert removals > 150


# ------------------------------------------------------- singleton safety


def test_creates_singleton_star(g3):
    a, b, c, d, e, f = find_star_with_tail(g3)
    sub = build_subgraph(g3, syndrome_of({a, b, c, d, e, f}))
    # taking the hub strands the other leaves; the tail edge is safe
    dep = sub.dependent_counts()
    assert creates_singleton(sub, dep, a, b) is True
    assert creates_singleton(sub, dep, e, f) is False
    assert removal_strands(g3, sub, a, b) is True
    assert removal_strands(g3, sub, e, f) is False


def test_creates_singleton_isolated_pair(g3):
    u, v = find_adjacent_pair(g3)
    sub = build_subgraph(g3, syndrome_of({u, v}))
    assert creates_singleton(sub, sub.dependent_counts(), u, v) is False


def test_creates_singleton_four_chain(g3):
    v1, v2, v3, v4 = find_induced_chain(g3, 4)
    sub = build_subgraph(g3, syndrome_of({v1, v2, v3, v4}))
    dep = sub.dependent_counts()
    assert creates_singleton(sub, dep, v2, v3) is True  # strands both ends
    assert creates_singleton(sub, dep, v1, v2) is False  # leaves the v3-v4 edge


def test_creates_singleton_matches_removal_oracle(g3):
    rng = make_rng(11)
    hot = build_decoding_graph(3, 3, 0.12)
    checked = 0
    for _ in range(300):
        errors = sample_iid(hot, rng)[0]
        sub = build_subgraph(g3, syndrome_from_errors(g3, errors))
        dep = sub.dependent_counts()
        for u, v in sub.edges.values():
            assert creates_singleton(sub, dep, u, v) == removal_strands(g3, sub, u, v)
            checked += 1
    assert checked > 500


# ----------------------------------------------------------- S1 batching


def test_scan_batches_six_isolated_pairs(g5, pt5):
    pairs = find_disjoint_pairs(g5, 6)
    sub = build_subgraph(g5, syndrome_of({u for p in pairs for u in p}))
    batch, regs = scan_candidates(sub)
    assert len(batch) == 6
    assert {(pm.a, pm.b) for pm in batch} == {tuple(sorted(p)) for p in pairs}
    assert all(pm.step is Step.S1 for pm in batch)
    assert [reconstruct_path(pt5, pm.a, pm.b) for pm in batch] == \
        [[eid] for eid in sorted(edge_between(g5, *p).id for p in pairs)]
    assert regs == {}
    assert len(sub.nodes) == 12  # the scan only reads the subgraph


def test_scan_batch_leaves_registers_empty(g5):
    # an isolated pair next to a 3-chain: the pair is batched and the
    # chain's edges, which would fill S4_1, are not classified
    pair, chain = find_disjoint_chains(g5, 2, 3)
    sub = build_subgraph(g5, syndrome_of({*pair[:2], *chain}))
    batch, regs = scan_candidates(sub)
    assert [(pm.a, pm.b, pm.step) for pm in batch] == [(*sorted(pair[:2]), Step.S1)]
    assert regs == {}
    sub.remove_pair(*pair[:2])
    batch, regs = scan_candidates(sub)
    assert batch == [] and set(regs) == {Step.S4_1}


def test_scan_skips_lone_singleton(g3):
    sub = build_subgraph(g3, syndrome_of({0}))
    assert scan_candidates(sub) == ([], {})
    assert sub.nodes == {0}


# ------------------------------------------------------ candidate scan


def test_scan_four_chain_registers(g3):
    v1, v2, v3, v4 = find_induced_chain(g3, 4)
    sub = build_subgraph(g3, syndrome_of({v1, v2, v3, v4}))
    batch, regs = scan_candidates(sub)
    end_ids = sorted((edge_between(g3, v1, v2).id, edge_between(g3, v3, v4).id))
    assert batch == []
    assert set(regs) == {Step.S2_1, Step.S4_2}
    assert regs[Step.S2_1] == end_ids[0]  # first in id order
    assert regs[Step.S4_2] == edge_between(g3, v2, v3).id
    assert sub.edges[regs[Step.S4_2]] == tuple(sorted((v2, v3)))


def test_scan_three_chain_registers(g3):
    v1, v2, v3 = find_induced_chain(g3, 3)
    sub = build_subgraph(g3, syndrome_of({v1, v2, v3}))
    batch, regs = scan_candidates(sub)
    # both edges strand the opposite end; no safe move exists
    assert batch == [] and set(regs) == {Step.S4_1}
    ids = sorted((edge_between(g3, v1, v2).id, edge_between(g3, v2, v3).id))
    assert regs == {Step.S4_1: ids[0]}


def test_scan_four_cycle_is_s2_2(g32):
    # same spacelike pair in both rounds: a chordless 4-cycle, all degree 2
    u, v = find_adjacent_pair(g32)
    per_round = g32.n_detectors // g32.rounds
    quad = {u, v, u + per_round, v + per_round}
    sub = build_subgraph(g32, syndrome_of(quad))
    assert all(len(sub.adj[i]) == 2 for i in sub.nodes)
    batch, regs = scan_candidates(sub)
    assert batch == [] and set(regs) == {Step.S2_2}
    assert regs == {Step.S2_2: min(sub.edges)}


def test_scan_register_holds_first_edge_in_id_order(g5, pt5):
    # each register holds the lowest-id edge of its category, with the
    # categories found by simulated removal rather than the scan's counts
    rng = make_rng(19)
    hot = build_decoding_graph(5, 5, 0.04)
    filled = dict.fromkeys((Step.S2_1, Step.S2_2, Step.S4_1, Step.S4_2), 0)
    for _ in range(400):
        sub = build_subgraph(g5, syndrome_from_errors(g5, sample_iid(hot, rng)[0]))
        batch, regs = scan_candidates(sub)
        if batch:
            continue
        nbrs = induced_neighbors(g5, set(sub.nodes))
        first = {}
        for eid in sorted(sub.edges):
            u, v = sub.edges[eid]
            end = min(len(nbrs[u]), len(nbrs[v])) == 1
            if removal_strands(g5, sub, u, v):
                step = Step.S4_1 if end else Step.S4_2
            else:
                step = Step.S2_1 if end else Step.S2_2
            first.setdefault(step, eid)
        assert regs == first
        for step, eid in first.items():
            # the prematch a round would build from this register
            pm = predecoder._edge_prematch(sub, regs[step], step)
            assert (pm.a, pm.b, pm.step) == (*sub.edges[eid], step)
            assert reconstruct_path(pt5, pm.a, pm.b) == [eid]
            filled[step] += 1
    assert min(filled.values()) > 5


def test_scan_empty_registers_without_edges(g3):
    s, t = 0, g3.n_detectors - 1
    assert edge_between(g3, s, t) is None
    sub = build_subgraph(g3, syndrome_of({s, t}))
    assert scan_candidates(sub) == ([], {})


# ------------------------------------------------------------- step 3


def test_step3_two_hop_pair_frozen_weight(g32, pt32):
    s, t = find_two_hop_singletons(g32, pt32)
    sub = build_subgraph(g32, syndrome_of({s, t}))
    assert sub.singletons() == {s, t}
    pm, _ = step3_singleton_path(sub, pt32)
    assert (pm.a, pm.b, pm.step) == (s, t, Step.S3)
    path = reconstruct_path(pt32, pm.a, pm.b)
    assert len(path) == pt32.hops[s, t] == 2
    covered = syndrome_from_errors(g32, ErrorSet(frozenset(path)))
    assert covered.flipped == {s, t}


def test_step3_six_node_instance(g5, pt5):
    s, t = find_two_hop_singletons(g5, pt5)
    hs, ht = bfs_hops(g5, s), bfs_hops(g5, t)
    far = {x for x in range(g5.n_detectors) if hs[x] <= 2 or ht[x] <= 2}
    chain = find_induced_chain(g5, 4, forbidden=far)
    sub = build_subgraph(g5, syndrome_of({s, t, *chain}))
    assert sub.singletons() == {s, t}
    pm, examined = step3_singleton_path(sub, pt5)
    assert examined == 2 * 5  # both singletons try every other node
    # chain ends are legal partners (stranding nobody) but cost 3+ edges
    assert (pm.a, pm.b) == tuple(sorted((s, t)))
    hops = len(reconstruct_path(pt5, pm.a, pm.b))
    assert hops == 2
    assert (pm.a, pm.b, hops) == brute_step3(g5, sub, pt5)


def test_step3_agrees_with_brute_force(g3, pt3):
    rng = make_rng(17)
    hot = build_decoding_graph(3, 3, 0.05)
    seen = 0
    for _ in range(300):
        errors = sample_iid(hot, rng)[0]
        sub = build_subgraph(g3, syndrome_from_errors(g3, errors))
        if not sub.singletons() or len(sub.nodes) < 2:
            continue
        pm, _ = step3_singleton_path(sub, pt3)
        expect = brute_step3(g3, sub, pt3)
        if expect is None:
            assert pm is None
            continue
        s, t, hops = expect
        assert (pm.a, pm.b, len(reconstruct_path(pt3, pm.a, pm.b))) == (s, t, hops)
        seen += 1
    assert seen > 30


def test_step3_none_without_singletons(g3, pt3):
    u, v = find_adjacent_pair(g3)
    sub = build_subgraph(g3, syndrome_of({u, v}))
    assert step3_singleton_path(sub, pt3) == (None, 0)


# ------------------------------------ linear-time scan against the reference


@pytest.mark.parametrize("d", [3, 5, 7])
def test_build_subgraph_equals_induced_neighbors(d, request):
    graph = request.getfixturevalue(f"g{d}")
    rng = make_rng(37)
    for p in (0.03, 0.06, 0.12):
        hot = build_decoding_graph(graph.distance, graph.rounds, p)
        for _ in range(100):
            syn = syndrome_from_errors(graph, sample_iid(hot, rng)[0])
            sub = build_subgraph(graph, syn)
            assert {u: set(vs) for u, vs in sub.adj.items()} == \
                induced_neighbors(graph, syn.flipped)
            assert sub.edges == {eid: (u, v) for u, vs in sub.adj.items()
                                 for v, eid in vs.items() if u < v}
            assert list(sub.edges) == sorted(sub.edges)
            assert all(edge_between(graph, u, v).id == eid
                       for eid, (u, v) in sub.edges.items())


@pytest.mark.parametrize("d", [3, 5, 7])
def test_scan_and_step3_equal_reference_on_every_round(d, request, monkeypatch):
    # every round of whole adaptive predecodes (cap 1, an unbounded budget)
    # is scanned by the package and by the per-edge reference it replaced;
    # S3 is compared on every scanned subgraph, not only where a round uses it
    graph = request.getfixturevalue(f"g{d}")
    table = request.getfixturevalue(f"pt{d}")
    scan, step3 = predecoder.scan_candidates, predecoder.step3_singleton_path
    seen = Counter()

    def checked_scan(sub):
        batch, regs = scan(sub)
        ref_batch, ref_regs = reference_scan(sub)
        assert batch == ref_batch
        assert regs == {step: edge_between(graph, pm.a, pm.b).id
                        for step, pm in ref_regs.items()}
        assert {step: predecoder._edge_prematch(sub, eid, step)
                for step, eid in regs.items()} == ref_regs
        s3 = step3(sub, table)
        assert s3 == reference_step3(sub, table)
        seen["rounds"] += 1
        seen["S3"] += s3[0] is not None
        seen[Step.S1] += bool(batch)
        seen.update(list(regs))
        return batch, regs

    monkeypatch.setattr(predecoder, "scan_candidates", checked_scan)
    cfg = PredecodeConfig(main_hw_cap=1, budget_ns=1e9)
    rng = make_rng(41 + d)
    for p in (0.03, 0.06, 0.12):
        hot = build_decoding_graph(graph.distance, graph.rounds, p)
        for _ in range(300):
            syn = syndrome_from_errors(graph, sample_iid(hot, rng)[0])
            adaptive_predecode(graph, table, syn, cfg)
    assert seen["rounds"] > 900
    assert min(seen[step] for step in (Step.S1, Step.S2_1, Step.S2_2, Step.S4_1,
                                       Step.S4_2, "S3")) > 10, seen


# ------------------------------------------------------------ config


def test_config_validation():
    for bad in (dict(main_hw_cap=0), dict(main_hw_cap=MAX_HW_CAP + 1),
                dict(clock_mhz=0), dict(clock_mhz=math.nan), dict(clock_mhz=math.inf),
                dict(budget_ns=math.nan), dict(budget_ns=-1.0), dict(budget_ns=0.0),
                dict(budget_ns=math.inf),
                # the cap is a count; a budget below one 4 ns cycle fits nothing
                dict(main_hw_cap=9.5), dict(main_hw_cap=True), dict(budget_ns=1.0),
                dict(budget_ns=3.9),
                # the budget and the clock are real numbers, and not bools
                dict(budget_ns=None), dict(budget_ns="960"), dict(budget_ns=True),
                dict(clock_mhz=None), dict(clock_mhz="250"), dict(clock_mhz=True)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            PredecodeConfig(**bad)
    for cap in (1, 6, 7, 8, 10, MAX_HW_CAP):
        assert PredecodeConfig(main_hw_cap=cap).main_hw_cap == cap
    assert PredecodeConfig(budget_ns=4.0).fits(0, 0)  # one cycle: the floor
    assert PredecodeConfig(budget_ns=2.0, clock_mhz=500.0).fits(0, 0)


def test_config_fits_edges():
    # 4 ns cycles; the main stage models 105 pairings (420 ns) at HW 8
    cfg = PredecodeConfig(main_hw_cap=8, budget_ns=500.0)
    assert cfg.fits(8, 20)  # HW at the cap, time exactly the budget
    assert not cfg.fits(8, 21)  # one cycle over
    assert not PredecodeConfig(main_hw_cap=8, budget_ns=1e6).fits(9, 0)  # cap + 1
    assert cfg.fits(0, 124) and not cfg.fits(0, 125)  # 4 ns left for HW 0
    assert not cfg.fits(0, 126)  # predecode alone is already over the budget
    assert PredecodeConfig().fits(8, 135) and not PredecodeConfig().fits(10, 0)


def test_config_timing_model():
    cfg = PredecodeConfig()
    assert cfg.cycle_ns == pytest.approx(4.0)
    assert cfg.main_latency(10) == pytest.approx(945 * 4.0)
    assert cfg.main_latency(8) == pytest.approx(105 * 4.0)
    assert cfg.main_latency(0) == pytest.approx(4.0)


# --------------------------------------------------- adaptive loop


def test_adaptive_noop_at_or_below_target(g3, pt3):
    chain = find_induced_chain(g3, 4)
    res = adaptive_predecode(g3, pt3, syndrome_of(chain))
    assert res.prematches == ()
    assert res.cycles == 0 and res.rounds_executed == 0
    assert res.residual.flipped == frozenset(chain)
    assert not res.aborted

    empty = adaptive_predecode(g3, pt3, syndrome_of(()))
    assert empty.prematches == () and not empty.aborted


def test_adaptive_six_pairs_single_pass(g5, pt5):
    pairs = find_disjoint_pairs(g5, 6)
    res = adaptive_predecode(g5, pt5, syndrome_of({u for p in pairs for u in p}))
    assert not res.aborted
    assert len(res.prematches) == 6
    assert all(pm.step is Step.S1 for pm in res.prematches)
    assert res.residual.hamming_weight == 0
    # one pass over the six subgraph edges matches everything
    assert res.cycles == 6
    assert res.rounds_executed == 1


def test_adaptive_three_chains_step_sequence(g7, pt7):
    chains = find_disjoint_chains(g7, 3, 4)
    syn = chain_union_syndrome(chains)
    sub = build_subgraph(g7, syn)
    assert len(sub.edges) == 9  # three disjoint induced 4-node paths

    end_ids = set()
    mid_ids = set()
    for v1, v2, v3, v4 in chains:
        end_ids |= {edge_between(g7, v1, v2).id, edge_between(g7, v3, v4).id}
        mid_ids.add(edge_between(g7, v2, v3).id)

    res = adaptive_predecode(g7, pt7, syn,
                             PredecodeConfig(main_hw_cap=6), record_trace=True)
    assert not res.aborted
    assert [pm.step for pm in res.prematches] == [Step.S2_1, Step.S1, Step.S2_1]
    used = {eid for pm in res.prematches for eid in reconstruct_path(pt7, pm.a, pm.b)}
    assert used <= end_ids
    assert used.isdisjoint(mid_ids)  # middle edges would strand the ends
    assert res.residual.hamming_weight == 6
    assert res.cycles == 9 + 7 + 6
    assert res.rounds_executed == 3
    assert [e.step for e in res.trace] == [Step.S2_1, Step.S1, Step.S2_1]
    assert all(e.singletons_after <= e.singletons_before for e in res.trace)


def test_adaptive_target_walks_down_when_main_too_slow(g7, pt7):
    # residual 10 would model 945 matchings = 3780 ns, far past the budget,
    # so the loop keeps going and settles at 8
    chains = find_disjoint_chains(g7, 3, 4)
    res = adaptive_predecode(g7, pt7, chain_union_syndrome(chains),
                             PredecodeConfig(main_hw_cap=10))
    assert not res.aborted
    assert [pm.step for pm in res.prematches] == [Step.S2_1, Step.S1]
    assert res.residual.hamming_weight == 8
    assert res.cycles == 9 + 7
    cfg = PredecodeConfig(main_hw_cap=10)
    assert res.cycles * cfg.cycle_ns + cfg.main_latency(8) <= cfg.budget_ns


def test_adaptive_s3_then_s4(g7, pt7):
    s, t = find_two_hop_singletons(g7, pt7)
    hs, ht = bfs_hops(g7, s), bfs_hops(g7, t)
    blocked = {x for x in range(g7.n_detectors) if hs[x] <= 2 or ht[x] <= 2}
    chains = []
    for _ in range(3):
        ch = find_induced_chain(g7, 3, forbidden=blocked)
        chains.append(ch)
        for u in ch:
            blocked.add(u)
            blocked |= {v for v, _ in g7.detector_neighbors[u]}
    syn = syndrome_of({s, t, *(u for ch in chains for u in ch)})  # weight 11

    res = adaptive_predecode(g7, pt7, syn, record_trace=True)
    assert not res.aborted
    # no safe edge exists, so the singleton route fires first, and the
    # leftover three-chains force one risky endpoint match
    assert [pm.step for pm in res.prematches] == [Step.S3, Step.S4_1]
    s3 = res.prematches[0]
    assert {s3.a, s3.b} == {s, t}
    assert len(reconstruct_path(pt7, s3.a, s3.b)) == 2
    assert res.residual.hamming_weight == 7
    # round one costs the 20 examined singleton pairings (> 6 edges)
    assert res.cycles == 20 + 6
    s4 = res.trace[1]
    assert s4.singletons_after == s4.singletons_before + 1


def test_adaptive_budget_zero_aborts_before_any_match(g5, pt5):
    pairs = find_disjoint_pairs(g5, 6)
    syn = syndrome_of({u for p in pairs for u in p})
    # 4 ns is one cycle, less than the 6-cycle first round
    res = adaptive_predecode(g5, pt5, syn, PredecodeConfig(budget_ns=4.0))
    assert res.aborted
    assert res.prematches == ()
    assert res.residual.flipped == syn.flipped
    # the aborted pass is still paid for
    assert res.cycles == 6
    assert res.rounds_executed == 1


def test_adaptive_budget_cuts_between_rounds(g7, pt7):
    chains = find_disjoint_chains(g7, 3, 4)
    syn = chain_union_syndrome(chains)
    # 40 ns covers the 9-cycle scan round but not the 7-cycle S1 pass after
    res = adaptive_predecode(g7, pt7, syn, PredecodeConfig(budget_ns=40.0))
    assert res.aborted
    assert [pm.step for pm in res.prematches] == [Step.S2_1]
    assert res.residual.hamming_weight == 10  # the paid S1 pass was not applied
    assert res.cycles == 9 + 7


def test_adaptive_stuck_singleton_aborts(g3, pt3):
    # an adjacent pair plus a lone defect: S1 pays one cycle (4 ns) for the
    # pair; the lone defect then needs the boundary, its 4 ns main latency
    # never fits beside that cycle, and there is nothing left to match
    u, v = find_adjacent_pair(g3)
    near = {u, v} | {x for n in (u, v) for x, _ in g3.detector_neighbors[n]}
    lone = next(i for i in range(g3.n_detectors) if i not in near)
    for budget_ns in (4.0, 6.0, 7.0):
        res = adaptive_predecode(g3, pt3, syndrome_of({u, v, lone}),
                                 PredecodeConfig(budget_ns=budget_ns))
        assert res.aborted
        assert [(pm.step, {pm.a, pm.b}) for pm in res.prematches] == [(Step.S1, {u, v})]
        assert res.rounds_executed == 2 and res.cycles == 1
        assert res.residual.flipped == frozenset({lone})


# ------------------------------------------------- whole-run invariants


def check_invariants(graph, table, syndrome, res, cfg):
    hw0 = syndrome.hamming_weight
    assert res.residual.flipped <= syndrome.flipped
    assert res.residual.hamming_weight == hw0 - 2 * len(res.prematches)
    assert res.residual.hamming_weight % 2 == hw0 % 2
    matched = [x for pm in res.prematches for x in (pm.a, pm.b)]
    assert len(matched) == len(set(matched))
    assert set(matched) | set(res.residual.flipped) == syndrome.flipped
    for pm in res.prematches:
        covered = syndrome_from_errors(
            graph, ErrorSet(frozenset(reconstruct_path(table, pm.a, pm.b))))
        assert covered.flipped == {pm.a, pm.b}
        assert covered.hamming_weight == 2
    if not res.aborted:
        hw = res.residual.hamming_weight
        assert hw <= cfg.main_hw_cap
        assert res.cycles * cfg.cycle_ns + cfg.main_latency(hw) <= cfg.budget_ns


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_adaptive_random_syndrome_invariants(g3, pt3, data):
    ids = data.draw(st.frozensets(st.integers(0, g3.n_edges - 1), max_size=14))
    syn = syndrome_from_errors(g3, ErrorSet(ids))
    cfg = PredecodeConfig(main_hw_cap=6)
    res = adaptive_predecode(g3, pt3, syn, cfg, record_trace=True)
    check_invariants(g3, pt3, syn, res, cfg)
    safe = {Step.S1, Step.S2_1, Step.S2_2, Step.S3}
    for entry in res.trace:
        if entry.step in safe:
            assert entry.singletons_after <= entry.singletons_before


def test_prematch_corrections_are_fewest_hop_paths():
    # A prematch's weight is the table's hops between its pair and its
    # correction is the pair's table path, so that path must have that many
    # edges and flip exactly the pair.  Checked on every prematch of
    # adaptive and greedy predecodes of a d=11 exact-k corpus.
    graph = build_decoding_graph(11, 11, 1e-4)
    table = build_path_table(graph)
    cfg = PredecodeConfig(main_hw_cap=6)  # deeper than the default: more S3 and S4
    checked = Counter()
    for k in range(6, 25):
        for i in range(25):
            syn = syndrome_from_errors(graph, inject_k_errors(graph, k, trial_seed(1111, k, i)))
            for res in (adaptive_predecode(graph, table, syn, cfg),
                        greedy_baseline(graph, syn, cfg)):
                for pm in res.prematches:
                    path = reconstruct_path(table, pm.a, pm.b)
                    assert len(path) == table.hops[pm.a, pm.b]
                    flips = syndrome_from_errors(graph, ErrorSet(frozenset(path)))
                    assert flips.flipped == {pm.a, pm.b}
                    checked[pm.step] += 1
    assert checked[Step.S3] > 20 and checked[Step.GREEDY] > 1000, checked


def test_adaptive_deterministic(g5, pt5):
    rng = make_rng(23)
    hot = build_decoding_graph(5, 5, 0.02)
    for _ in range(20):
        syn = syndrome_from_errors(g5, sample_iid(hot, rng)[0])
        a = adaptive_predecode(g5, pt5, syn, record_trace=True)
        b = adaptive_predecode(g5, pt5, syn, record_trace=True)
        assert a == b



def test_adaptive_pinned_behaviour(g7, pt7):
    """Every prematch, residual, cycle count and trace step over a fixed corpus.

    The digest was taken when S3 came to weigh its path as hops times
    -ln p: two 6-hop S3 weights print 27.631021115928547 where the float
    path sum printed ...544, and everything else is as it was before the
    subgraph became incremental.  A change to it is a change of predecoder
    behaviour and must be declared as one.
    """
    digest = hashlib.sha256()
    decoded = 0
    for cfg in (PredecodeConfig(), PredecodeConfig(main_hw_cap=6)):
        for k in range(6, 21):
            for i in range(80):
                errors = inject_k_errors(g7, k, trial_seed(7007, k, i))
                syn = syndrome_from_errors(g7, errors)
                if syn.hamming_weight <= 10:
                    continue
                res = adaptive_predecode(g7, pt7, syn, cfg, record_trace=True)
                digest.update(predecode_result_to_json(res, pt7).encode())
                digest.update(f"{res.rounds_executed}".encode())
                for e in res.trace:
                    digest.update(f"|{e.step.value},{e.singletons_before},"
                                  f"{e.singletons_after},{e.hw_after}".encode())
                decoded += 1
    assert decoded == 2 * 1097
    assert digest.hexdigest() == (
        "a1819bddebc39e6c64f1a78a4542e40741c892914cc307e648f09ffc7f057774")


def test_prematch_is_a_pair():
    # the path table is the one source of a prematch's path and weight
    assert [f.name for f in fields(Prematch)] == ["a", "b", "step"]
    assert not hasattr(predecoder, "reconstruct_path")


def test_prematch_paths_on_the_pinned_corpus(g7, pt7):
    # A prematch is a pair, and its path comes from the table.  Over the
    # corpus of test_adaptive_pinned_behaviour, adaptive and greedy: an
    # edge step's path is the one graph edge joining its two flipped
    # detectors, which was the subgraph edge it matched, and an S3 path
    # has the table's fewest hops.
    # no two edges join the same two detectors (only the boundary has several)
    inner = [(e.u, e.v) for e in g7.edges if e.v != g7.n_detectors]
    assert len(set(inner)) == len(inner)
    checked = Counter()
    for cfg in (PredecodeConfig(), PredecodeConfig(main_hw_cap=6)):
        for k in range(6, 21):
            for i in range(80):
                syn = syndrome_from_errors(g7, inject_k_errors(g7, k, trial_seed(7007, k, i)))
                if syn.hamming_weight <= 10:
                    continue
                for res in (adaptive_predecode(g7, pt7, syn, cfg),
                            greedy_baseline(g7, syn, cfg)):
                    for pm in res.prematches:
                        path = reconstruct_path(pt7, pm.a, pm.b)
                        assert {pm.a, pm.b} <= syn.flipped
                        if pm.step is Step.S3:
                            assert len(path) == pt7.hops[pm.a, pm.b]
                        else:
                            assert path == [edge_between(g7, pm.a, pm.b).id]
                        checked[pm.step] += 1
    assert checked[Step.S3] > 0 and checked[Step.S1] > 1000, checked
    assert checked[Step.GREEDY] > 1000, checked
