import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfmatch import (ErrorSet, PredecodeConfig, Step, Syndrome,
                       adaptive_predecode, build_subgraph, creates_singleton,
                       inject_k_errors, make_rng, match_isolated_pairs,
                       sample_iid, scan_candidates, step3_singleton_path,
                       syndrome_from_errors, trial_seed)
from surfmatch.predecoder import predecode_result_to_json

from oracles import brute_step3, induced_neighbors, removal_strands
from patterns import (find_adjacent_pair, find_disjoint_chains,
                      find_disjoint_pairs, find_induced_chain,
                      find_star_with_tail, find_two_hop_singletons)

W = -math.log(0.01)  # uniform edge weight at p=0.01


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
    assert sub.isolated_pair_edges() == []


def test_subgraph_rejects_bad_ids(g3):
    with pytest.raises(ValueError):
        build_subgraph(g3, syndrome_of({g3.n_detectors}))


def test_subgraph_adjacent_pair(g3):
    u, v = find_adjacent_pair(g3)
    sub = build_subgraph(g3, syndrome_of({u, v}))
    eid = g3.edge_between(u, v).id
    assert set(sub.edges) == {eid}
    assert sub.adj == {u: {v: eid}, v: {u: eid}}
    assert {i: sub.degree(i) for i in sub.nodes} == {u: 1, v: 1}
    assert {i: sub.dependents(i) for i in sub.nodes} == {u: 1, v: 1}
    assert sub.singletons() == set()
    assert sub.isolated_pair_edges() == [(eid, *sorted((u, v)))]
    [pm] = match_isolated_pairs(sub, g3)
    assert pm.weight == pytest.approx(W)


def test_subgraph_star_with_tail(g3):
    a, b, c, d, e, f = find_star_with_tail(g3)
    sub = build_subgraph(g3, syndrome_of({a, b, c, d, e, f}))
    assert sub.degree(a) == 4
    assert sub.dependents(a) == 3  # b, c, d lean on a; e still has f
    assert sub.degree(e) == 2 and sub.degree(f) == 1
    assert sub.singletons() == set()


@pytest.mark.parametrize("name", ["g3", "g5", "g7"])
def test_remove_pair_matches_fresh_build(name, request):
    graph = request.getfixturevalue(name)
    rng = make_rng(29)
    removals = 0
    for p in (0.03, 0.06, 0.12):
        for _ in range(60):
            errors = sample_iid(graph, p, rng)
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
                nbrs = induced_neighbors(graph, set(sub.nodes))
                assert sub.singletons() == {u for u, vs in nbrs.items() if not vs}
                assert {u: sub.degree(u) for u in sub.nodes} == \
                    {u: len(vs) for u, vs in nbrs.items()}
                assert {u: sub.dependents(u) for u in sub.nodes} == \
                    {u: sum(len(nbrs[v]) == 1 for v in vs) for u, vs in nbrs.items()}
    assert removals > 150


# ------------------------------------------------------- singleton safety


def test_creates_singleton_star(g3):
    a, b, c, d, e, f = find_star_with_tail(g3)
    sub = build_subgraph(g3, syndrome_of({a, b, c, d, e, f}))
    # taking the hub strands the other leaves; the tail edge is safe
    assert creates_singleton(sub, a, b) is True
    assert creates_singleton(sub, e, f) is False
    assert removal_strands(g3, sub, a, b) is True
    assert removal_strands(g3, sub, e, f) is False


def test_creates_singleton_isolated_pair(g3):
    u, v = find_adjacent_pair(g3)
    sub = build_subgraph(g3, syndrome_of({u, v}))
    assert creates_singleton(sub, u, v) is False


def test_creates_singleton_four_chain(g3):
    v1, v2, v3, v4 = find_induced_chain(g3, 4)
    sub = build_subgraph(g3, syndrome_of({v1, v2, v3, v4}))
    assert creates_singleton(sub, v2, v3) is True  # strands both ends
    assert creates_singleton(sub, v1, v2) is False  # leaves the v3-v4 edge


def test_creates_singleton_matches_removal_oracle(g3):
    rng = make_rng(11)
    checked = 0
    for _ in range(300):
        errors = sample_iid(g3, 0.12, rng)
        sub = build_subgraph(g3, syndrome_from_errors(g3, errors))
        for u, v in sub.edges.values():
            assert creates_singleton(sub, u, v) == removal_strands(g3, sub, u, v)
            checked += 1
    assert checked > 500


# ----------------------------------------------------------- S1 batching


def test_match_isolated_pairs_six_pairs(g5):
    pairs = find_disjoint_pairs(g5, 6)
    sub = build_subgraph(g5, syndrome_of({u for p in pairs for u in p}))
    batch = match_isolated_pairs(sub, g5)
    assert len(batch) == 6
    assert {(pm.a, pm.b) for pm in batch} == {tuple(sorted(p)) for p in pairs}
    assert all(pm.step is Step.S1 for pm in batch)
    assert all(len(pm.correction_edges) == 1 for pm in batch)
    assert sub.nodes == set()


def test_match_isolated_pairs_skips_lone_singleton(g3):
    sub = build_subgraph(g3, syndrome_of({0}))
    assert match_isolated_pairs(sub, g3) == []
    assert sub.nodes == {0}


# ------------------------------------------------------ candidate scan


def test_scan_four_chain_registers(g3):
    v1, v2, v3, v4 = find_induced_chain(g3, 4)
    sub = build_subgraph(g3, syndrome_of({v1, v2, v3, v4}))
    regs = scan_candidates(sub, g3)
    end_ids = sorted((g3.edge_between(v1, v2).id, g3.edge_between(v3, v4).id))
    assert regs.s2_1.edge_id == end_ids[0]  # weight tie -> lowest id
    assert regs.s2_2 is None
    assert regs.s4_1 is None
    assert regs.s4_2.edge_id == g3.edge_between(v2, v3).id


def test_scan_three_chain_registers(g3):
    v1, v2, v3 = find_induced_chain(g3, 3)
    sub = build_subgraph(g3, syndrome_of({v1, v2, v3}))
    regs = scan_candidates(sub, g3)
    # both edges strand the opposite end; no safe move exists
    assert regs.s2_1 is None and regs.s2_2 is None and regs.s4_2 is None
    ids = sorted((g3.edge_between(v1, v2).id, g3.edge_between(v2, v3).id))
    assert regs.s4_1.edge_id == ids[0]


def test_scan_four_cycle_is_s2_2(g32):
    # same spacelike pair in both rounds: a chordless 4-cycle, all degree 2
    u, v = find_adjacent_pair(g32)
    per_round = g32.n_detectors // g32.rounds
    quad = {u, v, u + per_round, v + per_round}
    sub = build_subgraph(g32, syndrome_of(quad))
    assert all(sub.degree(i) == 2 for i in sub.nodes)
    regs = scan_candidates(sub, g32)
    assert regs.s2_1 is None and regs.s4_1 is None and regs.s4_2 is None
    assert regs.s2_2.edge_id == min(sub.edges)


def test_scan_prefers_cheaper_edge_over_lower_id(g3):
    v1, v2, v3, v4 = find_induced_chain(g3, 4)
    first = g3.edge_between(v1, v2)
    last = g3.edge_between(v3, v4)
    hi = max(first, last, key=lambda e: e.id)
    g = g3.with_edge_probabilities({hi.id: 0.1})
    sub = build_subgraph(g, syndrome_of({v1, v2, v3, v4}))
    regs = scan_candidates(sub, g)
    assert regs.s2_1.edge_id == hi.id
    assert regs.s2_1.weight == pytest.approx(-math.log(0.1))


def test_scan_empty_registers_without_edges(g3):
    s, t = 0, g3.n_detectors - 1
    assert g3.edge_between(s, t) is None
    sub = build_subgraph(g3, syndrome_of({s, t}))
    regs = scan_candidates(sub, g3)
    assert (regs.s2_1, regs.s2_2, regs.s4_1, regs.s4_2) == (None,) * 4


# ------------------------------------------------------------- step 3


def test_step3_two_hop_pair_frozen_weight(g32, pt32):
    s, t = find_two_hop_singletons(g32, pt32)
    sub = build_subgraph(g32, syndrome_of({s, t}))
    assert sub.singletons() == {s, t}
    pm, _ = step3_singleton_path(sub, pt32)
    assert (pm.a, pm.b, pm.step) == (s, t, Step.S3)
    assert len(pm.correction_edges) == 2
    assert pm.weight == pytest.approx(9.210340371976182, rel=1e-15)
    covered = syndrome_from_errors(g32, ErrorSet(frozenset(pm.correction_edges)))
    assert covered.flipped == {s, t}


def test_step3_six_node_instance(g5, pt5):
    s, t = find_two_hop_singletons(g5, pt5)
    far = {x for x in range(g5.n_detectors)
           if pt5.hops[s, x] <= 2 or pt5.hops[t, x] <= 2}
    chain = find_induced_chain(g5, 4, forbidden=far)
    sub = build_subgraph(g5, syndrome_of({s, t, *chain}))
    assert sub.singletons() == {s, t}
    pm, examined = step3_singleton_path(sub, pt5)
    assert examined == 2 * 5  # both singletons try every other node
    # chain ends are legal partners (stranding nobody) but cost 3+ edges
    assert (pm.a, pm.b) == tuple(sorted((s, t)))
    assert pm.weight == pytest.approx(2 * -math.log(g5.p))
    assert (pm.a, pm.b, pm.weight) == brute_step3(g5, sub, pt5)


def test_step3_agrees_with_brute_force(g3, pt3):
    rng = make_rng(17)
    seen = 0
    for _ in range(300):
        errors = sample_iid(g3, 0.05, rng)
        sub = build_subgraph(g3, syndrome_from_errors(g3, errors))
        if not sub.singletons() or len(sub.nodes) < 2:
            continue
        pm, _ = step3_singleton_path(sub, pt3)
        expect = brute_step3(g3, sub, pt3)
        if expect is None:
            assert pm is None
            continue
        assert (pm.a, pm.b, pm.weight) == expect
        seen += 1
    assert seen > 30


def test_step3_none_without_singletons(g3, pt3):
    u, v = find_adjacent_pair(g3)
    sub = build_subgraph(g3, syndrome_of({u, v}))
    assert step3_singleton_path(sub, pt3) == (None, 0)


# ------------------------------------------------------------ config


def test_config_validation():
    with pytest.raises(ValueError):
        PredecodeConfig(hw_target=7)
    with pytest.raises(ValueError):
        PredecodeConfig(clock_mhz=0)
    for target in (6, 8, 10):
        assert PredecodeConfig(hw_target=target).hw_target == target


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
        end_ids |= {g7.edge_between(v1, v2).id, g7.edge_between(v3, v4).id}
        mid_ids.add(g7.edge_between(v2, v3).id)

    res = adaptive_predecode(g7, pt7, syn,
                             PredecodeConfig(hw_target=6), record_trace=True)
    assert not res.aborted
    assert [pm.step for pm in res.prematches] == [Step.S2_1, Step.S1, Step.S2_1]
    used = {eid for pm in res.prematches for eid in pm.correction_edges}
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
                             PredecodeConfig(hw_target=10))
    assert not res.aborted
    assert [pm.step for pm in res.prematches] == [Step.S2_1, Step.S1]
    assert res.residual.hamming_weight == 8
    assert res.cycles == 9 + 7
    cfg = PredecodeConfig(hw_target=10)
    assert res.cycles * cfg.cycle_ns + cfg.main_latency(8) <= cfg.budget_ns


def test_adaptive_s3_then_s4(g7, pt7):
    s, t = find_two_hop_singletons(g7, pt7)
    blocked = {x for x in range(g7.n_detectors)
               if pt7.hops[s, x] <= 2 or pt7.hops[t, x] <= 2}
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
    assert s3.weight == pytest.approx(2 * -math.log(g7.p))
    assert res.residual.hamming_weight == 7
    # round one costs the 20 examined singleton pairings (> 6 edges)
    assert res.cycles == 20 + 6
    s4 = res.trace[1]
    assert s4.singletons_after == s4.singletons_before + 1


def test_adaptive_budget_zero_aborts_before_any_match(g5, pt5):
    pairs = find_disjoint_pairs(g5, 6)
    syn = syndrome_of({u for p in pairs for u in p})
    res = adaptive_predecode(g5, pt5, syn, PredecodeConfig(budget_ns=0.0))
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
    # a lone defect needs the boundary; its 4 ns main latency never fits 2 ns
    cfg = PredecodeConfig(budget_ns=2.0)
    res = adaptive_predecode(g3, pt3, syndrome_of({0}), cfg)
    assert res.aborted
    assert res.prematches == ()
    assert res.rounds_executed == 1
    assert res.residual.flipped == frozenset({0})


# ------------------------------------------------- whole-run invariants


def check_invariants(graph, syndrome, res, cfg):
    hw0 = syndrome.hamming_weight
    assert res.residual.flipped <= syndrome.flipped
    assert res.residual.hamming_weight == hw0 - 2 * len(res.prematches)
    assert res.residual.hamming_weight % 2 == hw0 % 2
    matched = [x for pm in res.prematches for x in (pm.a, pm.b)]
    assert len(matched) == len(set(matched))
    assert set(matched) | set(res.residual.flipped) == syndrome.flipped
    for pm in res.prematches:
        covered = syndrome_from_errors(
            graph, ErrorSet(frozenset(pm.correction_edges)))
        assert covered.flipped == {pm.a, pm.b}
        assert covered.hamming_weight == 2
    if not res.aborted:
        hw = res.residual.hamming_weight
        assert hw <= cfg.hw_target
        assert res.cycles * cfg.cycle_ns + cfg.main_latency(hw) <= cfg.budget_ns


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_adaptive_random_syndrome_invariants(g3, pt3, data):
    ids = data.draw(st.frozensets(st.integers(0, g3.n_edges - 1), max_size=14))
    syn = syndrome_from_errors(g3, ErrorSet(ids))
    cfg = PredecodeConfig(hw_target=6)
    res = adaptive_predecode(g3, pt3, syn, cfg, record_trace=True)
    check_invariants(g3, syn, res, cfg)
    safe = {Step.S1, Step.S2_1, Step.S2_2, Step.S3}
    for entry in res.trace:
        if entry.step in safe:
            assert entry.singletons_after <= entry.singletons_before


def test_adaptive_deterministic(g5, pt5):
    rng = make_rng(23)
    for _ in range(20):
        syn = syndrome_from_errors(g5, sample_iid(g5, 0.02, rng))
        a = adaptive_predecode(g5, pt5, syn, record_trace=True)
        b = adaptive_predecode(g5, pt5, syn, record_trace=True)
        assert a == b



def test_adaptive_pinned_behaviour(g7, pt7):
    """Every prematch, residual, cycle count and trace step over a fixed corpus.

    The digest was taken before the subgraph became incremental.  A change
    to it is a change of predecoder behaviour and must be declared as one.
    """
    digest = hashlib.sha256()
    decoded = 0
    for cfg in (PredecodeConfig(), PredecodeConfig(hw_target=6)):
        for k in range(6, 21):
            for i in range(80):
                errors = inject_k_errors(g7, k, trial_seed(7007, k, i))
                syn = syndrome_from_errors(g7, errors)
                if syn.hamming_weight <= 10:
                    continue
                res = adaptive_predecode(g7, pt7, syn, cfg, record_trace=True)
                digest.update(predecode_result_to_json(res).encode())
                digest.update(f"{res.rounds_executed}".encode())
                for e in res.trace:
                    digest.update(f"|{e.step.value},{e.singletons_before},"
                                  f"{e.singletons_after},{e.hw_after}".encode())
                decoded += 1
    assert decoded == 2 * 1097
    assert digest.hexdigest() == (
        "bac863efb83427a561dfb7f1f02924a4aaa5742fff7b892b1836b1c449e62f3f")
