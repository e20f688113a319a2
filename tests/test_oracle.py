from collections import Counter

from surfmatch import (GREEDY_LABEL, ErrorSet, PredecodeConfig, Step, Syndrome,
                       adaptive_predecode, build_decoding_graph, build_path_table,
                       greedy_baseline, make_rng, reconstruct_path, sample_iid,
                       syndrome_from_errors)

from oracles import (chain_length_counts, edge_between, iid_errors, matching_failure,
                     oracle_mwpm)
from patterns import (find_adjacent_pair, find_chain_with_lowest_middle,
                      find_disjoint_pairs)


def syndrome_of(nodes, obs=0):
    return Syndrome(frozenset(nodes), obs)


# -------------------------------------------------------- exact oracle


def test_oracle_trivial_syndromes(g3, pt3):
    out = oracle_mwpm(g3, pt3, syndrome_of(()))
    assert out.total_weight == 0 and not out.logical_failure

    u, v = find_adjacent_pair(g3)
    out = oracle_mwpm(g3, pt3, syndrome_of({u, v}))
    assert out.matching.pairs == ((u, v),)
    assert out.total_weight == 1


def test_oracle_against_independent_matcher(g3, pt3):
    # full agreement on weight and failure decision with a matcher that
    # shares no code with the package
    rng = make_rng(41)
    hot = build_decoding_graph(3, 3, 0.02)
    compared = 0
    for _ in range(1000):
        syn = syndrome_from_errors(g3, sample_iid(hot, rng)[0])
        if syn.hamming_weight > 8:
            continue
        out = oracle_mwpm(g3, pt3, syn)
        ref_weight, ref_failure = matching_failure(g3, syn)
        assert out.total_weight == ref_weight
        assert out.logical_failure == ref_failure
        compared += 1
    assert compared > 900


def test_oracle_never_beaten_by_chain(g5, pt5):
    # the unconstrained exact matching is a weight floor for any
    # predecode-then-match split of the same syndrome
    rng = make_rng(43)
    checked = 0
    for _ in range(300):
        syn = syndrome_from_errors(g5, sample_iid(g5, rng)[0])
        if not 0 < syn.hamming_weight <= 12:
            continue
        pre = adaptive_predecode(g5, pt5, syn)
        if pre.aborted:
            continue
        from surfmatch import decode
        chained = decode(pt5, syn, predecode=pre)
        floor = oracle_mwpm(g5, pt5, syn)
        assert chained.total_weight >= floor.total_weight
        checked += 1
    assert checked > 50


# -------------------------------------------------------- greedy ablation


def test_greedy_label():
    assert GREEDY_LABEL == "greedy-nosafety"


def test_greedy_strands_chain_ends(g3, pt3):
    # the middle edge comes first in id order: greedy takes it and orphans
    # both chain ends, which is exactly the failure mode the safety check
    # exists to avoid
    v1, v2, v3, v4 = find_chain_with_lowest_middle(g3)
    mid = edge_between(g3, v2, v3)
    res = greedy_baseline(g3, syndrome_of({v1, v2, v3, v4}),
                          PredecodeConfig(main_hw_cap=2))
    assert len(res.prematches) == 1
    pm = res.prematches[0]
    assert reconstruct_path(pt3, pm.a, pm.b) == [mid.id]
    assert res.prematches[0].step is Step.GREEDY
    assert res.residual.flipped == frozenset({v1, v4})
    assert not res.aborted


def test_greedy_equals_adaptive_on_disjoint_pairs(g5, pt5):
    pairs = find_disjoint_pairs(g5, 6)
    syn = syndrome_of({u for p in pairs for u in p})
    greedy = greedy_baseline(g5, syn, PredecodeConfig(main_hw_cap=1))
    adaptive = adaptive_predecode(g5, pt5, syn)
    assert {(pm.a, pm.b) for pm in greedy.prematches} == \
        {(pm.a, pm.b) for pm in adaptive.prematches}
    assert greedy.residual.flipped == adaptive.residual.flipped == frozenset()
    assert sum(len(reconstruct_path(pt5, pm.a, pm.b)) for pm in greedy.prematches) == \
        sum(len(reconstruct_path(pt5, pm.a, pm.b)) for pm in adaptive.prematches) == 6


def test_greedy_stops_without_edges(g3):
    s, t = 0, g3.n_detectors - 1
    assert edge_between(g3, s, t) is None
    res = greedy_baseline(g3, syndrome_of({s, t}), PredecodeConfig(main_hw_cap=1))
    assert res.prematches == ()
    assert res.residual.flipped == {s, t}
    assert res.cycles == 0


def test_greedy_respects_target(g7):
    rng = make_rng(47)
    hot = build_decoding_graph(7, 3, 0.03)
    cfg = PredecodeConfig()
    for _ in range(50):
        syn = syndrome_from_errors(g7, sample_iid(hot, rng)[0])
        res = greedy_baseline(g7, syn)
        hw = syn.hamming_weight
        assert res.residual.hamming_weight == hw - 2 * len(res.prematches)
        if not cfg.fits(res.residual.hamming_weight, res.cycles):
            # only legal if the subgraph ran out of edges
            from surfmatch import build_subgraph
            assert not build_subgraph(g7, res.residual).edges


# -------------------------------------------------------- chain lengths


def test_chain_histogram_all_isolated_pairs(g5, pt5):
    pairs = find_disjoint_pairs(g5, 6)
    syn = syndrome_of({u for p in pairs for u in p})
    assert chain_length_counts(g5, pt5, [syn]) == Counter({1: 6})


def test_chain_histogram_empty(g5, pt5):
    assert chain_length_counts(g5, pt5, []) == Counter()
    assert chain_length_counts(g5, pt5, [syndrome_of(())]) == Counter()


def test_chain_histogram_counts_boundary_hops(g3, pt3):
    from patterns import boundary_edge_ids
    eid = boundary_edge_ids(g3, observable=True)[0]
    syn = syndrome_from_errors(g3, ErrorSet(frozenset({eid})))
    counts = chain_length_counts(g3, pt3, [syn])
    assert counts == Counter({1: 1})


def test_chain_histogram_frequencies_sum_to_one(g5, pt5):
    rng = make_rng(53)
    syndromes = []
    for _ in range(40):
        syn = syndrome_from_errors(g5, sample_iid(g5, rng)[0])
        if 0 < syn.hamming_weight <= 10:
            syndromes.append(syn)
    counts = chain_length_counts(g5, pt5, syndromes)
    # one chain per matched pair or boundary match of each oracle matching
    matched = 0
    for syn in syndromes:
        m = oracle_mwpm(g5, pt5, syn).matching
        matched += len(m.pairs) + len(m.boundary_matches)
    assert sum(counts.values()) == matched > 0
    assert all(hops >= 1 for hops in counts)


def test_chain_length_counts_pinned():
    """Chain-length counts over a fixed corpus of 300 nonempty d=7 syndromes.

    The counts were taken when hop counts were still stored in the path
    table; reading them off the routes must give the same histogram.  The
    corpus is drawn by ``oracles.iid_errors``, one uniform per edge, as it
    was then: the subject here is chain lengths, not the sampler.
    """
    graph = build_decoding_graph(7, 3, 0.01)
    table = build_path_table(graph)
    rng = make_rng(707)
    kept = []
    while len(kept) < 300:
        syn = syndrome_from_errors(graph, iid_errors(graph, rng))
        if 0 < syn.hamming_weight <= 14:
            kept.append(syn)
    assert chain_length_counts(graph, table, kept) == Counter({1: 660, 2: 17, 3: 1})
