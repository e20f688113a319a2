import re

import numpy as np
import pytest

from surfmatch import (MAX_HW_CAP, ErrorSet, ExperimentConfig, PredecodeConfig, Syndrome,
                       adaptive_predecode, brute_force_mwpm, build_decoding_graph,
                       decode, harness, inject_k_errors, maindecoder, make_rng,
                       matching_search_size, report_hw_distribution, report_latency,
                       report_step_usage, run_chain, run_rare_event, sample_iid,
                       syndrome_from_errors, trial_seed)
from surfmatch.graph import PathTable, build_path_table
from surfmatch.maindecoder import matching_correction

from oracles import (boundary_edges_of, dijkstra_path_table, double_factorial, edge_between,
                     enumerate_mwpm, exact_matching, involutions, observable_parity,
                     route_boundary_path, route_path)
from patterns import (boundary_edge_ids, find_adjacent_pair,
                      find_disjoint_pairs, find_induced_chain)


def syndrome_of(nodes, obs=0):
    return Syndrome(frozenset(nodes), obs)


def with_hops(table: PathTable, hops, boundary_hops) -> PathTable:
    """``table`` with its hop counts replaced; paths and corrections unchanged."""
    return PathTable(table.graph, hops, boundary_hops, table.boundary_via,
                     table.boundary_edge, table.boundary_obs, table.pred, table.pred_edge)


def pair_sets(matching):
    return {frozenset(p) for p in matching.pairs}, tuple(sorted(matching.boundary_matches))


# ------------------------------------------------------ search-size model


def test_matching_search_size_frozen_values():
    assert matching_search_size(10) == 945
    expect = {0: 1, 1: 1, 2: 1, 3: 3, 4: 3, 5: 15, 6: 15, 7: 105, 8: 105,
              9: 945, 11: 10395, 12: 10395, 13: 135135, 14: 135135}
    for hw, size in expect.items():
        assert matching_search_size(hw) == size
    assert matching_search_size(-3) == 1


def test_matching_search_size_matches_double_factorial():
    for hw in range(1, 15):
        k = hw - 1 if hw % 2 == 0 else hw
        assert matching_search_size(hw) == double_factorial(k)


# ------------------------------------------------------ enumeration counts


def test_enumeration_count_without_boundary(pt5):
    for m in (2, 4, 6):
        out = brute_force_mwpm(range(m), pt5, allow_boundary=False)
        assert out.enumerated == double_factorial(m - 1)
        assert enumerate_mwpm(range(m), pt5, allow_boundary=False).enumerated \
            == out.enumerated
    assert brute_force_mwpm(range(10), pt5, allow_boundary=False).enumerated == 945
    for m in (1, 3, 9):  # an odd weight needs the boundary
        with pytest.raises(ValueError, match="no complete matching"):
            brute_force_mwpm(range(m), pt5, allow_boundary=False)


def test_enumeration_count_with_boundary(pt5):
    for m, expect in ((2, 2), (4, 10), (6, 76)):
        out = brute_force_mwpm(range(m), pt5)
        assert out.enumerated == expect == involutions(m)
        assert enumerate_mwpm(range(m), pt5).enumerated == out.enumerated
    for m in (10, 12, MAX_HW_CAP):
        out = brute_force_mwpm(range(m), pt5, hw_cap=MAX_HW_CAP)
        assert out.enumerated == involutions(m)
    assert brute_force_mwpm(range(10), pt5).enumerated == 9496


def test_four_node_line_has_ten_partitions(g3, pt3):
    chain = find_induced_chain(g3, 4)
    out = brute_force_mwpm(chain, pt3)
    assert out.enumerated == 10
    assert enumerate_mwpm(chain, pt3).enumerated == out.enumerated


# ------------------------------------------------------ optimality


def test_two_node_pair_versus_boundary(g32):
    # a timelike pair one edge apart, both endpoints one edge from the
    # boundary: direct pairing costs 1 hop, going around costs 2
    per_round = g32.n_detectors // g32.rounds
    u = next(i for i in range(per_round)
             if boundary_edges_of(g32, i) and
             edge_between(g32, i, i + per_round) is not None)
    v = u + per_round

    table = build_path_table(g32)
    assert (table.hops[u, v], table.boundary_hops[u], table.boundary_hops[v]) == (1, 1, 1)
    out = brute_force_mwpm((u, v), table)
    assert out.pairs == ((u, v),)
    assert out.boundary_matches == ()
    assert out.total_weight == 1

    # at 2 hops apart the pair ties the two boundary matches, and the pair,
    # tried first, keeps it; at 3 the two boundary matches win
    for pair_hops, pairs, boundary in ((2, ((u, v),), ()), (3, (), (u, v))):
        hops = table.hops.copy()
        hops[u, v] = hops[v, u] = pair_hops
        out = brute_force_mwpm((u, v), with_hops(table, hops, table.boundary_hops))
        assert (out.pairs, out.boundary_matches) == (pairs, boundary)
        assert out.total_weight == 2


def test_matches_exhaustive_oracle(g3, pt3):
    rng = make_rng(5)
    detectors = np.arange(g3.n_detectors)
    for trial in range(120):
        m = int(rng.choice([2, 3, 4, 5, 6]))
        nodes = tuple(int(x) for x in rng.choice(detectors, size=m, replace=False))
        got = brute_force_mwpm(nodes, pt3)
        hops, pairs, bnd, count = exact_matching(
            nodes,
            lambda a, b: int(pt3.hops[a, b]),
            lambda a: int(pt3.boundary_hops[a]),
        )
        assert got.total_weight == hops
        assert got.enumerated == count
        assert pair_sets(got) == ({frozenset(p) for p in pairs}, bnd)


def test_tie_break_prefers_lex_smallest_pairs(g32, pt32):
    # chordless 4-cycle: pairing along either parallel side costs 2 hops, and
    # the canonical choice pairs the lowest node with its lowest partner
    u, v = find_adjacent_pair(g32)
    per_round = g32.n_detectors // g32.rounds
    up, vp = u + per_round, v + per_round
    out = brute_force_mwpm((u, v, up, vp), pt32)
    assert out.total_weight == 2
    assert out.pairs == ((u, v), (up, vp))
    assert out.boundary_matches == ()


def test_repeat_calls_identical(g5, pt5):
    rng = make_rng(9)
    nodes = tuple(int(x) for x in rng.choice(g5.n_detectors, 8, replace=False))
    assert brute_force_mwpm(nodes, pt5) == brute_force_mwpm(nodes, pt5)


# ---------------------------------------- equality with full enumeration


def assert_equals_enumeration(nodes, table, hw_cap, allow_boundary):
    """``brute_force_mwpm`` returns exactly what ``enumerate_mwpm`` does.

    All five fields compare with ``==``, not approximately: the search must
    pick the same pairing, report the same total and count the same search
    space.  When the enumeration finds no complete matching, both
    raise the same ``ValueError``.  Returns the matching, or None when both
    raised.
    """
    try:
        want = enumerate_mwpm(nodes, table, hw_cap, allow_boundary)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            brute_force_mwpm(nodes, table, hw_cap, allow_boundary)
        return None
    got = brute_force_mwpm(nodes, table, hw_cap, allow_boundary)
    assert got == want
    return got


@pytest.mark.parametrize("graph, table, n", [
    ("g3", "pt3", 34_000), ("g5", "pt5", 33_000), ("g7", "pt7", 33_000)])
def test_equals_enumeration_on_real_syndromes(request, graph, table, n):
    # exact-k injection with k <= 4 flips at most 8 detectors; hop counts
    # make exact ties common
    graph = request.getfixturevalue(graph)
    table = request.getfixturevalue(table)
    rng = make_rng(4000 + graph.distance)
    seen_hw = set()
    raised = 0
    for _ in range(n):
        k = int(rng.integers(1, 5))
        syn = syndrome_from_errors(graph, inject_k_errors(graph, k, rng))
        assert syn.hamming_weight <= 8
        seen_hw.add(syn.hamming_weight)
        for allow_boundary in (True, False):
            got = assert_equals_enumeration(syn.flipped, table, 8,
                                            allow_boundary)
            raised += got is None
    assert seen_hw >= set(range(1, 9))
    assert raised > 0  # odd weights without the boundary


def test_equals_enumeration_at_hw_10_to_12(g5, pt5, g7, pt7):
    checked = {10: 0, 11: 0, 12: 0}
    for graph, table in ((g5, pt5), (g7, pt7)):
        rng = make_rng(5100 + graph.distance)
        kept = 0
        while kept < 100:
            k = int(rng.integers(5, 7))
            syn = syndrome_from_errors(graph, inject_k_errors(graph, k, rng))
            if syn.hamming_weight not in checked:
                continue
            kept += 1
            checked[syn.hamming_weight] += 1
            for allow_boundary in (True, False):
                assert_equals_enumeration(syn.flipped, table, 12,
                                          allow_boundary)
    assert sum(checked.values()) >= 200
    assert min(checked.values()) > 0


def test_equals_enumeration_all_ties(g5, pt5):
    # every pair 2 hops apart: the 945 perfect pairings tie; with the
    # boundary at 1 hop all 9,496 pairings tie.  Either way the first
    # minimum pairs the sorted defects in order
    rng = make_rng(53)
    uniform = np.full_like(pt5.hops, 2)
    for bh in (1, 2):
        table = with_hops(pt5, uniform, np.full_like(pt5.boundary_hops, bh))
        for _ in range(4):
            nodes = tuple(int(x) for x in
                          rng.choice(g5.n_detectors, 10, replace=False))
            for allow_boundary in (True, False):
                got = assert_equals_enumeration(nodes, table, 10,
                                                allow_boundary)
                srt = sorted(nodes)
                assert got.pairs == tuple(zip(srt[::2], srt[1::2]))
                assert got.total_weight == 10


def test_skip_of_boundary_dominated_pairs_equals_enumeration(g5, pt5):
    # random symmetric tables, pair hops 1-4 and boundary hops 1-3: the
    # matcher skips a pair only when its hops exceed its two boundary
    # routes', so both strict domination (skipped) and exact ties (kept,
    # and taken first since a pair comes before the boundary) must agree
    # with the enumeration field for field
    rng = make_rng(61)
    n = g5.n_detectors
    seen = dict.fromkeys(("dominated", "tied", "tie_taken"), 0)
    for _ in range(60):
        upper = np.triu(rng.integers(1, 5, size=(n, n)), 1)
        hops = (upper + upper.T).astype(pt5.hops.dtype)
        bhops = rng.integers(1, 4, size=n).astype(pt5.boundary_hops.dtype)
        table = with_hops(pt5, hops, bhops)
        for hw in range(1, 11):
            nodes = sorted(rng.choice(n, hw, replace=False).tolist())
            over = [int(hops[a, b]) - int(bhops[a]) - int(bhops[b])
                    for i, a in enumerate(nodes) for b in nodes[i + 1:]]
            seen["dominated"] += any(x > 0 for x in over)
            seen["tied"] += 0 in over
            for allow_boundary in (True, False):
                got = assert_equals_enumeration(nodes, table, 10, allow_boundary)
                if got is not None and allow_boundary:
                    seen["tie_taken"] += any(hops[a, b] == bhops[a] + bhops[b]
                                             for a, b in got.pairs)
    assert min(seen.values()) > 20, seen

    # every pair dearer than its boundary routes: with the boundary every
    # defect takes it; without, nothing is skipped and all pairings tie
    table = with_hops(pt5, np.full_like(pt5.hops, 4), np.full_like(pt5.boundary_hops, 1))
    for hw in range(1, 11):
        nodes = sorted(rng.choice(n, hw, replace=False).tolist())
        got = assert_equals_enumeration(nodes, table, 10, True)
        assert (got.pairs, got.boundary_matches) == ((), tuple(nodes))
        assert got.total_weight == hw
        got = assert_equals_enumeration(nodes, table, 10, False)
        if hw % 2 == 0:
            assert got.pairs == tuple(zip(nodes[::2], nodes[1::2]))


def test_answer_does_not_depend_on_p(g5, pt5):
    # post-predecode d=5 residuals, decoded on tables built at four p: the
    # hop counts, and so the matching, are the same at every p
    residuals = []
    for k in range(3, 13):
        for i in range(60):
            syn = syndrome_from_errors(g5, inject_k_errors(g5, k, trial_seed(12, k, i)))
            pre = adaptive_predecode(g5, pt5, syn)
            if not pre.aborted and pre.residual.hamming_weight:
                residuals.append(pre.residual.flipped)
    assert len(residuals) > 400
    answers = {}
    for p in (1e-4, 1e-3, 1e-2, 0.05):
        table = build_path_table(build_decoding_graph(5, 5, p))
        answers[p] = [(m.pairs, m.boundary_matches, matching_correction(table, m), m.enumerated)
                      for m in (brute_force_mwpm(r, table) for r in residuals)]
    assert all(a == answers[1e-3] for a in answers.values())


# ------------------------------------------------------ caps


def test_hw_cap_enforced(pt3):
    with pytest.raises(ValueError, match="exceeds cap"):
        brute_force_mwpm(range(12), pt3)
    with pytest.raises(ValueError, match="at most"):
        brute_force_mwpm(range(2), pt3, hw_cap=16)
    brute_force_mwpm(range(12), pt3, hw_cap=12)  # fine up to 14


@pytest.mark.parametrize("cap", ["10", None, 10.5, True, np.float64(10.0)])
def test_hw_cap_must_be_an_integer(g3, pt3, cap):
    # "10" and None used to raise TypeError, 10.5 passed, and True acted as
    # cap 1; brute_force_mwpm's check is the only one, so decode gets it too
    u, v = find_adjacent_pair(g3)
    message = re.escape(f"hw_cap must be an integer, got {cap!r}")
    with pytest.raises(ValueError, match=message):
        brute_force_mwpm([u, v], pt3, hw_cap=cap)
    with pytest.raises(ValueError, match=message):
        decode(pt3, syndrome_of({u, v}), hw_cap=cap)
    assert brute_force_mwpm([u, v], pt3, hw_cap=np.int64(2)).pairs == ((u, v),)


def test_decode_cap_error(g3, pt3):
    with pytest.raises(ValueError, match="exceeds cap"):
        decode(pt3, syndrome_of(range(12)))



def test_decode_refuses_detector_ids_out_of_range(g3, pt3):
    # n_detectors is the boundary node, past the path table's rows; -1 is
    # no detector at all
    u, v = find_adjacent_pair(g3)
    for bad in (g3.n_detectors, -1):
        with pytest.raises(ValueError, match=re.escape(
                f"flipped ids outside detector range: [{bad}]")):
            decode(pt3, syndrome_of({u, v, bad}))


@pytest.mark.parametrize("bad", [-1, "n"])
def test_brute_force_refuses_ids_outside_the_detectors(pt3, bad):
    # id n used to raise IndexError from the hop lookup, and -1 wrapped
    # round to the last row before the path walk refused it
    bad = pt3.n if bad == "n" else bad
    with pytest.raises(ValueError, match=re.escape(
            f"flipped ids outside detector range: [{bad}]")):
        brute_force_mwpm([bad, 1], pt3)


# ------------------------------------------------------ decode


def test_decode_empty_syndrome(g3, pt3):
    out = decode(pt3, syndrome_of(()))
    assert not out.logical_failure
    assert out.predicted_observable == 0
    assert out.total_weight == 0
    assert out.correction_edges == frozenset()
    assert out.cycles_total == 1  # one modeled matching: the empty one
    assert out.matching.enumerated == 1


def test_decode_single_boundary_error_each_side(g3, pt3):
    for observable in (True, False):
        eid = boundary_edge_ids(g3, observable)[0]
        errors = ErrorSet(frozenset({eid}))
        syn = syndrome_from_errors(g3, errors)
        assert syn.hamming_weight == 1
        out = decode(pt3, syn)
        assert not out.logical_failure
        assert out.predicted_observable == syn.true_observable
        assert out.total_weight == 1


def test_decode_self_consistency(g3, pt3):
    # decoding then re-applying the correction must clear the syndrome,
    # and the failure flag must equal the observable parity of the
    # residual error loop
    rng = make_rng(31)
    hot = build_decoding_graph(3, 3, 0.02)
    checked = 0
    for _ in range(400):
        errors = sample_iid(hot, rng)[0]
        syn = syndrome_from_errors(g3, errors)
        if syn.hamming_weight > 10:
            continue
        out = decode(pt3, syn)
        loop = errors ^ out.correction_edges
        assert syndrome_from_errors(g3, ErrorSet(loop)).flipped == frozenset()
        assert out.logical_failure == bool(observable_parity(g3, loop))
        assert out.cycles_total == matching_search_size(syn.hamming_weight)
        checked += 1
    assert checked > 300


def test_decode_weight_is_oracle_minimum(g3, pt3):
    rng = make_rng(37)
    hot = build_decoding_graph(3, 3, 0.02)
    for _ in range(60):
        errors = sample_iid(hot, rng)[0]
        syn = syndrome_from_errors(g3, errors)
        if not 0 < syn.hamming_weight <= 6:
            continue
        out = decode(pt3, syn)
        hops, _, _, _ = exact_matching(
            tuple(syn.flipped),
            lambda a, b: int(pt3.hops[a, b]),
            lambda a: int(pt3.boundary_hops[a]),
        )
        assert out.total_weight == hops


# ----------------------------------------------- predecode hand-off


def test_decode_after_predecode_six_pairs(g5, pt5):
    pairs = find_disjoint_pairs(g5, 6)
    syn = syndrome_from_errors(
        g5, ErrorSet(frozenset(edge_between(g5, *p).id for p in pairs)))
    pre = adaptive_predecode(g5, pt5, syn)
    out = decode(pt5, syn, predecode=pre)
    assert not out.logical_failure
    assert out.matching.enumerated == 1
    assert out.prematches == pre.prematches
    assert out.total_weight == 6
    assert out.cycles_total == pre.cycles + 1
    assert out.correction_edges == frozenset(
        edge_between(g5, *p).id for p in pairs)


def test_decode_refuses_aborted_predecode(g5, pt5):
    pairs = find_disjoint_pairs(g5, 6)
    syn = syndrome_of({u for p in pairs for u in p})
    pre = adaptive_predecode(g5, pt5, syn, PredecodeConfig(budget_ns=4.0))
    assert pre.aborted
    with pytest.raises(ValueError, match="aborted predecode"):
        decode(pt5, syn, predecode=pre)


def test_decode_residual_over_cap_raises(g7, pt7):
    # a 12-defect syndrome the predecoder was not allowed to touch
    nodes = set(range(g7.n_detectors))
    syn = syndrome_of(sorted(nodes)[:12])
    pre = adaptive_predecode(g7, pt7, syndrome_of(()),)
    bad = pre.__class__(pre.prematches, syn, 0, False, 0)
    with pytest.raises(ValueError, match="residual Hamming weight"):
        decode(pt7, syn, predecode=bad)


# ------------------------------- failure bit and corrections built on read


def route_correction(graph, ref, matching, prematches=()):
    """The correction from the Dijkstra table's routes: each prematched
    pair's route, then each pair's and each boundary match's, XORed."""
    edges: set[int] = set()
    for pm in prematches:
        edges ^= set(route_path(graph, ref, pm.a, pm.b))
    for a, b in matching.pairs:
        edges ^= set(route_path(graph, ref, a, b))
    for a in matching.boundary_matches:
        edges ^= set(route_boundary_path(graph, ref, a))
    return frozenset(edges)


def assert_outcome_checks_out(graph, ref, syndrome, out):
    """The failure bit from boundary parities is the correction's parity, and
    the correction read from ``out`` clears the syndrome and takes the
    Dijkstra table's routes, which equal the path table's, tie-breaks
    included (``test_path_table_equals_dijkstra_table``)."""
    edges = out.correction_edges
    assert isinstance(edges, frozenset)
    assert out.predicted_observable == observable_parity(graph, edges)
    assert out.logical_failure == (out.predicted_observable != syndrome.true_observable)
    assert syndrome_from_errors(graph, ErrorSet(edges)).flipped == syndrome.flipped
    assert edges == route_correction(graph, ref, out.matching, out.prematches)


@pytest.mark.parametrize("predecoder", ["adaptive", "greedy", "none"])
@pytest.mark.parametrize("d", [3, 5, 7])
def test_failure_bit_and_correction_on_exact_k_corpora(d, predecoder):
    # every decoded trial of the rare-event corpus, k = 1..16
    cfg = ExperimentConfig(distance=d, p=1e-3, predecoder=predecoder, master_seed=26)
    graph, table = cfg.build()
    ref = dijkstra_path_table(graph)
    decoded = boundary = 0
    for errors in harness._exact_k_trials(graph, cfg.master_seed, 30, harness._STREAM_RARE,
                                          range(1, 17)):
        syndrome = syndrome_from_errors(graph, errors)
        out = run_chain(graph, table, syndrome, cfg).outcome
        if out is not None:
            assert_outcome_checks_out(graph, ref, syndrome, out)
            decoded += 1
            boundary += bool(out.matching.boundary_matches)
    assert decoded > 150 and boundary > 60


def test_failure_bit_and_correction_on_the_heavy_report_corpus():
    # the heavy-d11 benchmark corpus at 2 shots/k: HW above the cap, ~99%
    # predecoded
    cfg = ExperimentConfig(distance=11, p=1e-4, shots_per_k=2)
    graph, table = cfg.build()
    ref = dijkstra_path_table(graph)
    ks = range(cfg.main_hw_cap // 2 + 1, cfg.k_max + 1)
    decoded = 0
    for errors in harness._exact_k_trials(graph, cfg.master_seed, 2, harness._STREAM_REPORT, ks):
        syndrome = syndrome_from_errors(graph, errors)
        if syndrome.hamming_weight <= cfg.main_hw_cap:
            continue
        out = run_chain(graph, table, syndrome, cfg).outcome
        if out is not None:
            assert out.prematches
            assert_outcome_checks_out(graph, ref, syndrome, out)
            decoded += 1
    assert decoded > 20


def test_enumeration_correction_equals_dijkstra_routes(g5, pt5):
    # the pairing of the enumeration reference, matched field for field by
    # brute_force_mwpm, has the Dijkstra routes' correction
    ref = dijkstra_path_table(g5)
    residuals = []
    for k in range(1, 13):
        for i in range(300):
            syn = syndrome_from_errors(g5, inject_k_errors(g5, k, trial_seed(26, k, i)))
            pre = adaptive_predecode(g5, pt5, syn)
            if not pre.aborted and 0 < pre.residual.hamming_weight <= 8:
                residuals.append(pre.residual.flipped)
    assert len(residuals) >= 2000
    for flipped in residuals:
        want = enumerate_mwpm(flipped, pt5)
        assert brute_force_mwpm(flipped, pt5) == want
        assert matching_correction(pt5, want) == route_correction(g5, ref, want)


def test_correction_is_built_on_first_read_and_kept(g5, pt5):
    syn = syndrome_from_errors(g5, inject_k_errors(g5, 6, trial_seed(26, 0)))
    out = decode(pt5, syn, adaptive_predecode(g5, pt5, syn))
    slot = type(out).correction_edges.slot
    assert slot.__get__(out) is None and out.table is pt5
    edges = out.correction_edges
    assert slot.__get__(out) is edges and out.correction_edges is edges
    assert "table" not in repr(out)


def test_estimators_build_no_correction_path(monkeypatch):
    # The estimators read only the failure bit: with the two path walks the
    # on-read correction calls refusing, every result is as before.
    rare = ExperimentConfig(distance=5, p=1e-3, k_max=8, shots_per_k=20, master_seed=3)
    heavy = ExperimentConfig(distance=7, p=1e-3, k_max=16, shots_per_k=6, master_seed=3)
    reports = (report_hw_distribution, report_latency, report_step_usage)

    def results():
        graph, table = heavy.build()  # new objects, so no report is reused
        return (run_rare_event(rare),
                [report(heavy, graph, table) for report in reports])

    want = results()

    def refuse(*args):
        raise AssertionError("a correction path was built")

    monkeypatch.setattr(maindecoder, "reconstruct_path", refuse)
    monkeypatch.setattr(maindecoder, "reconstruct_boundary_path", refuse)
    assert results() == want
    assert want[1][0]["samples"] > 0
    # the patch is the one the on-read correction calls
    graph, table = rare.build()
    syn = syndrome_from_errors(graph, ErrorSet(frozenset({0})))
    out = decode(table, syn)
    assert out.matching.boundary_matches and not out.logical_failure
    with pytest.raises(AssertionError, match="correction path"):
        out.correction_edges
