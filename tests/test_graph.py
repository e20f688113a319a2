import copy
import hashlib
import itertools
import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest

import surfmatch.graph as graph_module
from surfmatch import (BOUNDARY_JSON_ID, Edge, ExperimentConfig, build_decoding_graph,
                       build_path_table, reconstruct_boundary_path, reconstruct_path)

from oracles import (apsp_weights, bfs_boundary_hops, bfs_hops, boundary_edges_of,
                     boundary_route_weight, check_product_form, dijkstra_path_table,
                     edge_between, enumerate_simple_path_weights, graph_from_json, heap_dijkstra,
                     route_boundary_path, route_path)


def reached_from_boundary(graph) -> set[int]:
    """Nodes a search over the edge list reaches from the boundary node,
    the boundary included."""
    adj = [[] for _ in range(graph.n_detectors + 1)]
    for e in graph.edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    seen = {graph.boundary_id}
    stack = [graph.boundary_id]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


@pytest.mark.parametrize("d", [3, 5, 7, 9, 11, 13])
def test_counting_formulas(d):
    n_checks = (d * d - 1) // 2
    for rounds in range(1, d + 1):
        g = build_decoding_graph(d, rounds, 1e-3)
        assert g.n_detectors == rounds * n_checks
        assert g.n_edges == rounds * d * d + (rounds - 1) * n_checks
        assert sum(1 for e in g.edges if e.flips_observable) == rounds * d
        n_boundary = sum(1 for e in g.edges if e.v == g.boundary_id)
        assert n_boundary == 2 * d * rounds
        assert not any(e.u == g.boundary_id for e in g.edges)  # the boundary is the v end
        assert all(e.v == g.boundary_id for e in g.edges if e.flips_observable)
        check_product_form(g.edges, n_checks, rounds)
        assert len(reached_from_boundary(g)) == g.n_detectors + 1


def test_node_count_example():
    assert build_decoding_graph(5, 5, 1e-4).n_detectors == 60


def test_observable_edges_are_left_boundary_edges(g5):
    # The observable cut runs along data-qubit column 0; all of those data
    # qubits touch a single check, so every cut edge is a boundary edge.
    for e in g5.edges:
        if e.flips_observable:
            assert e.v == g5.boundary_id


def shortest_logical(graph) -> int:
    """Edges in the shortest closed walk from the boundary node whose
    ``flips_observable`` parity is odd: a BFS over (node, parity) states."""
    adj = [[] for _ in range(graph.n_detectors + 1)]
    for e in graph.edges:
        adj[e.u].append((e.v, e.flips_observable))
        adj[e.v].append((e.u, e.flips_observable))
    start, goal = (graph.boundary_id, False), (graph.boundary_id, True)
    dist = {start: 0}
    frontier = [start]
    while goal not in dist:
        nxt = []
        for u, parity in frontier:
            for v, flip in adj[u]:
                state = (v, parity != flip)
                if state not in dist:
                    dist[state] = dist[(u, parity)] + 1
                    nxt.append(state)
        assert nxt, "no closed walk flips the observable"
        frontier = nxt
    return dist[goal]


@pytest.mark.parametrize("d", [3, 5, 7, 9, 11, 13])
def test_shortest_logical_has_d_edges(d):
    # The skip of provably corrected trials (harness.t_safe) rests on this:
    # an edge set with an empty syndrome is a union of closed walks, so one
    # that flips the observable has at least d edges.  Every observable edge
    # ends at the boundary, so every such walk passes through it.
    for rounds in (d, 1, 2, d + 2):
        graph = build_decoding_graph(d, rounds, 1e-3)
        assert all(e.v == graph.boundary_id for e in graph.edges if e.flips_observable)
        assert shortest_logical(graph) == d, rounds


def test_timelike_edges_connect_same_check(g5):
    n_checks = (g5.distance ** 2 - 1) // 2
    timelike = [e for e in g5.edges if e.v != g5.boundary_id
                and e.v - e.u == n_checks]
    assert len(timelike) == (g5.rounds - 1) * n_checks
    for e in timelike:
        assert not e.flips_observable
        (su, au), (sv, av) = divmod(e.u, n_checks), divmod(e.v, n_checks)
        assert g5.check_coords[au] == g5.check_coords[av]
        assert sv == su + 1


def test_uniform_weights():
    # p is stored once, on the graph; an edge carries no prior or weight of
    # its own, so every edge weighs the same and a path weighs its hops.
    assert [f.name for f in fields(Edge)] == ["id", "u", "v", "flips_observable"]


def test_triangle_free(g5):
    # No two adjacent detectors share a third neighbor; the singleton
    # bookkeeping of the predecoder relies on this.
    neigh = [set(v for v, _ in g5.detector_neighbors[u])
             for u in range(g5.n_detectors)]
    for e in g5.edges:
        if e.v == g5.boundary_id:
            continue
        assert not (neigh[e.u] & neigh[e.v])


def test_builder_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_decoding_graph(4)
    with pytest.raises(ValueError):
        build_decoding_graph(1)
    with pytest.raises(ValueError):
        build_decoding_graph(3, 0)
    with pytest.raises(ValueError):
        build_decoding_graph(3, 3, 0.0)
    with pytest.raises(ValueError):
        build_decoding_graph(3, 3, 0.5)


@pytest.mark.parametrize("args, message", [
    ((3, 3, "0.01"), "p must be a real number, got '0.01'"),
    ((3, 3, None), "p must be a real number, got None"),
    ((3, 3, True), "p must be a real number, got True"),
    ((5.0, None, 0.01), "distance must be an integer, got 5.0"),
    ((5, 2.0, 0.01), "rounds must be an integer, got 2.0"),
    ((True, 3, 0.01), "distance must be an integer, got True"),
], ids=["p-str", "p-none", "p-bool", "distance-float", "rounds-float", "distance-bool"])
def test_builder_refuses_non_numbers(args, message):
    # each used to raise TypeError, or call True out of range
    with pytest.raises(ValueError, match=re.escape(message)):
        build_decoding_graph(*args)


@pytest.mark.parametrize("args", [
    (4, None, 1e-3), (1, 3, 1e-3), (-3, 3, 1e-3), (3, 0, 1e-3), (3, -2, 1e-3),
    (3, 3, 0.0), (3, 3, 0.5), (3, 3, -1e-3), (3, 3, math.nan), (3, 3, math.inf),
    (5.0, None, 0.01), (5, 2.0, 0.01), (True, 3, 0.01), (3, True, 0.01),
    (3, 3, "0.01"), (3, 3, None), (3, 3, True), (4, 0, "0.01"), (4, 0, 0.7),
])
def test_config_and_builder_refuse_code_params_alike(args):
    # one check serves both entry points: same error, same message
    with pytest.raises(ValueError) as built:
        build_decoding_graph(*args)
    d, rounds, p = args
    with pytest.raises(ValueError) as checked:
        ExperimentConfig(distance=d, rounds=rounds, p=p).validate()
    assert str(checked.value) == str(built.value)


@pytest.mark.parametrize("p", [0.7, 0.5, 0.0, -1e-3, math.nan, math.inf])
def test_builder_refuses_p_before_building(p, monkeypatch):
    def lattice(d):
        raise AssertionError("the lattice was built before p was checked")

    monkeypatch.setattr(graph_module, "_z_plaquettes", lattice)
    with pytest.raises(ValueError, match=re.escape(f"p must be in (0, 0.5), got {p}")):
        build_decoding_graph(3, 3, p)


def test_builder_takes_numpy_numbers():
    g = build_decoding_graph(np.int64(3), np.int64(2), np.float64(0.01))
    assert (g.distance, g.rounds, g.n_edges) == (3, 2, 22)


def test_check_helpers_are_imported_from_graph():
    # each module takes them from graph, where they are defined; noise
    # imports only the one it calls and re-exports nothing
    from surfmatch import graph, harness, maindecoder, noise, predecoder
    for module in (harness, maindecoder, noise, predecoder):
        assert module.check_integer is graph.check_integer
    assert predecoder.check_real is graph.check_real
    assert not hasattr(noise, "check_real")


def test_deterministic_construction():
    a = build_decoding_graph(5, 2, 0.002)
    b = build_decoding_graph(5, 2, 0.002)
    assert a.to_json() == b.to_json()


def test_json_round_trip(g3):
    doc = json.loads(g3.to_json())
    assert any(e["v"] == BOUNDARY_JSON_ID for e in doc["edges"])
    g2 = graph_from_json(g3.to_json())
    assert g2.n_detectors == g3.n_detectors
    assert g2.to_json() == g3.to_json()


def test_from_json_rejects_corrupt_p(g32):
    doc = json.loads(g32.to_json())
    for bad in (0.0, 0.5, float("nan")):
        doc["p"] = bad
        with pytest.raises(ValueError, match="p must be in"):
            graph_from_json(json.dumps(doc))


def _edge_index(doc, u, v):
    return next(k for k, e in enumerate(doc["edges"]) if (e["u"], e["v"]) == (u, v))


def _spacelike(graph, t):
    m = graph.n_detectors // graph.rounds
    return [(e.u, e.v) for e in graph.edges
            if e.v != graph.boundary_id and e.u // m == e.v // m == t]


def _diagonal(doc, graph, m):
    # the timelike edge of check 0 rerouted to check 1 of the next round
    doc["edges"][_edge_index(doc, 0, m)]["v"] = m + 1


def _spacelike_in_one_round(doc, graph, m):
    # a round-1 spacelike edge moved to two checks not adjacent in round 0
    a, b = next((a, b) for a, b in itertools.combinations(range(m), 2)
                if edge_between(graph, a, b) is None)
    doc["edges"][_edge_index(doc, *_spacelike(graph, 1)[0])].update(u=m + a, v=m + b)


def _reversed(doc, graph, m):
    u, v = _spacelike(graph, 0)[0]
    doc["edges"][_edge_index(doc, u, v)].update(u=v, v=u)


def _exit_in_one_round(doc, graph, m):
    # a round-1 boundary edge moved to a check with none in round 0
    inner = next(c for c in range(m) if not boundary_edges_of(graph, c))
    k = next(k for k, e in enumerate(doc["edges"])
             if m <= e["u"] < 2 * m and e["v"] == BOUNDARY_JSON_ID)
    doc["edges"][k]["u"] = m + inner


def _timelike_twice(doc, graph, m):
    doc["edges"][_edge_index(doc, 1, m + 1)].update(u=0, v=m)


@pytest.mark.parametrize("mutate, message", [
    (_diagonal, "joins different checks in different rounds"),
    (_spacelike_in_one_round, "rounds differ in their spacelike edges"),
    (_reversed, "must list its lower detector id first"),
    (_exit_in_one_round, "rounds differ in their boundary edges"),
    (_timelike_twice, "a check lacks a timelike edge"),
], ids=["diagonal", "spacelike-in-one-round", "reversed", "exit-in-one-round",
        "timelike-twice"])
def test_from_json_rejects_non_product_graph(g5, mutate, message):
    # build_path_table relies on the product form: one round's check graph
    # times a path of rounds.  Each mutation keeps the edge count; the
    # oracle check names what broke, and the reader refuses the doc.
    m = g5.n_detectors // g5.rounds
    doc = json.loads(g5.to_json())
    mutate(doc, g5, m)
    assert len(doc["edges"]) == g5.n_edges
    edges = [Edge(e["id"], e["u"], g5.boundary_id if e["v"] == BOUNDARY_JSON_ID else e["v"],
                  e["obs"])
             for e in doc["edges"]]
    with pytest.raises(ValueError, match=message):
        check_product_form(edges, m, g5.rounds)
    with pytest.raises(ValueError, match="graph JSON differs"):
        graph_from_json(json.dumps(doc))


def test_graph_structure_digest_pinned():
    # Pinned from the edge-list builder that the one-round builder replaced:
    # the same graph, lookup tables and path table, byte for byte.
    digest = hashlib.sha256()
    for d in (3, 5, 7, 9, 11, 13):
        for rounds in (1, 2, d, d + 2):
            graph = build_decoding_graph(d, rounds, 1e-3)
            table = build_path_table(graph)
            digest.update(graph.to_json().encode())
            digest.update(json.dumps(graph.detector_neighbors).encode())
            digest.update(json.dumps([edge_between(graph, u, v).id
                                      for u, nbrs in enumerate(graph.detector_neighbors)
                                      for v, _ in nbrs]).encode())
            digest.update(json.dumps([boundary_edges_of(graph, u)
                                      for u in range(graph.n_detectors)]).encode())
            for name in ("hops", "boundary_hops", "boundary_via", "boundary_edge"):
                array = getattr(table, name)
                digest.update(str(array.dtype).encode())
                digest.update(array.tobytes())
            digest.update(json.dumps(table.pred).encode())
    assert digest.hexdigest() == (
        "bf710206bb605af139b50ae3e237e90f8666f4d35c2fafb165afbe118c33694c")


@pytest.mark.parametrize("d", [3, 5, 7, 9, 11, 13])
def test_boundary_obs_is_each_boundary_edge_flag(d):
    # built from round 0's exits and repeated per round; the flag of every
    # round's edge is the reference, and plain ints keep the decode's
    # predicted observable an int
    for rounds in (1, 2, d):
        graph = build_decoding_graph(d, rounds, 1e-3)
        table = build_path_table(graph)
        obs = table.boundary_obs
        assert type(obs) is list and len(obs) == graph.n_detectors
        assert obs == [int(graph.edges[e].flips_observable) for e in table.boundary_edge.tolist()]
        assert {type(b) for b in obs} == {int}
        assert 0 < sum(obs) < len(obs)


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("rounds", [1, 2, "d"])
def test_derived_lookups_equal_an_edge_scan(d, rounds):
    # the oracle lookups edge_between and boundary_edges_of are worked out
    # from round 0 and the id layout; a scan of the edge list is the
    # reference, for every ordered pair of detectors and every detector.
    graph = build_decoding_graph(d, d if rounds == "d" else rounds, 1e-3)
    n, m = graph.n_detectors, graph.n_checks
    joined, exits = {}, [[] for _ in range(n)]
    for e in graph.edges:
        if e.v == graph.boundary_id:
            exits[e.u].append(e.id)
        else:
            joined[e.u, e.v] = joined[e.v, e.u] = e
    for u in range(n):
        assert boundary_edges_of(graph, u) == exits[u], u
        for v in range(n):
            assert edge_between(graph, u, v) is joined.get((u, v)), (u, v)
    # The None cases the loop covers: non-adjacent checks in one round,
    # the same check two rounds apart, a node and itself, and the boundary.
    a, b = next((a, b) for a, b in itertools.combinations(range(m), 2)
                if (a, b) not in joined)
    assert edge_between(graph, a, b) is None
    if graph.rounds > 2:
        assert edge_between(graph, a, a + 2 * m) is None
    assert edge_between(graph, a, a) is None
    assert edge_between(graph, 0, graph.boundary_id) is None
    with pytest.raises(ValueError, match=re.escape(f"must be in [0, {n})")):
        boundary_edges_of(graph, n)


@pytest.mark.parametrize("d", [3, 5, 7, 9, 11, 13])
def test_pred_edge_joins_each_check_to_its_pred(d):
    graph = build_decoding_graph(d, 2, 1e-3)
    table = build_path_table(graph)
    m = graph.n_checks
    for a in range(m):
        assert table.pred_edge[a][a] == -1
        for c in range(m):
            if c != a:
                e = graph.edges[table.pred_edge[a][c]]
                assert e.id < d * d and {e.u, e.v} == {c, table.pred[a][c]}, (a, c)


def test_path_table_holds_hop_counts(g5, pt5):
    assert pt5.hops.dtype == pt5.boundary_hops.dtype == np.int16
    assert pt5.hops.shape == (g5.n_detectors, g5.n_detectors)


def test_path_table_matches_independent_dijkstra(g32, pt32):
    oracle = apsp_weights(g32)
    for i in range(g32.n_detectors):
        for j in range(g32.n_detectors):
            assert pt32.hops[i, j] == oracle[i][j]


def test_path_table_sampled_rows_d5(g5, pt5):
    rng = np.random.default_rng(5)
    for i in rng.choice(g5.n_detectors, size=6, replace=False):
        dist, _ = heap_dijkstra(g5, int(i))
        for j in range(g5.n_detectors):
            assert pt5.hops[i, j] == dist[j]


def test_boundary_weights_match_oracle(g3, pt3):
    for i in range(g3.n_detectors):
        dist, _ = heap_dijkstra(g3, i)
        assert pt3.boundary_hops[i] == boundary_route_weight(g3, dist)


def test_two_spacelike_steps_weight(g32, pt32):
    # On the d=3, rounds=2 graph a pair of detectors two spacelike steps
    # apart weighs exactly two hops.
    found = False
    for i in range(g32.n_detectors):
        hops = bfs_hops(g32, i)
        for j in range(i + 1, g32.n_detectors):
            if i // g32.n_checks == j // g32.n_checks and hops[j] == 2:
                assert len(reconstruct_path(pt32, i, j)) == pt32.hops[i, j] == 2
                # cross-check against exhaustive path enumeration
                all_paths = enumerate_simple_path_weights(g32, i, int(j))
                assert min(all_paths) == 2
                found = True
    assert found


def test_adjacent_pair_weight_and_hops(g32, pt32):
    for e in g32.edges:
        if e.v == g32.boundary_id:
            continue
        assert len(reconstruct_path(pt32, e.u, e.v)) == bfs_hops(g32, e.u)[e.v] == \
            pt32.hops[e.u, e.v] == 1


def test_diagonal_is_zero(pt32):
    assert not np.diag(pt32.hops).any()


def test_hops_one_iff_adjacent(g3, pt3):
    for i in range(g3.n_detectors):
        hops = bfs_hops(g3, i)
        for j in range(g3.n_detectors):
            if i == j:
                continue
            assert len(reconstruct_path(pt3, i, j)) == pt3.hops[i, j] == hops[j]
            assert (hops[j] == 1) == (edge_between(g3, i, j) is not None)


def test_triangle_inequality_sampled(pt5):
    n = pt5.n
    rng = np.random.default_rng(0)
    i, j, k = (rng.integers(0, n, size=20_000) for _ in range(3))
    lhs = pt5.hops[i, k].astype(int)
    rhs = pt5.hops[i, j].astype(int) + pt5.hops[j, k]
    assert np.all(lhs <= rhs)


def _walk_endpoints(graph, path, start):
    cur = start
    for eid in path:
        e = graph.edges[eid]
        assert cur in (e.u, e.v)
        cur = e.v if cur == e.u else e.u
    return cur


def test_reconstruct_path_consistency(g5, pt5):
    rng = np.random.default_rng(1)
    for _ in range(200):
        i, j = rng.choice(g5.n_detectors, size=2, replace=False)
        path = reconstruct_path(pt5, int(i), int(j))
        assert len(path) == pt5.hops[i, j] == bfs_hops(g5, int(i))[int(j)]
        assert _walk_endpoints(g5, path, int(i)) == int(j)


def test_reconstruct_path_rejects_self(pt3):
    with pytest.raises(ValueError):
        reconstruct_path(pt3, 2, 2)


def test_reconstruct_boundary_path(g3, pt3):
    for i in range(g3.n_detectors):
        path = reconstruct_boundary_path(pt3, i)
        assert g3.edges[path[-1]].v == g3.boundary_id
        assert len(path) == pt3.boundary_hops[i] == bfs_boundary_hops(g3, i)
        end = _walk_endpoints(g3, path[:-1], i)
        assert end == int(pt3.boundary_via[i])


@pytest.mark.parametrize("d", [3, 5, 7, 9, 11, 13])
def test_path_table_equals_dijkstra_table(d):
    # The product-form table against the all-pairs Dijkstra it replaced:
    # the same arrays with the same dtypes, and the same path, tie-breaks
    # included, for every pair at d <= 7 and for sampled pairs above.
    rng = np.random.default_rng(d)
    for rounds in sorted({1, 2, 4, d}):
        graph = build_decoding_graph(d, rounds, 1e-3)
        table, ref = build_path_table(graph), dijkstra_path_table(graph)
        for name in ("hops", "boundary_hops", "boundary_via", "boundary_edge"):
            got, want = getattr(table, name), getattr(ref, name)
            assert got.dtype == want.dtype, (rounds, name)
            assert np.array_equal(got, want), (rounds, name)
        n = graph.n_detectors
        if d <= 7:
            pairs = itertools.permutations(range(n), 2)
        else:
            first = rng.integers(0, n, size=20_000)
            pairs = zip(first.tolist(), ((first + rng.integers(1, n, size=20_000)) % n).tolist())
        for i, j in pairs:
            assert reconstruct_path(table, i, j) == route_path(graph, ref, i, j)
        for i in range(n):
            assert reconstruct_boundary_path(table, i) == route_boundary_path(graph, ref, i)


@pytest.mark.parametrize("d, rounds", [(3, 1), (5, 2), (7, 3), (9, 12)])
def test_path_table_rows_match_bfs_when_rounds_differ_from_d(d, rounds):
    graph = build_decoding_graph(d, rounds, 1e-3)
    table = build_path_table(graph)
    rng = np.random.default_rng(rounds)
    for i in rng.choice(graph.n_detectors, size=min(6, graph.n_detectors), replace=False):
        hops = bfs_hops(graph, int(i))
        assert table.hops[i].tolist() == [hops[j] for j in range(graph.n_detectors)]
        assert table.boundary_hops[i] == bfs_boundary_hops(graph, int(i))


def test_path_table_refuses_disconnected_round(g32):
    # No built graph has a disconnected round, so round 0's check graph is
    # emptied on a copy: no detector path joins two checks of one round.
    graph = copy.copy(g32)
    graph.check_neighbors = [[] for _ in g32.check_neighbors]
    with pytest.raises(ValueError, match="detector subgraph is not connected"):
        build_path_table(graph)


@pytest.mark.parametrize("bad", [-1, "n"])
def test_reconstruction_refuses_ids_outside_the_detectors(pt3, bad):
    # a negative id used to wrap numpy indexing into a misleading error
    bad = pt3.n if bad == "n" else bad
    with pytest.raises(ValueError, match=re.escape(f"must be in [0, {pt3.n})")):
        reconstruct_path(pt3, 3, bad)
    with pytest.raises(ValueError, match=re.escape(f"must be in [0, {pt3.n})")):
        reconstruct_path(pt3, bad, 3)
    with pytest.raises(ValueError, match=re.escape(f"must be in [0, {pt3.n})")):
        reconstruct_boundary_path(pt3, bad)
