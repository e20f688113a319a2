import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest

import surfmatch.graph as graph_module
from surfmatch import (BOUNDARY_JSON_ID, Edge, ExperimentConfig, build_decoding_graph,
                       reconstruct_boundary_path, reconstruct_path)

from oracles import (apsp_weights, bfs_boundary_hops, bfs_hops,
                     boundary_route_weight, enumerate_simple_path_weights,
                     graph_from_json, heap_dijkstra)


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
        g.validate()


def test_node_count_example():
    assert build_decoding_graph(5, 5, 1e-4).n_detectors == 60


def test_observable_edges_are_left_boundary_edges(g5):
    # The observable cut runs along data-qubit column 0; all of those data
    # qubits touch a single check, so every cut edge is a boundary edge.
    for e in g5.edges:
        if e.flips_observable:
            assert e.v == g5.boundary_id


def test_timelike_edges_connect_same_check(g5):
    n_checks = (g5.distance ** 2 - 1) // 2
    timelike = [e for e in g5.edges if e.v != g5.boundary_id
                and e.v - e.u == n_checks]
    assert len(timelike) == (g5.rounds - 1) * n_checks
    for e in timelike:
        assert not e.flips_observable
        assert g5.nodes[e.u].space_coord == g5.nodes[e.v].space_coord
        assert g5.nodes[e.v].round == g5.nodes[e.u].round + 1


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


def test_check_helpers_reexported_from_noise():
    from surfmatch import graph, noise
    assert noise.check_integer is graph.check_integer
    assert noise.check_real is graph.check_real


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
            if g32.nodes[i].round == g32.nodes[j].round and hops[j] == 2:
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
            assert (hops[j] == 1) == (g3.edge_between(i, j) is not None)


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
