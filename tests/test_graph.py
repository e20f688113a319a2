import json
import math

import numpy as np
import pytest

from surfmatch import (BOUNDARY_JSON_ID, DetectorGraph, build_decoding_graph,
                       build_path_table, reconstruct_boundary_path, reconstruct_path)

from oracles import (apsp_weights, boundary_route_weight,
                     enumerate_simple_path_weights, heap_dijkstra)


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


def test_uniform_weights(g3):
    w = -math.log(g3.p)
    assert np.allclose(g3.edge_weights, w)
    assert np.allclose(g3.edge_probabilities, g3.p)


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


def test_deterministic_construction():
    a = build_decoding_graph(5, 2, 0.002)
    b = build_decoding_graph(5, 2, 0.002)
    assert a.to_json() == b.to_json()


def test_json_round_trip(g3):
    doc = json.loads(g3.to_json())
    assert any(e["v"] == BOUNDARY_JSON_ID for e in doc["edges"])
    g2 = DetectorGraph.from_json(g3.to_json())
    assert g2.n_detectors == g3.n_detectors
    assert g2.to_json() == g3.to_json()


def test_from_json_rejects_corrupt_weight(g32):
    doc = json.loads(g32.to_json())
    doc["edges"][0]["weight"] = 1.0
    with pytest.raises(ValueError):
        DetectorGraph.from_json(json.dumps(doc))


def test_with_edge_probabilities(g32):
    g2 = g32.with_edge_probabilities({0: 0.2})
    assert g2.edges[0].probability == 0.2
    assert g2.edges[0].weight == pytest.approx(-math.log(0.2))
    assert g32.edges[0].probability == 0.01  # original untouched
    assert g2.edges[1] == g32.edges[1]
    g2.validate()
    with pytest.raises(ValueError):
        g32.with_edge_probabilities({0: 0.5})
    with pytest.raises(ValueError):
        g32.with_edge_probabilities({0: 0.0})


def test_path_table_matches_independent_dijkstra(g32, pt32):
    oracle = apsp_weights(g32)
    for i in range(g32.n_detectors):
        for j in range(g32.n_detectors):
            assert pt32.weight[i, j] == pytest.approx(oracle[i][j], abs=1e-12)


def test_path_table_sampled_rows_d5(g5, pt5):
    rng = np.random.default_rng(5)
    for i in rng.choice(g5.n_detectors, size=6, replace=False):
        dist, _ = heap_dijkstra(g5, int(i))
        for j in range(g5.n_detectors):
            assert pt5.weight[i, j] == pytest.approx(dist[j], abs=1e-12)


def test_boundary_weights_match_oracle(g3, pt3):
    for i in range(g3.n_detectors):
        dist, _ = heap_dijkstra(g3, i)
        assert pt3.boundary_weight[i] == pytest.approx(
            boundary_route_weight(g3, dist), abs=1e-12)


def test_two_spacelike_steps_weight(g32, pt32):
    # Frozen derived value: on the d=3, rounds=2, p=0.01 graph a pair of
    # detectors two spacelike steps apart costs exactly 2 * (-ln 0.01).
    expect = 2 * (-math.log(0.01))
    found = False
    for i in range(g32.n_detectors):
        for j in range(i + 1, g32.n_detectors):
            if g32.nodes[i].round == g32.nodes[j].round and pt32.hops[i, j] == 2:
                assert pt32.weight[i, j] == pytest.approx(expect, rel=1e-12)
                assert pt32.weight[i, j] == pytest.approx(9.210340371976182)
                # cross-check against exhaustive path enumeration
                all_paths = enumerate_simple_path_weights(g32, i, int(j))
                assert min(all_paths) == pytest.approx(expect, rel=1e-12)
                found = True
    assert found


def test_adjacent_pair_weight_and_hops(g32, pt32):
    w = -math.log(g32.p)
    for e in g32.edges:
        if e.v == g32.boundary_id:
            continue
        assert pt32.weight[e.u, e.v] == pytest.approx(w, rel=1e-12)
        assert pt32.hops[e.u, e.v] == 1


def test_diagonal_is_zero(pt32):
    assert np.allclose(np.diag(pt32.weight), 0.0)


def test_hops_one_iff_adjacent(g3, pt3):
    for i in range(g3.n_detectors):
        for j in range(g3.n_detectors):
            if i == j:
                continue
            assert (pt3.hops[i, j] == 1) == (g3.edge_between(i, j) is not None)


def test_triangle_inequality_sampled(pt5):
    n = pt5.n
    rng = np.random.default_rng(0)
    i, j, k = (rng.integers(0, n, size=20_000) for _ in range(3))
    lhs = pt5.weight[i, k]
    rhs = pt5.weight[i, j] + pt5.weight[j, k]
    assert np.all(lhs <= rhs + 1e-9)


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
        total = sum(g5.edges[eid].weight for eid in path)
        assert total == pytest.approx(float(pt5.weight[i, j]), rel=1e-9)
        assert len(path) == int(pt5.hops[i, j])
        assert _walk_endpoints(g5, path, int(i)) == int(j)


def test_reconstruct_path_rejects_self(pt3):
    with pytest.raises(ValueError):
        reconstruct_path(pt3, 2, 2)


def test_reconstruct_boundary_path(g3, pt3):
    for i in range(g3.n_detectors):
        path = reconstruct_boundary_path(pt3, i)
        total = sum(g3.edges[eid].weight for eid in path)
        assert total == pytest.approx(float(pt3.boundary_weight[i]), rel=1e-9)
        assert g3.edges[path[-1]].v == g3.boundary_id
        assert len(path) == int(pt3.boundary_hops[i])
        end = _walk_endpoints(g3, path[:-1], i)
        assert end == int(pt3.boundary_via[i])
