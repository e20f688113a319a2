import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfmatch import (ErrorSet, Syndrome, inject_k_errors, make_rng,
                       occurrence_probability, occurrence_tail, sample_iid,
                       syndrome_from_errors, trial_seed)
from surfmatch.noise import log_occurrence_probability

from oracles import log_binom_pmf
from patterns import boundary_edge_ids, find_adjacent_pair


def test_sample_iid_zero_override(g3):
    assert len(sample_iid(g3, p_override=0.0, rng_seed=1)) == 0


def test_sample_iid_rejects_half_or_more(g3):
    with pytest.raises(ValueError):
        sample_iid(g3, p_override=1.0)
    with pytest.raises(ValueError):
        sample_iid(g3, p_override=0.5)


def test_sample_iid_mean(g3):
    # binomial mean check, 1e5 draws at p=0.01 on the 35-edge graph
    rng = make_rng(123)
    n_draws = 100_000
    total = sum(len(sample_iid(g3, None, rng)) for _ in range(n_draws))
    mean = total / n_draws
    expect = g3.n_edges * g3.p
    sigma = math.sqrt(g3.n_edges * g3.p * (1 - g3.p) / n_draws)
    assert abs(mean - expect) < 3 * sigma


def test_sample_iid_deterministic(g3):
    a = sample_iid(g3, 0.3, trial_seed(7, 1, 0))
    b = sample_iid(g3, 0.3, trial_seed(7, 1, 0))
    c = sample_iid(g3, 0.3, trial_seed(7, 1, 1))
    assert a == b
    assert a != c  # overwhelmingly likely and frozen by the fixed seed


def test_inject_k_bounds(g3):
    assert len(inject_k_errors(g3, 0, 0)) == 0
    assert inject_k_errors(g3, g3.n_edges, 0).edge_ids == frozenset(range(g3.n_edges))
    with pytest.raises(ValueError):
        inject_k_errors(g3, g3.n_edges + 1, 0)
    with pytest.raises(ValueError):
        inject_k_errors(g3, -1, 0)


def test_inject_k_uniform(g3):
    rng = make_rng(42)
    counts = np.zeros(g3.n_edges)
    n_draws = 100_000
    for _ in range(n_draws):
        (eid,) = inject_k_errors(g3, 1, rng).edge_ids
        counts[eid] += 1
    q = 1.0 / g3.n_edges
    sigma = math.sqrt(q * (1 - q) / n_draws)
    assert np.all(np.abs(counts / n_draws - q) < 3.5 * sigma)


def test_syndrome_single_interior_edge(g3):
    u, v = find_adjacent_pair(g3)
    eid = g3.edge_between(u, v).id
    syn = syndrome_from_errors(g3, ErrorSet(frozenset({eid})))
    assert syn.flipped == frozenset({u, v})
    assert syn.hamming_weight == 2


def test_syndrome_single_boundary_edge(g3):
    eid = boundary_edge_ids(g3, observable=False)[0]
    syn = syndrome_from_errors(g3, ErrorSet(frozenset({eid})))
    assert syn.hamming_weight == 1
    assert syn.true_observable == 0
    obs_eid = boundary_edge_ids(g3, observable=True)[0]
    syn = syndrome_from_errors(g3, ErrorSet(frozenset({obs_eid})))
    assert syn.hamming_weight == 1
    assert syn.true_observable == 1


def test_syndrome_parity_cancellation(g3):
    # two errors sharing a detector leave the shared detector unflipped
    u, v = find_adjacent_pair(g3)
    e1 = g3.edge_between(u, v).id
    w, eid2 = next((w, eid) for w, eid in g3.detector_neighbors[v] if w != u)
    syn = syndrome_from_errors(g3, ErrorSet(frozenset({e1, eid2})))
    assert v not in syn.flipped
    assert syn.flipped == frozenset({u, w})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_syndrome_linearity(g3, data):
    ids = st.frozensets(st.integers(0, g3.n_edges - 1), max_size=10)
    a = data.draw(ids)
    b = data.draw(ids)
    sa = syndrome_from_errors(g3, ErrorSet(a))
    sb = syndrome_from_errors(g3, ErrorSet(b))
    sab = syndrome_from_errors(g3, ErrorSet(a ^ b))
    assert sab.flipped == sa.flipped ^ sb.flipped
    assert sab.true_observable == sa.true_observable ^ sb.true_observable


def test_detector_edge_errors_have_even_hw(g3):
    interior = [e.id for e in g3.edges if e.v != g3.boundary_id]
    rng = np.random.default_rng(3)
    for _ in range(200):
        picks = rng.choice(interior, size=rng.integers(0, 8), replace=False)
        syn = syndrome_from_errors(g3, ErrorSet(frozenset(int(x) for x in picks)))
        assert syn.hamming_weight % 2 == 0


def test_boundary_edge_flips_hw_parity(g3):
    eids = boundary_edge_ids(g3, observable=False)
    syn1 = syndrome_from_errors(g3, ErrorSet(frozenset(eids[:1])))
    syn2 = syndrome_from_errors(g3, ErrorSet(frozenset(eids[:2])))
    assert syn1.hamming_weight % 2 == 1
    assert syn2.hamming_weight % 2 == 0


def test_occurrence_probability_closed_forms():
    n, p = 35, 0.01
    assert occurrence_probability(0, n, p) == pytest.approx((1 - p) ** n, rel=1e-12)
    assert occurrence_probability(1, n, p) == pytest.approx(
        n * p * (1 - p) ** (n - 1), rel=1e-12)
    total = sum(occurrence_probability(k, n, p) for k in range(n + 1))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_occurrence_probability_matches_lgamma_oracle():
    for n, p in ((35, 0.01), (173, 0.005), (1931, 1e-4)):
        for k in (0, 1, 2, 5, 10, 24):
            assert log_occurrence_probability(k, n, p) == pytest.approx(
                log_binom_pmf(k, n, p), rel=1e-12)


def test_occurrence_probability_bounds():
    with pytest.raises(ValueError):
        occurrence_probability(-1, 35, 0.01)
    with pytest.raises(ValueError):
        occurrence_probability(36, 35, 0.01)


def test_occurrence_tail():
    n, p = 173, 0.005
    head = sum(occurrence_probability(k, n, p) for k in range(11))
    assert occurrence_tail(10, n, p) == pytest.approx(1.0 - head, abs=1e-12)
    assert occurrence_tail(n, n, p) == 0.0
    # spec-level bound used by the rare-event harness
    assert occurrence_tail(24, 10_000, 1e-4) < 1e-12
