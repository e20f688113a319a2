import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp
from scipy.stats import binom

from surfmatch import (ErrorSet, Syndrome, build_decoding_graph, inject_k_errors,
                       make_rng, noise, occurrence_probability, occurrence_tail,
                       sample_iid, syndrome_from_errors, trial_seed)
from surfmatch.noise import log_occurrence_probability

from oracles import edge_between, iid_block, log_binom_pmf
from patterns import boundary_edge_ids, find_adjacent_pair


def test_sample_iid_mean(g3):
    # binomial mean check, 1e5 draws at p=0.01 on the 35-edge graph
    rng = make_rng(123)
    n_draws = 100_000
    total = sum(len(errors) for errors in sample_iid(g3, rng, n_draws))
    mean = total / n_draws
    expect = g3.n_edges * g3.p
    sigma = math.sqrt(g3.n_edges * g3.p * (1 - g3.p) / n_draws)
    assert abs(mean - expect) < 3 * sigma


def test_sample_iid_deterministic(g3):
    hot = build_decoding_graph(3, 3, 0.3)
    a = sample_iid(hot, trial_seed(7, 1, 0))
    b = sample_iid(hot, trial_seed(7, 1, 0))
    c = sample_iid(hot, trial_seed(7, 1, 1))
    assert a == b
    assert a != c  # overwhelmingly likely and frozen by the fixed seed


@pytest.mark.parametrize("d", [3, 5, 11])
@pytest.mark.parametrize("p", [1e-3, 0.05, 0.3])
def test_sample_iid_block_equals_successive_draws(d, p, monkeypatch):
    # the block against gaps drawn one rng.geometric(p) at a time
    graph = build_decoding_graph(d, d, p)
    refs = {}
    for shots in (0, 1, 2, 1024, 1027):
        seed = trial_seed(17, d, shots)
        block = sample_iid(graph, seed, shots)
        refs[shots] = iid_block(graph, make_rng(seed), shots)
        assert block == refs[shots]
        assert all(type(i) is int for errors in block for i in errors)
        empty = [errors for errors in block if not errors]
        assert all(errors is noise._NO_ERRORS for errors in empty)
        if p == 1e-3 and shots > 2:
            assert 0 < len(empty) < shots
        if p == 0.3 and shots > 2:  # most rows hold many hits
            assert sorted(map(len, block))[shots // 2] >= 0.2 * graph.n_edges
    # a small chunk cap: the hits of a block span about eight gap draws
    cap = max(4, int(1024 * graph.n_edges * p) // 8)
    monkeypatch.setattr(noise, "_GAPS", cap)
    for shots in (1024, 1027):
        assert sum(map(len, refs[shots])) > 2 * cap
        assert sample_iid(graph, trial_seed(17, d, shots), shots) == refs[shots]


@pytest.mark.parametrize("p", [1e-20, 1e-300])
def test_sample_iid_vanishing_rate_draws_nothing(p):
    # numpy returns INT64_MAX gaps here; their running sum must not wrap
    graph = build_decoding_graph(3, 3, p)
    assert sample_iid(graph, 3, 1027) == [noise._NO_ERRORS] * 1027


def test_error_sets_are_plain_frozensets_of_ints(g3):
    # no wrapper: a sampled or injected set is a bare frozenset of Python
    # ints, equal to the same ids built by hand
    assert ErrorSet is frozenset
    hot = build_decoding_graph(3, 3, 0.3)
    sets = sample_iid(hot, 7, 50) + [inject_k_errors(g3, k, k) for k in (0, 1, 5)]
    assert sum(map(len, sets)) > 50
    for errors in sets:
        assert type(errors) is frozenset and all(type(i) is int for i in errors)
        assert errors == frozenset(list(errors)) and isinstance(errors, ErrorSet)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.bool_, st.tuples(st.integers(0, 12), st.integers(1, 40))))
def test_error_sets_group_hits_by_row(hits):
    # the flat-position grouping against row-by-row np.nonzero; rows with
    # no hit or one hit get a shared set, heavier rows a new one
    m, n = hits.shape
    sets = noise._error_sets(np.flatnonzero(hits), m, n)
    assert sets == [ErrorSet(frozenset(np.nonzero(row)[0].tolist())) for row in hits]
    for s, row in zip(sets, hits):
        cols = np.flatnonzero(row).tolist()
        if not cols:
            assert s is noise._NO_ERRORS
        elif len(cols) == 1:
            assert s is noise._single_sets(n)[cols[0]]
        else:
            assert s == frozenset(cols) and all(type(i) is int for i in s)


def test_single_sets_are_kept_per_edge_count():
    # blocks on graphs of different sizes, interleaved: every id stays below
    # its own graph's edge count, and one-edge trials share that graph's sets
    graphs = [build_decoding_graph(d, d, 1e-3) for d in (3, 5, 11, 3)]
    for i, graph in enumerate(graphs):
        n = graph.n_edges
        block = sample_iid(graph, trial_seed(23, i), 4096)
        assert max(max(errors) for errors in block if errors) < n
        singles = [errors for errors in block if len(errors) == 1]
        assert len(singles) > 10
        assert all(s is noise._single_sets(n)[next(iter(s))] for s in singles)
        assert len(noise._single_sets(n)) == n


# The distribution of the gap sampler at fixed seeds, on 10^5 d=3 trials
# drawn as one block (so across many gap chunks at the higher rates).
# p = 0.4 takes numpy's search branch of ``geometric`` (p >= 1/3).
DIST_TRIALS = 100_000


@pytest.fixture(scope="module", params=[1e-3, 0.05, 0.4])
def iid_field(request):
    """(p, n_edges, the trials' hits as a (DIST_TRIALS, n_edges) bool matrix)."""
    p = request.param
    graph = build_decoding_graph(3, 3, p)
    block = sample_iid(graph, trial_seed(19, 3), DIST_TRIALS)
    rows = np.repeat(np.arange(DIST_TRIALS), [len(e) for e in block])
    cols = [i for e in block for i in e]
    hits = np.zeros((DIST_TRIALS, graph.n_edges), dtype=bool)
    hits[rows, cols] = True
    return p, graph.n_edges, hits


def test_sample_iid_count_moments(iid_field):
    p, n, hits = iid_field
    counts = hits.sum(axis=1).astype(float)
    N, var = DIST_TRIALS, n * p * (1 - p)
    assert abs(counts.mean() - n * p) <= 4 * math.sqrt(var / N)
    # the sample variance's spread from the binomial's fourth central moment
    mu4 = var * (1 + 3 * (n - 2) * p * (1 - p))
    assert abs(counts.var(ddof=1) - var) <= 4 * math.sqrt((mu4 - var ** 2) / N)
    free = (1 - p) ** n
    assert abs((counts == 0).mean() - free) <= 4 * math.sqrt(free * (1 - free) / N)


def test_sample_iid_edge_marginals(iid_field):
    p, n, hits = iid_field
    z = (hits.sum(axis=0) - DIST_TRIALS * p) / math.sqrt(DIST_TRIALS * p * (1 - p))
    assert np.abs(z).max() < 4.5


def test_sample_iid_trials_independent_across_boundaries(iid_field):
    # the last edge of trial t against the first of trial t + 1, and the
    # counts of consecutive trials: adjacent in the flat field, so a gap
    # that carried over a trial boundary would correlate them
    p, n, hits = iid_field
    counts = hits.sum(axis=1)
    bound = 4 / math.sqrt(DIST_TRIALS - 1)
    for a, b in ((hits[:-1, -1], hits[1:, 0]), (counts[:-1], counts[1:])):
        assert abs(np.corrcoef(a, b)[0, 1]) <= bound


@pytest.mark.parametrize("shots", [-3, True, 2.5, "3"])
def test_sample_iid_refuses_bad_shot_counts(g3, shots):
    rng = make_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="shots"):
        sample_iid(g3, rng, shots)
    assert rng.bit_generator.state == state  # refused before any draw


def test_sample_iid_takes_zero_and_numpy_counts(g3):
    assert sample_iid(g3, 5, 0) == []
    assert sample_iid(g3, 5, np.int64(3)) == sample_iid(g3, 5, 3)


def test_inject_k_bounds(g3):
    assert len(inject_k_errors(g3, 0, 0)) == 0
    assert inject_k_errors(g3, g3.n_edges, 0) == frozenset(range(g3.n_edges))
    with pytest.raises(ValueError):
        inject_k_errors(g3, g3.n_edges + 1, 0)
    with pytest.raises(ValueError):
        inject_k_errors(g3, -1, 0)


@pytest.mark.parametrize("k", [True, 2.5, "2"])
def test_inject_k_refuses_non_integer_k(g3, k):
    rng = make_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="k must be an integer"):
        inject_k_errors(g3, k, rng)
    assert rng.bit_generator.state == state  # refused before any draw


def test_inject_k_uniform(g3):
    rng = make_rng(42)
    counts = np.zeros(g3.n_edges)
    n_draws = 100_000
    for _ in range(n_draws):
        (eid,) = inject_k_errors(g3, 1, rng)
        counts[eid] += 1
    q = 1.0 / g3.n_edges
    sigma = math.sqrt(q * (1 - q) / n_draws)
    assert np.all(np.abs(counts / n_draws - q) < 3.5 * sigma)


def test_syndrome_single_interior_edge(g3):
    u, v = find_adjacent_pair(g3)
    eid = edge_between(g3, u, v).id
    syn = syndrome_from_errors(g3, ErrorSet(frozenset({eid})))
    assert syn.flipped == frozenset({u, v})
    assert syn.hamming_weight == 2


@pytest.mark.parametrize("d", [3, 5])
def test_syndrome_equals_incidence_parity(d):
    # against a count of each detector's flipped edges, boundary dropped
    graph = build_decoding_graph(d, d, 0.01)
    rng = make_rng(trial_seed(29, d))
    for k in (1, 2, 5, 20, graph.n_edges):
        for _ in range(20):
            errors = inject_k_errors(graph, k, rng)
            ends = Counter(x for eid in errors for x in (graph.edges[eid].u, graph.edges[eid].v))
            flipped = {x for x, c in ends.items() if c % 2 and x != graph.boundary_id}
            obs = sum(graph.edges[eid].flips_observable for eid in errors) % 2
            assert syndrome_from_errors(graph, errors) == Syndrome(frozenset(flipped), obs)


@pytest.mark.parametrize("bad", [1.0, 2.5, "a", True])
def test_syndrome_refuses_non_integer_edge_ids(g3, bad):
    # 1.0 and 'a' used to raise TypeError, and True flipped edge 1
    for errors in ({bad}, {g3.n_edges - 1, bad}):
        with pytest.raises(ValueError, match=re.escape(
                f"edge id must be an integer, got {bad!r}")):
            syndrome_from_errors(g3, ErrorSet(frozenset(errors)))


def test_syndrome_takes_numpy_edge_ids(g3):
    ids = [0, 4, 9, g3.n_edges - 1]
    syn = syndrome_from_errors(g3, ErrorSet(frozenset(ids)))
    assert syndrome_from_errors(g3, ErrorSet(frozenset(map(np.int64, ids)))) == syn
    with pytest.raises(ValueError, match=re.escape(f"edge ids out of range: [{g3.n_edges}]")):
        syndrome_from_errors(g3, ErrorSet(frozenset([np.int64(g3.n_edges), 4])))


def test_syndrome_refuses_edge_ids_out_of_range(g3):
    # -1 would otherwise index the last edge, and n_edges past the end
    eid = edge_between(g3, *find_adjacent_pair(g3)).id
    for bad in (-1, g3.n_edges):
        with pytest.raises(ValueError, match=re.escape(f"edge ids out of range: [{bad}]")):
            syndrome_from_errors(g3, ErrorSet(frozenset({eid, bad})))


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
    e1 = edge_between(g3, u, v).id
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


def test_occurrence_probability_equals_scipy_binom():
    # the closed form is scipy's own binom expression: equal, not close
    for n, p in ((173, 1e-3), (1931, 1e-4), (93, 3e-3), (173, 0.01), (5000, 0.2)):
        for k in range(61):
            assert log_occurrence_probability(k, n, p) == float(binom.logpmf(k, n, p))
            ks = np.arange(k + 1, n + 1)
            assert occurrence_tail(k, n, p) == float(np.exp(logsumexp(binom.logpmf(ks, n, p))))


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
