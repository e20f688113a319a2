"""Error sampling, syndrome extraction and occurrence probabilities.

Errors are independent flips of decoding-graph edges.  Sampling uses
numpy's PCG64 generator, which is seedable and produces the same stream on
every platform; per-trial seeds are derived with ``SeedSequence`` from a
master seed plus the trial's index path, so trials can run in any order
(or in parallel) and still reproduce bit-identically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp
from scipy.stats import binom

from .graph import DetectorGraph

RngLike = "int | np.random.SeedSequence | np.random.Generator"


@dataclass(frozen=True)
class ErrorSet:
    """A set of simultaneously flipped edge ids."""

    edge_ids: frozenset[int]

    def __len__(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True)
class Syndrome:
    """Flipped detectors plus the ground-truth observable flip."""

    flipped: frozenset[int]
    true_observable: int

    @property
    def hamming_weight(self) -> int:
        return len(self.flipped)


def make_rng(seed) -> np.random.Generator:
    """Build a PCG64 generator from an int, SeedSequence or Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def trial_seed(master_seed: int, *path: int) -> np.random.SeedSequence:
    """Deterministic per-trial seed derived from a master seed and index path."""
    return np.random.SeedSequence((int(master_seed),) + tuple(int(x) for x in path))


def sample_iid(graph: DetectorGraph, p_override: float | None = None,
               rng_seed=0) -> ErrorSet:
    """Flip every edge independently with its prior (or ``p_override``)."""
    rng = make_rng(rng_seed)
    if p_override is None:
        probs = graph.edge_probabilities
    else:
        if not 0.0 <= p_override < 0.5:
            raise ValueError(f"p_override must be in [0, 0.5), got {p_override}")
        probs = p_override
    hits = np.nonzero(rng.random(graph.n_edges) < probs)[0]
    return ErrorSet(frozenset(int(i) for i in hits))


def inject_k_errors(graph: DetectorGraph, k: int, rng_seed=0) -> ErrorSet:
    """Flip exactly k distinct edges chosen uniformly at random."""
    if not 0 <= k <= graph.n_edges:
        raise ValueError(f"k must be in [0, {graph.n_edges}], got {k}")
    rng = make_rng(rng_seed)
    picks = rng.choice(graph.n_edges, size=k, replace=False)
    return ErrorSet(frozenset(int(i) for i in picks))


def syndrome_from_errors(graph: DetectorGraph, errors: ErrorSet) -> Syndrome:
    """Detectors with odd incidence, plus the parity of observable-crossing errors."""
    flipped: set[int] = set()
    obs = 0
    for eid in errors.edge_ids:
        e = graph.edges[eid]
        for node in (e.u, e.v):
            if node == graph.boundary_id:
                continue
            if node in flipped:
                flipped.remove(node)
            else:
                flipped.add(node)
        if e.flips_observable:
            obs ^= 1
    return Syndrome(frozenset(flipped), obs)


def log_occurrence_probability(k: int, n_edges: int, p: float) -> float:
    """log P(exactly k of n_edges iid edges flip), computed in log space."""
    if not 0 <= k <= n_edges:
        raise ValueError(f"k must be in [0, {n_edges}], got {k}")
    return float(binom.logpmf(k, n_edges, p))


def occurrence_probability(k: int, n_edges: int, p: float) -> float:
    """P(exactly k of n_edges iid edges flip)."""
    return float(np.exp(log_occurrence_probability(k, n_edges, p)))


def occurrence_tail(k_max: int, n_edges: int, p: float) -> float:
    """P(more than k_max edges flip): the truncation bound of a k-sweep."""
    ks = np.arange(k_max + 1, n_edges + 1)
    if ks.size == 0:
        return 0.0
    return float(np.exp(logsumexp(binom.logpmf(ks, n_edges, p))))

