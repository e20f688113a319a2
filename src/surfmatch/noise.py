"""Error sampling, syndrome extraction and occurrence probabilities.

Errors are independent flips of decoding-graph edges.  Sampling uses
numpy's PCG64 generator, which is seedable and produces the same stream on
every platform.  ``trial_seed`` derives a ``SeedSequence`` from a master
seed plus an index path; the samplers take a seed or a ``Generator``, so a
caller can seed each trial on its own or, as the harness does, draw a block
of trials in order from one generator.

``sample_iid`` draws a block of i.i.d. trials at once: one uniform double
per edge per trial, taken row by row in a few numpy calls, with an edge
flipped where its double falls below the graph's prior ``p``, one scalar
for every edge.  numpy fills a ``(rows, n_edges)`` draw in row order, so a
block equals the same number of one-trial draws made one after another on
the same generator, and a one-trial draw takes exactly
``rng.random(n_edges)``.  The hits are found with one flat index,
row-major, so each trial's hits form one run of ascending columns, split
off in one Python pass over the hits; the draw and its compare are then
most of the sampler's time.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np
from scipy.special import gammaln, logsumexp, xlog1py, xlogy

from .graph import DetectorGraph


@dataclass(frozen=True, slots=True)
class ErrorSet:
    """A set of simultaneously flipped edge ids."""

    edge_ids: frozenset[int]

    def __len__(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True, slots=True)
class Syndrome:
    """Flipped detectors plus the ground-truth observable flip."""

    flipped: frozenset[int]
    true_observable: int

    @property
    def hamming_weight(self) -> int:
        return len(self.flipped)


def check_integer(name: str, value) -> None:
    """Refuse a count that is a ``bool`` or not an ``Integral``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_real(name: str, value) -> None:
    """Refuse a quantity that is a ``bool`` or not a ``Real``."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def make_rng(seed) -> np.random.Generator:
    """Build a PCG64 generator from an int, SeedSequence or Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def trial_seed(master_seed: int, *path: int) -> np.random.SeedSequence:
    """Deterministic seed derived from a master seed and an index path."""
    return np.random.SeedSequence((int(master_seed),) + tuple(int(x) for x in path))


# Doubles per uniform draw of ``sample_iid`` (256 KiB): a block is drawn in
# chunks of whole trials up to this size, so the buffer stays small at
# every distance.
_DRAW_DOUBLES = 1 << 15

_NO_ERRORS = ErrorSet(frozenset())


def sample_iid(graph: DetectorGraph, rng_seed=0, shots: int = 1) -> list[ErrorSet]:
    """``shots`` trials, each flipping every edge independently with ``graph.p``.

    Trial t takes the n_edges draws that follow those of trial t - 1.  The
    error-free trials share one empty ``ErrorSet``.
    """
    check_integer("shots", shots)
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    rng = make_rng(rng_seed)
    n = graph.n_edges
    rows = max(1, _DRAW_DOUBLES // n)
    out: list[ErrorSet] = []
    for start in range(0, shots, rows):
        out += _error_sets(rng.random((min(rows, shots - start), n)) < graph.p)
    return out


def _error_sets(hits: np.ndarray) -> list[ErrorSet]:
    """The ``ErrorSet`` of the hit columns of each row of a boolean matrix.

    The flat hit index is row-major, so each row's hits are one run of
    ascending columns; rows with no hit get the shared ``_NO_ERRORS``.
    """
    m, n = hits.shape
    rows, cols = np.divmod(np.flatnonzero(hits), n)
    runs, cols = rows.tolist() + [m], cols.tolist()  # m closes the last run
    out = [_NO_ERRORS] * m
    first = 0
    for i, r in enumerate(runs):
        if r != runs[first]:
            out[runs[first]] = ErrorSet(frozenset(cols[first:i]))
            first = i
    return out


def inject_k_errors(graph: DetectorGraph, k: int, rng_seed=0) -> ErrorSet:
    """Flip exactly k distinct edges chosen uniformly at random."""
    check_integer("k", k)
    if not 0 <= k <= graph.n_edges:
        raise ValueError(f"k must be in [0, {graph.n_edges}], got {k}")
    rng = make_rng(rng_seed)
    picks = rng.choice(graph.n_edges, size=k, replace=False)
    return ErrorSet(frozenset(picks.tolist()))


def syndrome_from_errors(graph: DetectorGraph, errors: ErrorSet) -> Syndrome:
    """Detectors with odd incidence, plus the parity of observable-crossing errors."""
    n = graph.n_edges
    flipped: set[int] = set()
    obs = 0
    for eid in errors.edge_ids:
        if not 0 <= eid < n:
            bad = sorted(i for i in errors.edge_ids if not 0 <= i < n)
            raise ValueError(f"edge ids out of range: {bad}")
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


def _log_binom_pmf(k, n: int, p: float):
    """log P(Binomial(n, p) = k), elementwise over k.

    The expression ``scipy.stats.binom.logpmf`` evaluates for k in [0, n],
    without its argument checks and broadcasting, so the values are
    bit-identical at a fraction of the cost.
    """
    return (gammaln(n + 1) - (gammaln(k + 1) + gammaln(n - k + 1))
            + xlogy(k, p) + xlog1py(n - k, -p))


def log_occurrence_probability(k: int, n_edges: int, p: float) -> float:
    """log P(exactly k of n_edges iid edges flip), computed in log space."""
    if not 0 <= k <= n_edges:
        raise ValueError(f"k must be in [0, {n_edges}], got {k}")
    return float(_log_binom_pmf(k, n_edges, p))


def occurrence_probability(k: int, n_edges: int, p: float) -> float:
    """P(exactly k of n_edges iid edges flip)."""
    return float(np.exp(log_occurrence_probability(k, n_edges, p)))


def occurrence_tail(k_max: int, n_edges: int, p: float) -> float:
    """P(more than k_max edges flip): the truncation bound of a k-sweep."""
    ks = np.arange(k_max + 1, n_edges + 1)
    if ks.size == 0:
        return 0.0
    return float(np.exp(logsumexp(_log_binom_pmf(ks, n_edges, p))))

