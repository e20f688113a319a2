"""Error sampling, syndrome extraction and occurrence probabilities.

Errors are independent flips of decoding-graph edges.  Sampling uses
numpy's PCG64 generator, which is seedable and produces the same stream on
every platform.  ``trial_seed`` derives a ``SeedSequence`` from a master
seed plus an index path; the samplers take a seed or a ``Generator``, so a
caller can seed each trial on its own or, as the harness does, draw a block
of trials from one generator.

``sample_iid`` draws a block of i.i.d. trials at once, as one flat field
of ``shots * n_edges`` Bernoulli(p) flips in trial-major order, with the
graph's one prior ``p`` for every edge.  It draws the gaps between
successive flips, ``rng.geometric(p)``, rather than one uniform per edge:
their running sum is the ascending flat positions of the flips, up to the
first one past the block, so a block costs about its expected
``shots * n_edges * p`` flips, not ``shots * n_edges`` draws.  The gaps
are drawn in a few numpy calls sized from the expected count; numpy fills
an array by successive scalar draws, so the block equals the one whose
gaps are drawn one ``rng.geometric(p)`` at a time, whatever the chunk
size.  The gaps drawn past the block are dropped: a block is one sample of
the field, and two calls on one generator are two independent blocks, not
one cut in two.
Each flip's trial and edge come from one ``divmod`` of its flat position,
so each trial's flips form one run of ascending edge ids, split off in one
Python pass over the flips.  Most trials build no set: the error-free
ones share one empty set, and a trial with one flipped edge (about 92% of
the trials with an error at d=5, p=1e-3) shares that edge's one-edge set,
built once per edge count.  Only a trial with two or more flips builds a
new set.

An error set is a plain ``frozenset`` of Python ``int`` edge ids;
``ErrorSet`` names that type.  It is hashable and equal by value, so the
harness keys its memo by it, and it is empty, and so false, exactly when
no edge flipped.  Equal sets may or may not be one object.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .graph import DetectorGraph, check_integer


# A set of simultaneously flipped edge ids.
ErrorSet = frozenset


@dataclass(frozen=True, slots=True)
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
    """Deterministic seed derived from a master seed and an index path."""
    return np.random.SeedSequence((int(master_seed),) + tuple(int(x) for x in path))


# Most gaps one ``rng.geometric`` call of ``sample_iid`` draws (256 KiB of
# int64), so the buffer stays small at every distance and rate.
_GAPS = 1 << 15

_NO_ERRORS: ErrorSet = frozenset()


def sample_iid(graph: DetectorGraph, rng_seed=0, shots: int = 1) -> list[ErrorSet]:
    """``shots`` trials, each flipping every edge independently with ``graph.p``.

    The block is one field of ``shots * n_edges`` flips sampled by its
    gaps (see the module docstring); the gaps drawn past its end are
    dropped, and ``shots = 0`` draws nothing.  The error-free trials share
    one empty set, and the trials with one flipped edge share that edge's
    one-edge set.
    """
    check_integer("shots", shots)
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    rng = make_rng(rng_seed)
    n, p = graph.n_edges, graph.p
    size = shots * n
    chunks = [np.empty(0, np.int64)]
    end = 0  # one past the flat position of the last flip drawn
    while end < size:
        expect = (size - end) * p  # flips left; one gap more ends the block
        gaps = rng.geometric(p, min(_GAPS, int(expect + 4 * math.sqrt(expect)) + 2))
        # A gap past the block ends it whatever its length; capping it keeps
        # the running sum from overflowing int64 at a vanishing p.
        np.minimum(gaps, size + 1, out=gaps)
        ends = np.cumsum(gaps)
        ends += end
        chunks.append(ends[:np.searchsorted(ends, size, "right")])
        end = int(ends[-1])
    return _error_sets(np.concatenate(chunks) - 1, shots, n)


@cache
def _single_sets(n: int) -> tuple[ErrorSet, ...]:
    """The one-edge error set of each of ``n`` edges, built once per ``n``."""
    return tuple(frozenset((e,)) for e in range(n))


def _error_sets(flat: np.ndarray, shots: int, n: int) -> list[ErrorSet]:
    """The error set of each of ``shots`` rows of ``n`` edges, from the
    ascending flat (row-major) positions of their flips.

    Each row's flips are one run of ascending columns.  Rows with no flip
    get the shared ``_NO_ERRORS`` and rows with one flip the shared set of
    its edge from ``_single_sets(n)``; only heavier rows build a set.
    """
    rows, cols = np.divmod(flat, n)
    runs, cols = rows.tolist() + [shots], cols.tolist()  # shots closes the last run
    one = _single_sets(n)
    out = [_NO_ERRORS] * shots
    first = 0
    for i, r in enumerate(runs):
        if r != runs[first]:
            out[runs[first]] = one[cols[first]] if i - first == 1 else frozenset(cols[first:i])
            first = i
    return out


def inject_k_errors(graph: DetectorGraph, k: int, rng_seed=0) -> ErrorSet:
    """Flip exactly k distinct edges chosen uniformly at random."""
    check_integer("k", k)
    if not 0 <= k <= graph.n_edges:
        raise ValueError(f"k must be in [0, {graph.n_edges}], got {k}")
    rng = make_rng(rng_seed)
    picks = rng.choice(graph.n_edges, size=k, replace=False)
    return frozenset(picks.tolist())


def syndrome_from_errors(graph: DetectorGraph, errors: ErrorSet) -> Syndrome:
    """Detectors with odd incidence, plus the parity of observable-crossing errors.

    Edge ids must be integers in ``[0, n_edges)``, as ``check_integer`` has
    integers: numpy integers pass, ``bool`` does not.
    """
    n, edges, boundary = graph.n_edges, graph.edges, graph.boundary_id
    flipped: set[int] = set()
    obs = 0
    for eid in errors:
        if type(eid) is not int or not 0 <= eid < n:
            check_integer("edge id", eid)  # a numpy integer in range goes on
            if not 0 <= eid < n:
                for i in errors:
                    check_integer("edge id", i)
                bad = sorted(int(i) for i in errors if not 0 <= i < n)
                raise ValueError(f"edge ids out of range: {bad}")
        e = edges[eid]
        u, v = e.u, e.v  # u is a detector; v is a detector or the boundary
        if u in flipped:
            flipped.remove(u)
        else:
            flipped.add(u)
        if v != boundary:
            if v in flipped:
                flipped.remove(v)
            else:
                flipped.add(v)
        if e.flips_observable:
            obs ^= 1
    return Syndrome(frozenset(flipped), obs)


def _log_binom_pmf(k, n: int, p: float):
    """log P(Binomial(n, p) = k), elementwise over k.

    The expression ``scipy.stats.binom.logpmf`` evaluates for k in [0, n],
    without its argument checks and broadcasting, so the values are
    bit-identical at a fraction of the cost.
    """
    # Imported here, not at the top: only the occurrence probabilities use
    # scipy.special, and it adds about 3.6 MB to the resident set of a
    # process that samples and decodes i.i.d. trials alone.
    from scipy.special import gammaln, xlog1py, xlogy
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
    from scipy.special import logsumexp  # see _log_binom_pmf
    return float(np.exp(logsumexp(_log_binom_pmf(ks, n_edges, p))))

