"""Exact minimum-weight matching of the residual defects.

The main stage pairs every remaining flipped detector with another defect
or with the boundary and keeps the lightest complete pairing: exactly the
one that enumerating every pairing, as the paper's hardware does, would
keep.  Pair costs are the integer hop counts of the precomputed path
table, and every weight this stage reports is a hop count, so ties are
exact and the answer does not depend on p; the software reaches the
enumeration's answer through a subset dynamic program and one walk back
down it.  With the boundary allowed, the DP skips any pair whose hops
exceed its two boundary routes': no minimum pairing can use it, so the
answer is unchanged and the DP visits about half the masks at HW 8.
The stage is only modeled as viable up to a small Hamming weight cap.

Only boundary edges flip the observable, so a decode's failure bit comes
from the boundary parities alone: the predicted observable is the XOR of
``PathTable.boundary_obs`` over the matching's boundary-matched defects,
since every prematch and every pair path joins two detectors.  A
prematch is a pair of detectors, and the path table gives its path and
its weight as it gives the matching's.  The correction, the symmetric
difference of the table paths of the matching's pairs, its boundary
routes and the prematched pairs, is built only when
``DecodeOutcome.correction_edges`` is first read (``matching_correction``
rebuilds the matching's part), so the estimators, which read only the
failure bit, build no path.  This is how PyMatching's Sparse Blossom
(Higgott & Gidney, 2023) returns observable predictions, not corrections.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .graph import (DetectorGraph, PathTable, check_integer, reconstruct_boundary_path,
                    reconstruct_path)
from .noise import Syndrome

if TYPE_CHECKING:  # pragma: no cover
    from .predecoder import Prematch, PredecodeResult

DEFAULT_HW_CAP = 10
MAX_HW_CAP = 14


def matching_search_size(hw: int) -> int:
    """Number of pairings the exact matcher is modeled to enumerate.

    For an even number of defects this is the count of perfect pairings,
    (hw-1)!! (945 at hw=10); for odd counts one defect takes the boundary,
    giving hw!!.  Used as the cycle cost model of the main stage.
    """
    return _double_factorial(hw - 1 if hw % 2 == 0 else hw)


def _double_factorial(k: int) -> int:
    """k!! = k (k-2) (k-4) ...; 1 for k <= 1, so (-1)!! = 1."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@dataclass(slots=True)
class MatchingSet:
    """A complete pairing of defects (boundary matches allowed).

    ``enumerated`` is the size of the search space: the number of complete
    pairings of the defects, boundary branches included where allowed
    (9,496 at HW 10 with boundary, 945 without).  It is neither the work
    the software did nor the paper's modeled ``matching_search_size``,
    which charges (hw-1)!! (945 at HW 10).  ``total_weight`` is the
    pairing's total in hops, each edge weighing one.  The pairing's edges
    are not stored: ``matching_correction`` builds them.

    Not frozen, so that it is cheap to build, and so not hashable; treat
    it as read-only.
    """

    pairs: tuple[tuple[int, int], ...]
    boundary_matches: tuple[int, ...]
    total_weight: int
    enumerated: int


@functools.cache
def _pairings(m: int, nb: int) -> int:
    """Complete pairings of m defects, nb of them with a boundary branch.

    Choose the j boundary-matched defects among the nb eligible ones, with
    j of the parity of m, and pair the other m - j in (m-j-1)!! ways.
    """
    return sum(math.comb(nb, j) * _double_factorial(m - j - 1)
               for j in range(m % 2, min(nb, m) + 1, 2))


def _subset_dp(w, bw, m: int) -> list:
    """Fewest hops completing each mask.

    ``best[mask]`` covers the unmatched positions in ``mask``, branching as
    the enumeration does: the lowest unmatched position pairs with each
    later one, then takes the boundary unless ``bw`` is None.  With the
    boundary allowed, a pair dearer than its two boundary routes is
    skipped (see ``brute_force_mwpm``).  Only masks reachable from the
    full one through branches not skipped are filled.
    """
    full = (1 << m) - 1
    best: list = [None] * (full + 1)
    best[0] = 0
    # Without the boundary, cut is infinite and no pair is skipped.
    bnd = bw if bw is not None else [0] * m

    def solve(mask: int) -> None:
        low = mask & -mask
        a = low.bit_length() - 1
        rest = mask ^ low
        wa = w[a]
        if bw is None:
            top = cut = math.inf
        else:
            if best[rest] is None:
                solve(rest)
            cut = bw[a]
            top = cut + best[rest]
        mm = rest
        while mm:
            lb = mm & -mm
            mm ^= lb
            b = lb.bit_length() - 1
            x = wa[b]
            if x > cut + bnd[b]:
                continue
            sub = rest ^ lb
            if best[sub] is None:
                solve(sub)
            x += best[sub]
            if x < top:
                top = x
        best[mask] = top

    solve(full)
    return best


def brute_force_mwpm(flipped, table: PathTable, hw_cap: int = DEFAULT_HW_CAP,
                     allow_boundary: bool = True) -> MatchingSet:
    """Exact minimum-weight matching of ``flipped`` detector ids.

    The result equals exhaustive enumeration of every way to partition the
    defects into pairs plus boundary-matched nodes (boundary branches are
    skipped when disabled), ``total_weight`` and ``enumerated`` included.
    The enumeration pairs the smallest unmatched node with every later
    partner in ascending order, then with the boundary; ties keep the first
    minimum found, which is the lexicographically smallest canonical pair
    list.

    Instead of visiting every pairing, a subset DP over the bitmask of
    unmatched defects gives the fewest hops completing every reachable
    mask.  A walk down from the full mask then takes, at each step, the
    first branch in enumeration order whose hops plus its completion equal
    the mask's: with integer hops that is exactly the enumeration's first
    minimum.  ``total_weight`` is the optimum's hops.

    With the boundary allowed, the DP skips a pair (a, b) whose hops exceed
    ``bw[a] + bw[b]``, strictly.  Sending a and b to the boundary instead is
    strictly lighter and leaves the rest of the mask as it was, so no
    minimum pairing uses such a pair: every mask the DP visits still gets
    its exact fewest hops, and the walk's equality test could never take
    it, so the walk passes over a pair whose completion the DP left
    unfilled.  The first minimum, ``total_weight`` and ``enumerated`` are
    the enumeration's.  A pair that only ties its boundary routes is kept, as
    enumeration order puts it before the boundary.  Without the boundary
    nothing is skipped.

    An ``hw_cap`` that is not an integer (``check_integer``), and an id
    that is not an integer in ``[0, table.n)``, are refused with
    ``ValueError`` before the DP; these are the only cap and id checks on
    the decode path.
    """
    check_integer("hw_cap", hw_cap)
    # Checked before sorting: 'a' < 1 raises TypeError.
    nodes = tuple(sorted(check_detector_ids(table.graph, tuple(flipped))))
    m = len(nodes)
    if m > hw_cap:
        raise ValueError(f"residual Hamming weight {m} exceeds cap {hw_cap}")
    if hw_cap > MAX_HW_CAP:
        raise ValueError(f"hw_cap must be at most {MAX_HW_CAP}")
    if m % 2 and not allow_boundary:
        raise ValueError("no complete matching exists for this defect set")
    if not m:
        return MatchingSet((), (), 0, 1)

    # Plain-int tables indexed by position in ``nodes``.
    w = table.hops.take(nodes, 0).take(nodes, 1).tolist()
    bw = [table.boundary_hops.item(a) for a in nodes] if allow_boundary else None
    best = _subset_dp(w, bw, m)
    full = (1 << m) - 1

    pairs: list[tuple[int, int]] = []
    boundary: list[int] = []
    mask = full
    while mask:
        low = mask & -mask
        a = low.bit_length() - 1
        rest = mask ^ low
        wa = w[a]
        mm = rest
        while mm:
            lb = mm & -mm
            mm ^= lb
            # An unfilled mask is one that only skipped pairs lead to.
            done = best[rest ^ lb]
            if done is not None and wa[lb.bit_length() - 1] + done == best[mask]:
                pairs.append((nodes[a], nodes[lb.bit_length() - 1]))
                mask = rest ^ lb
                break
        else:
            boundary.append(nodes[a])
            mask = rest

    return MatchingSet(tuple(pairs), tuple(boundary), best[full],
                       _pairings(m, m if allow_boundary else 0))


def matching_correction(table: PathTable, matching: MatchingSet) -> frozenset[int]:
    """Edge ids of ``matching``'s correction: the symmetric difference of
    its pair paths, then its boundary routes, in the order it lists them."""
    correction: set[int] = set()
    for a, b in matching.pairs:
        correction ^= set(reconstruct_path(table, a, b))
    for a in matching.boundary_matches:
        correction ^= set(reconstruct_boundary_path(table, a))
    return frozenset(correction)


@dataclass(slots=True)
class DecodeOutcome:
    """Combined result of the predecode and exact-matching stages.

    ``total_weight`` is in hops, all read from the path table: the
    matching's plus ``table.hops[a, b]`` for every prematched pair.
    ``correction_edges`` is the combined correction: the matching's edges
    XOR the table path of every prematched pair.  ``decode`` leaves it
    None and the set is built, from the ``table`` slot, when the field is
    first read, then kept; a set passed in is kept as given.  ``table`` is
    neither shown nor compared.

    Not frozen, so that it is cheap to build, and so not hashable; treat
    it as read-only.
    """

    prematches: tuple["Prematch", ...]
    matching: MatchingSet
    correction_edges: frozenset[int] | None
    total_weight: int
    predicted_observable: int
    logical_failure: bool
    cycles_total: int
    table: PathTable | None = field(default=None, repr=False, compare=False)


class _BuiltOnRead:
    """``DecodeOutcome.correction_edges``: its slot, filled on first read.

    Wraps the slot's member descriptor, so the class stays slotted and
    ``dataclasses.replace``, ``==`` and ``repr`` read the built set.  The
    XOR order is the matching's pairs, then its boundary routes, then the
    prematches in order, so the set's iteration order is fixed.
    """

    def __init__(self, slot) -> None:
        self.slot = slot

    def __get__(self, outcome, owner=None):
        if outcome is None:
            return self
        edges = self.slot.__get__(outcome, owner)
        if edges is None:
            table = outcome.table
            correction = set(matching_correction(table, outcome.matching))
            for pm in outcome.prematches:
                correction ^= set(reconstruct_path(table, pm.a, pm.b))
            edges = frozenset(correction)
            self.slot.__set__(outcome, edges)
        return edges

    def __set__(self, outcome, edges) -> None:
        self.slot.__set__(outcome, edges)


DecodeOutcome.correction_edges = _BuiltOnRead(DecodeOutcome.correction_edges)


_INT = frozenset({int})


@functools.cache
def _id_range(n: int) -> frozenset[int]:
    return frozenset(range(n))


def check_detector_ids(graph: DetectorGraph, flipped):
    """Refuse flipped ids that are not integers in ``[0, n_detectors)``.

    An id is an integer as ``check_integer`` has it: numpy integers pass,
    ``bool`` does not.  Ids that are all ``int`` and in range pass after
    two passes in C and are returned as given; any other set of ids is
    checked id by id and returned, as the same type, with plain ``int``s.
    """
    if _INT.issuperset(map(type, flipped)) and _id_range(graph.n_detectors).issuperset(flipped):
        return flipped
    for i in flipped:
        check_integer("flipped id", i)
    bad = sorted(int(i) for i in flipped if not 0 <= i < graph.n_detectors)
    if bad:
        raise ValueError(f"flipped ids outside detector range: {bad}")
    return type(flipped)(map(int, flipped))


def decode(table: PathTable, syndrome: Syndrome,
           predecode: "PredecodeResult | None" = None,
           hw_cap: int = DEFAULT_HW_CAP) -> DecodeOutcome:
    """Decode a syndrome, optionally consuming a predecode result.

    Every path and weight comes from ``table``.  The decode fails when the
    predicted observable flip disagrees with the syndrome's ground truth.
    The prediction is the XOR of ``table.boundary_obs`` over the
    matching's boundary matches, which is the observable parity of the
    combined correction (see the module docstring); the correction itself
    is built on first read.  ``total_weight`` adds ``table.hops[a, b]``
    for each prematched pair to the matching's hops.  The residual's
    weight and ``hw_cap`` are checked by ``brute_force_mwpm``.  An aborted
    predecode leaves nothing to decode: the chain counts it as a failure
    before reaching this stage, and it is refused here.
    """
    if predecode is not None and predecode.aborted:
        raise ValueError("cannot decode after an aborted predecode")
    prematches = tuple(predecode.prematches) if predecode is not None else ()
    pre_cycles = predecode.cycles if predecode is not None else 0

    flipped = predecode.residual.flipped if predecode is not None else syndrome.flipped
    matching = brute_force_mwpm(flipped, table, hw_cap=hw_cap)
    obs = table.boundary_obs
    predicted = 0
    for a in matching.boundary_matches:
        predicted ^= obs[a]
    failure = predicted != syndrome.true_observable
    total_weight = matching.total_weight + sum(table.hops.item(pm.a, pm.b)
                                               for pm in prematches)
    cycles_total = pre_cycles + matching_search_size(len(flipped))
    return DecodeOutcome(prematches, matching, None, total_weight, predicted, failure,
                         cycles_total, table)
