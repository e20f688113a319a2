"""Adaptive locality-aware predecoder.

High Hamming weight syndromes are too expensive for the brute-force exact
matcher to handle inside its real-time window, so this stage prematches
flipped detectors that can be paired with low risk until the residual
weight is small enough and the modeled total latency fits the budget.

The predecoder works on the decoding subgraph induced by the flipped
detectors.  Matching two nodes removes them; a flipped node left without
any flipped neighbor (a singleton) can later only be paired through a
multi-edge path, which is both slower and easier to get wrong.  The loop
is a sequence of rounds, and each round scans the subgraph once.  The scan
collects every isolated pair and fills one candidate register per category
with the id of its first edge in ascending id order (every edge weighs the
same); the round then applies the first category, in this priority order,
that has something to match:

  S1    isolated pairs (two-node components); the whole batch at once
  S2_1  singleton-safe edges with an endpoint of degree 1
  S2_2  singleton-safe edges otherwise
  S3    an existing singleton paired through the fewest-hop table path
  S4_1  singleton-creating edges with an endpoint of degree 1
  S4_2  singleton-creating edges otherwise

S3 is only attempted when both S2 registers are empty and a singleton
exists; S4 is the last resort.  Each application removes its pair from the
subgraph in place, and node statistics are read off what remains.

Cycle model: each round costs the edge count of the subgraph it scans, in
clock cycles.  A round that consults the path table for S3 costs
``max(paths examined, edge count)`` because the table is scanned by a
parallel pipeline.  Every predecoder runs one loop, ``run_rounds``; so
does ``greedy_baseline``, the ablation that matches the lowest-id subgraph
edge with no singleton-safety check.  A round is paid for before it is
applied, and if the predecode time exceeds the budget, or nothing is
matchable, the decode is aborted.  The loop stops as soon as
``PredecodeConfig.fits`` holds: the residual is within the main stage's
cap and the predecode time plus the modeled main-decoder time fits the
budget.  In Python a scan is one pass over the edges, which counts every
node's degree-1 neighbors and finds the isolated pairs, and, only without
any, a second pass that stops once the four registers are filled.  The
subgraph keeps its edges in ascending id order from its build through
every removal, so no round sorts, and a round builds only the prematch it
applies.  None of this changes the modeled cost.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple
import math

from .graph import DetectorGraph, PathTable, check_integer, check_real
from .noise import Syndrome
from .maindecoder import DEFAULT_HW_CAP, MAX_HW_CAP, check_detector_ids, matching_search_size


class Step(str, Enum):
    """Which rule produced a prematch."""

    S1 = "S1"
    S2_1 = "S2_1"
    S2_2 = "S2_2"
    S3 = "S3"
    S4_1 = "S4_1"
    S4_2 = "S4_2"
    GREEDY = "GREEDY"  # produced by the no-safety baseline, not by the scan


# Report label of ``greedy_baseline``, the predecoder without the safety check.
GREEDY_LABEL = "greedy-nosafety"

# Order used to find the "deepest" step a decode needed: definition order.
STEP_RANK = {step: rank for rank, step in enumerate(Step)}

# The members the scan reads per edge, as plain module names: in Python
# 3.11 ``Step.S4_1`` costs an enum attribute lookup on every read.
_S1, _S2_1, _S2_2, _S4_1, _S4_2 = Step.S1, Step.S2_1, Step.S2_2, Step.S4_1, Step.S4_2


@dataclass(slots=True)
class Prematch:
    """One prematched pair of detectors and the step that matched it.

    Its correction is the path table's path between the pair,
    ``reconstruct_path(table, a, b)``, and its weight that path's hop
    count, ``table.hops[a, b]``.  For an edge step that path is the one
    subgraph edge joining the pair (the graph has no parallel edges); for
    S3 it is the fewest-hop path the step chose the pair by.

    Not frozen, so that it is cheap to build, and so not hashable; treat
    it as read-only.
    """

    a: int
    b: int
    step: Step


@dataclass
class DecodingSubgraph:
    """Induced subgraph on the currently unmatched flipped detectors.

    ``adj`` maps every node to its flipped neighbors and the id of the edge
    joining them; ``edges`` indexes the same edges by id as ``(u, v)`` with
    ``u < v``, inserted in ascending id order.  Both are updated in place
    as pairs are matched, and deleting from a dict keeps the order of the
    rest, so iterating ``edges`` always visits ascending ids.  Degrees and
    singletons are read off ``adj``; ``dependent_counts`` counts every
    node's degree-1 neighbors in one pass.
    """

    adj: dict[int, dict[int, int]]
    edges: dict[int, tuple[int, int]]

    @property
    def nodes(self):
        return self.adj.keys()

    def dependent_counts(self) -> dict[int, int]:
        """Each node's count of neighbors whose only neighbor it is, if above 0."""
        dep: dict[int, int] = {}
        for nbrs in self.adj.values():
            if len(nbrs) == 1:
                for j in nbrs:
                    dep[j] = dep.get(j, 0) + 1
        return dep

    def singletons(self) -> set[int]:
        return {i for i, nbrs in self.adj.items() if not nbrs}

    def remove_pair(self, a: int, b: int) -> None:
        """Drop nodes a and b and every edge touching them."""
        for x in (a, b):
            for y, eid in self.adj.pop(x).items():
                del self.adj[y][x]
                del self.edges[eid]


def build_subgraph(graph: DetectorGraph, syndrome: Syndrome) -> DecodingSubgraph:
    """Decoding subgraph induced by the syndrome's flipped detectors.

    ``edges`` is filled in ascending id order, the order every scan reads.
    """
    flipped = check_detector_ids(graph, syndrome.flipped)
    adj, edges = {}, []
    for i in flipped:
        adj[i] = nbrs = {}
        for j, eid in graph.detector_neighbors[i]:
            if j in flipped:
                nbrs[j] = eid
                if i < j:
                    edges.append((eid, (i, j)))
    edges.sort()
    return DecodingSubgraph(adj, dict(edges))


def creates_singleton(sub: DecodingSubgraph, dep: dict[int, int], i: int, j: int) -> bool:
    """Would matching (i, j) strand a third node?

    Exactly when i or j has a degree-1 neighbor outside {i, j}.  (The decoding
    graph is triangle-free, so no third node can be adjacent to both ends.)
    ``dep`` holds the counts of ``sub.dependent_counts()``, which
    ``scan_candidates`` makes in its first edge pass.
    """
    return (dep.get(i, 0) > (len(sub.adj[j]) == 1)
            or dep.get(j, 0) > (len(sub.adj[i]) == 1))


def scan_candidates(sub: DecodingSubgraph) -> tuple[list[Prematch], dict[Step, int]]:
    """The S1 batch, or else the first edge id of each other category.

    Edges are read in ascending id order, the order ``sub.edges`` keeps.
    One pass over the edges counts every node's degree-1 neighbors (a
    degree-1 node has one edge, so it is counted once) and collects the S1
    edges, those joining two degree-1 nodes; the batch, one prematch per
    isolated pair, is applied before any register.  Only without one does
    a second pass fill the S2_1, S2_2, S4_1 and S4_2 registers with the id
    of the first edge of each category (every edge weighs the same),
    stopping once all four are filled.
    """
    adj, edges = sub.adj, sub.edges
    dep: dict[int, int] = {}
    isolated = []
    for u, v in edges.values():
        du, dv = len(adj[u]), len(adj[v])
        if du == 1:
            dep[v] = dep.get(v, 0) + 1
        if dv == 1:
            dep[u] = dep.get(u, 0) + 1
            if du == 1:
                isolated.append(Prematch(u, v, _S1))
    if isolated:
        return isolated, {}
    first: dict[Step, int] = {}
    for eid, (u, v) in edges.items():
        end = len(adj[u]) == 1 or len(adj[v]) == 1
        if creates_singleton(sub, dep, u, v):
            step = _S4_1 if end else _S4_2
        else:
            step = _S2_1 if end else _S2_2
        if step not in first:
            first[step] = eid
            if len(first) == 4:
                break
    return [], first


def _edge_prematch(sub: DecodingSubgraph, eid: int, step: Step) -> Prematch:
    """The prematch of subgraph edge ``eid`` by ``step``."""
    return Prematch(*sub.edges[eid], step)


def step3_singleton_path(sub: DecodingSubgraph,
                         table: PathTable) -> tuple[Prematch | None, int]:
    """Match an existing singleton through the shortest table path (step S3).

    Returns the fewest-hop (singleton, partner) prematch that strands no
    new singleton, or None, and the paths examined: every other node per
    singleton.  Removing the partner t must not leave any of its degree-1
    neighbors stranded; the singleton s itself has no neighbors to strand.
    Ties go to the lowest singleton, then the lowest partner.
    """
    singletons = sorted(sub.singletons())
    examined = len(singletons) * (len(sub.nodes) - 1)
    partners = sorted(sub.nodes - sub.dependent_counts().keys())
    best = min(((table.hops.item(s, t), s, t) for s in singletons for t in partners
                if t != s), default=None)
    if best is None:
        return None, examined
    _, s, t = best
    return Prematch(s, t, Step.S3), examined


@dataclass(frozen=True)
class PredecodeConfig:
    """The real-time model: the main stage's cap, the budget and the clock.

    ``fits(hw, cycles)`` is its one rule: a residual of weight ``hw`` after
    ``cycles`` predecode cycles may go to the main stage when it is within
    ``main_hw_cap`` and the predecode time plus the main stage's modeled
    latency, one cycle per pairing the brute-force stage would enumerate
    (945 at weight 10), fits ``budget_ns``.  The chain bypasses the
    predecoder where ``fits(hw, 0)`` holds and the predecoders stop where it
    holds.  The budget is at least one cycle, so the empty syndrome fits.
    """

    main_hw_cap: int = DEFAULT_HW_CAP
    budget_ns: float = 960.0
    clock_mhz: float = 250.0

    def __post_init__(self):
        check_integer("main_hw_cap", self.main_hw_cap)
        check_real("budget_ns", self.budget_ns)
        check_real("clock_mhz", self.clock_mhz)
        if not 1 <= self.main_hw_cap <= MAX_HW_CAP:
            raise ValueError(
                f"main_hw_cap must be in [1, {MAX_HW_CAP}], got {self.main_hw_cap}")
        # Written so that NaN, for which every comparison is false, fails.
        if not 0.0 < self.clock_mhz < math.inf:
            raise ValueError(f"clock_mhz must be finite and positive, got {self.clock_mhz}")
        if not self.cycle_ns <= self.budget_ns < math.inf:
            raise ValueError(f"budget_ns must be finite and >= 1 cycle, got {self.budget_ns}")

    @property
    def cycle_ns(self) -> float:
        return 1000.0 / self.clock_mhz

    def main_latency(self, hw: int) -> float:
        return matching_search_size(hw) * self.cycle_ns

    def fits(self, hw: int, cycles: int) -> bool:
        """May a weight-``hw`` residual after ``cycles`` cycles go to the main stage?"""
        return (hw <= self.main_hw_cap
                and cycles * self.cycle_ns + self.main_latency(hw) <= self.budget_ns)


class TraceEntry(NamedTuple):
    step: Step
    singletons_before: int
    singletons_after: int
    hw_after: int


@dataclass(slots=True)
class PredecodeResult:
    """Prematches applied, the residual syndrome and the time spent.

    Not frozen, so that it is cheap to build, and so not hashable; treat
    it as read-only.
    """

    prematches: tuple[Prematch, ...]
    residual: Syndrome
    cycles: int
    aborted: bool
    rounds_executed: int
    trace: tuple[TraceEntry, ...] | None = None


def run_rounds(graph: DetectorGraph, syndrome: Syndrome, config: PredecodeConfig | None,
               pick: Callable, record_trace: bool = False) -> PredecodeResult:
    """Predecode until ``fits`` holds; ``pick(sub)`` gives a round's batch and cycles.

    A round is charged before its batch is applied, and an empty batch or a
    charge over the budget aborts, so a result that did not abort fits.
    """
    cfg = config or PredecodeConfig()
    sub = build_subgraph(graph, syndrome)
    prematches: list[Prematch] = []
    trace: list[TraceEntry] = []
    cycles = rounds = 0
    aborted = False
    while not cfg.fits(len(sub.nodes), cycles):
        batch, cost = pick(sub)
        cycles += cost
        rounds += 1
        # Out of budget, or nothing matchable remains (e.g. a lone defect
        # that would need the boundary): the residual can never fit.
        if cycles * cfg.cycle_ns > cfg.budget_ns or not batch:
            aborted = True
            break

        before = len(sub.singletons()) if record_trace else 0
        for pm in batch:
            sub.remove_pair(pm.a, pm.b)
        prematches.extend(batch)
        if record_trace:
            trace.append(TraceEntry(batch[0].step, before, len(sub.singletons()),
                                    len(sub.nodes)))

    residual = Syndrome(frozenset(sub.nodes), syndrome.true_observable)
    return PredecodeResult(tuple(prematches), residual, cycles, aborted, rounds,
                           tuple(trace) if record_trace else None)


def _adaptive_round(sub: DecodingSubgraph, table: PathTable):
    """One scan, and the first category in priority order with a match."""
    batch, regs = scan_candidates(sub)
    cost = len(sub.edges)
    if batch:
        return batch, cost
    for step in (Step.S2_1, Step.S2_2):
        if step in regs:
            return [_edge_prematch(sub, regs[step], step)], cost
    pm, examined = step3_singleton_path(sub, table)
    cost = max(examined, cost)
    if pm is not None:
        return [pm], cost
    for step in (Step.S4_1, Step.S4_2):
        if step in regs:
            return [_edge_prematch(sub, regs[step], step)], cost
    return [], cost


def _greedy_round(sub: DecodingSubgraph) -> tuple[list[Prematch], int]:
    """The lowest-id subgraph edge (every edge weighs the same), for one scan."""
    if not sub.edges:
        return [], 0
    return [_edge_prematch(sub, next(iter(sub.edges)), Step.GREEDY)], len(sub.edges)


def adaptive_predecode(graph: DetectorGraph, table: PathTable, syndrome: Syndrome,
                       config: PredecodeConfig | None = None,
                       record_trace: bool = False) -> PredecodeResult:
    """Reduce a syndrome's Hamming weight until the main stage fits its budget.

    Each round scans the subgraph once and applies one prematch, except
    that step S1 matches all isolated pairs of the scan at once.
    """
    return run_rounds(graph, syndrome, config,
                      lambda sub: _adaptive_round(sub, table), record_trace)


def greedy_baseline(graph: DetectorGraph, syndrome: Syndrome,
                    config: PredecodeConfig | None = None) -> PredecodeResult:
    """Repeatedly match the lowest-id subgraph edge, safety be damned.

    The ablation reported as ``GREEDY_LABEL``: no singleton-safety check.
    Runs the adaptive predecoder's loop, ``run_rounds``, with one scan per
    round costing the current edge count.  Once no subgraph edges remain
    (only singletons are left) nothing is matchable, so the decode aborts
    unless the residual already fits.
    """
    return run_rounds(graph, syndrome, config, _greedy_round)
