"""Adaptive locality-aware predecoder.

High Hamming weight syndromes are too expensive for the brute-force exact
matcher to handle inside its real-time window, so this stage prematches
flipped detectors that can be paired with low risk until the residual
weight is small enough and the modeled total latency fits the budget.

The predecoder works on the decoding subgraph induced by the flipped
detectors.  Matching two nodes removes them; a flipped node left without
any flipped neighbor (a singleton) can later only be paired through a
multi-edge path, which is both slower and easier to get wrong.  Every scan
round therefore fills one candidate register per category and applies a
single prematch in this priority order:

  S1    isolated pairs (two-node components); the whole batch at once
  S2_1  singleton-safe edges with an endpoint of degree 1
  S2_2  singleton-safe edges otherwise
  S3    an existing singleton paired through the cheapest table path
  S4_1  singleton-creating edges with an endpoint of degree 1
  S4_2  singleton-creating edges otherwise

S3 is only attempted when both S2 registers are empty and a singleton
exists; S4 is the last resort.  Each application removes its pair from the
subgraph in place, and node statistics are read off what remains.

Cycle model: each pass over the subgraph costs its current edge count in
clock cycles.  A round that consults the path table for S3 costs
``max(paths examined, edge count)`` because the table is scanned by a
parallel pipeline.  If the accumulated predecode time plus the modeled
main-decoder time cannot fit the budget, the decode is aborted.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple
import json

from .graph import DetectorGraph, PathTable, reconstruct_path
from .noise import Syndrome
from .maindecoder import matching_search_size


class Step(str, Enum):
    """Which rule produced a prematch."""

    S1 = "S1"
    S2_1 = "S2_1"
    S2_2 = "S2_2"
    S3 = "S3"
    S4_1 = "S4_1"
    S4_2 = "S4_2"
    GREEDY = "GREEDY"  # produced by the no-safety baseline, not by the scan


# Order used to find the "deepest" step a decode needed.
STEP_RANK = {Step.S1: 0, Step.S2_1: 1, Step.S2_2: 2, Step.S3: 3,
             Step.S4_1: 4, Step.S4_2: 5, Step.GREEDY: 6}


@dataclass(frozen=True)
class Prematch:
    """One prematched pair and the correction it implies."""

    a: int
    b: int
    step: Step
    correction_edges: tuple[int, ...]
    weight: float


@dataclass
class DecodingSubgraph:
    """Induced subgraph on the currently unmatched flipped detectors.

    ``adj`` maps every node to its flipped neighbors and the id of the edge
    joining them; ``edges`` indexes the same edges by id as ``(u, v)`` with
    ``u < v``.  Both are updated in place as pairs are matched.  Degrees,
    dependents and singletons are read off ``adj`` when needed; edge
    weights come from the decoding graph.
    """

    adj: dict[int, dict[int, int]]
    edges: dict[int, tuple[int, int]]

    @property
    def nodes(self):
        return self.adj.keys()

    def degree(self, i: int) -> int:
        return len(self.adj[i])

    def dependents(self, i: int) -> int:
        """Neighbors of i whose only flipped neighbor is i."""
        return sum(1 for j in self.adj[i] if len(self.adj[j]) == 1)

    def singletons(self) -> set[int]:
        return {i for i, nbrs in self.adj.items() if not nbrs}

    def remove_pair(self, a: int, b: int) -> None:
        """Drop nodes a and b and every edge touching them."""
        for x in (a, b):
            for y, eid in self.adj.pop(x).items():
                del self.adj[y][x]
                del self.edges[eid]

    def isolated_pair_edges(self) -> list[tuple[int, int, int]]:
        """Edges whose endpoints both have degree 1, i.e. two-node components."""
        return [(eid, u, v) for eid, (u, v) in sorted(self.edges.items())
                if len(self.adj[u]) == 1 and len(self.adj[v]) == 1]


def build_subgraph(graph: DetectorGraph, syndrome: Syndrome) -> DecodingSubgraph:
    """Decoding subgraph induced by the syndrome's flipped detectors."""
    flipped = syndrome.flipped
    bad = [i for i in flipped if not 0 <= i < graph.n_detectors]
    if bad:
        raise ValueError(f"flipped ids outside detector range: {bad}")
    adj = {i: {j: eid for j, eid in graph.detector_neighbors[i] if j in flipped}
           for i in flipped}
    edges = {eid: (i, j) for i, nbrs in adj.items() for j, eid in nbrs.items() if i < j}
    return DecodingSubgraph(adj, edges)


def creates_singleton(sub: DecodingSubgraph, i: int, j: int) -> bool:
    """Would matching (i, j) strand some third node with no flipped neighbor?

    Exactly when i or j has a degree-1 neighbor outside {i, j}.  (The
    decoding graph is triangle-free, so no third node can be adjacent to
    both endpoints of an edge.)
    """
    di = sub.dependents(i) - (1 if sub.degree(j) == 1 else 0)
    dj = sub.dependents(j) - (1 if sub.degree(i) == 1 else 0)
    return di > 0 or dj > 0


def match_isolated_pairs(sub: DecodingSubgraph, graph: DetectorGraph) -> list[Prematch]:
    """Match every two-node component simultaneously (step S1)."""
    batch = [Prematch(u, v, Step.S1, (eid,), graph.edges[eid].weight)
             for eid, u, v in sub.isolated_pair_edges()]
    for pm in batch:
        sub.remove_pair(pm.a, pm.b)
    return batch


class Candidate(NamedTuple):
    edge_id: int
    a: int
    b: int
    weight: float


@dataclass
class CandidateRegisters:
    """Best edge per category after one pass over the subgraph edges."""

    s2_1: Candidate | None = None
    s2_2: Candidate | None = None
    s4_1: Candidate | None = None
    s4_2: Candidate | None = None


def scan_candidates(sub: DecodingSubgraph, graph: DetectorGraph) -> CandidateRegisters:
    """Single pass filling the S2/S4 registers; lowest weight wins, then lowest id."""
    regs = CandidateRegisters()
    for eid in sorted(sub.edges):
        u, v = sub.edges[eid]
        w = graph.edges[eid].weight
        risky = creates_singleton(sub, u, v)
        endpoint_deg1 = min(sub.degree(u), sub.degree(v)) == 1
        if not risky:
            slot = "s2_1" if endpoint_deg1 else "s2_2"
        else:
            slot = "s4_1" if endpoint_deg1 else "s4_2"
        cur = getattr(regs, slot)
        if cur is None or w < cur.weight:
            setattr(regs, slot, Candidate(eid, min(u, v), max(u, v), w))
    return regs


def step3_singleton_path(sub: DecodingSubgraph,
                         table: PathTable) -> tuple[Prematch | None, int]:
    """Match an existing singleton through the cheapest table path (step S3).

    Returns the cheapest (singleton, partner) prematch that strands no new
    singleton, or None, and the number of paths examined.  Removing the
    partner t must not leave any of its degree-1 neighbors stranded; the
    singleton s itself has no neighbors to strand.
    """
    nodes = sorted(sub.nodes)
    best = None
    examined = 0
    for s in sorted(sub.singletons()):
        row = table.weight[s]
        for t in nodes:
            if t == s:
                continue
            examined += 1
            if sub.dependents(t) > 0:
                continue
            w = float(row[t])
            if best is None or w < best[2]:
                best = (s, t, w)
    if best is None:
        return None, examined
    s, t, w = best
    return Prematch(s, t, Step.S3, tuple(reconstruct_path(table, s, t)), w), examined


def _register_prematch(*slots: tuple[Candidate | None, Step]) -> Prematch | None:
    """Prematch from the first filled register among ``slots``."""
    for cand, step in slots:
        if cand is not None:
            return Prematch(cand.a, cand.b, step, (cand.edge_id,), cand.weight)
    return None


@dataclass(frozen=True)
class PredecodeConfig:
    """Targets and timing model for the predecode loop.

    ``hw_target`` is the residual Hamming weight the loop aims for (6, 8 or
    10).  The loop only stops once the residual weight is at or below the
    target *and* the modeled total time (predecode cycles plus the main
    decoder's modeled latency at the residual weight) fits ``budget_ns``,
    so it keeps predecoding below the target whenever the main stage would
    be too slow; the target is effectively adaptive.  The main latency
    model charges one cycle per matching the brute-force stage would
    enumerate (pairings of the residual defects, e.g. 945 at weight 10).
    """

    hw_target: int = 10
    budget_ns: float = 960.0
    clock_mhz: float = 250.0

    def __post_init__(self):
        if self.hw_target not in (6, 8, 10):
            raise ValueError(f"hw_target must be 6, 8 or 10, got {self.hw_target}")
        if self.clock_mhz <= 0:
            raise ValueError("clock_mhz must be positive")

    @property
    def cycle_ns(self) -> float:
        return 1000.0 / self.clock_mhz

    def main_latency(self, hw: int) -> float:
        return matching_search_size(hw) * self.cycle_ns


class TraceEntry(NamedTuple):
    step: Step
    singletons_before: int
    singletons_after: int
    hw_after: int


@dataclass(frozen=True)
class PredecodeResult:
    """Prematches applied, the residual syndrome and the time spent."""

    prematches: tuple[Prematch, ...]
    residual: Syndrome
    cycles: int
    aborted: bool
    rounds_executed: int
    trace: tuple[TraceEntry, ...] | None = None


def adaptive_predecode(graph: DetectorGraph, table: PathTable,
                       syndrome: Syndrome,
                       config: PredecodeConfig | None = None,
                       record_trace: bool = False) -> PredecodeResult:
    """Reduce a syndrome's Hamming weight until the main stage fits its budget.

    Intended for syndromes with Hamming weight above the main decoder's
    cap (lower weights bypass straight to the main stage); callable on any
    syndrome.  One prematch is applied per scan round, except that step S1
    matches all isolated pairs of a pass simultaneously.  Aborts when the
    budget is exhausted or no further progress is possible.
    """
    cfg = config if config is not None else PredecodeConfig()
    period = cfg.cycle_ns
    sub = build_subgraph(graph, syndrome)
    prematches: list[Prematch] = []
    trace: list[TraceEntry] = []
    cycles = 0
    rounds = 0
    aborted = False

    def done() -> bool:
        hw = len(sub.nodes)
        return hw <= cfg.hw_target and cycles * period + cfg.main_latency(hw) <= cfg.budget_ns

    def record(step: Step, before: int) -> None:
        if record_trace:
            trace.append(TraceEntry(step, before, len(sub.singletons()), len(sub.nodes)))

    while not done():
        # Step 1 to fixpoint: a pass matches all current isolated pairs at
        # once and cannot create new ones, but later one-pair rounds can.
        # A pass is paid for before its result may be used, so running out
        # of budget aborts without applying the pass.
        while sub.isolated_pair_edges() and not done():
            cycles += len(sub.edges)
            rounds += 1
            if cycles * period > cfg.budget_ns:
                aborted = True
                break
            before = len(sub.singletons()) if record_trace else 0
            prematches.extend(match_isolated_pairs(sub, graph))
            record(Step.S1, before)
        if aborted or done():
            break

        regs = scan_candidates(sub, graph)
        round_cost = len(sub.edges)
        pm = _register_prematch((regs.s2_1, Step.S2_1), (regs.s2_2, Step.S2_2))
        if pm is None:
            pm, examined = step3_singleton_path(sub, table)
            round_cost = max(examined, round_cost)
        if pm is None:
            pm = _register_prematch((regs.s4_1, Step.S4_1), (regs.s4_2, Step.S4_2))
        cycles += round_cost
        rounds += 1
        if cycles * period > cfg.budget_ns:
            aborted = True
            break
        if pm is None:
            # Nothing matchable remains (e.g. a lone defect that would need
            # the boundary): the target cannot be reached in time.
            aborted = True
            break

        before = len(sub.singletons()) if record_trace else 0
        sub.remove_pair(pm.a, pm.b)
        prematches.append(pm)
        record(pm.step, before)

    residual = Syndrome(frozenset(sub.nodes), syndrome.true_observable)
    return PredecodeResult(tuple(prematches), residual, cycles, aborted, rounds,
                           tuple(trace) if record_trace else None)


def predecode_result_to_json(result: PredecodeResult) -> str:
    return json.dumps({
        "prematches": [
            {"a": pm.a, "b": pm.b, "step": pm.step.value,
             "weight": pm.weight, "edges": list(pm.correction_edges)}
            for pm in result.prematches
        ],
        "residual": sorted(result.residual.flipped),
        "cycles": result.cycles,
        "aborted": result.aborted,
    })
