"""Reference decoders used to grade the real-time pipeline.

``oracle_mwpm`` runs the exact matcher on the whole syndrome
with the enlarged cap and no predecoding or time budget, so its correction
weight is a floor for what any predecode-then-match chain can achieve.
``greedy_baseline`` is the ablation: repeated matching of the globally
cheapest subgraph edge with no singleton-safety check (reported as
"greedy-nosafety").  It stops by the adaptive predecoder's rule,
``PredecodeConfig.fits``, so the two differ only in what they match.
"""
from __future__ import annotations

from collections import Counter
from typing import Iterable

from .graph import (DetectorGraph, PathTable, reconstruct_boundary_path,
                    reconstruct_path)
from .maindecoder import MAX_HW_CAP, DecodeOutcome, decode
from .noise import Syndrome
from .predecoder import (PredecodeConfig, PredecodeResult, Prematch, Step,
                         build_subgraph)

GREEDY_LABEL = "greedy-nosafety"


def oracle_mwpm(graph: DetectorGraph, table: PathTable,
                syndrome: Syndrome) -> DecodeOutcome:
    """Exact matching of the full syndrome (Hamming weight up to 14)."""
    return decode(graph, table, syndrome, predecode=None, hw_cap=MAX_HW_CAP)


def greedy_baseline(graph: DetectorGraph, syndrome: Syndrome,
                    config: PredecodeConfig | None = None) -> PredecodeResult:
    """Repeatedly match the globally cheapest subgraph edge, safety be damned.

    Stops once ``config.fits`` holds for the residual, or when no subgraph
    edges remain (any leftover singletons stay for the main stage).  Cycle
    accounting matches the adaptive predecoder: one scan round costs the
    current edge count.  Greedy never aborts itself; the chain decides
    whether its residual fits.
    """
    cfg = config if config is not None else PredecodeConfig()
    sub = build_subgraph(graph, syndrome)
    prematches: list[Prematch] = []
    cycles = 0
    rounds = 0
    while not cfg.fits(len(sub.nodes), cycles) and sub.edges:
        cycles += len(sub.edges)
        rounds += 1
        best_eid = min(sub.edges, key=lambda eid: (graph.edges[eid].weight, eid))
        u, v = sub.edges[best_eid]
        prematches.append(Prematch(u, v, Step.GREEDY, (best_eid,),
                                   graph.edges[best_eid].weight))
        sub.remove_pair(u, v)
    residual = Syndrome(frozenset(sub.nodes), syndrome.true_observable)
    return PredecodeResult(tuple(prematches), residual, cycles, False, rounds)


def _chain_lengths(table: PathTable, outcome: DecodeOutcome) -> list[int]:
    lengths = [len(reconstruct_path(table, a, b)) for a, b in outcome.matching.pairs]
    lengths += [len(reconstruct_boundary_path(table, a))
                for a in outcome.matching.boundary_matches]
    return lengths


def chain_length_counts(graph: DetectorGraph, table: PathTable,
                        syndromes: Iterable[Syndrome]) -> Counter:
    """Matched-chain lengths under the oracle decoder, as hop count -> count.

    Each matched pair contributes the edge count of its shortest path;
    boundary matches contribute the edge count of their boundary route.
    """
    counts: Counter = Counter()
    for syndrome in syndromes:
        counts.update(_chain_lengths(table, oracle_mwpm(graph, table, syndrome)))
    return counts
