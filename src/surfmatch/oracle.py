"""Reference decoders used to grade the real-time pipeline.

``oracle_mwpm`` runs the exact matcher on the whole syndrome
with the enlarged cap and no predecoding or time budget, so its correction
weight is a floor for what any predecode-then-match chain can achieve.
``greedy_baseline`` is the ablation: repeated matching of the globally
cheapest subgraph edge with no singleton-safety check (reported as
"greedy-nosafety").  It runs the adaptive predecoder's loop, with the
same charging, abort and ``PredecodeConfig.fits`` stop, so the two differ
only in what each round matches.
"""
from __future__ import annotations

from collections import Counter
from typing import Iterable

from .graph import (DetectorGraph, PathTable, reconstruct_boundary_path,
                    reconstruct_path)
from .maindecoder import MAX_HW_CAP, DecodeOutcome, decode
from .noise import Syndrome
from .predecoder import PredecodeConfig, PredecodeResult, Prematch, Step, run_rounds

GREEDY_LABEL = "greedy-nosafety"


def oracle_mwpm(graph: DetectorGraph, table: PathTable,
                syndrome: Syndrome) -> DecodeOutcome:
    """Exact matching of the full syndrome (Hamming weight up to 14)."""
    return decode(graph, table, syndrome, predecode=None, hw_cap=MAX_HW_CAP)


def greedy_baseline(graph: DetectorGraph, syndrome: Syndrome,
                    config: PredecodeConfig | None = None) -> PredecodeResult:
    """Repeatedly match the globally cheapest subgraph edge, safety be damned.

    Runs the adaptive predecoder's loop, ``run_rounds``, with this round:
    one scan costing the current edge count that picks the cheapest edge.
    Once no subgraph edges remain (only singletons are left) nothing is
    matchable, so the decode aborts unless the residual already fits.
    """
    return run_rounds(graph, syndrome, config, lambda sub: _greedy_round(sub, graph))


def _greedy_round(sub, graph: DetectorGraph) -> tuple[list[Prematch], int]:
    """The cheapest edge (lowest weight, then lowest id), for one scan."""
    if not sub.edges:
        return [], 0
    eid = min(sub.edges, key=lambda e: (graph.edges[e].weight, e))
    pm = Prematch(*sub.edges[eid], Step.GREEDY, (eid,), graph.edges[eid].weight)
    return [pm], len(sub.edges)


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
