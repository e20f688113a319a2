"""Reference decoders used to grade the real-time pipeline.

``oracle_mwpm`` runs the exact matcher on the whole syndrome
with the enlarged cap and no predecoding or time budget, so its correction
weight is a floor for what any predecode-then-match chain can achieve.
``greedy_baseline`` is the ablation: repeated matching of the globally
cheapest subgraph edge with no singleton-safety check (reported as
"greedy-nosafety").
"""
from __future__ import annotations

from collections import Counter
from typing import Iterable

from .graph import DetectorGraph, PathTable
from .maindecoder import MAX_HW_CAP, DecodeOutcome, decode
from .noise import Syndrome
from .predecoder import PredecodeResult, Prematch, Step, build_subgraph

GREEDY_LABEL = "greedy-nosafety"


def oracle_mwpm(graph: DetectorGraph, table: PathTable,
                syndrome: Syndrome) -> DecodeOutcome:
    """Exact matching of the full syndrome (Hamming weight up to 14)."""
    return decode(graph, table, syndrome, predecode=None, hw_cap=MAX_HW_CAP)


def greedy_baseline(graph: DetectorGraph, syndrome: Syndrome,
                    hw_target: int = 10) -> PredecodeResult:
    """Repeatedly match the globally cheapest subgraph edge, safety be damned.

    Stops once the Hamming weight reaches ``hw_target`` or no subgraph
    edges remain (any leftover singletons stay for the main stage).  Cycle
    accounting matches the adaptive predecoder: one scan round costs the
    current edge count.
    """
    sub = build_subgraph(graph, syndrome)
    prematches: list[Prematch] = []
    cycles = 0
    rounds = 0
    while len(sub.nodes) > hw_target and sub.edges:
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
    if outcome.matching is None:
        return []
    hops = [int(table.hops[a, b]) for a, b in outcome.matching.pairs]
    hops += [int(table.boundary_hops[a]) for a in outcome.matching.boundary_matches]
    return hops


def chain_length_histogram(graph: DetectorGraph, table: PathTable,
                           syndromes: Iterable[Syndrome]) -> dict[int, float]:
    """Distribution of matched-chain lengths under the oracle decoder.

    Each matched pair contributes the hop count of its shortest path;
    boundary matches contribute their node-to-boundary hop count.  Returns
    hop count -> frequency (empty input gives an empty map).
    """
    counts = chain_length_counts(graph, table, syndromes)
    total = sum(counts.values())
    if total == 0:
        return {}
    return {hops: counts[hops] / total for hops in sorted(counts)}


def chain_length_counts(graph: DetectorGraph, table: PathTable,
                        syndromes: Iterable[Syndrome]) -> Counter:
    counts: Counter = Counter()
    for syndrome in syndromes:
        counts.update(_chain_lengths(table, oracle_mwpm(graph, table, syndrome)))
    return counts


def histogram_to_csv(counts: Counter) -> str:
    """Chain-length histogram as CSV with columns hops,count,frequency."""
    total = sum(counts.values())
    lines = ["hops,count,frequency"]
    for hops in sorted(counts):
        freq = counts[hops] / total if total else 0.0
        lines.append(f"{hops},{counts[hops]},{freq}")
    return "\n".join(lines) + "\n"
