"""Independent reference implementations used to grade the package.

Everything here deliberately uses different algorithms and data structures
than the package (dict-based heapq Dijkstra, breadth-first hop counts, DFS
path enumeration, itertools partitioning, lgamma binomials), so agreement
between the two is meaningful evidence of correctness rather than a
tautology.  The one exception is ``enumerate_mwpm``: the exhaustive
enumeration over the table's integer hop counts whose answer, tie-breaks
included, the package's subset-DP matcher must reproduce exactly.  The trial-stream
references seed through the package's own ``make_rng`` and ``trial_seed``:
what they pin is which seed path and which draws each trial gets, not the
generator.  ``iid_block`` draws a block's gaps one at a time, against
which the block sampler is checked, and ``iid_stream`` a whole stream of
such blocks; ``iid_errors`` is the one-uniform-per-edge draw of a single
trial that the sampler replaced.  ``direct_failures`` decodes every trial,
error-free ones included, and ``rare_failures`` every exact-k trial, each
on its own, repeats included, and ``reference_reports`` every heavy
report trial, combined per stratum.  ``real_time_chain`` is the chain's bypass and
admission rule written as separate checks, the residual's ``fits`` among
them.  The weighted references count one hop per edge: every edge of a
built graph flips with the graph's one ``p`` and so weighs the same.  The
helpers at the end serve the tests only: ``graph_from_json`` reads what
``DetectorGraph.to_json`` writes and refuses any other doc,
``check_product_form`` checks an edge list for the product form that the
builder gives by construction, ``predecode_result_to_json`` serialises a
predecode for digests, and ``oracle_mwpm`` and ``chain_length_counts`` run
the exact matcher on a whole syndrome.  ``reference_scan`` and
``reference_step3`` are the per-edge and per-node predecoder scans that the
package's linear-time ones replaced, kept for differential tests, and
``dijkstra_path_table`` with ``route_path`` and ``route_boundary_path`` is
the all-pairs Dijkstra path table and route walk that the product-form
builder replaced.  ``edge_between`` and ``boundary_edges_of`` are the
graph lookups that only the tests need, worked out from round 0 and the
id layout.
"""
from __future__ import annotations

import heapq
import itertools
import json
import math
from collections import Counter
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from surfmatch.graph import (DetectorGraph, build_decoding_graph, reconstruct_boundary_path,
                             reconstruct_path)
from surfmatch.harness import run_chain
from surfmatch.maindecoder import DEFAULT_HW_CAP, MAX_HW_CAP, MatchingSet, decode
from surfmatch.noise import (ErrorSet, inject_k_errors, make_rng, occurrence_probability,
                             syndrome_from_errors, trial_seed)
from surfmatch.predecoder import Prematch, Step


def edge_between(graph, u: int, v: int):
    """The detector-detector ``Edge`` of ``graph`` joining u and v, if any,
    worked out from round 0 and the id layout."""
    if u > v:
        u, v = v, u
    if u < 0 or v >= graph.n_detectors:
        return None
    (s, a), (t, b) = divmod(u, graph.n_checks), divmod(v, graph.n_checks)
    if a == b:
        return graph.edges[graph.rounds * graph.distance ** 2 + u] if t == s + 1 else None
    eid = next((e for c, e in graph.check_neighbors[a] if c == b), None) if s == t else None
    return None if eid is None else graph.edges[s * graph.distance ** 2 + eid]


def boundary_edges_of(graph, u: int) -> list[int]:
    """Ids of the boundary edges of ``graph`` incident to detector u (may be
    several)."""
    if not 0 <= u < graph.n_detectors:
        raise ValueError(f"detector id must be in [0, {graph.n_detectors}), got {u}")
    t, a = divmod(u, graph.n_checks)
    return [t * graph.distance ** 2 + eid for eid in graph.check_exits[a]]


def heap_dijkstra(graph, src: int):
    """Hop distances and parent pointers from one detector, boundary excluded."""
    dist = {src: 0}
    parent = {src: None}
    pq = [(0, src)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist.get(u, math.inf):
            continue
        for v, _ in graph.detector_neighbors[u]:
            nd = d + 1
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(pq, (nd, v))
    return dist, parent


def bfs_hops(graph, src: int) -> dict:
    """Fewest edges from one detector to each detector, boundary excluded.

    Every edge of a built graph has the same weight, so a min-weight path
    is a min-hop path and these are the edge counts of the table's routes.
    """
    hops = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v, _ in graph.detector_neighbors[u]:
                if v not in hops:
                    hops[v] = hops[u] + 1
                    nxt.append(v)
        frontier = nxt
    return hops


def bfs_boundary_hops(graph, src: int) -> int:
    """Edges of the fewest-edge route from ``src`` out through the boundary."""
    hops = bfs_hops(graph, src)
    return 1 + min(h for t, h in hops.items() if boundary_edges_of(graph, t))


def apsp_weights(graph):
    """All-pairs detector distances as a dict of dicts."""
    return {i: heap_dijkstra(graph, i)[0] for i in range(graph.n_detectors)}


def cheapest_boundary_edge(graph, u: int):
    """(hops, edge id) of u's cheapest direct boundary edge, or None.

    Every edge weighs one hop, so that is u's first boundary edge.
    """
    eids = boundary_edges_of(graph, u)
    return (1, eids[0]) if eids else None


def boundary_route_weight(graph, dist_from_i: dict) -> int:
    """Fewest hops of a detour to the boundary given one Dijkstra row."""
    best = math.inf
    for t, d in dist_from_i.items():
        direct = cheapest_boundary_edge(graph, t)
        if direct is not None:
            best = min(best, d + direct[0])
    return best


def enumerate_simple_path_weights(graph, i: int, j: int, max_edges: int = 6):
    """Hop counts of every simple detector path from i to j (DFS)."""
    weights = []

    def walk(u, seen, acc, depth):
        if u == j:
            weights.append(acc)
            return
        if depth == max_edges:
            return
        for v, _ in graph.detector_neighbors[u]:
            if v not in seen:
                walk(v, seen | {v}, acc + 1, depth + 1)

    walk(i, {i}, 0, 0)
    return weights


class DijkstraTable(NamedTuple):
    """The path table as scipy's all-pairs Dijkstra builds it, with the
    n x n predecessor matrix ``route``."""

    hops: np.ndarray
    route: np.ndarray
    boundary_hops: np.ndarray
    boundary_via: np.ndarray
    boundary_edge: np.ndarray


def dijkstra_path_table(graph) -> DijkstraTable:
    """All-pairs Dijkstra over the whole detector graph, the builder that the
    product-form ``build_path_table`` replaced."""
    n = graph.n_detectors
    rows, cols = [], []
    for e in graph.edges:
        if e.v != graph.boundary_id:
            rows.extend((e.u, e.v))
            cols.extend((e.v, e.u))
    mat = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    dist, pred = dijkstra(mat, directed=True, return_predecessors=True)
    assert np.all(np.isfinite(dist))
    hops = dist.astype(np.int16)
    exits = np.array([u for u in range(n) if boundary_edges_of(graph, u)])
    via = exits[np.argmin(hops[:, exits], axis=1)]
    boundary_hops = (hops[np.arange(n), via] + 1).astype(np.int16)
    boundary_edge = np.array([boundary_edges_of(graph, int(u))[0] for u in via])
    return DijkstraTable(hops, pred, boundary_hops, via, boundary_edge)


def route_path(graph, ref: DijkstraTable, i: int, j: int) -> list[int]:
    """Edge ids of the path from i to j, walked back along ``ref.route``."""
    path = []
    k = j
    while k != i:
        pk = int(ref.route[i, k])
        path.append(edge_between(graph, pk, k).id)
        k = pk
    path.reverse()
    return path


def route_boundary_path(graph, ref: DijkstraTable, i: int) -> list[int]:
    """Edge ids of the boundary route of i, read off ``ref``."""
    via = int(ref.boundary_via[i])
    path = [] if via == i else route_path(graph, ref, i, via)
    path.append(int(ref.boundary_edge[i]))
    return path


def all_pairings(items: tuple):
    """Every way to split an even-sized tuple into unordered pairs."""
    if not items:
        yield ()
        return
    a = items[0]
    for idx in range(1, len(items)):
        b = items[idx]
        rest = items[1:idx] + items[idx + 1:]
        for sub in all_pairings(rest):
            yield ((a, b),) + sub


def decision_key(pairs, bnd):
    """Tie-break key: walk nodes ascending, record each one's partner.

    A node already consumed is skipped; a boundary match records +inf so
    it sorts after every defect partner.  This is the visit order of a
    matcher that always extends the smallest unmatched node, trying defect
    partners in ascending order before the boundary.
    """
    partner = {}
    for a, b in pairs:
        partner[a] = b
        partner[b] = a
    seq = []
    done: set = set()
    for a in sorted(set(partner) | set(bnd)):
        if a in done:
            continue
        if a in partner:
            seq.append(partner[a])
            done |= {a, partner[a]}
        else:
            seq.append(math.inf)
            done.add(a)
    return tuple(seq)


def exact_matching(nodes, pair_weight, boundary_weight):
    """Minimum-weight pairing with optional boundary matches, by itertools.

    ``pair_weight(a, b)`` and ``boundary_weight(a)`` supply costs.  Returns
    (weight, pairs, boundary, n_partitions).  Ties keep the candidate with
    the smallest ``decision_key``.
    """
    nodes = tuple(sorted(nodes))
    best = None
    count = 0
    for r in range(len(nodes) + 1):
        if (len(nodes) - r) % 2:
            continue
        for bnd in itertools.combinations(nodes, r):
            rest = tuple(x for x in nodes if x not in bnd)
            for pairing in all_pairings(rest):
                count += 1
                w = sum(pair_weight(a, b) for a, b in pairing)
                w += sum(boundary_weight(a) for a in bnd)
                canon = decision_key(pairing, bnd)
                if best is None or w < best[0] - 1e-12 or \
                        (abs(w - best[0]) <= 1e-12 and canon < best[1]):
                    best = (w, canon, pairing, bnd)
    if best is None:
        return (0, (), (), count)
    w, _, pairs, bnd = best
    return (w, tuple(tuple(sorted(p)) for p in pairs), tuple(sorted(bnd)), count)


def enumerate_mwpm(flipped, table, hw_cap: int = DEFAULT_HW_CAP,
                   allow_boundary: bool = True) -> MatchingSet:
    """Exhaustive exact matching of ``flipped`` detector ids.

    The reference ``brute_force_mwpm`` must equal field for field.
    Enumerates every way to partition the defects into pairs plus
    boundary-matched nodes (boundary branches are skipped when disabled),
    summing the table's integer hop counts.  Ties in total hops keep the
    lexicographically smallest canonical pair list, which is the first one
    found since partners are explored in ascending id order with the
    boundary last.
    """
    nodes = tuple(sorted(flipped))
    m = len(nodes)
    if m > hw_cap:
        raise ValueError(f"Hamming weight {m} exceeds cap {hw_cap}")
    if hw_cap > MAX_HW_CAP:
        raise ValueError(f"hw_cap must be at most {MAX_HW_CAP}")

    # Plain-int tables indexed by position in ``nodes``; the recursion
    # walks a bitmask of unmatched positions.  The smallest unmatched node
    # is paired with every later partner in ascending order, then with the
    # boundary, so the first minimum found is the lexicographically
    # smallest canonical pair list and strict < keeps it on ties.
    w = [[int(table.hops[a, b]) for b in nodes] for a in nodes]
    bw = [int(table.boundary_hops[a]) for a in nodes]

    state = {"count": 0, "best": math.inf, "pairs": None, "boundary": None}
    pair_stack: list[tuple[int, int]] = []
    bnd_stack: list[int] = []

    def recurse(mask: int, acc: int) -> None:
        if not mask:
            state["count"] += 1
            if acc < state["best"]:
                state["best"] = acc
                state["pairs"] = tuple(pair_stack)
                state["boundary"] = tuple(bnd_stack)
            return
        a = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << a)
        wa = w[a]
        mm = rest
        while mm:
            low = mm & -mm
            b = low.bit_length() - 1
            mm ^= low
            pair_stack.append((a, b))
            recurse(rest ^ low, acc + wa[b])
            pair_stack.pop()
        if allow_boundary:
            bnd_stack.append(a)
            recurse(rest, acc + bw[a])
            bnd_stack.pop()

    recurse((1 << m) - 1, 0)
    if state["pairs"] is None and m > 0:
        raise ValueError("no complete matching exists for this defect set")

    pairs = tuple((nodes[a], nodes[b]) for a, b in state["pairs"] or ())
    boundary = tuple(nodes[a] for a in state["boundary"] or ())
    total = 0 if m == 0 else state["best"]
    return MatchingSet(pairs, boundary, total, state["count"])


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def involutions(n: int) -> int:
    """Number of pairings-with-boundary partitions of n labeled nodes."""
    total = 0
    for r in range(n + 1):
        if (n - r) % 2:
            continue
        total += math.comb(n, r) * double_factorial(n - r - 1)
    return total


def log_binom_pmf(k: int, n: int, p: float) -> float:
    """Binomial log-pmf from lgamma, independent of scipy."""
    log_c = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))
    return log_c + k * math.log(p) + (n - k) * math.log1p(-p)


def induced_neighbors(graph, nodes) -> dict:
    """Neighbor sets of the subgraph induced by ``nodes``, from the full graph."""
    return {u: {v for v, _ in graph.detector_neighbors[u] if v in nodes}
            for u in nodes}


def removal_strands(graph, sub, i: int, j: int) -> bool:
    """Singleton-creation check by literally simulating the removal."""
    before = induced_neighbors(graph, set(sub.nodes))
    after_nodes = set(sub.nodes) - {i, j}
    return any(before[u] and not (before[u] - {i, j}) for u in after_nodes)


def brute_step3(graph, sub, table):
    """Fewest-hop (singleton, partner, hops) by exhaustive search with
    simulated safety."""
    nbrs = induced_neighbors(graph, set(sub.nodes))
    best = None
    for s in sorted(u for u in nbrs if not nbrs[u]):
        for t in sorted(nbrs):
            if t == s:
                continue
            if removal_strands(graph, sub, s, t):
                continue
            h = int(table.hops[s, t])
            if best is None or h < best[2]:
                best = (s, t, h)
    return best


def _dependents(sub, i: int) -> int:
    """Neighbors of i whose only flipped neighbor is i, by walking i's list."""
    return sum(1 for j in sub.adj[i] if len(sub.adj[j]) == 1)


def _creates_singleton(sub, i: int, j: int) -> bool:
    di = _dependents(sub, i) - (1 if len(sub.adj[j]) == 1 else 0)
    dj = _dependents(sub, j) - (1 if len(sub.adj[i]) == 1 else 0)
    return di > 0 or dj > 0


def reference_scan(sub):
    """The per-edge candidate scan that ``scan_candidates`` replaced.

    One pass in edge id order that counts dependents per node for every
    edge it classifies.  It returns the S1 batch as ``scan_candidates``
    does, and each register as the prematch of its first edge's pair.
    """
    batch, first = [], {}
    for eid in sorted(sub.edges):
        u, v = sub.edges[eid]
        du, dv = len(sub.adj[u]), len(sub.adj[v])
        if du == 1 and dv == 1:
            batch.append(Prematch(u, v, Step.S1))
        elif not batch:
            if _creates_singleton(sub, u, v):
                step = Step.S4_1 if min(du, dv) == 1 else Step.S4_2
            else:
                step = Step.S2_1 if min(du, dv) == 1 else Step.S2_2
            first.setdefault(step, eid)
    if batch:
        return batch, {}
    return batch, {step: Prematch(*sub.edges[eid], step) for step, eid in first.items()}


def reference_step3(sub, table):
    """The per-node S3 loop that ``step3_singleton_path`` replaced."""
    nodes = sorted(sub.nodes)
    best = None
    examined = 0
    for s in sorted(sub.singletons()):
        for t in nodes:
            if t == s:
                continue
            examined += 1
            if _dependents(sub, t) > 0:
                continue
            h = int(table.hops[s, t])
            if best is None or h < best[2]:
                best = (s, t, h)
    if best is None:
        return None, examined
    s, t, _ = best
    return Prematch(s, t, Step.S3), examined


def observable_parity(graph, edge_ids) -> int:
    par = 0
    for eid in edge_ids:
        if graph.edges[eid].flips_observable:
            par ^= 1
    return par


def matching_failure(graph, syndrome) -> tuple[int, bool]:
    """(hops, failure) of an exact matcher built only from this module.

    Pair costs come from this module's own Dijkstra; correction parity from
    its own parent-pointer walks.  Only the graph itself is shared with the
    implementation under test.
    """
    nodes = tuple(sorted(syndrome.flipped))
    rows = {i: heap_dijkstra(graph, i) for i in nodes}

    def pair_w(a, b):
        return rows[a][0][b]

    def path_parity(a, b):
        par = 0
        parent = rows[a][1]
        v = b
        while v != a:
            u = parent[v]
            par ^= observable_parity(graph, [edge_between(graph, u, v).id])
            v = u
        return par

    def boundary_choice(a):
        dist = rows[a][0]
        best = None
        for t, d in dist.items():
            direct = cheapest_boundary_edge(graph, t)
            if direct is None:
                continue
            w = d + direct[0]
            if best is None or w < best[0]:
                best = (w, t, direct[1])
        return best

    def bnd_w(a):
        return boundary_choice(a)[0]

    weight, pairs, bnd, _ = exact_matching(nodes, pair_w, bnd_w)
    parity = 0
    for a, b in pairs:
        parity ^= path_parity(a, b)
    for a in bnd:
        w, t, eid = boundary_choice(a)
        if t != a:
            parity ^= path_parity(a, t)
        parity ^= observable_parity(graph, [eid])
    return weight, parity != syndrome.true_observable


def block_stream(master_seed: int, path: tuple, n: int, block: int, draw) -> list:
    """``draw(rng)`` for each of n trials, drawn in blocks of ``block``.

    Block b has one generator seeded from (master_seed, *path, b), and its
    trials draw from it one after another.
    """
    out = []
    for b in range(-(-n // block)):
        rng = make_rng(trial_seed(master_seed, *path, b))
        for _ in range(min(block, n - b * block)):
            out.append(draw(rng))
    return out


def per_trial_stream(master_seed: int, path: tuple, n: int, draw) -> list:
    """``draw(rng)`` for each of n trials, each with its own generator.

    Trial i is seeded from (master_seed, *path, i): the seeding the harness
    used before it drew trials in blocks.
    """
    return [draw(make_rng(trial_seed(master_seed, *path, i))) for i in range(n)]


def iid_errors(graph, rng) -> ErrorSet:
    """One i.i.d. trial drawn on its own: ``rng.random(n_edges)`` compared
    with ``graph.p``, the draw the package made before it sampled by gaps."""
    hits = np.nonzero(rng.random(graph.n_edges) < graph.p)[0]
    return ErrorSet(frozenset(int(i) for i in hits))


def iid_block(graph, rng, shots: int) -> list[ErrorSet]:
    """``shots`` i.i.d. trials from gaps drawn one ``rng.geometric(p)`` at a time.

    Flat position ``pos`` of the ``shots * n_edges`` field is edge
    ``pos % n_edges`` of trial ``pos // n_edges``; each gap moves to the
    next flip, and the first gap past the field ends the block.
    """
    n, size = graph.n_edges, shots * graph.n_edges
    flips = [set() for _ in range(shots)]
    pos = -1
    while size:
        pos += int(rng.geometric(graph.p))
        if pos >= size:
            break
        flips[pos // n].add(pos % n)
    return [ErrorSet(frozenset(f)) for f in flips]


def iid_stream(graph, master_seed: int, path: tuple, n: int, block: int) -> list[ErrorSet]:
    """The ``n`` i.i.d. trials of a block-seeded stream: block b is
    ``iid_block`` on one generator seeded from (master_seed, *path, b)."""
    out = []
    for b in range(-(-n // block)):
        rng = make_rng(trial_seed(master_seed, *path, b))
        out += iid_block(graph, rng, min(block, n - b * block))
    return out


def direct_failures(graph, table, cfg, stream: int, block: int) -> int:
    """``run_direct``'s failure count, one trial at a time: every trial of
    the block stream, error-free or not, is drawn by ``iid_stream`` and
    goes through ``run_chain``."""
    drawn = iid_stream(graph, cfg.master_seed, (stream,), cfg.shots_direct, block)
    return sum(run_chain(graph, table, syndrome_from_errors(graph, e), cfg).failure
               for e in drawn)


def rare_failures(graph, table, cfg, stream: int, block: int) -> list[int]:
    """``run_rare_event``'s failure count of each k in 1..k_max, one trial
    at a time: every exact-k trial of the block stream goes through
    ``run_chain``, however often its error set has come before."""
    out = []
    for k in range(1, cfg.k_max + 1):
        syndromes = block_stream(cfg.master_seed, (stream, k), cfg.shots_per_k, block,
                                 lambda rng: syndrome_from_errors(
                                     graph, inject_k_errors(graph, k, rng)))
        out.append(sum(run_chain(graph, table, s, cfg).failure for s in syndromes))
    return out


def reference_reports(graph, table, cfg, stream: int, block: int) -> tuple[dict, dict, dict]:
    """The three reports of the high-HW corpus, one record at a time.

    Every exact-k trial of the block stream for k above half the cap goes
    through ``run_chain`` if its syndrome exceeds the cap.  Each statistic
    is the mean over each stratum's records, combined across strata with
    weights P_occ(k) times the stratum's share of trials above the cap:
    the per-stratum form that the package's one weighted sum replaced.
    """
    cap, shots = cfg.main_hw_cap, cfg.shots_per_k
    strata = []  # (weight, records) of each stratum with a record
    for k in range(cap // 2 + 1, cfg.k_max + 1):
        syndromes = block_stream(cfg.master_seed, (stream, k), shots, block,
                                 lambda rng: syndrome_from_errors(
                                     graph, inject_k_errors(graph, k, rng)))
        records = [run_chain(graph, table, s, cfg) for s in syndromes
                   if s.hamming_weight > cap]
        if records:
            p_occ = occurrence_probability(k, graph.n_edges, graph.p)
            strata.append((p_occ * len(records) / shots, records))
    total_w = sum(w for w, _ in strata)

    def mean(value) -> float:
        if total_w == 0.0:
            return 0.0
        return sum(w * (sum(value(r) for r in records) / len(records))
                   for w, records in strata) / total_w

    every = [r for _, records in strata for r in records]
    decoded = [r for r in every if not r.aborted]
    decoded_w = mean(lambda r: float(not r.aborted))

    def histogram(field: str) -> dict:
        if total_w == 0.0:
            return {}
        values = sorted({getattr(r, field) for r in every})
        return {v: mean(lambda r: float(getattr(r, field) == v)) for v in values}

    def decoded_mean(field: str) -> float:
        return mean(lambda r: 0.0 if r.aborted else getattr(r, field)) / (decoded_w or 1.0)

    steps = {}
    for step in sorted({r.deepest_step for r in decoded if r.deepest_step is not None}):
        share = mean(lambda r: float(not r.aborted and r.deepest_step == step))
        steps[step] = share / decoded_w if decoded_w > 0.0 else share
    head = {"predecoder": cfg.predecoder_label, "samples": len(every)}
    abort_rate = mean(lambda r: float(r.aborted))
    return (
        {**head, "pre": histogram("pre_hw"), "post": histogram("post_hw"),
         "abort_rate": abort_rate},
        {**head, "budget_ns": cfg.budget_ns, "abort_rate": abort_rate,
         "predecode_max_ns": max((r.predecode_ns for r in decoded), default=0.0),
         "predecode_mean_ns": decoded_mean("predecode_ns"),
         "total_max_ns": max((r.total_ns for r in decoded), default=0.0),
         "total_mean_ns": decoded_mean("total_ns")},
        {**head, "abort_rate": abort_rate, "steps": steps},
    )


def real_time_chain(syndrome, predecoder: str, pcfg, predecode):
    """(predecode result or None, admitted) by the chain's real-time rule,
    one check at a time.  A syndrome bypasses the predecoder when there is
    none (``predecoder == "none"``) or when ``pcfg.fits(hw, 0)`` holds, and
    is admitted within the cap.  Otherwise ``predecode(syndrome)`` runs, and
    its residual is admitted when it did not abort and still fits after the
    cycles it took: the chain leaves that second check to the predecoder's
    loop, and this one makes it."""
    hw = syndrome.hamming_weight
    if predecoder == "none" or pcfg.fits(hw, 0):
        return None, hw <= pcfg.main_hw_cap
    pre = predecode(syndrome)
    return pre, not pre.aborted and pcfg.fits(pre.residual.hamming_weight, pre.cycles)


def graph_from_json(text: str) -> DetectorGraph:
    """The graph ``DetectorGraph.to_json`` wrote: rebuilt from the doc's
    distance, rounds and p, and refused unless every key it writes holds
    the same value in the doc (other keys, such as the CLI's
    ``schema_version``, are ignored)."""
    doc = json.loads(text)
    graph = build_decoding_graph(doc["distance"], doc["rounds"], doc["p"])
    built = json.loads(graph.to_json())
    if {key: doc.get(key) for key in built} != built:
        raise ValueError("graph JSON differs from the graph built for its distance, "
                         "rounds and p")
    return graph


def check_product_form(edges, m: int, rounds: int) -> None:
    """Refuse an edge list that is not one round's check graph times a path
    of ``rounds`` nodes, the form ``build_path_table`` relies on.

    Detector ``t * m + a`` is check ``a`` in round ``t``, and ``rounds * m``
    is the boundary.  Every detector-detector edge lists its lower id first
    and is timelike, ``v == u + m``, or spacelike within one round; every
    round has the same spacelike edges and the same checks with a boundary
    edge as round 0, and every check has its timelike edge between each pair
    of consecutive rounds.
    """
    boundary = rounds * m
    spacelike = [set() for _ in range(rounds)]
    exits = [set() for _ in range(rounds)]
    timelike = set()
    for e in edges:
        t, a = divmod(e.u, m)
        if e.v == boundary:
            exits[t].add(a)
            continue
        if e.v <= e.u:
            raise ValueError(f"edge {e.id} must list its lower detector id first")
        s, b = divmod(e.v, m)
        if s == t:
            spacelike[t].add((a, b))
        elif a == b and s == t + 1:
            timelike.add(e.u)
        else:
            raise ValueError(f"edge {e.id} joins different checks in different rounds")
    if any(round_edges != spacelike[0] for round_edges in spacelike):
        raise ValueError("rounds differ in their spacelike edges")
    if any(checks != exits[0] for checks in exits):
        raise ValueError("rounds differ in their boundary edges")
    if len(timelike) != (rounds - 1) * m:
        raise ValueError("a check lacks a timelike edge")


def predecode_result_to_json(result, table) -> str:
    """Prematches, residual, cycles and abort flag of a predecode, as JSON.

    Each prematch's edges are its pair's path in ``table`` and its weight
    that path's hops times -ln p, the float the predecoder once stored
    with it, so digests taken then still hold.
    """
    unit = -math.log(table.graph.p)
    return json.dumps({
        "prematches": [
            {"a": pm.a, "b": pm.b, "step": pm.step.value,
             "weight": table.hops.item(pm.a, pm.b) * unit,
             "edges": reconstruct_path(table, pm.a, pm.b)}
            for pm in result.prematches
        ],
        "residual": sorted(result.residual.flipped),
        "cycles": result.cycles,
        "aborted": result.aborted,
    })


def oracle_mwpm(graph, table, syndrome):
    """Exact matching of the full syndrome (Hamming weight up to 14), with no
    predecoding or time budget: a weight floor for any predecode-then-match
    chain.  ``table`` must be built from ``graph``."""
    if table.graph is not graph:
        raise ValueError("the path table was not built from the given graph")
    return decode(table, syndrome, predecode=None, hw_cap=MAX_HW_CAP)


def chain_length_counts(graph, table, syndromes) -> Counter:
    """Matched-chain lengths under ``oracle_mwpm``, as hop count -> count.

    Each matched pair contributes the edge count of its shortest path;
    boundary matches contribute the edge count of their boundary route.
    """
    counts: Counter = Counter()
    for syndrome in syndromes:
        m = oracle_mwpm(graph, table, syndrome).matching
        counts.update(len(reconstruct_path(table, a, b)) for a, b in m.pairs)
        counts.update(len(reconstruct_boundary_path(table, a)) for a in m.boundary_matches)
    return counts
