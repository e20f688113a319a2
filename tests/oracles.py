"""Independent reference implementations used to grade the package.

Everything here deliberately uses different algorithms and data structures
than the package (dict-based heapq Dijkstra, DFS path enumeration,
itertools partitioning, lgamma binomials), so agreement between the two
is meaningful evidence of correctness rather than a tautology.  The one
exception is ``enumerate_mwpm``: the exhaustive enumeration whose answer,
floating-point sums and tie-breaks included, the package's pruned matcher
must reproduce exactly.
"""
from __future__ import annotations

import heapq
import itertools
import math

from surfmatch.graph import reconstruct_boundary_path, reconstruct_path
from surfmatch.maindecoder import DEFAULT_HW_CAP, MAX_HW_CAP, MatchingSet


def heap_dijkstra(graph, src: int):
    """Distances and parent pointers from one detector, boundary excluded."""
    dist = {src: 0.0}
    parent = {src: None}
    pq = [(0.0, src)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist.get(u, math.inf):
            continue
        for v, eid in graph.detector_neighbors[u]:
            nd = d + graph.edges[eid].weight
            if nd < dist.get(v, math.inf) - 1e-15:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(pq, (nd, v))
    return dist, parent


def apsp_weights(graph):
    """All-pairs detector distances as a dict of dicts."""
    return {i: heap_dijkstra(graph, i)[0] for i in range(graph.n_detectors)}


def cheapest_boundary_edge(graph, u: int):
    """(weight, edge id) of u's cheapest direct boundary edge, or None."""
    best = None
    for eid in graph.boundary_edges_of(u):
        w = graph.edges[eid].weight
        if best is None or w < best[0]:
            best = (w, eid)
    return best


def boundary_route_weight(graph, dist_from_i: dict) -> float:
    """Cheapest detour-to-boundary weight given one Dijkstra row."""
    best = math.inf
    for t, d in dist_from_i.items():
        direct = cheapest_boundary_edge(graph, t)
        if direct is not None:
            best = min(best, d + direct[0])
    return best


def enumerate_simple_path_weights(graph, i: int, j: int, max_edges: int = 6):
    """Total weights of every simple detector path from i to j (DFS)."""
    weights = []

    def walk(u, seen, acc, depth):
        if u == j:
            weights.append(acc)
            return
        if depth == max_edges:
            return
        for v, eid in graph.detector_neighbors[u]:
            if v not in seen:
                walk(v, seen | {v}, acc + graph.edges[eid].weight, depth + 1)

    walk(i, {i}, 0.0, 0)
    return weights


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
        return (0.0, (), (), count)
    w, _, pairs, bnd = best
    return (w, tuple(tuple(sorted(p)) for p in pairs), tuple(sorted(bnd)), count)


def enumerate_mwpm(flipped, table, hw_cap: int = DEFAULT_HW_CAP,
                   allow_boundary: bool = True) -> MatchingSet:
    """Exhaustive exact matching of ``flipped`` detector ids.

    The reference ``brute_force_mwpm`` must equal field for field.
    Enumerates every way to partition the defects into pairs plus
    boundary-matched nodes (boundary branches are skipped when disabled or
    when a node has no finite boundary route).  Ties in total weight keep
    the lexicographically smallest canonical pair list, which is the first
    one found since partners are explored in ascending id order with the
    boundary last.
    """
    nodes = tuple(sorted(flipped))
    m = len(nodes)
    if m > hw_cap:
        raise ValueError(f"Hamming weight {m} exceeds cap {hw_cap}")
    if hw_cap > MAX_HW_CAP:
        raise ValueError(f"hw_cap must be at most {MAX_HW_CAP}")

    # Plain-float tables indexed by position in ``nodes``; the recursion
    # walks a bitmask of unmatched positions.  The smallest unmatched node
    # is paired with every later partner in ascending order, then with the
    # boundary, so the first minimum found is the lexicographically
    # smallest canonical pair list and strict < keeps it on ties.
    w = [[float(table.weight[a, b]) for b in nodes] for a in nodes]
    bw = [float(table.boundary_weight[a]) for a in nodes]
    bok = [allow_boundary and math.isfinite(x) for x in bw]

    state = {"count": 0, "best": math.inf, "pairs": None, "boundary": None}
    pair_stack: list[tuple[int, int]] = []
    bnd_stack: list[int] = []

    def recurse(mask: int, acc: float) -> None:
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
        if bok[a]:
            bnd_stack.append(a)
            recurse(rest, acc + bw[a])
            bnd_stack.pop()

    recurse((1 << m) - 1, 0.0)
    if state["pairs"] is None and m > 0:
        raise ValueError("no complete matching exists for this defect set")

    pairs = tuple((nodes[a], nodes[b]) for a, b in state["pairs"] or ())
    boundary = tuple(nodes[a] for a in state["boundary"] or ())
    correction: set[int] = set()
    for a, b in pairs:
        correction ^= set(reconstruct_path(table, a, b))
    for a in boundary:
        correction ^= set(reconstruct_boundary_path(table, a))
    total = 0.0 if m == 0 else state["best"]
    return MatchingSet(pairs, boundary, total, frozenset(correction),
                       state["count"])


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
    """Best (singleton, partner) by exhaustive search with simulated safety."""
    nbrs = induced_neighbors(graph, set(sub.nodes))
    best = None
    for s in sorted(u for u in nbrs if not nbrs[u]):
        for t in sorted(nbrs):
            if t == s:
                continue
            if removal_strands(graph, sub, s, t):
                continue
            w = float(table.weight[s, t])
            if best is None or w < best[2] - 1e-12:
                best = (s, t, w)
    return best


def observable_parity(graph, edge_ids) -> int:
    par = 0
    for eid in edge_ids:
        if graph.edges[eid].flips_observable:
            par ^= 1
    return par


def matching_failure(graph, syndrome) -> tuple[float, bool]:
    """(weight, failure) of an exact matcher built only from this module.

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
            par ^= observable_parity(graph, [graph.edge_between(u, v).id])
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
            if best is None or w < best[0] - 1e-15:
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
