"""Programmatic searches for structural patterns inside real decoding graphs.

Tests use these instead of hard-coded detector ids, so they survive any
re-numbering of the lattice.  Each finder returns node ids whose INDUCED
subgraph (restricted to the returned set) has the requested shape.
"""
from __future__ import annotations


def _neighbors(graph, u):
    return {v for v, _ in graph.detector_neighbors[u]}


def induced_degree(graph, nodes: set[int], u: int) -> int:
    return len(_neighbors(graph, u) & nodes)


def find_adjacent_pair(graph) -> tuple[int, int]:
    for e in graph.edges:
        if e.v != graph.boundary_id:
            return (e.u, e.v)
    raise AssertionError("graph has no detector-detector edge")


def find_star_with_tail(graph):
    """Nodes (a, b, c, d, e, f): a adjacent to b,c,d,e; f adjacent only to e.

    In the induced subgraph b, c, d have degree 1 with a as their only
    neighbor, e has degree 2, f degree 1.  Triangle-freeness already rules
    out edges among {b, c, d, e}; the search checks the f edges.
    """
    for a in range(graph.n_detectors):
        nbrs = sorted(_neighbors(graph, a))
        if len(nbrs) < 4:
            continue
        for e_node in nbrs:
            for f in sorted(_neighbors(graph, e_node) - {a}):
                rest = [x for x in nbrs if x != e_node and x not in _neighbors(graph, f)]
                if len(rest) >= 3 and f not in nbrs:
                    b, c, d = rest[:3]
                    return (a, b, c, d, e_node, f)
    raise AssertionError("no star-with-tail found; graph too small")


def find_induced_chain(graph, length: int = 4, forbidden: set[int] | None = None):
    """Nodes v1..vn forming an induced path (consecutive edges, no chords)."""
    forbidden = forbidden or set()

    def extend(path):
        if len(path) == length:
            return path
        last = path[-1]
        for v in sorted(_neighbors(graph, last)):
            if v in forbidden or v in path:
                continue
            # no chord: v may touch only the current chain end
            if _neighbors(graph, v) & set(path[:-1]):
                continue
            out = extend(path + [v])
            if out:
                return out
        return None

    for start in range(graph.n_detectors):
        if start in forbidden:
            continue
        out = extend([start])
        if out:
            return tuple(out)
    raise AssertionError("no induced chain of requested length")


def find_chain_with_lowest_middle(graph):
    """An induced 4-chain v1..v4 whose middle edge (v2, v3) has a lower id
    than both end edges."""
    for mid in graph.edges:
        if mid.v == graph.boundary_id:
            continue
        for v2, v3 in ((mid.u, mid.v), (mid.v, mid.u)):
            for v1, e1 in graph.detector_neighbors[v2]:
                for v4, e4 in graph.detector_neighbors[v3]:
                    if (len({v1, v2, v3, v4}) == 4 and min(e1, e4) > mid.id
                            and not _neighbors(graph, v4) & {v1, v2}
                            and v3 not in _neighbors(graph, v1)):
                        return (v1, v2, v3, v4)
    raise AssertionError("no 4-chain with a lowest-id middle edge")


def find_disjoint_chains(graph, n_chains: int, length: int = 4):
    """Induced chains that are also mutually non-adjacent (union is disjoint)."""
    chains = []
    blocked: set[int] = set()
    for _ in range(n_chains):
        chain = find_induced_chain(graph, length, forbidden=blocked)
        chains.append(chain)
        for u in chain:
            blocked.add(u)
            blocked |= _neighbors(graph, u)
    return chains


def find_disjoint_pairs(graph, n_pairs: int):
    """Adjacent pairs whose union induces exactly n disjoint single edges."""
    pairs = []
    blocked: set[int] = set()
    for e in graph.edges:
        if e.v == graph.boundary_id:
            continue
        if e.u in blocked or e.v in blocked:
            continue
        pairs.append((e.u, e.v))
        for u in (e.u, e.v):
            blocked.add(u)
            blocked |= _neighbors(graph, u)
        if len(pairs) == n_pairs:
            return pairs
    raise AssertionError(f"only {len(pairs)} disjoint pairs available")


def find_two_hop_singletons(graph, table, forbidden: set[int] | None = None):
    """Non-adjacent detectors (s, t) two hops apart."""
    forbidden = forbidden or set()
    for s in range(graph.n_detectors):
        if s in forbidden:
            continue
        for t in range(s + 1, graph.n_detectors):
            if t in forbidden or t in _neighbors(graph, s):
                continue
            if table.hops[s, t] == 2:
                return (s, t)
    raise AssertionError("no two-hop pair found")


def boundary_edge_ids(graph, observable: bool):
    """Boundary-edge ids filtered by whether they cross the observable cut."""
    return [e.id for e in graph.edges
            if e.v == graph.boundary_id and e.flips_observable == observable]
