"""Decoding graph for one stabilizer type of a rotated surface code.

The graph covers ``rounds`` rounds of syndrome extraction for the Z-type
checks of a distance ``d`` rotated surface code.  Nodes are detectors (one
per check per round); a single virtual boundary node absorbs error chains
that leave the lattice through its open sides.  Edges are independent error
mechanisms:

* spacelike  -- a data-qubit error inside one round, connecting the one or
  two checks that see it (one check means a boundary edge),
* timelike   -- a measurement error, connecting the same check in two
  consecutive rounds.

There are no diagonal space-time edges.  Every edge flips with the same
prior ``p``, stored once as ``DetectorGraph.p``, so every edge weighs the
same and a path's weight is its hop count.  The logical observable is a
horizontal operator crossing the lattice; the spacelike edges in
data-qubit column 0 cross its cut and are flagged ``flips_observable``,
identically in every round.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _dijkstra

# Id used for the boundary node in exported JSON.  Internally the boundary
# node is ``n_detectors`` so that detector ids stay usable as array indices.
BOUNDARY_JSON_ID = -1

_UNREACHABLE = -9999  # scipy's predecessor sentinel


def check_integer(name: str, value) -> None:
    """Refuse a count that is a ``bool`` or not an ``Integral``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_real(name: str, value) -> None:
    """Refuse a quantity that is a ``bool`` or not a ``Real``."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def check_code_params(distance, rounds, p) -> None:
    """Refuse a code ``distance``, ``rounds`` or ``p`` no graph is built for.

    ``distance`` must be an odd integer >= 3, ``rounds`` an integer >= 1 or
    None, and ``p`` a real number in (0, 0.5).  The types are checked
    before the ranges.
    """
    check_integer("distance", distance)
    if rounds is not None:
        check_integer("rounds", rounds)
    check_real("p", p)
    if distance < 3 or distance % 2 == 0:
        raise ValueError(f"distance must be an odd integer >= 3, got {distance}")
    if rounds is not None and rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    # Written so that NaN, for which every comparison is false, fails.
    if not 0.0 < p < 0.5:
        raise ValueError(f"p must be in (0, 0.5), got {p}")


@dataclass(frozen=True)
class Detector:
    """One parity check in one round.

    ``space_coord`` is the (x, y) position of the check on the plaquette
    grid (x = column, y = row; y = -1 is the row of half-plaquettes above
    the lattice).
    """

    id: int
    space_coord: tuple[int, int]
    round: int


@dataclass(frozen=True)
class Edge:
    """A single independent error mechanism; it flips with the graph's ``p``."""

    id: int
    u: int
    v: int
    flips_observable: bool


def _z_plaquettes(d: int) -> list[tuple[int, int]]:
    """Positions (row, col) of the Z-type checks of a distance-d rotated code.

    Interior plaquettes follow the checkerboard (row + col even); weight-2
    half-plaquettes of this type sit on the top and bottom lattice sides.
    """
    out = []
    for pr in range(-1, d):
        for pc in range(-1, d):
            if (pr + pc) % 2 != 0:
                continue
            if 0 <= pr <= d - 2 and 0 <= pc <= d - 2:
                out.append((pr, pc))
            elif pr in (-1, d - 1) and 0 <= pc <= d - 2:
                out.append((pr, pc))
    return out


class DetectorGraph:
    """Decoding graph plus adjacency and edge lookup tables.

    Treat instances as immutable after construction; derived tables are
    built once here.
    """

    def __init__(self, distance: int, rounds: int, p: float,
                 nodes: list[Detector], edges: list[Edge], boundary_id: int):
        self.distance = distance
        self.rounds = rounds
        self.p = p
        self.nodes = nodes
        self.edges = edges
        self.boundary_id = boundary_id
        self.n_detectors = len(nodes)

        self.adjacency: list[list[int]] = [[] for _ in range(self.n_detectors + 1)]
        self._boundary_edges: list[list[int]] = [[] for _ in range(self.n_detectors)]
        self._pair_to_edge: dict[tuple[int, int], int] = {}
        self.detector_neighbors: list[list[tuple[int, int]]] = [
            [] for _ in range(self.n_detectors)
        ]
        for e in edges:
            self.adjacency[e.u].append(e.id)
            self.adjacency[e.v].append(e.id)
            if e.v == boundary_id:
                self._boundary_edges[e.u].append(e.id)
            else:
                self._pair_to_edge[(e.u, e.v)] = e.id
                self.detector_neighbors[e.u].append((e.v, e.id))
                self.detector_neighbors[e.v].append((e.u, e.id))
        for lst in self.detector_neighbors:
            lst.sort()

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_between(self, u: int, v: int) -> Edge | None:
        """The detector-detector edge joining u and v, if any."""
        if u > v:
            u, v = v, u
        eid = self._pair_to_edge.get((u, v))
        return None if eid is None else self.edges[eid]

    def boundary_edges_of(self, u: int) -> list[int]:
        """Ids of the boundary edges incident to detector u (may be several)."""
        return self._boundary_edges[u]

    def validate(self) -> None:
        # Written so that NaN, for which every comparison is false, fails.
        if not 0.0 < self.p < 0.5:
            raise ValueError(f"p must be in (0, 0.5), got {self.p}")
        d, r = self.distance, self.rounds
        n_checks = (d * d - 1) // 2
        if self.n_detectors != r * n_checks:
            raise ValueError("detector count does not match lattice")
        if self.boundary_id != self.n_detectors:
            raise ValueError("boundary id must follow the detector ids")
        expected_edges = r * d * d + (r - 1) * n_checks
        if self.n_edges != expected_edges:
            raise ValueError("edge count does not match lattice")
        if any(e.u == self.boundary_id for e in self.edges):
            raise ValueError("boundary must be the v endpoint")
        n_obs = sum(1 for e in self.edges if e.flips_observable)
        if n_obs != r * d:
            raise ValueError("observable cut must contain d spacelike edges per round")
        # Connectivity over detectors + boundary.
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for eid in self.adjacency[u]:
                e = self.edges[eid]
                for w in (e.u, e.v):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        if len(seen) != self.n_detectors + 1:
            raise ValueError("decoding graph is not connected")

    def to_json(self) -> str:
        doc = {
            "distance": self.distance,
            "rounds": self.rounds,
            "p": self.p,
            "nodes": [
                {"id": n.id, "x": n.space_coord[0], "y": n.space_coord[1],
                 "round": n.round}
                for n in self.nodes
            ],
            "edges": [
                {"id": e.id, "u": e.u,
                 "v": BOUNDARY_JSON_ID if e.v == self.boundary_id else e.v,
                 "obs": e.flips_observable}
                for e in self.edges
            ],
        }
        return json.dumps(doc)


def build_decoding_graph(distance: int, rounds: int | None = None,
                         p: float = 1e-3) -> DetectorGraph:
    """Build the Z-check decoding graph of a rotated surface code.

    Args:
        distance: odd code distance >= 3.
        rounds: number of measurement rounds (defaults to ``distance``).
        p: uniform prior of every error mechanism, in (0, 0.5).

    Raises ``ValueError`` for any other value, a ``bool`` or a non-number
    among them, before building anything (``check_code_params``).
    """
    check_code_params(distance, rounds, p)
    if rounds is None:
        rounds = distance

    plaqs = _z_plaquettes(distance)
    index = {q: i for i, q in enumerate(plaqs)}
    n_checks = len(plaqs)
    boundary_id = rounds * n_checks

    nodes = [Detector(t * n_checks + i, (pc, pr), t)
             for t in range(rounds) for i, (pr, pc) in enumerate(plaqs)]

    edges: list[Edge] = []
    for t in range(rounds):
        base = t * n_checks
        for r in range(distance):
            for c in range(distance):
                corners = [(r - 1, c - 1), (r - 1, c), (r, c - 1), (r, c)]
                adj = [index[q] for q in corners if q in index]
                if len(adj) not in (1, 2):
                    raise AssertionError("data qubit must touch 1 or 2 checks")
                obs = c == 0
                if len(adj) == 2:
                    u, v = sorted(base + i for i in adj)
                    edges.append(Edge(len(edges), u, v, obs))
                else:
                    edges.append(Edge(len(edges), base + adj[0], boundary_id, obs))
    for t in range(rounds - 1):
        for i in range(n_checks):
            edges.append(Edge(len(edges), t * n_checks + i,
                              (t + 1) * n_checks + i, False))

    g = DetectorGraph(distance, rounds, p, nodes, edges, boundary_id)
    g.validate()
    return g


class PathTable:
    """All-pairs fewest-edge paths between detectors, plus boundary routes.

    Every edge weighs the same, so a path weighs its hop count and the
    table stores hop counts: ``hops[i, j]`` between detectors and
    ``boundary_hops[i]`` for the route out through the boundary.
    Detector-to-detector paths never pass through the boundary node.  The
    boundary route of ``i`` is the shortest detector path from ``i`` to the
    lowest-id nearest detector with a boundary edge, ``boundary_via[i]``,
    plus that detector's first boundary edge, ``boundary_edge[i]``.

    ``route[i, j]`` is the predecessor of ``j`` on the chosen shortest path
    from ``i``; together with the graph's edge lookup it reconstructs the
    full edge list of any path.
    """

    def __init__(self, graph: DetectorGraph, hops: np.ndarray,
                 route: np.ndarray, boundary_hops: np.ndarray,
                 boundary_via: np.ndarray, boundary_edge: np.ndarray):
        self.graph = graph
        self.n = graph.n_detectors
        self.hops = hops
        self.route = route
        self.boundary_hops = boundary_hops
        self.boundary_via = boundary_via
        self.boundary_edge = boundary_edge


def build_path_table(graph: DetectorGraph) -> PathTable:
    """Precompute fewest-edge paths among detectors and to the boundary."""
    n = graph.n_detectors
    rows, cols = [], []
    for e in graph.edges:
        if e.v != graph.boundary_id:
            rows.extend((e.u, e.v))
            cols.extend((e.v, e.u))
    mat = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    dist, pred = _dijkstra(mat, directed=True, return_predecessors=True)
    if not np.all(np.isfinite(dist)):
        raise ValueError("detector subgraph is not connected")
    hops = dist.astype(np.int16)

    # The nearest boundary-adjacent detector; argmin keeps the lowest id.
    exits = np.array([u for u in range(n) if graph.boundary_edges_of(u)])
    via = exits[np.argmin(hops[:, exits], axis=1)]
    boundary_hops = (hops[np.arange(n), via] + 1).astype(np.int16)
    boundary_edge = np.array([graph.boundary_edges_of(int(u))[0] for u in via])
    return PathTable(graph, hops, pred, boundary_hops, via, boundary_edge)


def reconstruct_path(table: PathTable, i: int, j: int) -> list[int]:
    """Edge ids of the chosen shortest path between detectors i and j."""
    if i == j:
        raise ValueError("no path from a node to itself")
    path = []
    k = j
    while k != i:
        pk = int(table.route[i, k])
        if pk == _UNREACHABLE:
            raise ValueError(f"no path between {i} and {j}")
        edge = table.graph.edge_between(pk, k)
        if edge is None:
            raise ValueError("route table references a missing edge")
        path.append(edge.id)
        k = pk
    path.reverse()
    return path


def reconstruct_boundary_path(table: PathTable, i: int) -> list[int]:
    """Edge ids of the chosen shortest path from detector i to the boundary."""
    via = int(table.boundary_via[i])
    path = [] if via == i else reconstruct_path(table, i, via)
    path.append(int(table.boundary_edge[i]))
    return path
