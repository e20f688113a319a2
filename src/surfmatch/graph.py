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

There are no diagonal space-time edges, and every round has the same
spacelike and boundary edges: ``DetectorGraph`` builds round 0 and repeats
it.  The detector graph is therefore, by construction, the Cartesian
product of one round's check graph and a path of ``rounds`` nodes, and
the fewest hops between check ``a`` in round ``s`` and check ``b`` in
round ``u`` are ``D[a, b] + |s - u|``, with ``D`` the hop counts of one
round.
``PathTable`` is built from that product form.  Every edge flips with the
same prior ``p``, stored once as ``DetectorGraph.p``, so every edge weighs
the same and a path's weight is its hop count.  The logical observable is
a horizontal operator crossing the lattice; the spacelike edges in
data-qubit column 0 cross its cut and are flagged ``flips_observable``,
identically in every round.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

# Id used for the boundary node in exported JSON.  Internally the boundary
# node is ``n_detectors`` so that detector ids stay usable as array indices.
BOUNDARY_JSON_ID = -1


def check_integer(name: str, value) -> None:
    """Refuse a count that is a ``bool`` or not an ``Integral``."""
    # A plain int, the common case on the decode path, skips the ABC check.
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
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
    """Decoding graph plus its adjacency lists.

    Built from round 0 alone: its ``n_checks`` checks, and for each data
    qubit ``q`` in row-major order the one or two checks it touches.  Every
    round repeats round 0, so the product form holds by construction:

    * detector ``t * n_checks + a`` is check ``a`` in round ``t``;
    * the edge of qubit ``q`` in round ``t`` has id ``t * d**2 + q`` and
      lists its lower detector id first, the boundary last;
    * the timelike edge of check ``a`` between rounds ``t`` and ``t + 1``
      has id ``rounds * d**2 + t * n_checks + a``.

    Round 0 is the only copy kept of what every round repeats: check
    ``a``'s (x, y) plaquette position ``check_coords[a]`` (y = -1 is the
    row above the lattice), the ``(b, edge id)`` of its spacelike edges in
    ascending ``b``, ``check_neighbors[a]``, and its boundary edge ids,
    ``check_exits[a]``; a later round's ids add whole rounds by the layout
    above.  Only ``edges`` and ``detector_neighbors``, which decodes read
    per edge and per defect, cover every round.  Treat instances as
    immutable.
    """

    def __init__(self, distance: int, rounds: int | None, p: float):
        check_code_params(distance, rounds, p)
        if rounds is None:
            rounds = distance
        plaqs = _z_plaquettes(distance)
        index = {q: i for i, q in enumerate(plaqs)}
        m = len(plaqs)
        self.distance, self.rounds, self.p = distance, rounds, p
        self.n_checks = m
        self.n_detectors = self.boundary_id = boundary = rounds * m
        self.check_coords = [(pc, pr) for pr, pc in plaqs]

        # Round 0: the checks each data qubit touches, (a, b) with a < b, or
        # (a, None) for a qubit on an open side.
        qubits = []
        self.check_neighbors: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        self.check_exits: list[list[int]] = [[] for _ in range(m)]
        for r in range(distance):
            for c in range(distance):
                adj = sorted(index[q] for q in ((r - 1, c - 1), (r - 1, c), (r, c - 1), (r, c))
                             if q in index)
                a, b = adj if len(adj) == 2 else (*adj, None)
                if b is None:
                    self.check_exits[a].append(len(qubits))
                else:
                    self.check_neighbors[a].append((b, len(qubits)))
                    self.check_neighbors[b].append((a, len(qubits)))
                qubits.append((a, b, c == 0))
        for lst in self.check_neighbors:
            lst.sort()

        per_round = distance * distance
        timelike = rounds * per_round  # id of the first timelike edge
        self.edges = [Edge(t * per_round + q, t * m + a,
                           boundary if b is None else t * m + b, obs)
                      for t in range(rounds) for q, (a, b, obs) in enumerate(qubits)]
        self.edges += [Edge(timelike + i, i, i + m, False) for i in range((rounds - 1) * m)]
        self.detector_neighbors: list[list[tuple[int, int]]] = []
        for t in range(rounds):
            base, shift = t * m, t * per_round
            for a in range(m):
                i = base + a
                nbrs = [(base + b, shift + eid) for b, eid in self.check_neighbors[a]]
                if t:
                    nbrs.insert(0, (i - m, timelike + i - m))
                if t < rounds - 1:
                    nbrs.append((i + m, timelike + i))
                self.detector_neighbors.append(nbrs)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def to_json(self) -> str:
        doc = {
            "distance": self.distance,
            "rounds": self.rounds,
            "p": self.p,
            "nodes": [
                {"id": t * self.n_checks + a, "x": x, "y": y, "round": t}
                for t in range(self.rounds) for a, (x, y) in enumerate(self.check_coords)
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
    return DetectorGraph(distance, rounds, p)


class PathTable:
    """All-pairs fewest-edge paths between detectors, plus boundary routes.

    Every edge weighs the same, so a path weighs its hop count and the
    table stores hop counts: ``hops[i, j]`` between detectors and
    ``boundary_hops[i]`` for the route out through the boundary.
    Detector-to-detector paths never pass through the boundary node.  The
    boundary route of ``i`` is the shortest detector path from ``i`` to the
    lowest-id nearest detector with a boundary edge, ``boundary_via[i]``,
    plus that detector's first boundary edge, ``boundary_edge[i]``; it
    never leaves the round of ``i``.  ``boundary_obs[i]``, a plain list of
    0s and 1s, is that edge's ``flips_observable``.  Only boundary edges
    flip the observable, so a matching's observable parity is the XOR of
    ``boundary_obs`` over its boundary-matched defects: its pair paths and
    the first legs of its boundary routes join detectors.

    The graph is one round's check graph times a path of rounds, so no
    per-pair route is stored.  The chosen path from ``i`` to ``j``, walked
    back from ``j``, always steps to the highest-id neighbour one hop nearer
    ``i``: when ``i`` lies in a later round it first climbs to that round,
    then steps within the round by ``pred``, and when ``i`` lies in an
    earlier round it steps within ``j``'s round first and descends last.
    ``pred[a][c]`` is the highest-id neighbour of check ``c`` one hop nearer
    check ``a`` within a round (``pred[a][a]`` is ``a``), and
    ``pred_edge[a][c]`` the round-0 id of the edge joining them (-1 for
    ``c == a``); a path's edge ids follow from these by the id layout.
    """

    def __init__(self, graph: DetectorGraph, hops: np.ndarray,
                 boundary_hops: np.ndarray, boundary_via: np.ndarray,
                 boundary_edge: np.ndarray, boundary_obs: list[int],
                 pred: list[list[int]], pred_edge: list[list[int]]):
        self.graph = graph
        self.n = graph.n_detectors
        self.n_checks = len(pred)
        self.hops = hops
        self.boundary_hops = boundary_hops
        self.boundary_via = boundary_via
        self.boundary_edge = boundary_edge
        self.boundary_obs = boundary_obs
        self.pred = pred
        self.pred_edge = pred_edge


def build_path_table(graph: DetectorGraph) -> PathTable:
    """Precompute fewest-edge paths among detectors and to the boundary.

    One breadth-first search per check over round 0 gives the in-round hop
    counts ``D``; between rounds ``s`` and ``u`` a path adds ``|s - u|``
    timelike hops.
    """
    n, rounds, m = graph.n_detectors, graph.rounds, graph.n_checks
    # Round 0's check graph, each neighbour list in ascending id order.
    neighbours = graph.check_neighbors
    dist, pred, pred_edge = [], [], []
    for a in range(m):
        hops_a = [-1] * m
        pred_a = [a] * m
        edge_a = [-1] * m
        hops_a[a] = 0
        frontier = [a]
        level = 0
        while frontier:
            level += 1
            # Scanned from the highest id down, the first check to reach w
            # is w's highest-id neighbour one hop nearer a.
            frontier.sort(reverse=True)
            nxt = []
            for c in frontier:
                for w, eid in neighbours[c]:
                    if hops_a[w] < 0:
                        hops_a[w] = level
                        pred_a[w] = c
                        edge_a[w] = eid
                        nxt.append(w)
            frontier = nxt
        if -1 in hops_a:
            raise ValueError("detector subgraph is not connected")
        dist.append(hops_a)
        pred.append(pred_a)
        pred_edge.append(edge_a)
    d = np.array(dist, dtype=np.int16)
    rs = np.arange(rounds, dtype=np.int16)
    dt = np.abs(rs[:, None] - rs[None, :])
    hops = (dt[:, None, :, None] + d[None, :, None, :]).reshape(n, n)

    # The nearest boundary-adjacent check of round 0; argmin keeps the
    # lowest id.  A later round is the same route shifted by whole rounds.
    exits = np.array([c for c, ids in enumerate(graph.check_exits) if ids])
    via0 = exits[np.argmin(d[:, exits], axis=1)]
    shift = np.arange(rounds)[:, None]
    via = (shift * m + via0).reshape(n)
    boundary_hops = np.tile(d[np.arange(m), via0] + 1, rounds).astype(np.int16)
    first_exit = np.array([graph.check_exits[c][0] for c in via0])
    boundary_edge = (shift * graph.distance ** 2 + first_exit).reshape(n)
    # Edge q of round 0 is qubit q's, and every round flags the same qubits.
    boundary_obs = [int(graph.edges[q].flips_observable) for q in first_exit.tolist()] * rounds
    return PathTable(graph, hops, boundary_hops, via, boundary_edge, boundary_obs,
                     pred, pred_edge)


def reconstruct_path(table: PathTable, i: int, j: int) -> list[int]:
    """Edge ids of the chosen shortest path between detectors i and j."""
    n = table.n
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"detector ids must be in [0, {n}), got {i} and {j}")
    if i == j:
        raise ValueError("no path from a node to itself")
    m, graph = table.n_checks, table.graph
    s, a = divmod(i, m)
    u, b = divmod(j, m)
    per_round = graph.distance ** 2
    timelike = graph.rounds * per_round  # plus the lower detector's id
    # Walked back from j, reversed at the end: up to round s if i lies in a
    # later round, within round r (made an int, so that numpy ids give int
    # edge ids), then down to round s if i lies in an earlier one.
    if s > u:
        path, r = list(range(timelike + j, timelike + s * m + b, m)), s
    else:
        path, r = [], u
    step, via, shift = table.pred[a], table.pred_edge[a], int(r) * per_round
    c = b
    while c != a:
        path.append(shift + via[c])
        c = step[c]
    if s < u:
        path += range(timelike + (u - 1) * m + a, timelike + i - m, -m)
    path.reverse()
    return path


def reconstruct_boundary_path(table: PathTable, i: int) -> list[int]:
    """Edge ids of the chosen shortest path from detector i to the boundary."""
    if not 0 <= i < table.n:
        raise ValueError(f"detector id must be in [0, {table.n}), got {i}")
    via = int(table.boundary_via[i])
    path = [] if via == i else reconstruct_path(table, i, via)
    path.append(int(table.boundary_edge[i]))
    return path
