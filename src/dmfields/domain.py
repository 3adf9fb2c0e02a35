"""Planar domains with holes: grid routing, net selection, separation.

A domain is a disjoint union of polygonal parts (a complement of an
annulus has two), one region over all their rings. Routing runs on an
8-connected grid of strictly interior nodes. A route p -> q tries, in
order: the straight segment; the first bow (one waypoint off the
chord's midpoint) that works; one waypoint beside each nearby reflex
corner; two such waypoints when the best so far is longer than 1.2
|p-q|; and, unless the best is within the length budget, the smoothed
grid path. A later candidate replaces the best only when strictly
shorter, so reported lengths sit close to the true geodesic. Convexity
constants (eps, delta) are either declared by the caller and certified
per route, or estimated from sampled boundary pairs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import (
    DegenerateGeometry,
    DimensionMismatch,
    Disconnected,
    InfeasibleDelta,
    InvalidInput,
    LRCViolation,
    TopologyViolation,
)
from .core import Point, PolyCurve, as_point, dist
from .regions import (
    EPS,
    MAX_COORD,
    PolyRegion,
    _seg_intersections,
    box_region,
    hit_candidates,
    near_edges,
    ring_nesting,
)


@dataclass(frozen=True)
class PolygonalDomain(PolyRegion):
    """A finite union of disjoint polygonal parts with optional declared
    local-convexity constants: any two points at distance <= delta join
    through the open domain by a curve of length <= |p-q|/eps.

    It is the `PolyRegion` over all its parts' rings, in part order, at
    one length tolerance. The rings must form a valid table
    (`ring_nesting`), else InvalidInput: an island in another part's hole
    passes; nested, crossing and touching parts do not. A domain among
    the parts gives its own parts. `outer` and `holes` stay empty
    (`fileio.region_to_json` refuses a domain); `rings()` has them all."""

    parts: tuple[PolyRegion, ...] = ()
    declared_eps: float | None = None
    declared_delta: float | None = None

    def __init__(
        self,
        parts,
        declared_eps: float | None = None,
        declared_delta: float | None = None,
    ):
        if isinstance(parts, PolyRegion):
            parts = (parts,)
        flat = (p.parts if isinstance(p, PolygonalDomain) else (p,) for p in parts)
        parts = tuple(q for ps in flat for q in ps)
        if not parts:
            raise InvalidInput("a domain needs at least one part")
        if declared_eps is not None and not (0.0 < declared_eps <= 1.0):
            raise InvalidInput("declared_eps must lie in (0, 1]")
        if declared_delta is not None and not 0.0 < declared_delta < math.inf:
            raise InvalidInput("declared_delta must lie in (0, inf)")
        object.__setattr__(self, "outer", ())
        object.__setattr__(self, "holes", ())
        object.__setattr__(self, "parts", parts)
        # one part's rings were checked when the part was built
        if len(parts) > 1 and ring_nesting(self.rings(), self.tol) is None:
            raise InvalidInput("each part must lie outside the other parts, meeting none")
        object.__setattr__(self, "declared_eps", declared_eps)
        object.__setattr__(self, "declared_delta", declared_delta)

    def rings(self) -> list[tuple[Point, ...]]:
        return [ring for part in self.parts for ring in part.rings()]

    def with_constants(self, eps: float, delta: float) -> "PolygonalDomain":
        return PolygonalDomain(self.parts, eps, delta)


def _edge_blocks(
    d: PolygonalDomain, a: Point, b: Point, L: float, p: Point, q: Point
) -> bool:
    """Whether boundary edge (p,q) keeps the segment (a,b) of length L
    out of the domain: a crossing inside it, a touch at an endpoint off
    the boundary, or a collinear overlap."""
    tol = d.tol
    try:
        ts = _seg_intersections(a, b, p, q, tol)
    except DegenerateGeometry:
        return True
    for t in ts:
        s = t * L
        if s > tol and L - s > tol:
            return True
        if s <= tol and not d.on_boundary(a):
            return True
        if L - s <= tol and not d.on_boundary(b):
            return True
    return False


def segment_in_domain(d: PolygonalDomain, a: Point, b: Point) -> bool:
    """Whether the open segment (a,b) stays in the open domain; the
    endpoints themselves may sit on the boundary. DimensionMismatch for
    a point off the plane.

    `_edge_blocks` rejects a segment that meets an edge at an interior
    point, touches one at an endpoint off the boundary, or overlaps one
    collinearly (a `DegenerateGeometry` counts as blocked). An accepted
    open segment thus meets no edge and lies on one side of the
    boundary, and its midpoint decides which. The test is conservative:
    a midpoint within `d.tol` of the boundary counts as outside.

    `_edge_blocks` runs only on the edges `near_edges` keeps at `d.tol`:
    on every other edge it would return False."""
    if len(a) != 2 or len(b) != 2:
        raise DimensionMismatch("domains are planar")
    if a == b:
        return False
    L = dist(a, b)
    near = near_edges(d.edge_boxes, a, b, d.tol)
    if any(_edge_blocks(d, a, b, L, p, q) for p, q in near):
        return False
    return d.contains((a[0] + 0.5 * (b[0] - a[0]), a[1] + 0.5 * (b[1] - a[1])))


def segments_in_domain(
    d: PolygonalDomain, A: np.ndarray, B: np.ndarray
) -> np.ndarray:
    """`segment_in_domain` over the rows of two (S, 2) arrays: the
    midpoints go through the batched `contains`, and `_edge_blocks` runs
    only on the segment/edge pairs `hit_candidates` keeps."""
    ok = (A != B).any(axis=1) & d.contains_many(A + 0.5 * (B - A))
    edges = d.boundary_edges()
    for s, e in zip(*hit_candidates(A, B, d.edge_array, d.tol)):
        if ok[s]:
            a, b = tuple(A[s].tolist()), tuple(B[s].tolist())
            if _edge_blocks(d, a, b, dist(a, b), *edges[e]):
                ok[s] = False
    return ok


def _polyline_len(pts: Sequence[Point]) -> float:
    return sum(dist(u, v) for u, v in zip(pts, pts[1:]))


class RoutingGraph:
    """8-connected grid over the open domain. Immutable after build;
    shortest-path queries are pure.

    The build runs on the batched ring kernel: every bbox grid point is
    classified at once, every node's clearance is measured at once, and
    the grid edges that come closer to the boundary than their length
    are checked by one `segments_in_domain` batch. The nodes are indexed
    by a KD-tree, which `nearest_visible` queries once for a whole batch
    of points to hop onto the grid, and by grid position:
    `index[i, j]` is the node at (x0 + i h, y0 + j h), numbered in (i, j)
    order, or -1 off the nodes and in a one-step pad beyond ni and nj.
    `coord_max`, the largest coordinate magnitude on the grid, bounds
    its rounding.

    `adj[u]` holds u's (neighbour, weight) pairs in the order of the grid
    edges (a, k), step k from node a, by a * 4 + k, each edge added at
    both ends: one lexsort on (node, a * 4 + k). As tuples of numbers,
    unlike lists, they drop out of CPython's cyclic collector."""

    def __init__(self, d: PolygonalDomain, h: float):
        if not 0.0 < h < math.inf:
            raise InvalidInput(f"grid step h must lie in (0, inf), got {h}")
        self.domain = d
        self.h = h
        x0, y0, x1, y1 = d.bbox()
        ni = max(1, int(round((x1 - x0) / h)))
        nj = max(1, int(round((y1 - y0) / h)))
        # grid points in (i, j) lexicographic order, p = (x0 + i h, y0 + j h)
        gi, gj = np.divmod(np.arange((ni + 1) * (nj + 1)), nj + 1)
        grid = np.stack([x0 + gi * h, y0 + gj * h], axis=1)
        # each coordinate is monotone in i or j, so the corners hold the largest
        self.coord_max = float(np.abs(grid[[0, -1]]).max())
        ids = np.flatnonzero(d.contains_many(grid))
        pts = grid[ids]
        self.nodes: list[Point] = list(zip(pts[:, 0].tolist(), pts[:, 1].tolist()))
        self.clearance: list[float] = d.boundary_dist_many(pts).tolist()
        n = len(ids)
        # padded with -1 beyond i = ni and j = nj, which also catches j = -1
        index = np.full((ni + 2, nj + 2), -1)
        gi, gj = gi[ids], gj[ids]
        index[gi, gj] = np.arange(n)
        self.index = index
        steps = [(1, 0), (0, 1), (1, 1), (1, -1)]
        nbr = np.stack([index[gi + di, gj + dj] for di, dj in steps], axis=1)
        diag = h * math.sqrt(2.0)
        weights = np.array([h, h, diag, diag])
        # a short edge between nodes with enough clearance cannot meet the
        # boundary; only near-boundary edges get checked
        keep = nbr >= 0
        clear = np.asarray(self.clearance)
        u, k = np.nonzero(keep)
        v = nbr[u, k]
        near = np.minimum(clear[u], clear[v]) < weights[k]
        u, k, v = u[near], k[near], v[near]
        keep[u, k] = segments_in_domain(d, pts[u], pts[v])
        a, k = np.nonzero(keep)
        b = nbr[a, k]
        ends, other, step = np.r_[a, b], np.r_[b, a], np.r_[k, k]
        o = np.lexsort((np.r_[a, a] * 4 + step, ends))
        pairs = list(zip(other[o].tolist(), weights[step[o]].tolist()))
        cuts = np.cumsum(np.bincount(ends, minlength=n)).tolist()
        self.adj = [tuple(pairs[s:e]) for s, e in zip([0, *cuts], cuts)]
        # components are numbered in order of their lowest node
        edges = coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
        c, comp = connected_components(edges, directed=False)
        self.comp: list[int] = comp.tolist()
        self.n_components = int(c)
        self._tree = cKDTree(pts)
        # reflex corners of the boundary (interior angle > pi), used as
        # route waypoints near notches
        self.reflex: list[tuple[Point, Point]] = []  # (vertex, inward dir)
        for ring in d.rings():
            n = len(ring)
            for k in range(n):
                a, v, b = ring[k - 1], ring[k], ring[(k + 1) % n]
                d1 = (v[0] - a[0], v[1] - a[1])
                d2 = (b[0] - v[0], b[1] - v[1])
                u1x, u1y = d1[0] / math.hypot(*d1), d1[1] / math.hypot(*d1)
                u2x, u2y = d2[0] / math.hypot(*d2), d2[1] / math.hypot(*d2)
                # a right turn on a CCW-interior walk (sine below -EPS)
                if u1x * u2y - u1y * u2x < -EPS:
                    # the exterior notch bisects between -d1 and d2;
                    # its opposite points into the domain bulk
                    bis = (u1x - u2x, u1y - u2y)
                    L = math.hypot(*bis)
                    self.reflex.append((v, (bis[0] / L, bis[1] / L)))

    def node_ids(self, pts: Sequence[Point]) -> list[int]:
        """Indices of the given nodes; InvalidInput for a point that is not one."""
        P = np.asarray(pts, dtype=float).reshape(len(pts), 2)
        gap, idx = self._tree.query(P)
        if (gap != 0).any() or (self._tree.data[idx] != P).any():
            raise InvalidInput("net points must be routing-grid nodes")
        return idx.tolist()

    def nearest_visible(self, P: Sequence[Point]) -> list[int]:
        """For each point of P, the index of the closest of the 40 nodes
        nearest to it that it reaches by a straight segment through the
        domain: one KD-tree query for all of them, then one
        `segments_in_domain` batch per rank over the points still
        unresolved. A point within `domain.tol` of a node (by `dist`)
        takes it without a visibility test."""
        if not self.nodes:
            raise Disconnected("empty routing graph")
        A = np.asarray(P, dtype=float).reshape(len(P), 2)
        kk = min(40, len(self.nodes))
        _, near = self._tree.query(A, kk)
        near = near.reshape(len(A), kk)
        hop = np.full(len(A), -1)
        for r in range(kk):
            todo = np.flatnonzero(hop < 0)
            if not todo.size:
                break
            cand = near[todo, r]
            seen = np.array(
                [
                    dist(P[s], self.nodes[i]) <= self.domain.tol
                    for s, i in zip(todo.tolist(), cand.tolist())
                ],
                dtype=bool,
            )
            far = ~seen
            if far.any():
                seen[far] = segments_in_domain(
                    self.domain, A[todo[far]], self._tree.data[cand[far]]
                )
            hop[todo[seen]] = cand[seen]
        lost = np.flatnonzero(hop < 0)
        if lost.size:
            raise Disconnected(f"no grid node visible from {P[lost[0]]}")
        return hop.tolist()

    def dijkstra(self, sources: Iterable[int], target: int | None = None):
        """Shortest-path distances and predecessors from the sources;
        with a target, the search stops once the target is settled.

        dd[target] and its `prev` chain are then those of the full run.
        Popped distances never decrease, since each push adds a positive
        weight to the distance just popped. So once a node is popped and
        not stale, every later relaxation offers it more than its
        distance, which `nd < dd[v] - 1e-15` never accepts: its `dd` and
        `prev` are final. Each node on the target's chain was popped
        before the node after it, so the whole chain is final when the
        target is popped."""
        INF = float("inf")
        dd = [INF] * len(self.nodes)
        prev = [-1] * len(self.nodes)
        heap = []
        for s in sources:
            dd[s] = 0.0
            heap.append((0.0, s))
        heapq.heapify(heap)
        while heap:
            d0, u = heapq.heappop(heap)
            if d0 > dd[u] + 1e-15:
                continue
            if u == target:
                break
            for v, w in self.adj[u]:
                nd = d0 + w
                if nd < dd[v] - 1e-15:
                    dd[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
        return dd, prev


@lru_cache(maxsize=64)
def routing_graph(d: PolygonalDomain, h: float) -> RoutingGraph:
    """The routing graph of (d, h), built once per key while it stays
    among the 64 most recently used. Callers pass (d, h) positionally:
    a keyword call would be a key of its own."""
    return RoutingGraph(d, h)


def _shortcut(d: PolygonalDomain, pts: list[Point]) -> list[Point]:
    """Greedy string-pulling: from each vertex jump to the farthest
    later vertex reachable by a straight in-domain segment."""
    out = [pts[0]]
    i = 0
    while i < len(pts) - 1:
        j = len(pts) - 1
        while j > i + 1 and not segment_in_domain(d, pts[i], pts[j]):
            j -= 1
        out.append(pts[j])
        i = j
    return out


def _reaches(d: PolygonalDomain, a: Point, w: Point) -> bool:
    """Whether waypoint w lies in the domain and a sees it."""
    return d.contains(w) and segment_in_domain(d, a, w)


def _route_points(d: PolygonalDomain, p: Point, q: Point, h: float) -> list[Point]:
    if dist(p, q) <= d.tol or segment_in_domain(d, p, q):
        return [p, q]
    # single-waypoint bows perpendicular to the chord, both sides,
    # growing amplitude; covers boundary-to-boundary chords along a wall
    L = dist(p, q)
    mx, my = (p[0] + q[0]) / 2, (p[1] + q[1]) / 2
    nx, ny = -(q[1] - p[1]) / L, (q[0] - p[0]) / L
    bows = (
        (mx + sign * s * L * nx, my + sign * s * L * ny)
        for s in (0.05, 0.1, 0.2, 0.35, 0.5, 0.75)
        for sign in (1.0, -1.0)
    )
    best = next(
        ([p, w, q] for w in bows if _reaches(d, p, w) and segment_in_domain(d, w, q)),
        None,
    )

    def offer(cand: list[Point]) -> None:
        nonlocal best
        if best is None or _polyline_len(cand) < _polyline_len(best):
            best = cand

    # around one or two reflex corners near the chord, offset inward
    g = routing_graph(d, h)

    def detour(r: tuple[Point, Point]) -> float:
        return dist(r[0], p) + dist(r[0], q)

    near = sorted((r for r in g.reflex if detour(r) <= 3.0 * L + 1.0), key=detour)[:8]
    off = min(0.2 * L, 0.5 * h + 0.05 * L)
    corners = [(v, (v[0] + off * u[0], v[1] + off * u[1])) for v, u in near]
    for _, w in corners:
        if _reaches(d, p, w) and segment_in_domain(d, w, q):
            offer([p, w, q])
    if best is None or _polyline_len(best) > 1.2 * L:
        for v1, w1 in corners:
            if not _reaches(d, p, w1):
                continue
            for v2, w2 in corners:
                if v2 != v1 and _reaches(d, w1, w2) and segment_in_domain(d, w2, q):
                    offer([p, w1, w2, q])
    # a cheap candidate well inside any declared length budget wins
    # outright; otherwise compare against the grid geodesic
    budget = 0.9 * L / d.declared_eps if d.declared_eps is not None else 1.5 * L
    if best is not None and _polyline_len(best) <= budget:
        return best
    # grid fallback
    a, b = g.nearest_visible([p, q])
    if g.comp[a] != g.comp[b]:
        raise Disconnected(f"{p} and {q} lie in different components")
    dd, prev = g.dijkstra([a], b)
    if dd[b] == float("inf"):
        raise Disconnected(f"no grid path between {p} and {q}")
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    pts = [p] + [g.nodes[u] for u in reversed(path)] + [q]
    # drop duplicated endpoints when p/q coincide with grid nodes
    dedup = [pts[0]]
    for x in pts[1:]:
        if dist(x, dedup[-1]) > d.tol:
            dedup.append(x)
    offer(_shortcut(d, dedup))
    return best


def route(d: PolygonalDomain, p: Point, q: Point, h: float = 0.02) -> PolyCurve:
    """A polygonal path p -> q through the open domain. When convexity
    constants are declared and |p-q| <= delta, the length bound
    len <= |p-q|/eps is asserted (LRCViolation on failure).
    DimensionMismatch for a point off the plane, InvalidInput for an
    endpoint that is not finite or lies beyond `MAX_COORD`, or for a
    grid step h outside (0, inf)."""
    if len(p) != 2 or len(q) != 2:
        raise DimensionMismatch("domains are planar")
    if not 0.0 < h < math.inf:
        raise InvalidInput(f"grid step h must lie in (0, inf), got {h}")
    p, q = as_point(p, MAX_COORD), as_point(q, MAX_COORD)
    # symmetric by construction: always solve the lexicographically
    # smaller orientation
    flip = q < p
    a, b = (q, p) if flip else (p, q)
    pts = _route_points(d, a, b, h)
    if flip:
        pts = pts[::-1]
    curve = PolyCurve(pts, 1.0)
    if (
        d.declared_eps is not None
        and d.declared_delta is not None
        and dist(p, q) <= d.declared_delta + d.tol
    ):
        bound = dist(p, q) / d.declared_eps
        if curve.length() > bound * (1.0 + 1e-9):
            raise LRCViolation(
                f"route length {curve.length():.6f} exceeds "
                f"{bound:.6f} for |p-q|={dist(p, q):.6f}"
            )
    return curve


def select_lambda(d: PolygonalDomain, delta: float, h: float = 0.02) -> list[Point]:
    """Greedy interior net: scan uncovered grid nodes in lexicographic
    order; for each, pick the clearance-maximizing node of the same
    component within delta that has clearance >= delta/2. The result
    covers every interior grid node and touches every component.

    A node v lies within delta of a node c when r = hypot(v - c) <= delta,
    `dist` deciding where |r - delta| <= 1e-9 delta. The ball is one
    stencil of grid offsets (di, dj), cut at the grid's size, with rho =
    h hypot(di, dj) and margin m = 1e-6 delta + 16 ulp(M), M the graph's
    `coord_max`. Offsets with rho <= delta - m are taken with no float
    test, those beyond delta + m dropped, and the ring between gets the
    test above on the nodes' coordinates. The margin keeps the test's
    answer: a grid coordinate x0 + i h is rounded twice, so it lies
    within 3 u M of its exact value (u = 2^-53), a difference of two
    within 8 u M of di h, and r within 12 u M + 5 u delta of rho near
    delta, less than m - 1e-9 delta at any scale or translation."""
    if not 0.0 < delta < math.inf:
        raise InvalidInput(f"delta must lie in (0, inf), got {delta}")
    if d.declared_delta is not None and delta > d.declared_delta + d.tol:
        raise InvalidInput("delta exceeds the declared constant")
    g = routing_graph(d, h)
    if not g.nodes:
        raise InfeasibleDelta("no interior grid nodes")
    pts = g._tree.data
    clear = np.asarray(g.clearance)
    comp = np.asarray(g.comp)
    deep = clear >= delta / 2
    m = 1e-6 * delta + 16 * math.ulp(g.coord_max)
    # the stencil's half-widths, and the grid index padded by them with -1
    ni, nj = (s - 2 for s in g.index.shape)
    reach = (delta + m) / h
    Ri, Rj = (n if reach >= n else int(reach) + 1 for n in (ni, nj))
    pad = np.pad(g.index[: ni + 1, : nj + 1], ((Ri, Ri), (Rj, Rj)), constant_values=-1)
    di, dj = np.indices((2 * Ri + 1, 2 * Rj + 1)).reshape(2, -1) - [[Ri], [Rj]]
    rho, off = h * np.hypot(di, dj), di * pad.shape[1] + dj
    sure, ring = off[rho <= delta - m], off[(delta - m < rho) & (rho <= delta + m)]
    pad = pad.ravel()
    base = np.flatnonzero(pad >= 0)  # each node's place in pad, in node order

    def within_delta(c: int) -> np.ndarray:
        idx = pad[base[c] + sure]
        near = pad[base[c] + ring]
        idx, near = idx[idx >= 0], near[near >= 0]
        r = np.hypot(*(pts[near] - pts[c]).T)
        inside = r <= delta
        for k in np.flatnonzero(np.abs(r - delta) <= 1e-9 * delta):
            inside[k] = dist(g.nodes[near[k]], g.nodes[c]) <= delta
        return np.concatenate([idx, near[inside]])

    order = sorted(range(len(g.nodes)), key=lambda i: g.nodes[i])
    covered = np.zeros(len(g.nodes), dtype=bool)
    chosen: list[Point] = []
    for u in order:
        if covered[u]:
            continue
        cands = within_delta(u)
        cands = cands[deep[cands] & (comp[cands] == comp[u])]
        if not cands.size:
            raise InfeasibleDelta(
                f"no node with clearance >= {delta / 2} within {delta} of {g.nodes[u]}"
            )
        # deepest candidate first; among equally deep ones prefer the one
        # farthest from the scan point so coverage advances in big steps
        pick = max(
            cands[clear[cands] == clear[cands].max()].tolist(),
            key=lambda i: (
                dist(g.nodes[i], g.nodes[u]),
                tuple(-c for c in g.nodes[i]),
            ),
        )
        chosen.append(g.nodes[pick])
        covered[within_delta(pick)] = True
    return chosen


def _boundary_samples(d: PolygonalDomain) -> list[Point]:
    """400 points spaced evenly by arc length along the boundary edges,
    the first half a step from the start."""
    edges = d.boundary_edges()
    total_len = sum(dist(a, b) for a, b in edges)
    samples: list[Point] = []
    step = total_len / 400
    acc = 0.0
    target = step / 2
    for a, b in edges:
        L = dist(a, b)
        while target <= acc + L:
            t = (target - acc) / L
            samples.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
            target += step
        acc += L
    return samples


def separation(d: PolygonalDomain, lam: Sequence[Point], h: float = 0.02) -> float:
    """Upper-biased estimate of the worst geodesic distance from the
    boundary to the net, whose points must be graph nodes: 400 evenly
    spaced boundary samples hop to their nearest visible grid nodes in
    one `nearest_visible` call and continue by multi-source shortest
    path."""
    if not lam:
        raise Disconnected("empty net")
    g = routing_graph(d, h)
    dd, _ = g.dijkstra(g.node_ids(lam))
    samples = _boundary_samples(d)
    worst = 0.0
    for s, i in zip(samples, g.nearest_visible(samples)):
        if dd[i] == float("inf"):
            raise Disconnected(f"boundary sample {s} cannot reach the net")
        worst = max(worst, dist(s, g.nodes[i]) + dd[i])
    return worst


def complement_region(d: PolygonalDomain, box: PolyRegion) -> PolygonalDomain:
    """The domain box minus the closure of d, from one ring table: the
    box's rings, holes included, then d's rings reversed. The table must
    be valid (`ring_nesting`), so d's closure lies strictly inside the
    box and outside its holes, else InvalidInput. Each ring at even depth
    bounds a part, holed by the rings one level deeper inside it: the
    frame, and an island per hole of d. The boundary of d must separate
    two sides everywhere (no slits), else TopologyViolation."""
    rings = [*box.rings(), *(r[::-1] for r in d.rings())]
    inside = ring_nesting(rings, max(box.tol, d.tol))
    if inside is None:
        raise InvalidInput("domain closure must lie strictly inside the box, off its holes")
    # probes 1e-6 edge lengths off each edge's midpoint, one on each side
    E = d.edge_array
    off = 1e-6 * np.stack([E[:, 1] - E[:, 3], E[:, 2] - E[:, 0]], axis=1)
    mid = (E[:, :2] + E[:, 2:]) / 2
    side = d.contains_many(np.concatenate([mid + off, mid - off])).reshape(2, -1)
    for (a, b), s, t in zip(d.boundary_edges(), *side):
        if s == t:
            raise TopologyViolation(f"boundary edge {a}->{b} does not separate two sides")
    parts = []
    for k, (r, up) in enumerate(zip(rings, inside)):
        if len(up) % 2 == 0:
            holes = [s for s, v in zip(rings, inside) if len(v) == len(up) + 1 and k in v]
            parts.append(PolyRegion(r, holes))
    return PolygonalDomain(parts)


# ---------------------------------------------------------------------------
# presets


def koch_preset(iterations: int) -> PolygonalDomain:
    """Koch-snowflake prefix on a unit-side equilateral triangle;
    3 * 4^iterations boundary edges."""
    if not (0 <= iterations <= 7):
        raise InvalidInput("iterations must lie in 0..7")
    s3 = math.sqrt(3.0)
    ring: list[Point] = [(0.0, 0.0), (1.0, 0.0), (0.5, s3 / 2)]
    for _ in range(iterations):
        new: list[Point] = []
        n = len(ring)
        for i in range(n):
            a, b = ring[i], ring[(i + 1) % n]
            dx, dy = b[0] - a[0], b[1] - a[1]
            p1 = (a[0] + dx / 3, a[1] + dy / 3)
            p2 = (a[0] + 2 * dx / 3, a[1] + 2 * dy / 3)
            # outward normal of a CCW ring points right of the edge
            L = math.hypot(dx, dy)
            nx, ny = dy / L, -dx / L
            apex = (
                (a[0] + b[0]) / 2 + nx * L * s3 / 6,
                (a[1] + b[1]) / 2 + ny * L * s3 / 6,
            )
            new.extend([a, p1, apex, p2])
        ring = new
    return PolygonalDomain(PolyRegion(ring))


def domain_preset(name: str) -> PolygonalDomain:
    """Named domains with conservative declared convexity constants."""
    if name == "square":
        return PolygonalDomain(box_region(0, 0, 1, 1), 0.5, 0.4)
    if name == "annulus":
        n = 32
        outer = [
            (2 * math.cos(2 * math.pi * k / n), 2 * math.sin(2 * math.pi * k / n))
            for k in range(n)
        ]
        inner = [
            (math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))
            for k in range(n)
        ]
        return PolygonalDomain(PolyRegion(outer, [inner]), 0.4, 0.4)
    if name == "lshape":
        ring = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
        return PolygonalDomain(PolyRegion(ring), 0.4, 0.4)
    if name == "koch2":
        d = koch_preset(2)
        return d.with_constants(0.25, 0.2)
    raise InvalidInput(f"unknown preset {name!r}")
