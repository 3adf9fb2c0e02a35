"""Planar domains with holes: grid routing, net selection, separation.

A domain is a disjoint union of polygonal parts (a complement of an
annulus has two, so one outer ring is not enough). Routing runs on an
8-connected grid of strictly interior nodes; query paths are shortened
by straight-segment, bowed and corner-waypoint candidates before
falling back to grid search, so reported lengths sit close to the true
geodesic. Convexity constants (eps, delta) are either declared by the
caller and certified per route, or estimated from sampled boundary
pairs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DegenerateGeometry,
    Disconnected,
    InfeasibleDelta,
    LRCViolation,
    TopologyViolation,
)
from .core import Point, PolyCurve, dist
from .regions import (
    EPS,
    PolyRegion,
    _point_seg_dist,
    _seg_intersections,
    boundary_dist_many,
    box_region,
    hit_candidates,
)


@dataclass(frozen=True)
class PolygonalDomain:
    """A finite union of disjoint polygonal parts with optional declared
    local-convexity constants: any two points at distance <= delta join
    through the open domain by a curve of length <= |p-q|/eps."""

    parts: tuple[PolyRegion, ...]
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
        parts = tuple(parts)
        if not parts:
            raise ValueError("a domain needs at least one part")
        if declared_eps is not None and not (0.0 < declared_eps <= 1.0):
            raise ValueError("declared_eps must lie in (0, 1]")
        if declared_delta is not None and declared_delta <= 0.0:
            raise ValueError("declared_delta must be positive")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "declared_eps", declared_eps)
        object.__setattr__(self, "declared_delta", declared_delta)

    @property
    def region(self) -> PolyRegion:
        return self.parts[0]

    def contains(self, p: Point) -> bool:
        return any(part.contains(p) for part in self.parts)

    def contains_many(self, P: np.ndarray) -> np.ndarray:
        """`contains` over the rows of a (P, 2) array."""
        out = np.zeros(len(P), dtype=bool)
        for part in self.parts:
            out |= part.contains_many(P)
        return out

    def on_boundary(self, p: Point, tol: float = EPS) -> bool:
        return any(part.on_boundary(p, tol) for part in self.parts)

    @cached_property
    def _edges(self) -> tuple[tuple[Point, Point], ...]:
        return sum((part.boundary_edges() for part in self.parts), ())

    @cached_property
    def edge_array(self) -> np.ndarray:
        """All parts' edges as read-only (E, 4) rows."""
        arr = np.concatenate([part.edge_array for part in self.parts])
        arr.flags.writeable = False
        return arr

    def boundary_edges(self) -> tuple[tuple[Point, Point], ...]:
        return self._edges

    def boundary_dist(self, p: Point) -> float:
        return min(_point_seg_dist(p, a, b) for a, b in self._edges)

    def boundary_dist_many(self, P: np.ndarray) -> np.ndarray:
        """`boundary_dist` over the rows of a (P, 2) array."""
        return boundary_dist_many(P, self.edge_array, self._edges)

    def bbox(self) -> tuple[float, float, float, float]:
        boxes = [part.bbox() for part in self.parts]
        return (
            min(b[0] for b in boxes),
            min(b[1] for b in boxes),
            max(b[2] for b in boxes),
            max(b[3] for b in boxes),
        )

    def with_constants(self, eps: float, delta: float) -> "PolygonalDomain":
        return PolygonalDomain(self.parts, eps, delta)


_SAMPLES = (0.03, 0.25, 0.5, 0.75, 0.97)


def _edge_blocks(
    d: PolygonalDomain, a: Point, b: Point, L: float, p: Point, q: Point
) -> bool:
    """Whether boundary edge (p,q) keeps the segment (a,b) of length L
    out of the domain: a crossing inside it, a touch at an endpoint off
    the boundary, or a collinear overlap."""
    try:
        ts = _seg_intersections(a, b, p, q)
    except DegenerateGeometry:
        return True
    for t in ts:
        s = t * L
        if s > 1e-9 and L - s > 1e-9:
            return True
        if s <= 1e-9 and not d.on_boundary(a, 1e-9):
            return True
        if L - s <= 1e-9 and not d.on_boundary(b, 1e-9):
            return True
    return False


def segment_in_domain(d: PolygonalDomain, a: Point, b: Point) -> bool:
    """Whether the open segment (a,b) stays in the open domain; the
    endpoints themselves may sit on the boundary. Collinear overlap with
    a boundary edge counts as outside."""
    if a == b:
        return False
    L = dist(a, b)
    if any(_edge_blocks(d, a, b, L, p, q) for p, q in d.boundary_edges()):
        return False
    for t in _SAMPLES:
        pt = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
        if not d.contains(pt):
            return False
    return True


def segments_in_domain(
    d: PolygonalDomain, A: np.ndarray, B: np.ndarray
) -> np.ndarray:
    """`segment_in_domain` over the rows of two (S, 2) arrays: the sample
    points go through the batched `contains`, and `_edge_blocks` runs
    only on the segment/edge pairs `hit_candidates` keeps."""
    ok = (A != B).any(axis=1)
    for t in _SAMPLES:
        ok &= d.contains_many(A + t * (B - A))
    edges = d.boundary_edges()
    for s, e in zip(*hit_candidates(A, B, d.edge_array)):
        if ok[s]:
            a, b = tuple(A[s].tolist()), tuple(B[s].tolist())
            if _edge_blocks(d, a, b, dist(a, b), *edges[e]):
                ok[s] = False
    return ok


def polyline_in_domain(d: PolygonalDomain, pts: Sequence[Point]) -> bool:
    return all(segment_in_domain(d, u, v) for u, v in zip(pts, pts[1:]))


def _polyline_len(pts: Sequence[Point]) -> float:
    return sum(dist(u, v) for u, v in zip(pts, pts[1:]))


class RoutingGraph:
    """8-connected grid over the open domain. Immutable after build;
    shortest-path queries are pure.

    The build runs on the batched ring kernel: every bbox grid point is
    classified at once, every node's clearance is measured at once, and
    the grid edges that come closer to the boundary than their length
    are checked by one `segments_in_domain` batch. The nodes are indexed
    by a KD-tree for nearest-node and radius queries."""

    def __init__(self, d: PolygonalDomain, h: float):
        self.domain = d
        self.h = h
        x0, y0, x1, y1 = d.bbox()
        ni = max(1, int(round((x1 - x0) / h)))
        nj = max(1, int(round((y1 - y0) / h)))
        # grid points in (i, j) lexicographic order, p = (x0 + i h, y0 + j h)
        gi, gj = np.divmod(np.arange((ni + 1) * (nj + 1)), nj + 1)
        grid = np.stack([x0 + gi * h, y0 + gj * h], axis=1)
        ids = np.flatnonzero(d.contains_many(grid))
        pts = grid[ids]
        self.nodes: list[Point] = [tuple(p) for p in pts.tolist()]
        self.clearance: list[float] = d.boundary_dist_many(pts).tolist()
        n = len(ids)
        # padded with -1 beyond i = ni and j = nj, which also catches j = -1
        index = np.full((ni + 2, nj + 2), -1)
        gi, gj = gi[ids], gj[ids]
        index[gi, gj] = np.arange(n)
        steps = [(1, 0), (0, 1), (1, 1), (1, -1)]
        nbr = np.stack([index[gi + di, gj + dj] for di, dj in steps], axis=1)
        diag = h * math.sqrt(2.0)
        weights = (h, h, diag, diag)
        # a short edge between nodes with enough clearance cannot meet the
        # boundary; only near-boundary edges get checked
        keep = nbr >= 0
        clear = np.asarray(self.clearance)
        u, k = np.nonzero(keep)
        v = nbr[u, k]
        near = np.minimum(clear[u], clear[v]) < np.asarray(weights)[k]
        u, k, v = u[near], k[near], v[near]
        keep[u, k] = segments_in_domain(d, pts[u], pts[v])
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for a, (row, kept) in enumerate(zip(nbr.tolist(), keep.tolist())):
            for b, w, ok in zip(row, weights, kept):
                if ok:
                    adj[a].append((b, w))
                    adj[b].append((a, w))
        self.adj = adj
        comp = [-1] * n
        c = 0
        for s in range(n):
            if comp[s] != -1:
                continue
            stack = [s]
            comp[s] = c
            while stack:
                a = stack.pop()
                for b, _ in adj[a]:
                    if comp[b] == -1:
                        comp[b] = c
                        stack.append(b)
            c += 1
        self.comp = comp
        self.n_components = c
        self._tree = cKDTree(pts)
        # reflex corners of the boundary (interior angle > pi), used as
        # route waypoints near notches
        self.reflex: list[tuple[Point, Point]] = []  # (vertex, inward dir)
        for part in d.parts:
            for ring in part.rings():
                n = len(ring)
                for k in range(n):
                    a, v, b = ring[k - 1], ring[k], ring[(k + 1) % n]
                    d1 = (v[0] - a[0], v[1] - a[1])
                    d2 = (b[0] - v[0], b[1] - v[1])
                    crossz = d1[0] * d2[1] - d1[1] * d2[0]
                    if crossz < -EPS:  # right turn on a CCW-interior walk
                        # the exterior notch bisects between -d1 and d2;
                        # its opposite points into the domain bulk
                        bis = (
                            d1[0] / math.hypot(*d1) - d2[0] / math.hypot(*d2),
                            d1[1] / math.hypot(*d1) - d2[1] / math.hypot(*d2),
                        )
                        L = math.hypot(*bis)
                        if L > EPS:
                            self.reflex.append((v, (bis[0] / L, bis[1] / L)))

    def nearest_visible(self, p: Point, k: int = 40) -> int:
        """Index of the closest node reachable from p by a straight
        segment through the domain."""
        if not self.nodes:
            raise Disconnected("empty routing graph")
        kk = min(k, len(self.nodes))
        _, idxs = self._tree.query(p, kk)
        cand = [int(i) for i in ([idxs] if kk == 1 else idxs)]
        for i in cand:
            if dist(p, self.nodes[i]) <= EPS:
                return i
            if segment_in_domain(self.domain, p, self.nodes[i]):
                return i
        raise Disconnected(f"no grid node visible from {p}")

    def dijkstra(self, sources: Iterable[int]):
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
            for v, w in self.adj[u]:
                nd = d0 + w
                if nd < dd[v] - 1e-15:
                    dd[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
        return dd, prev


_GRAPH_CACHE: dict = {}


def routing_graph(d: PolygonalDomain, h: float) -> RoutingGraph:
    key = (d, h)
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = RoutingGraph(d, h)
    return _GRAPH_CACHE[key]


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


def _route_points(d: PolygonalDomain, p: Point, q: Point, h: float) -> list[Point]:
    if dist(p, q) <= EPS:
        return [p, q]
    # direct segment
    if segment_in_domain(d, p, q):
        return [p, q]
    # single-waypoint bows perpendicular to the chord, both sides,
    # growing amplitude; covers boundary-to-boundary chords along a wall
    L = dist(p, q)
    best = None
    mx, my = (p[0] + q[0]) / 2, (p[1] + q[1]) / 2
    nx, ny = -(q[1] - p[1]) / L, (q[0] - p[0]) / L
    for s in (0.05, 0.1, 0.2, 0.35, 0.5, 0.75):
        for sign in (1.0, -1.0):
            w = (mx + sign * s * L * nx, my + sign * s * L * ny)
            if (
                d.contains(w)
                and segment_in_domain(d, p, w)
                and segment_in_domain(d, w, q)
            ):
                best = [p, w, q]
                break
        if best:
            break
    # around one or two reflex corners near the chord
    g = routing_graph(d, h)
    near = sorted(
        (
            (v, inward)
            for v, inward in g.reflex
            if dist(v, p) + dist(v, q) <= 3.0 * L + 1.0
        ),
        key=lambda vi: dist(vi[0], p) + dist(vi[0], q),
    )[:8]

    def corner_pt(v, inward, scale):
        off = min(0.2 * scale, 0.5 * h + 0.05 * scale)
        return (v[0] + off * inward[0], v[1] + off * inward[1])

    for v, inward in near:
        w = corner_pt(v, inward, L)
        if (
            d.contains(w)
            and segment_in_domain(d, p, w)
            and segment_in_domain(d, w, q)
        ):
            cand = [p, w, q]
            if best is None or _polyline_len(cand) < _polyline_len(best):
                best = cand
    if best is None or _polyline_len(best) > 1.2 * L:
        for v1, in1 in near:
            w1 = corner_pt(v1, in1, L)
            if not (d.contains(w1) and segment_in_domain(d, p, w1)):
                continue
            for v2, in2 in near:
                if v2 == v1:
                    continue
                w2 = corner_pt(v2, in2, L)
                if not (
                    d.contains(w2)
                    and segment_in_domain(d, w1, w2)
                    and segment_in_domain(d, w2, q)
                ):
                    continue
                cand = [p, w1, w2, q]
                if best is None or _polyline_len(cand) < _polyline_len(best):
                    best = cand
    # a cheap candidate well inside any declared length budget wins
    # outright; otherwise compare against the grid geodesic
    if best is not None:
        budget = (
            0.9 * L / d.declared_eps if d.declared_eps is not None else 1.5 * L
        )
        if _polyline_len(best) <= budget:
            return best
    # grid fallback
    a = g.nearest_visible(p)
    b = g.nearest_visible(q)
    if g.comp[a] != g.comp[b]:
        raise Disconnected(f"{p} and {q} lie in different components")
    dd, prev = g.dijkstra([a])
    if dd[b] == float("inf"):
        raise Disconnected(f"no grid path between {p} and {q}")
    path = [g.nodes[b]]
    u = b
    while u != a:
        u = prev[u]
        path.append(g.nodes[u])
    path.reverse()
    pts = [p] + path + [q]
    # drop duplicated endpoints when p/q coincide with grid nodes
    dedup = [pts[0]]
    for x in pts[1:]:
        if dist(x, dedup[-1]) > EPS:
            dedup.append(x)
    smoothed = _shortcut(d, dedup)
    if best is not None and _polyline_len(best) <= _polyline_len(smoothed):
        return best
    return smoothed


def route(d: PolygonalDomain, p: Point, q: Point, h: float = 0.02) -> PolyCurve:
    """A polygonal path p -> q through the open domain. When convexity
    constants are declared and |p-q| <= delta, the length bound
    len <= |p-q|/eps is asserted (LRCViolation on failure)."""
    p = (float(p[0]), float(p[1]))
    q = (float(q[0]), float(q[1]))
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
        and dist(p, q) <= d.declared_delta + EPS
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

    The nodes within delta of a scan point or a pick come from the
    graph's KD-tree, queried with a radius slack; `dist` decides for
    every node whose numpy distance sits near delta."""
    if d.declared_delta is not None and delta > d.declared_delta + EPS:
        raise ValueError("delta exceeds the declared constant")
    g = routing_graph(d, h)
    if not g.nodes:
        raise InfeasibleDelta("no interior grid nodes")
    pts = g._tree.data
    clear = np.asarray(g.clearance)
    comp = np.asarray(g.comp)
    deep = clear >= delta / 2

    def within_delta(c: int) -> np.ndarray:
        idx = g._tree.query_ball_point(pts[c], delta * (1.0 + 1e-9))
        idx = np.asarray(idx, dtype=int)
        r = np.hypot(*(pts[idx] - pts[c]).T)
        inside = r <= delta
        for m in np.flatnonzero(np.abs(r - delta) <= 1e-9 * delta):
            inside[m] = dist(g.nodes[idx[m]], g.nodes[c]) <= delta
        return idx[inside]

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


def separation(
    d: PolygonalDomain, lam: Sequence[Point], M: int = 400, h: float = 0.02
) -> float:
    """Upper-biased estimate of the worst geodesic distance from the
    boundary to the net: boundary samples hop to their nearest visible
    grid node and continue by multi-source shortest path."""
    if not lam:
        raise Disconnected("empty net")
    g = routing_graph(d, h)
    sources = []
    for p in lam:
        i = g.nearest_visible(p)
        sources.append((i, dist(p, g.nodes[i])))
    dd, _ = g.dijkstra([i for i, _ in sources])
    # account for the offset between net points and their grid anchors
    off = max(o for _, o in sources)
    edges = d.boundary_edges()
    total_len = sum(dist(a, b) for a, b in edges)
    samples: list[Point] = []
    step = total_len / M
    acc = 0.0
    target = step / 2
    for a, b in edges:
        L = dist(a, b)
        while target <= acc + L:
            t = (target - acc) / L
            samples.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
            target += step
        acc += L
    worst = 0.0
    for s in samples:
        i = g.nearest_visible(s)
        if dd[i] == float("inf"):
            raise Disconnected(f"boundary sample {s} cannot reach the net")
        worst = max(worst, dist(s, g.nodes[i]) + dd[i] + off)
    return worst


def net_boundary_dist(d: PolygonalDomain, lam: Sequence[Point]) -> float:
    P = np.asarray(lam, dtype=float).reshape(-1, 2)
    return float(d.boundary_dist_many(P).min())


def complement_region(d: PolygonalDomain, box: PolyRegion) -> PolygonalDomain:
    """The domain box minus the closure of d: a frame part with one hole
    per outer ring, plus one island part per hole of d. Requires the
    closure of d strictly inside box and a boundary that genuinely
    separates two sides everywhere (no slits)."""
    bx0, by0, bx1, by1 = box.bbox()
    dx0, dy0, dx1, dy1 = d.bbox()
    if not (bx0 < dx0 and by0 < dy0 and dx1 < bx1 and dy1 < by1):
        raise ValueError("domain closure must lie strictly inside the box")
    eta = 1e-6
    for a, b in d.boundary_edges():
        L = dist(a, b)
        nx, ny = -(b[1] - a[1]) / L, (b[0] - a[0]) / L
        mx, my = (a[0] + b[0]) / 2, (a[1] + b[1]) / 2
        side1 = d.contains((mx + eta * nx, my + eta * ny))
        side2 = d.contains((mx - eta * nx, my - eta * ny))
        if side1 == side2:
            raise TopologyViolation(
                f"boundary edge {a}->{b} does not separate two sides"
            )
    frame = PolyRegion(box.outer, [part.outer for part in d.parts])
    islands = [
        PolyRegion(hole[::-1]) for part in d.parts for hole in part.holes
    ]
    return PolygonalDomain((frame, *islands))


# ---------------------------------------------------------------------------
# presets


def koch_preset(iterations: int) -> PolygonalDomain:
    """Koch-snowflake prefix on a unit-side equilateral triangle;
    3 * 4^iterations boundary edges."""
    if not (0 <= iterations <= 7):
        raise ValueError("iterations must lie in 0..7")
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
    raise ValueError(f"unknown preset {name!r}")
