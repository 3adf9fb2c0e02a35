"""Polygonal regions, curve/boundary crossings, clipping, pairings, traces.

Membership always means the open interior: a region's boundary belongs
to neither side. Everything here reduces to one primitive, the split of
a curve into maximal pieces that are entirely inside or entirely
outside, computed from exact segment intersections. Pairings and normal
traces are then pure telescoping sums of test-function values, with no
gradients and no quadrature.

One ring table, a region's rings or all its parts' rings for a domain,
one nesting rule and one membership rule. The table is valid when no
two rings meet, no ring's first vertex lies on another, and each ring
runs counterclockwise exactly when an even number of the others
enclose it (`ring_nesting`). Off the boundary, a point is inside when
a ray from it crosses the whole table an odd number of times: "in the
outer ring and in no hole", and for a domain "in one of its parts".

One tolerance policy: lengths compare at `EPS` times the table's scale,
its largest |coordinate| (`PolyRegion.tol`, one per region or domain);
parameters and sines (the parallel test) compare at `EPS` alone. One
length arithmetic: a length is the root of a sum of products,
`sqrt(x*x + y*y)`, and `_near` decides "on the boundary" from the same
products with no root at all. IEEE +, -, *, / and sqrt round correctly
in Python and numpy alike, so the scalar and batched paths agree bit
for bit. Squares underflow below about 1e-154, so lengths and offsets
that small are out of range. At the other end, `_near_many`'s
4 tol^2 L2, up to 32 EPS^2 M^4 for a region's largest |coordinate| M,
would overflow near M = 2.7e82 and put every point on the boundary:
ring vertices must lie within `MAX_COORD` = 2^270.

One box margin: the scalar predicates visit only the edges whose
bounding box lies within `BOX_MARGIN` = 2^-6 times the query's and the
edge's lengths, plus 4 tol, of the query's box (`near_edges`). Every
edge farther away provably answers "no" in the full test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateGeometry, DimensionMismatch, InvalidInput
from .core import AtomicMeasure, CurveField, Point, PolyCurve, dist, field_divergence, field_mass
from .lipfun import LipFunc, lip_bound

# collinearity / on-boundary threshold relative to the region's scale;
# inputs closer to a boundary line are ambiguous and rejected, not classified
EPS = 1e-12
MAX_COORD = 2.0**270  # there 4 tol^2 L2 stays below about 2^1005
BOX_MARGIN = 2.0**-6  # of both lengths, around an edge's box; see `near_edges`


def _signed_area(ring: Sequence[Point]) -> float:
    # about the first vertex, so that a far translation cannot cancel it
    x0, y0 = ring[0]
    s = 0.0
    for (x1, y1), (x2, y2) in zip(ring[1:], ring[2:]):
        s += (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    return 0.5 * s


def _near(p: Point, a: Point, b: Point, tol: float) -> bool:
    """Whether p lies within tol of the segment [a, b], without roots."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    px, py = p[0] - a[0], p[1] - a[1]
    s, L2 = px * dx + py * dy, dx * dx + dy * dy
    if s <= 0.0:
        return px * px + py * py <= tol * tol
    if s >= L2:
        qx, qy = p[0] - b[0], p[1] - b[1]
        return qx * qx + qy * qy <= tol * tol
    c = dx * py - dy * px
    return c * c <= tol * tol * L2


def _edge_boxes(edges: Iterable[tuple[Point, Point]]) -> tuple[tuple, ...]:
    """Each edge (p, q) as a row (x0, y0, x1, y1, p, q) of Python floats:
    its bounding box, widened on every side by `BOX_MARGIN` times its
    length."""
    rows = []
    for p, q in edges:
        dx, dy = q[0] - p[0], q[1] - p[1]
        w = BOX_MARGIN * math.sqrt(dx * dx + dy * dy)
        x0, x1 = min(p[0], q[0]), max(p[0], q[0])
        y0, y1 = min(p[1], q[1]), max(p[1], q[1])
        rows.append((x0 - w, y0 - w, x1 + w, y1 + w, p, q))
    return tuple(rows)


def near_edges(boxes: Sequence[tuple], a: Point, b: Point, tol: float) -> list:
    """The edges (p, q), in table order, of the `_edge_boxes` rows whose
    box lies within m = `BOX_MARGIN` (L1 + L2) + 4 tol of the box of the
    segment [a, b], with L1 = |b - a| and L2 = |q - p|; a point is the
    segment a = b. On every edge left out, `_seg_intersections(a, b, p,
    q, tol)` returns [] without raising and `_near(a, p, q, tol)` is
    False. So `any` over either, and the sorted cuts of `_pieces`, come
    out as from the full scan.

    Why. Let u = 2^-53 and let D be the distance between the two
    segments; their boxes are then at most D apart in x and in y.
    - `_near` accepts only within tol + 8u (tol + L2) of [p, q].
    - The parallel branch of `_seg_intersections` raises only where p
      lies within tol of the line through a and b, at a sine of at most
      EPS + 5u, and the projections overlap: D <= tol + EPS L2 plus a
      few u (L1 + L2 + D).
    - Otherwise |denom| > EPS L1 L2 as computed. The rounding of denom
      is at most 5u L1 L2 and that of t's numerator at most 5u |ap| L2;
      over |denom| these are below 5u / EPS < 5.6e-4 and 5.6e-4 |ap| /
      L1. A returned t is at most 2 in size, so it lies within
      5.6e-4 (2.01 + |ap| / L1) of the exact parameter of the crossing
      X of the two lines; the other parameter likewise, with L2. The
      clamps tol_t L1 and tol_u L2 are at most tol, so X lies within
      tol + 5.6e-4 (2.01 L_i + |ap|) of each segment, and
      D <= 2 tol + 5.6e-4 (2.01 (L1 + L2) + 2 |ap|). With
      |ap| <= L1 + D + L2 that is D <= 2.003 tol + 2.3e-3 (L1 + L2).
    So `BOX_MARGIN` = 1/64 leaves about 7x headroom, and 4 tol about 2x.
    The skip tests `lo - m > hi` and the table's widening round by at
    most u (|x| + m) at a box coordinate x. Where a gap is below m,
    |x| is at most the region's largest |coordinate| plus 2 m, and that
    coordinate is at most tol / EPS, so the rounding stays below
    1.2e-4 tol + 3u m. A NaN or inf coordinate makes m NaN or inf, and
    then no test skips: such input meets the full test as before."""
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    m = BOX_MARGIN * math.sqrt(dx * dx + dy * dy) + 4.0 * tol
    lx, hx = (ax, bx) if ax <= bx else (bx, ax)
    ly, hy = (ay, by) if ay <= by else (by, ay)
    lx, ly = lx - m, ly - m
    return [
        (p, q)
        for x0, y0, x1, y1, p, q in boxes
        if not (x0 - m > hx or y0 - m > hy or lx > x1 or ly > y1)
    ]


# ---------------------------------------------------------------------------
# batched ring kernel: the scalar predicates' own IEEE arithmetic over
# (P, 2) point arrays against (E, 4) edge rows (ax, ay, bx, by)

_PAIRS = 1 << 17  # point/edge pairs per numpy pass


def _blocks(n: int, width: int) -> list[slice]:
    step = max(1, _PAIRS // width)
    return [slice(s, s + step) for s in range(0, max(n, 1), step)]


def _edge_dists(P: np.ndarray, E: np.ndarray) -> np.ndarray:
    """(P, E) distances from each point to each edge's nearest point: the
    foot point at the projection parameter clamped to [0, 1]."""
    px, py = P[:, :1], P[:, 1:]
    ax, ay, bx, by = E.T
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    with np.errstate(all="ignore"):
        t = ((px - ax) * dx + (py - ay) * dy) / L2
    t = np.where(L2 == 0.0, 0.0, np.clip(t, 0.0, 1.0))
    ex, ey = px - (ax + t * dx), py - (ay + t * dy)
    return np.sqrt(ex * ex + ey * ey)


def _near_many(P: np.ndarray, E: np.ndarray, tol: float) -> np.ndarray:
    """Whether `_near` holds for each row of P and some edge row of E. A
    pair runs the full test only near the edge's line, within twice tol:
    no rounding can move a pair that `_near` accepts beyond that."""
    px, py = P[:, :1] - E[:, 0], P[:, 1:] - E[:, 1]
    dx, dy = E[:, 2] - E[:, 0], E[:, 3] - E[:, 1]
    L2, t2 = dx * dx + dy * dy, tol * tol
    c = dx * py - dy * px
    with np.errstate(over="ignore"):  # c * c past 1e308: far from the line
        i, j = np.nonzero(c * c <= 4.0 * t2 * L2)
    px, py, c, dx, dy, L2 = px[i, j], py[i, j], c[i, j], dx[j], dy[j], L2[j]
    qx, qy = P[i, 0] - E[j, 2], P[i, 1] - E[j, 3]
    s = px * dx + py * dy
    inner = np.where(s >= L2, qx * qx + qy * qy <= t2, c * c <= t2 * L2)
    out = np.zeros(len(P), dtype=bool)
    out[i[np.where(s <= 0.0, px * px + py * py <= t2, inner)]] = True
    return out


def _crossing_parity(P: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Whether a ray from each row of P in the +x direction crosses an
    odd number of the edge rows of E: `PolyRegion.classify`'s even-odd
    ray cast, exactly, for every point at once."""
    x, y = P[:, :1], P[:, 1:]
    x1, y1, x2, y2 = E.T
    with np.errstate(all="ignore"):
        xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    return (((y1 > y) != (y2 > y)) & (x < xi)).sum(axis=1) % 2 == 1


def hit_candidates(A: np.ndarray, B: np.ndarray, E: np.ndarray, tol: float):
    """(segment, edge) index pairs on which `_seg_intersections` of
    (A[s], B[s]) and edge E[e] at length tolerance tol may return a
    parameter or raise; on all other pairs it returns []. Lengths, t, u
    and their tolerances come out as in the scalar code."""
    d1x, d1y = B[:, :1] - A[:, :1], B[:, 1:] - A[:, 1:]
    px, py, qx, qy = E.T
    d2x, d2y = qx - px, qy - py
    L1, L2 = np.sqrt(d1x * d1x + d1y * d1y), np.sqrt(d2x * d2x + d2y * d2y)
    tol_u = tol / np.maximum(L2, tol)
    ss, ee = [], []
    for r in _blocks(len(A), len(E)):
        apx, apy = px - A[r, :1], py - A[r, 1:]
        denom = d1x[r] * d2y - d1y[r] * d2x
        tol_t = tol / np.maximum(L1[r], tol)
        with np.errstate(all="ignore"):
            t = (apx * d2y - apy * d2x) / denom
            u = (apx * d1y[r] - apy * d1x[r]) / denom
        hit = ~(t < -tol_t) & ~(t > 1.0 + tol_t)
        hit &= ~(u < -tol_u) & ~(u > 1.0 + tol_u)
        s, e = np.nonzero(hit | (np.abs(denom) <= EPS * L1[r] * L2))
        ss += (s + r.start).tolist()
        ee += e.tolist()
    return ss, ee


def ring_nesting(rings: Sequence[Sequence[Point]], tol: float) -> list[list[int]] | None:
    """Each ring's enclosing rings, as sorted indices, or None when the
    table is not valid: when two rings meet within tol (`hit_candidates`
    pairs confirmed by `_seg_intersections`, a collinear overlap
    counting), a ring's first vertex lies within tol of another ring, or
    a ring runs counterclockwise exactly when an odd number of the other
    rings enclose its first vertex. Rings that do not meet nest, so the
    first vertex tells which rings enclose a ring, and the even-odd rule
    over a valid table is the union of its parts: each counterclockwise
    ring less the clockwise rings one level inside it."""
    edges = [[(p, r[(i + 1) % len(r)]) for i, p in enumerate(r)] for r in rings]
    E = [np.array(e, dtype=float).reshape(-1, 4) for e in edges]
    for j in range(1, len(rings)):
        A, before = np.concatenate(E[:j]), [pq for ring in edges[:j] for pq in ring]
        for s, e in zip(*hit_candidates(A[:, :2], A[:, 2:], E[j], tol)):
            try:
                if _seg_intersections(*before[s], *edges[j][e], tol):
                    return None
            except DegenerateGeometry:
                return None
    # row j, column k: whether ring j lies near, or encloses, ring k's first vertex
    V, off = np.array([r[0] for r in rings], dtype=float), ~np.eye(len(E), dtype=bool)
    near = np.array([_near_many(V, e, tol) for e in E]) & off
    inside = np.array([_crossing_parity(V, e) for e in E]) & off
    ccw = np.array([_signed_area(r) > 0 for r in rings])
    if near.any() or (ccw != (inside.sum(axis=0) % 2 == 0)).any():
        return None
    return [np.flatnonzero(col).tolist() for col in inside.T]


@dataclass(frozen=True)
class PolyRegion:
    """A simple polygon with optional polygonal holes, in the plane.

    Rings are stored without repeated consecutive vertices, cyclically
    (so without a repeated closing vertex either); the outer ring is
    normalized to counterclockwise orientation and holes to clockwise.
    The rings must form a valid table (`ring_nesting`), else InvalidInput:
    the holes lie inside the outer ring and outside one another.
    """

    outer: tuple[Point, ...]
    holes: tuple[tuple[Point, ...], ...] = ()

    def __init__(
        self,
        outer: Sequence[Sequence[float]],
        holes: Iterable[Sequence[Sequence[float]]] = (),
    ):
        def norm(ring, ccw: bool):
            pts = [tuple(float(c) for c in v) for v in ring]
            if any(len(p) != 2 for p in pts):
                raise DimensionMismatch("regions are planar")
            if not all(abs(c) <= MAX_COORD for p in pts for c in p):
                raise InvalidInput("ring vertices must be finite and within 2^270")
            pts = [p for k, p in enumerate(pts) if k == 0 or p != pts[k - 1]]
            if len(pts) > 1 and pts[0] == pts[-1]:
                pts.pop()
            if len(pts) < 3:
                raise InvalidInput("a ring needs at least 3 distinct vertices")
            area = _signed_area(pts)
            if area == 0.0:
                raise DegenerateGeometry("zero-area ring")
            if (area > 0) != ccw:
                pts = pts[::-1]
            return tuple(pts)

        object.__setattr__(self, "outer", norm(outer, True))
        object.__setattr__(
            self, "holes", tuple(norm(h, False) for h in holes)
        )
        if self.holes and ring_nesting(self.rings(), self.tol) is None:
            raise InvalidInput("holes must lie strictly inside the outer ring and apart")

    def rings(self) -> list[tuple[Point, ...]]:
        return [self.outer, *self.holes]

    @cached_property
    def _edges(self) -> tuple[tuple[Point, Point], ...]:
        return tuple(
            (r[i], r[(i + 1) % len(r)]) for r in self.rings() for i in range(len(r))
        )

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The boundary edges as read-only (E, 4) rows (ax, ay, bx, by)."""
        arr = np.array(self._edges, dtype=float).reshape(-1, 4)
        arr.flags.writeable = False
        return arr

    def boundary_edges(self) -> tuple[tuple[Point, Point], ...]:
        return self._edges

    @cached_property
    def edge_boxes(self) -> tuple[tuple, ...]:
        """`_edge_boxes` of the boundary edges, in edge order."""
        return _edge_boxes(self._edges)

    @cached_property
    def tol(self) -> float:
        """The length tolerance: EPS times the largest |coordinate|."""
        return EPS * max(abs(c) for ring in self.rings() for p in ring for c in p)

    def on_boundary(self, p: Point) -> bool:
        """Whether p lies within `tol` of an edge; DimensionMismatch for
        a point off the plane."""
        if len(p) != 2:
            raise DimensionMismatch("regions are planar")
        tol = self.tol
        near = near_edges(self.edge_boxes, p, p, tol)
        return any(_near(p, a, b, tol) for a, b in near)

    def on_boundary_many(self, P: np.ndarray) -> np.ndarray:
        """`on_boundary` over the rows of a (P, 2) array."""
        E = self.edge_array
        return np.concatenate(
            [_near_many(P[r], E, self.tol) for r in _blocks(len(P), len(E))]
        )

    def contains_many(self, P: np.ndarray) -> np.ndarray:
        """`contains` over the rows of a (P, 2) array."""
        return ~self.on_boundary_many(P) & _crossing_parity(P, self.edge_array)

    def contains(self, p: Point) -> bool:
        """Open-interior membership; boundary points are outside."""
        return self.classify(p) == 1

    def classify(self, p: Point) -> int:
        """+1 open interior, 0 boundary (within `tol`), -1 outside;
        DimensionMismatch (from `on_boundary`) for a point off the plane."""
        if self.on_boundary(p):
            return 0
        x, y = p
        inside = False
        for (x1, y1), (x2, y2) in self._edges:
            if (y1 > y) != (y2 > y):
                xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if x < xi:
                    inside = not inside
        return 1 if inside else -1

    def boundary_dist_many(self, P: np.ndarray) -> np.ndarray:
        """Each row of a (P, 2) array's distance to the nearest edge, by
        `_edge_dists`."""
        E = self.edge_array
        return np.concatenate(
            [_edge_dists(P[r], E).min(axis=1) for r in _blocks(len(P), len(E))]
        )

    def bbox(self) -> tuple[float, float, float, float]:
        """The box of every ring: a region's holes lie inside its outer
        ring, so it is the outer ring's."""
        xs = [p[0] for ring in self.rings() for p in ring]
        ys = [p[1] for ring in self.rings() for p in ring]
        return min(xs), min(ys), max(xs), max(ys)


def box_region(x0: float, y0: float, x1: float, y1: float) -> PolyRegion:
    return PolyRegion([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def half_plane(normal: Sequence[float], offset: float) -> PolyRegion:
    """The set {x . n > offset} clipped to a huge box: a rectangle with
    one side on the line x . n = offset, extending 1e6 past it. Its
    length tolerance follows the box: about 1e-6."""
    nx, ny = float(normal[0]), float(normal[1])
    L = math.hypot(nx, ny)
    if L == 0.0:
        raise InvalidInput("normal must be nonzero")
    nx, ny = nx / L, ny / L
    off = float(offset) / L
    tx, ty = -ny, nx
    c = (nx * off, ny * off)
    extent = 1e6
    a = (c[0] - extent * tx, c[1] - extent * ty)
    b = (c[0] + extent * tx, c[1] + extent * ty)
    return PolyRegion(
        [a, b, (b[0] + extent * nx, b[1] + extent * ny),
         (a[0] + extent * nx, a[1] + extent * ny)]
    )


# ---------------------------------------------------------------------------
# curve splitting


@dataclass(frozen=True)
class Crossing:
    curve_index: int
    t: float  # global curve parameter (segment index + fraction)
    location: Point
    kind: str  # "entering" | "exiting"


def _seg_intersections(a: Point, b: Point, p: Point, q: Point, tol: float) -> list[float]:
    """Parameters t on [a,b] where it meets [p,q] within the length
    tolerance tol. Raises on collinear overlap of positive length."""
    d1 = (b[0] - a[0], b[1] - a[1])
    d2 = (q[0] - p[0], q[1] - p[1])
    L1 = math.sqrt(d1[0] * d1[0] + d1[1] * d1[1])
    L2 = math.sqrt(d2[0] * d2[0] + d2[1] * d2[1])
    # a segment whose squared length underflows is a point
    if L1 * L1 == 0.0 or L2 == 0.0:
        return []
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    ap = (p[0] - a[0], p[1] - a[1])
    if abs(denom) <= EPS * L1 * L2:
        # parallel; collinear iff p sits on the line through a,b
        off = abs(ap[0] * d1[1] - ap[1] * d1[0]) / L1
        if off > tol:
            return []
        s0 = (ap[0] * d1[0] + ap[1] * d1[1]) / (L1 * L1)
        s1 = ((q[0] - a[0]) * d1[0] + (q[1] - a[1]) * d1[1]) / (L1 * L1)
        lo, hi = min(s0, s1), max(s0, s1)
        if min(hi, 1.0) - max(lo, 0.0) > EPS:
            raise DegenerateGeometry(
                f"curve segment {a}->{b} overlaps boundary edge {p}->{q}"
            )
        return []
    t = (ap[0] * d2[1] - ap[1] * d2[0]) / denom
    u = (ap[0] * d1[1] - ap[1] * d1[0]) / denom
    tol_t = tol / max(L1, tol)
    tol_u = tol / max(L2, tol)
    if -tol_t <= t <= 1.0 + tol_t and -tol_u <= u <= 1.0 + tol_u:
        return [min(max(t, 0.0), 1.0)]
    return []


def _pieces(c: PolyCurve, E: PolyRegion) -> list[tuple[float, float, int]]:
    """Split the curve at every boundary intersection and classify each
    resulting piece by its midpoint: (t0, t1, +1 inside / -1 outside) in
    global parameter. A cut within `E.tol` of the last one kept is merged
    into it. Raises DimensionMismatch for a curve off the plane, and
    DegenerateGeometry for overlaps, ambiguous pieces and interior
    vertices sitting on the boundary, unless the curve rides the
    boundary: all its vertices and segment midpoints lie on one ring.
    Such a curve has no pieces. Rings meet nowhere, so a curve whose
    points lie on two rings leaves the boundary between them. A curve
    that splits cleanly does not ride it, whatever points it shares with
    it. Each curve segment meets only the edges `near_edges` keeps for
    it: the others cannot cut it or raise."""
    if c.dimension != 2:
        raise DimensionMismatch("regions are planar")
    try:
        return _split(c, E)
    except DegenerateGeometry:
        mids = [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in c.segments()]
        pts, tol, lo = [*c.vertices, *mids], E.tol, 0
        for ring in E.rings():
            boxes, lo = E.edge_boxes[lo : lo + len(ring)], lo + len(ring)
            if all(
                any(_near(p, a, b, tol) for a, b in near_edges(boxes, p, p, tol))
                for p in pts
            ):
                return []
        raise


def _split(c: PolyCurve, E: PolyRegion) -> list[tuple[float, float, int]]:
    boxes, tol = E.edge_boxes, E.tol
    for v in c.vertices[1:-1]:
        if E.on_boundary(v):
            raise DegenerateGeometry(f"interior curve vertex {v} lies on the boundary")
    cuts: list[float] = []
    for i, (a, b) in enumerate(c.segments()):
        for p, q in near_edges(boxes, a, b, tol):
            for t in _seg_intersections(a, b, p, q, tol):
                cuts.append(i + t)
    n = len(c.vertices) - 1
    cuts.extend(float(i) for i in range(n + 1))
    cuts.sort()
    merged, last = [cuts[0]], c.point_at(cuts[0])
    for t in cuts[1:]:
        p = c.point_at(t)
        dx, dy = p[0] - last[0], p[1] - last[1]
        if math.sqrt(dx * dx + dy * dy) > tol:
            merged.append(t)
            last = p
    merged[0], merged[-1] = 0.0, float(n)
    pieces = []
    for t0, t1 in zip(merged, merged[1:]):
        mid = c.point_at((t0 + t1) / 2)
        cls = E.classify(mid)
        if cls == 0:
            raise DegenerateGeometry(
                f"curve runs along the boundary near {mid}"
            )
        if pieces and pieces[-1][2] == cls:
            pieces[-1] = (pieces[-1][0], t1, cls)
        else:
            pieces.append((t0, t1, cls))
    return pieces


def crossings(c: PolyCurve, E: PolyRegion, curve_index: int = 0) -> list[Crossing]:
    """Boundary crossings in curve order, classified entering/exiting.
    Tangential touches (no side change) are not crossings."""
    pieces = _pieces(c, E)
    out = []
    for (_, t1a, ca), (_, _, cb) in zip(pieces, pieces[1:]):
        kind = "entering" if cb > ca else "exiting"
        out.append(Crossing(curve_index, t1a, c.point_at(t1a), kind))
    return out


def _inside_intervals(c: PolyCurve, E: PolyRegion) -> list[tuple[float, float]]:
    return [(t0, t1) for t0, t1, cls in _pieces(c, E) if cls > 0]


def clip_field(f: CurveField, E: PolyRegion) -> CurveField:
    """Maximal sub-curves lying in the open interior of E, weights kept,
    crossing points inserted as vertices. Curves lying entirely on the
    boundary contribute nothing (they carry no interior mass)."""
    out = []
    for c in f:
        for t0, t1 in _inside_intervals(c, E):
            p0, p1 = c.point_at(t0), c.point_at(t1)
            verts = [p0]
            for v in c.vertices[math.ceil(t0) : math.floor(t1) + 1]:
                if min(dist(v, p0), dist(v, p1)) > E.tol:
                    verts.append(v)
            verts.append(p1)
            out.append(PolyCurve(verts, c.weight))
    return CurveField(out)


def pairing_over_set(f: CurveField, phi: LipFunc, E: PolyRegion) -> float:
    """The pairing measure of phi with the field, evaluated on E:
    sum over maximal inside-intervals [s,t] of weight*(phi(end)-phi(start)).
    Exact in phi evaluations."""
    total = 0.0
    for c in f:
        for t0, t1 in _inside_intervals(c, E):
            total += c.weight * (phi(c.point_at(t1)) - phi(c.point_at(t0)))
    return total


def normal_trace(f: CurveField, E: PolyRegion) -> AtomicMeasure:
    """The distributional normal trace of the field on the boundary of E,
    as an atomic measure: +weight where an inside-interval starts on the
    boundary, -weight where one ends on it. Interval ends strictly inside
    E are divergence atoms, not trace atoms."""
    atoms: list[tuple[Point, float]] = []
    for c in f:
        for t0, t1 in _inside_intervals(c, E):
            p0, p1 = c.point_at(t0), c.point_at(t1)
            if E.on_boundary(p0):
                atoms.append((p0, c.weight))
            if E.on_boundary(p1):
                atoms.append((p1, -c.weight))
    return AtomicMeasure(atoms)


def _grad_cd(func: LipFunc, x: Point) -> tuple[float, ...]:
    """Central differences at step 1e-5."""
    h = 1e-5
    g = []
    for i in range(len(x)):
        xp = tuple(v + (h if j == i else 0.0) for j, v in enumerate(x))
        xm = tuple(v - (h if j == i else 0.0) for j, v in enumerate(x))
        g.append((func(xp) - func(xm)) / (2 * h))
    return tuple(g)


def product_rule_residual(f: CurveField, phi: LipFunc, test: LipFunc) -> float:
    """Absolute defect in the product rule
    div(phi F) = (pairing of phi with F) + phi div F, all paired against
    a smooth compactly supported test function.

    The left side uses Gauss-Green on the product field: the gradient of
    test is taken by central differences (phi is only ever evaluated) and
    the line integral by adaptive quadrature, which tolerates the kinks
    of Min/Max trees. The pairing term is summed independently as a
    Riemann-Stieltjes sum of test against the increments of phi along
    each curve, so agreement is a genuine cross-check between two
    discretizations, on 5000 and 10000 subintervals per segment.
    """
    from scipy.integrate import quad

    lhs = 0.0  # <div(phi F), test> = -int phi * grad(test) . dF
    for c in f:
        for a, b in c.segments():
            d = tuple(y - x for x, y in zip(a, b))

            def integrand(t, a=a, d=d):
                pt = tuple(x + t * dd for x, dd in zip(a, d))
                g = _grad_cd(test, pt)
                return phi(pt) * sum(gi * dd for gi, dd in zip(g, d))

            val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-12, limit=400)
            lhs -= c.weight * val

    def stieltjes(m: int) -> float:
        # int test d(phi o gamma), composite midpoint in the test factor
        acc = 0.0
        for c in f:
            for a, b in c.segments():
                prev = phi(a)
                for j in range(m):
                    t1 = (j + 1) / m
                    pt1 = tuple(x + t1 * (y - x) for x, y in zip(a, b))
                    tm = (j + 0.5) / m
                    ptm = tuple(x + tm * (y - x) for x, y in zip(a, b))
                    cur = phi(pt1)
                    acc += c.weight * test(ptm) * (cur - prev)
                    prev = cur
        return acc

    # midpoint error is O(m^-2) with an even expansion for smooth data,
    # so one Richardson step buys two extra orders
    pairing = (4.0 * stieltjes(10000) - stieltjes(5000)) / 3.0

    atom_term = sum(
        coeff * phi(loc) * test(loc)
        for loc, coeff in field_divergence(f).atoms
    )
    return abs(lhs - pairing - atom_term)


def setwise_probe(
    f: CurveField,
    phi_sequence,
    phi_limit: LipFunc,
    E: PolyRegion,
    K: int,
) -> tuple[list[float], bool]:
    """Pairing values v_k = pairing_over_set(f, phi_k, E) for k = 1..K,
    plus a flag checking |v_K - v_inf| <= C_f / K with
    C_f = field_mass(f) * (uniform Lipschitz bound of the family)."""
    values = [pairing_over_set(f, phi_sequence(k), E) for k in range(1, K + 1)]
    v_inf = pairing_over_set(f, phi_limit, E)
    fam_lip = max(lip_bound(phi_sequence(K)), lip_bound(phi_limit), 1.0)
    tol = field_mass(f) * fam_lip / K if K else float("inf")
    return values, abs(values[-1] - v_inf) <= tol
