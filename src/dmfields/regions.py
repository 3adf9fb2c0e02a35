"""Polygonal regions, curve/boundary crossings, clipping, pairings, traces.

Membership always means the open interior: a region's boundary belongs
to neither side. Everything here reduces to one primitive, the split of
a curve into maximal pieces that are entirely inside or entirely
outside, computed from exact segment intersections. Pairings and normal
traces are then pure telescoping sums of test-function values, with no
gradients and no quadrature.

One tolerance policy: lengths compare at `EPS` times the region's
scale, its largest |coordinate| (`PolyRegion.tol`; a domain takes the
largest over its parts); parameters and sines (the parallel test)
compare at `EPS` alone. One length arithmetic: a length is the root of
a sum of products, `sqrt(x*x + y*y)`, and `_near` decides "on the
boundary" from the same products with no root at all. IEEE +, -, *, /
and sqrt round correctly in Python and numpy alike, so the scalar and
batched paths agree bit for bit. Squares underflow below about 1e-154,
so lengths and offsets that small are out of range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateGeometry, DimensionMismatch
from .core import AtomicMeasure, CurveField, Point, PolyCurve, dist
from .lipfun import LipFunc

# collinearity / on-boundary threshold relative to the region's scale;
# inputs closer to a boundary line are ambiguous and rejected, not classified
EPS = 1e-12


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


def _point_seg_dist(p: Point, a: Point, b: Point) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    t = ((px - ax) * dx + (py - ay) * dy) / L2 if L2 != 0.0 else 0.0
    t = min(max(t, 0.0), 1.0)
    ex, ey = px - (ax + t * dx), py - (ay + t * dy)
    return math.sqrt(ex * ex + ey * ey)


# ---------------------------------------------------------------------------
# batched ring kernel: the scalar predicates' own IEEE arithmetic over
# (P, 2) point arrays against (E, 4) edge rows (ax, ay, bx, by)

_PAIRS = 1 << 17  # point/edge pairs per numpy pass


def _blocks(n: int, width: int) -> list[slice]:
    step = max(1, _PAIRS // width)
    return [slice(s, s + step) for s in range(0, max(n, 1), step)]


def _edge_dists(P: np.ndarray, E: np.ndarray) -> np.ndarray:
    """(P, E) distances by the arithmetic of `_point_seg_dist`."""
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
    i, j = np.nonzero(c * c <= 4.0 * t2 * L2)
    px, py, c, dx, dy, L2 = px[i, j], py[i, j], c[i, j], dx[j], dy[j], L2[j]
    qx, qy = P[i, 0] - E[j, 2], P[i, 1] - E[j, 3]
    s = px * dx + py * dy
    inner = np.where(s >= L2, qx * qx + qy * qy <= t2, c * c <= t2 * L2)
    out = np.zeros(len(P), dtype=bool)
    out[i[np.where(s <= 0.0, px * px + py * py <= t2, inner)]] = True
    return out


def _crossing_parity(P: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """`_in_ring`'s even-odd ray cast, exactly, against one ring's edges."""
    x, y = P[:, :1], P[:, 1:]
    x1, y1, x2, y2 = ring.T
    with np.errstate(all="ignore"):
        xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    return (((y1 > y) != (y2 > y)) & (x < xi)).sum(axis=1) % 2 == 1


def boundary_dist_many(P: np.ndarray, E: np.ndarray) -> np.ndarray:
    """min over the edge rows of E of `_point_seg_dist` for every row of P."""
    return np.concatenate(
        [_edge_dists(P[r], E).min(axis=1) for r in _blocks(len(P), len(E))]
    )


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


def _in_ring(p: Point, ring: Sequence[Point]) -> bool:
    # even-odd ray cast; callers guarantee p is off the ring itself
    x, y = p
    inside = False
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xi:
                inside = not inside
    return inside


@dataclass(frozen=True)
class PolyRegion:
    """A simple polygon with optional polygonal holes, in the plane.

    Rings are stored without repeated consecutive vertices, cyclically
    (so without a repeated closing vertex either); the outer ring is
    normalized to counterclockwise orientation and holes to clockwise.
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
            pts = [p for k, p in enumerate(pts) if k == 0 or p != pts[k - 1]]
            if len(pts) > 1 and pts[0] == pts[-1]:
                pts.pop()
            if len(pts) < 3:
                raise ValueError("a ring needs at least 3 distinct vertices")
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
    def tol(self) -> float:
        """The length tolerance: EPS times the largest |coordinate|."""
        return EPS * max(abs(c) for ring in self.rings() for p in ring for c in p)

    def on_boundary(self, p: Point) -> bool:
        """Whether p lies within `tol` of an edge; DimensionMismatch for
        a point off the plane."""
        if len(p) != 2:
            raise DimensionMismatch("regions are planar")
        tol = self.tol
        return any(_near(p, a, b, tol) for a, b in self._edges)

    def on_boundary_many(self, P: np.ndarray) -> np.ndarray:
        """`on_boundary` over the rows of a (P, 2) array."""
        E = self.edge_array
        return np.concatenate(
            [_near_many(P[r], E, self.tol) for r in _blocks(len(P), len(E))]
        )

    def contains_many(self, P: np.ndarray) -> np.ndarray:
        """`contains` over the rows of a (P, 2) array."""
        out = ~self.on_boundary_many(P)
        start = 0
        for k, ring in enumerate(self.rings()):
            inside = _crossing_parity(P, self.edge_array[start : start + len(ring)])
            out &= inside if k == 0 else ~inside
            start += len(ring)
        return out

    def contains(self, p: Point) -> bool:
        """Open-interior membership; boundary points are outside."""
        return self.classify(p) == 1

    def classify(self, p: Point) -> int:
        """+1 open interior, 0 boundary (within `tol`), -1 outside;
        DimensionMismatch (from `on_boundary`) for a point off the plane."""
        if self.on_boundary(p):
            return 0
        inside = _in_ring(p, self.outer) and not any(_in_ring(p, h) for h in self.holes)
        return 1 if inside else -1

    def bbox(self) -> tuple[float, float, float, float]:
        xs = [p[0] for p in self.outer]
        ys = [p[1] for p in self.outer]
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
        raise ValueError("normal must be nonzero")
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


def _curve_on_boundary(c: PolyCurve, E: PolyRegion) -> bool:
    pts = list(c.vertices)
    mids = [
        ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in c.segments()
    ]
    return all(E.on_boundary(p) for p in pts + mids)


def _pieces(c: PolyCurve, E: PolyRegion) -> list[tuple[float, float, int]]:
    """Split the curve at every boundary intersection and classify each
    resulting piece by its midpoint: (t0, t1, +1 inside / -1 outside) in
    global parameter. A cut within `E.tol` of the last one kept is merged
    into it. A curve lying on the boundary has no pieces. Raises
    DimensionMismatch for a curve off the plane, and DegenerateGeometry
    for overlaps, ambiguous pieces and interior vertices sitting on the
    boundary."""
    if c.dimension != 2:
        raise DimensionMismatch("regions are planar")
    if _curve_on_boundary(c, E):
        return []
    edges, tol = E.boundary_edges(), E.tol
    for v in c.vertices[1:-1]:
        if E.on_boundary(v):
            raise DegenerateGeometry(f"interior curve vertex {v} lies on the boundary")
    cuts: list[float] = []
    for i, (a, b) in enumerate(c.segments()):
        for p, q in edges:
            for t in _seg_intersections(a, b, p, q, tol):
                cuts.append(i + t)
    n = len(c.vertices) - 1
    cuts.extend(float(i) for i in range(n + 1))
    cuts.sort()
    merged, last = [cuts[0]], c.point_at(cuts[0])
    for t in cuts[1:]:
        if math.dist(p := c.point_at(t), last) > tol:
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
            if len(verts) >= 2:
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

    from .core import field_divergence

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
    from .core import field_mass
    from .lipfun import lip_bound

    values = [pairing_over_set(f, phi_sequence(k), E) for k in range(1, K + 1)]
    v_inf = pairing_over_set(f, phi_limit, E)
    fam_lip = max(lip_bound(phi_sequence(K)), lip_bound(phi_limit), 1.0)
    tol = field_mass(f) * fam_lip / K if K else float("inf")
    return values, abs(values[-1] - v_inf) <= tol
