"""Curve decomposition, exact and numerical.

Exact side: snap a polygonal field onto a graph (merging vertices,
splitting collinear overlaps, cancelling antiparallel mass), then peel
off source-to-sink paths and cycles whose recomposition reproduces the
edge weights. Both run in sweeps that only move forward: each vertex
meets only the representatives in its sorted-x window
(`core.x_window`), and each segment, when split at the nodes lying on
it, only the nodes in its box, widened by a slack and found through the
same sorted x-coordinates; sources come from one cursor over the sorted
nodes, cycle walks start from each node in sorted order and resume from
their prefix after each cycle or dead end; each node's first live
out-edge comes from its own cursor into its sorted out-edges. The peel
checks the graph's nodes once and builds its curves from them without
checking each vertex again. A dimension lift sends any
finite-divergence planar field to a divergence-free spatial one, so the
cycle machinery applies to fields with sources; projecting each
maximal height-zero run of a lifted curve back to the plane, as its own
curve with the curve's weight, recovers the plane field.

Numerical side: mollify the field to a smooth direction field
sigma = f_eps / tau_eps on a grid, trace its flow with fixed-step RK4,
and check the resulting curve decomposition by Monte-Carlo integration
against grid integrals, including the mass-transport invariant
tau(G_t(x)) det(grad G_t(x)) = const along trajectories. Every grid
lookup goes through one bilinear sampler, `GridField._sample`, whose
cell arithmetic (`_cell`) also places mollify's deposits, and every
integrator through one RK4 step, `_rk4_step`. Single flow curves
come from one trajectory driver, `_trajectory`, and the drift check
reads tau and div sigma along the whole curve in one lookup.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from .errors import LeftGrid, MalformedLift
from .core import (
    AtomicMeasure,
    CurveField,
    Point,
    PolyCurve,
    as_point,
    dist,
    field_divergence,
    field_mass,
    x_window,
)

# ---------------------------------------------------------------------------
# exact graph decomposition


@dataclass(frozen=True)
class FlowGraph:
    nodes: tuple[Point, ...]
    edges: tuple[tuple[int, int, float], ...]  # (u, v, weight > 0)
    imbalance: tuple[float, ...]  # out minus in, per node


_PAIRS = 1 << 16  # candidate (segment, node) pairs per numpy pass
_TINY = math.sqrt(sys.float_info.min)  # below it, squares underflow


def _interior_nodes(segs, reps, tol):
    """(t, node) for the nodes within tol of the interior of each segment,
    t its projection parameter, in the order of reps, whose first
    coordinates must not decrease. The projection uses every coordinate,
    so a lifted height-0 segment does not meet the height-1 copy of a
    vertex.

    A segment's candidates are the nodes in its box widened by a slack
    on every coordinate: a sorted-x window as in `core.x_window`, but
    spanning the segment's x-extent, then the box on the other
    coordinates (z too, for lifted fields). The slack, 2 max(tol, TINY)
    + 16 ulp(M), M the largest coordinate magnitude, keeps every node
    the exact test accepts, at any coordinate scale: the rounded
    projection point lies within 8 ulp(M) of the box; a node that `dist`
    puts within tol of it is within max(tol, TINY) (1 + 4 eps) of it on
    each coordinate, TINY covering distances whose squares underflow to
    0; the rest covers rounding the box bounds, also where 2 tol is
    below one ulp of the coordinates. numpy computes the candidates'
    parameters and gaps with the scalar arithmetic, adding the
    coordinate terms in index order, and leaves `dist` only the pairs
    within 2 tol."""
    hits: list[list[tuple[float, Point]]] = [[] for _ in segs]
    if not segs:
        return hits
    # one row per coordinate
    R = np.array(reps, dtype=float).T.copy()
    A = np.array([a for a, _, _ in segs], dtype=float).T.copy()
    B = np.array([b for _, b, _ in segs], dtype=float).T.copy()
    D = B - A
    L = np.array([dist(a, b) for a, b, _ in segs])
    scale = max(np.abs(X).max() for X in (R, A, B))
    slack = 2 * max(tol, _TINY) + 16 * np.spacing(scale)
    lo, hi = np.minimum(A, B) - slack, np.maximum(A, B) + slack
    # segment i's x-window holds the reps first[i] : first[i] + count[i];
    # whole segments at a time, about _PAIRS (segment, rep) pairs
    first = np.searchsorted(R[0], lo[0], "left")
    count = np.searchsorted(R[0], hi[0], "right") - first
    end = np.cumsum(count)
    cuts = np.searchsorted(end, np.arange(0, end[-1] + _PAIRS, _PAIRS), "right")
    for s0, s1 in zip(cuts.tolist(), cuts[1:].tolist()):
        c = count[s0:s1]
        i = np.repeat(np.arange(s0, s1), c)
        j = np.arange(len(i)) + np.repeat(first[s0:s1] - (np.cumsum(c) - c), c)
        box = np.ones(len(i), dtype=bool)
        for k in range(1, len(R)):
            rk = R[k].take(j)
            box &= (lo[k].take(i) <= rk) & (rk <= hi[k].take(i))
        box = np.flatnonzero(box)
        i, j = i.take(box), j.take(box)
        a, d, r = A.take(i, axis=1), D.take(i, axis=1), R.take(j, axis=1)
        l = L.take(i)
        ts = (r[0] - a[0]) * d[0]
        for k in range(1, len(R)):
            ts += (r[k] - a[k]) * d[k]
        ts /= l * l
        gap = (a[0] + ts * d[0] - r[0]) ** 2
        for k in range(1, len(R)):
            gap += (a[k] + ts * d[k] - r[k]) ** 2
        near = (tol / l < ts) & (ts < 1 - tol / l) & (gap <= 4 * tol * tol)
        for s, n, t in zip(*(x[near].tolist() for x in (i, j, ts))):
            (a0, b0, _), r0 = segs[s], reps[n]
            if r0 == a0 or r0 == b0:
                continue
            proj = tuple(ak + t * (bk - ak) for ak, bk in zip(a0, b0))
            if dist(proj, r0) <= tol:
                hits[s].append((t, r0))
    return hits


def snap_to_graph(f: CurveField, tol: float = 1e-9) -> FlowGraph:
    """Merge vertices within tol, split edges at nodes lying on them,
    cancel antiparallel overlaps, drop zero weight. Node imbalances then
    equal the field's divergence coefficients. ValueError unless
    0 <= tol < inf."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"snap_to_graph needs 0 <= tol < inf, got {tol}")
    # each vertex, in sorted order, goes to the first earlier
    # representative within tol, or becomes one; representatives are
    # appended in sorted order, so their x-coordinates never decrease
    reps: list[Point] = []
    xs: list[float] = []
    rep: dict[Point, Point] = {}
    for p in sorted({p for c in f for p in c.vertices}):
        window = (reps[k] for k in x_window(xs, p[0], tol))
        r = next((r for r in window if dist(p, r) <= tol), None)
        if r is None:
            reps.append(p)
            xs.append(p[0])
            r = p
        rep[p] = r
    segs: list[tuple[Point, Point, float]] = []
    for c in f:
        for a, b in c.segments():
            u, v = rep[a], rep[b]
            if u != v:
                segs.append((u, v, c.weight))
    pieces: list[tuple[Point, Point, float]] = []
    for (a, b, w), hits in zip(segs, _interior_nodes(segs, reps, tol)):
        pts = [a] + [r for _, r in sorted(hits)] + [b]
        pieces.extend((u, v, w) for u, v in zip(pts, pts[1:]))
    # an edge and its reverse accumulate under the smaller orientation
    acc: dict[tuple[Point, Point], float] = {}
    for u, v, w in pieces:
        key = min((u, v), (v, u))
        acc[key] = acc.get(key, 0.0) + (w if key == (u, v) else -w)
    used_nodes = sorted(
        {u for (u, v), w in acc.items() if w != 0.0}
        | {v for (u, v), w in acc.items() if w != 0.0}
    )
    index = {p: i for i, p in enumerate(used_nodes)}
    edges = []
    for (u, v), w in sorted(acc.items()):
        if w > 0.0:
            edges.append((index[u], index[v], w))
        elif w < 0.0:
            edges.append((index[v], index[u], -w))
    imb = [0.0] * len(used_nodes)
    for u, v, w in edges:
        imb[u] += w
        imb[v] -= w
    return FlowGraph(tuple(used_nodes), tuple(sorted(edges)), tuple(imb))


def graph_decompose(g: FlowGraph) -> list[PolyCurve]:
    """Peel source-to-sink paths while positive imbalances remain, then
    cycles; each extraction removes the minimum weight along its walk,
    and weights and imbalances at or below 1e-12 count as spent.
    Deterministic: lexicographically smallest choices throughout.
    ValueError unless every node passes `as_point`; the nodes are
    checked once, not again in each curve."""
    tol = 1e-12
    nodes = [as_point(p) for p in g.nodes]
    w = {}
    out: list[list[int]] = [[] for _ in g.nodes]
    for u, v, wt in g.edges:
        w[(u, v)] = w.get((u, v), 0.0) + wt
        out[u].append(v)
    out = [sorted(set(vs), key=lambda v: g.nodes[v]) for vs in out]
    imb = list(g.imbalance)

    def live(u, v):
        return w.get((u, v), 0.0) > tol

    def walk_to_sink(s: int):
        # breadth-first over live edges to the nearest deficit node;
        # conservation guarantees one is reachable from any source
        parent = {s: None}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if imb[u] < -tol and u != s:
                path = [u]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path[::-1]
            for v in out[u]:
                if v not in parent and live(u, v):
                    parent[v] = u
                    queue.append(v)
        return None

    # weights and source imbalances only fall, so a node that stops being
    # a source and an edge that dies stay so: the cursors below only move
    # forward, past nodes and edges that can never be chosen again
    cur = [0] * len(g.nodes)  # out[u][:cur[u]] are dead

    def first_live(u):
        vs, i = out[u], cur[u]
        while i < len(vs) and not live(u, vs[i]):
            i += 1
        cur[u] = i
        return vs[i] if i < len(vs) else None

    curves: list[PolyCurve] = []
    node_order = sorted(range(len(g.nodes)), key=lambda i: g.nodes[i])
    k = 0
    while True:
        while k < len(node_order) and not imb[node_order[k]] > tol:
            k += 1
        if k == len(node_order):
            break
        path = walk_to_sink(node_order[k])
        if path is None:
            break
        amt = min(w[(u, v)] for u, v in zip(path, path[1:]))
        amt = min(amt, imb[path[0]], -imb[path[-1]])
        for u, v in zip(path, path[1:]):
            w[(u, v)] -= amt
        imb[path[0]] -= amt
        imb[path[-1]] += amt
        curves.append(PolyCurve._of_points([nodes[i] for i in path], amt))
    # cycles: walk from each node in order while it has a live edge. A
    # cycle or a dead end changes no edge of the walk before it, so a
    # walk restarted from the same node would retrace that prefix: the
    # walk resumes from it instead
    for s in node_order:
        path, pos = [s], {s: 0}
        while path:
            u = path[-1]
            nxt = first_live(u)
            if nxt is None:
                # the start is used up, or float residue below tolerance
                # left a dead end: the weight that led here is
                # unreturnable, drop it
                del pos[path.pop()]
                if path:
                    w[(path[-1], u)] = 0.0
            elif nxt in pos:
                q = pos[nxt]
                cyc = path[q:] + [nxt]
                amt = min(w[(a, b)] for a, b in zip(cyc, cyc[1:]))
                for a, b in zip(cyc, cyc[1:]):
                    w[(a, b)] -= amt
                curves.append(PolyCurve._of_points([nodes[i] for i in cyc], amt))
                for v in path[q + 1 :]:
                    del pos[v]
                del path[q + 1 :]
            else:
                path.append(nxt)
                pos[nxt] = len(path) - 1
    return curves


def lift_solenoidal(f: CurveField) -> CurveField:
    """Embed a planar field divergence-free into space: the field itself
    at height 0, its negation at height 1, and a downward unit segment
    over each divergence atom carrying the atom's coefficient. The
    output has empty divergence by construction."""
    curves: list[PolyCurve] = []
    for c in f:
        curves.append(PolyCurve([(x, y, 0.0) for x, y in c.vertices], c.weight))
        curves.append(PolyCurve([(x, y, 1.0) for x, y in c.vertices], -c.weight))
    for (x, y), coeff in field_divergence(f).atoms:
        curves.append(PolyCurve([(x, y, 1.0), (x, y, 0.0)], coeff))
    return CurveField(curves)


def project_curves(curves: Sequence[PolyCurve]) -> list[PolyCurve]:
    """Project every maximal height-zero run of each spatial curve to the
    plane, as its own curve with the curve's weight. A run must have
    length, and each raised neighbour must sit straight above the run's
    end. A closed curve's runs are cyclic: its vertex list is rotated to
    start and end at a raised vertex, so no run wraps around the end and
    both cyclic neighbours of a run are list neighbours. A curve with one
    run thus gives that run in the same vertex order, under the same
    checks, as a rule keeping one run per curve. Heights and horizontal
    offsets at or below 1e-9 count as zero."""
    tol = 1e-9
    out: list[PolyCurve] = []
    for c in curves:
        if c.dimension != 3:
            raise MalformedLift("projection expects spatial curves")
        verts = list(c.vertices)
        flat = [abs(v[2]) <= tol for v in verts]
        if c.is_closed and not all(flat):
            s = flat.index(False)
            verts = verts[s:-1] + verts[: s + 1]
            flat = flat[s:-1] + flat[: s + 1]
        for is_flat, run in groupby(range(len(verts)), flat.__getitem__):
            if not is_flat:
                continue
            idx = list(run)
            lo, hi = idx[0], idx[-1]
            if lo == hi:
                raise MalformedLift("flat portion has no length")
            for j, k in ((lo - 1, lo), (hi + 1, hi)):
                if 0 <= j < len(verts):
                    a, b = verts[j], verts[k]
                    if abs(a[0] - b[0]) > tol or abs(a[1] - b[1]) > tol:
                        raise MalformedLift(
                            "flat portion not entered by a vertical segment"
                        )
            pts = [v[:2] for v in verts[lo : hi + 1]]  # checked when c was built
            out.append(PolyCurve._of_points(pts, c.weight))
    return out


# ---------------------------------------------------------------------------
# numerical pipeline


def _cell(u, v, nx, ny):
    """Bilinear stencil of the points (u, v), in grid units, on an
    nx x ny grid: for each corner of the points' cells, corner (i, j)
    first, its flat index and its two weight factors. The cell is
    clamped to the grid; the weights are exact and within [0, 1] for
    points inside it."""
    i = np.minimum(np.maximum(np.floor(u).astype(int), 0), nx - 2)
    j = np.minimum(np.maximum(np.floor(v).astype(int), 0), ny - 2)
    du, dv = u - i, v - j
    cu, cv = 1 - du, 1 - dv
    k = i * ny + j
    return (k, cu, cv), (k + ny, du, cv), (k + 1, cu, dv), (k + ny + 1, du, dv)


@dataclass
class GridField:
    """Mollified field on a rectangular grid: arrays indexed [ix, iy],
    cell centers at origin + (ix, iy) * h. sigma, tau and div sigma are
    read between grid points by bilinear interpolation (`_sample`);
    `sigma_at`, `tau_at` and `div_sigma_at` raise LeftGrid off the grid,
    `sigma_at_masked` gives 0 there and at points not alive."""

    origin: Point
    h: float
    eps: float
    fx: np.ndarray
    fy: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        self.sigx = self.fx / self.tau
        self.sigy = self.fy / self.tau
        gx = np.gradient(self.sigx, self.h, axis=0)
        gy = np.gradient(self.sigy, self.h, axis=1)
        self.div_sigma = gx + gy

    @property
    def shape(self):
        return self.fx.shape

    def _sample(self, pts: np.ndarray, arrays, alive=None):
        """Bilinear values of each grid array at the (N, 2) points, and
        the mask of points inside the grid. The cell and its weights are
        found once for all arrays. Without `alive`, a point outside the
        grid raises LeftGrid; with it, points that are dead or outside
        get 0."""
        nx, ny = self.shape
        u = (pts[:, 0] - self.origin[0]) / self.h
        v = (pts[:, 1] - self.origin[1]) / self.h
        inside = (u >= 0) & (u <= nx - 1) & (v >= 0) & (v <= ny - 1)
        ok = inside if alive is None else alive & inside
        every = bool(ok.all())
        if alive is None and not every:
            raise LeftGrid("point outside the sampled grid")
        if not every:
            u, v = u[ok], v[ok]
        (k, cu, cv), *corners = _cell(u, v, nx, ny)
        out = []
        for A in arrays:
            a = A.ravel()
            val = a.take(k)
            val *= cu
            val *= cv
            for kc, wu, wv in corners:
                t = a.take(kc)
                t *= wu
                t *= wv
                val += t
            if not every:
                val, part = np.zeros(len(pts)), val
                val[ok] = part
            out.append(val)
        return tuple(out), inside

    def sigma_at(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._sample(pts, (self.sigx, self.sigy))[0]

    def sigma_at_masked(self, pts, alive):
        (sx, sy), inside = self._sample(pts, (self.sigx, self.sigy), alive)
        return sx, sy, inside

    def tau_at(self, pts: np.ndarray) -> np.ndarray:
        return self._sample(pts, (self.tau,))[0][0]

    def div_sigma_at(self, pts: np.ndarray) -> np.ndarray:
        return self._sample(pts, (self.div_sigma,))[0][0]

    def total_tau(self) -> float:
        return float(self.tau.sum()) * self.h * self.h


def mollify(f: CurveField, eps: float, h: float) -> GridField:
    """Gaussian mollification of the field and its variation measure,
    kernel bandwidth eps truncated at 4 eps and discretely normalized;
    tau gets a floor of eps times a unit Gaussian bump at the support
    centroid (renormalized so the floor integrates to eps exactly)."""
    if not (eps > 0 and h > 0):
        raise ValueError(f"mollify needs eps > 0 and h > 0, got {eps}, {h}")
    from scipy.signal import fftconvolve

    pts = [v for c in f for v in c.vertices]
    if pts:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        m = 4 * eps + 2 * h
        x0, y0, x1, y1 = min(xs) - m, min(ys) - m, max(xs) + m, max(ys) + m
    else:
        x0, y0, x1, y1 = -4 * eps, -4 * eps, 4 * eps, 4 * eps
    nx = int(math.ceil((x1 - x0) / h)) + 1
    ny = int(math.ceil((y1 - y0) / h)) + 1

    # each segment in n pieces of length at most h / 2, each piece's
    # field and mass deposited bilinearly at its midpoint
    px, py, dx, dy, mass = ([np.empty(0)] for _ in range(5))
    for c in f:
        for a, b in c.segments():
            L = dist(a, b)
            if L == 0.0:
                continue
            n = max(1, int(math.ceil(L / (h / 2))))
            k = np.arange(n)
            t = (k / n + (k + 1) / n) / 2
            px.append(a[0] + t * (b[0] - a[0]))
            py.append(a[1] + t * (b[1] - a[1]))
            dx.append(np.full(n, c.weight * ((b[0] - a[0]) / n)))
            dy.append(np.full(n, c.weight * ((b[1] - a[1]) / n)))
            mass.append(np.full(n, abs(c.weight) * L / n))
    u = (np.concatenate(px) - x0) / h
    v = (np.concatenate(py) - y0) / h
    cell = _cell(u, v, nx, ny)
    # sample-major, so each node sums its terms in sample order
    idx = np.stack([kc for kc, _, _ in cell], axis=1).ravel()

    def deposit(val):
        w = np.stack([val * wu * wv for _, wu, wv in cell], axis=1).ravel()
        return np.bincount(idx, w, minlength=nx * ny).reshape(nx, ny)

    Mx, My, Mv = (deposit(np.concatenate(w)) for w in (dx, dy, mass))

    r = int(math.ceil(4 * eps / h))
    ax = np.arange(-r, r + 1) * h
    K = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2) / (2 * eps * eps))
    K[np.sqrt(ax[:, None] ** 2 + ax[None, :] ** 2) > 4 * eps] = 0.0
    K /= K.sum() * h * h  # discrete normalization: sum K h^2 = 1

    fx = fftconvolve(Mx, K, mode="same")
    fy = fftconvolve(My, K, mode="same")
    tau = fftconvolve(Mv, K, mode="same")

    if pts:
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
    else:
        cx = cy = 0.0
    gx = x0 + np.arange(nx) * h
    gy = y0 + np.arange(ny) * h
    beta = np.exp(
        -((gx[:, None] - cx) ** 2 + (gy[None, :] - cy) ** 2) / 2.0
    )
    beta /= beta.sum() * h * h
    tau = tau + eps * beta
    return GridField((x0, y0), h, eps, fx, fy, tau)


def _velocity(gf: GridField, pts: np.ndarray, alive):
    if alive is None:
        return np.stack(gf.sigma_at(pts), axis=1), True
    *s, inside = gf.sigma_at_masked(pts, alive)
    return np.stack(s, axis=1), inside


def _rk4_step(gf: GridField, x: np.ndarray, dt: float, alive=None):
    """The classical RK4 increment of x' = sigma(x) over one step dt
    from the (N, 2) points x, and the mask of points whose four stages
    all lay inside the grid. Without `alive`, a stage outside the grid
    raises LeftGrid; with it, dead or outside points have velocity 0."""
    k1, in1 = _velocity(gf, x, alive)
    k2, in2 = _velocity(gf, x + 0.5 * dt * k1, alive)
    k3, in3 = _velocity(gf, x + 0.5 * dt * k2, alive)
    k4, in4 = _velocity(gf, x + dt * k3, alive)
    # dt / 6 (k1 + 2 k2 + 2 k3 + k4), summed in that order, in place
    k2 *= 2
    k1 += k2
    k3 *= 2
    k1 += k3
    k1 += k4
    k1 *= dt / 6.0
    return k1, in1 & in2 & in3 & in4


def _trajectory(gf: GridField, seed: Point, T: float, dt: float) -> np.ndarray:
    """The (n + 1, 2) points of the fixed-step RK4 flow of x' = sigma(x)
    from the seed, n = round(T / dt). LeftGrid when a stage or the final
    point leaves the grid."""
    n = int(round(T / dt))
    X = np.empty((n + 1, 2))
    X[0] = seed[0], seed[1]
    for k in range(n):
        X[k + 1] = X[k] + _rk4_step(gf, X[k : k + 1], dt)[0][0]
    gf._sample(X[n:], ())  # LeftGrid if the final point is outside
    return X


def flow_trace(
    gf: GridField, seed: Point, T: float = 1.0, dt: float = 1e-3
) -> PolyCurve:
    """Fixed-step fourth-order integration of x' = sigma(x); vertices
    recorded every step. LeftGrid when a stage or the final point leaves
    the grid."""
    return PolyCurve(_trajectory(gf, seed, T, dt).tolist(), 1.0)


def reconstruct_check(
    gf: GridField,
    Phi: Callable[[np.ndarray], np.ndarray],
    N: int,
    T: float = 1.0,
    dt: float = 1e-3,
    rng_seed: int = 0,
) -> tuple[float, float, float, int]:
    """Monte-Carlo verification that flow curves decompose the mollified
    field: lhs integrates Phi . f_eps over the grid; the estimate
    averages line integrals of Phi over flow curves of time T started
    from tau-distributed seeds, scaled by total tau mass and divided by
    T, so it estimates lhs for every T. Seeds are jittered within their
    cell and reflected back into the grid where the jitter leaves it.
    Phi maps an (N, 2) array to an (N, 2) array. Returns (lhs,
    estimate, stderr, number of truncated trajectories)."""
    if not (N >= 2 and T > 0 and dt > 0):
        raise ValueError(
            f"reconstruct_check needs N >= 2, T > 0 and dt > 0, got {N}, {T}, {dt}"
        )
    h = gf.h
    nx, ny = gf.shape
    gx = gf.origin[0] + np.arange(nx) * h
    gy = gf.origin[1] + np.arange(ny) * h
    GX, GY = np.meshgrid(gx, gy, indexing="ij")
    cells = np.stack([GX.ravel(), GY.ravel()], axis=1)
    vals = Phi(cells)
    lhs = float(
        (vals[:, 0] * gf.fx.ravel() + vals[:, 1] * gf.fy.ravel()).sum()
        * h
        * h
    )

    rng = np.random.default_rng(rng_seed)
    p = gf.tau.ravel()
    p = p / p.sum()
    pick = rng.choice(len(p), size=N, p=p)
    jitter = rng.uniform(-0.5, 0.5, size=(N, 2)) * h
    x = cells[pick] + jitter
    # reflect jittered seeds back into the grid: on its edge sigma is
    # round-off and may point out of it
    for col, g in zip(x.T, (gx, gy)):
        np.copyto(col, 2 * g[0] - col, where=col < g[0])
        np.copyto(col, 2 * g[-1] - col, where=col > g[-1])

    alive = np.ones(N, dtype=bool)
    integral = np.zeros(N)
    nsteps = int(round(T / dt))
    for _ in range(nsteps):
        step, inside = _rk4_step(gf, x, dt, alive)
        alive &= inside
        pv = Phi(x + 0.5 * step)
        inc = pv[:, 0] * step[:, 0] + pv[:, 1] * step[:, 1]
        np.add(integral, inc, out=integral, where=alive)
        np.add(x, step, out=x, where=alive[:, None])
    mass = gf.total_tau()
    estimate = mass * float(integral.mean()) / T
    stderr = mass * float(integral.std(ddof=1)) / math.sqrt(N) / T
    left = int(N - alive.sum())
    return lhs, estimate, stderr, left


def transport_invariant(
    gf: GridField, seed: Point, T: float = 1.0, dt: float = 1e-3
) -> float:
    """Maximum drift of log tau along a flow curve corrected by the
    accumulated divergence of sigma; zero for the exact continuity
    equation, O(dt^2 + h^2) discretely. LeftGrid when a stage or the
    final point leaves the grid."""
    X = _trajectory(gf, seed, T, dt)
    (tau, div), _ = gf._sample(X, (gf.tau, gf.div_sigma))
    # trapezoid rule, summed in step order (cumsum does not pair terms);
    # math.log, because np.log may differ from it by an ulp
    acc = np.cumsum(0.5 * (div[:-1] + div[1:]) * dt)
    log0, *logs = map(math.log, tau.tolist())
    worst = 0.0
    for lg, a in zip(logs, acc.tolist()):
        worst = max(worst, abs(lg - log0 + a))
    return worst
