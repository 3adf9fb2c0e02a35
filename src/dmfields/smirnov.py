"""Curve decomposition, exact and numerical.

Exact side: snap a polygonal field onto a graph (merging vertices,
splitting collinear overlaps, cancelling antiparallel mass), then peel
off source-to-sink paths and cycles whose recomposition reproduces the
edge weights. A dimension lift sends any finite-divergence planar field
to a divergence-free spatial one, so the cycle machinery applies to
fields with sources; projecting the flat portions back recovers the
plane field.

Numerical side: mollify the field to a smooth direction field
sigma = f_eps / tau_eps on a grid, trace its flow with fixed-step RK4,
and check the resulting curve decomposition by Monte-Carlo integration
against grid integrals, including the mass-transport invariant
tau(G_t(x)) det(grad G_t(x)) = const along trajectories. Every grid
lookup goes through one bilinear sampler, `GridField._sample`, and
every integrator through one RK4 step, `_rk4_step`. Single flow curves
come from one trajectory driver, `_trajectory`, and the drift check
reads tau and div sigma along the whole curve in one lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import LeftGrid, MalformedLift
from .core import (
    AtomicMeasure,
    CurveField,
    Point,
    PolyCurve,
    dist,
    field_divergence,
    field_mass,
)

# ---------------------------------------------------------------------------
# exact graph decomposition


@dataclass(frozen=True)
class FlowGraph:
    nodes: tuple[Point, ...]
    edges: tuple[tuple[int, int, float], ...]  # (u, v, weight > 0)
    imbalance: tuple[float, ...]  # out minus in, per node


def _interior_nodes(segs, reps, tol):
    """(t, node) for the nodes within tol of the interior of each segment,
    t its projection parameter. The projection uses every coordinate, so
    a lifted height-0 segment does not meet the height-1 copy of a vertex.
    numpy computes every (segment, node) parameter with the scalar
    arithmetic and leaves `dist` only the pairs within 2 tol."""
    hits: list[list[tuple[float, Point]]] = [[] for _ in segs]
    if not segs:
        return hits
    R = np.array(reps, dtype=float)
    A = np.array([a for a, _, _ in segs], dtype=float)
    D = np.array([b for _, b, _ in segs], dtype=float) - A
    L = np.array([dist(a, b) for a, b, _ in segs])
    step = max(1, (1 << 16) // len(reps))
    for s0 in range(0, len(segs), step):
        a, d, l = (X[s0 : s0 + step, None] for X in (A, D, L))
        ts = ((R - a) * d).sum(axis=2) / (l * l)
        gap = ((a + ts[..., None] * d - R) ** 2).sum(axis=2)
        lo = tol / l
        near = (lo < ts) & (ts < 1 - lo) & (gap <= 4 * tol * tol)
        for i, j in zip(*(x.tolist() for x in np.nonzero(near))):
            (a0, b0, _), r, t = segs[s0 + i], reps[j], float(ts[i, j])
            if r == a0 or r == b0:
                continue
            proj = tuple(ak + t * (bk - ak) for ak, bk in zip(a0, b0))
            if dist(proj, r) <= tol:
                hits[s0 + i].append((t, r))
    return hits


def snap_to_graph(f: CurveField, tol: float = 1e-9) -> FlowGraph:
    """Merge vertices within tol, split edges at nodes lying on them,
    cancel antiparallel overlaps, drop zero weight. Node imbalances then
    equal the field's divergence coefficients."""
    # each vertex, in sorted order, goes to the first earlier
    # representative within tol, or becomes one
    reps: list[Point] = []
    rep: dict[Point, Point] = {}
    for p in sorted({p for c in f for p in c.vertices}):
        r = next((r for r in reps if dist(p, r) <= tol), None)
        if r is None:
            reps.append(p)
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


def graph_decompose(g: FlowGraph, tol: float = 1e-12) -> list[PolyCurve]:
    """Peel source-to-sink paths while positive imbalances remain, then
    cycles; each extraction removes the minimum weight along its walk.
    Deterministic: lexicographically smallest choices throughout."""
    w = {}
    out: dict[int, list[int]] = {}
    for u, v, wt in g.edges:
        w[(u, v)] = w.get((u, v), 0.0) + wt
        out.setdefault(u, []).append(v)
    for u in out:
        out[u] = sorted(set(out[u]), key=lambda v: g.nodes[v])
    imb = list(g.imbalance)

    def live(u, v):
        return w.get((u, v), 0.0) > tol

    def walk_to_sink(s: int):
        # breadth-first over live edges to the nearest deficit node;
        # conservation guarantees one is reachable from any source
        from collections import deque

        parent = {s: None}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if imb[u] < -tol and u != s:
                path = [u]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path[::-1]
            for v in out.get(u, []):
                if live(u, v) and v not in parent:
                    parent[v] = u
                    queue.append(v)
        return None

    curves: list[PolyCurve] = []
    node_order = sorted(range(len(g.nodes)), key=lambda i: g.nodes[i])
    while True:
        s = next((i for i in node_order if imb[i] > tol), None)
        if s is None:
            break
        path = walk_to_sink(s)
        if path is None:
            break
        amt = min(w[(u, v)] for u, v in zip(path, path[1:]))
        amt = min(amt, imb[path[0]], -imb[path[-1]])
        for u, v in zip(path, path[1:]):
            w[(u, v)] -= amt
        imb[path[0]] -= amt
        imb[path[-1]] += amt
        curves.append(PolyCurve([g.nodes[i] for i in path], amt))
    # cycles
    while True:
        s = next(
            (u for u in node_order if any(live(u, v) for v in out.get(u, []))),
            None,
        )
        if s is None:
            break
        path = [s]
        pos = {s: 0}
        while True:
            u = path[-1]
            nxt = next((v for v in out.get(u, []) if live(u, v)), None)
            if nxt is None:
                # float residue below tolerance left a dead end; the
                # weight that led here is unreturnable, drop it
                if len(path) > 1:
                    w[(path[-2], path[-1])] = 0.0
                else:
                    for v in out.get(u, []):
                        w[(u, v)] = 0.0
                break
            if nxt in pos:
                cyc = path[pos[nxt]:] + [nxt]
                amt = min(w[(a, b)] for a, b in zip(cyc, cyc[1:]))
                for a, b in zip(cyc, cyc[1:]):
                    w[(a, b)] -= amt
                curves.append(PolyCurve([g.nodes[i] for i in cyc], amt))
                break
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


def project_curves(
    curves: Sequence[PolyCurve], tol: float = 1e-9
) -> list[PolyCurve]:
    """Keep the maximal height-zero run of each curve, projected to the
    plane; curves never reaching height zero are dropped. The run must
    be contiguous (cyclically, for closed curves) and entered/left by
    purely vertical segments."""
    out: list[PolyCurve] = []
    for c in curves:
        if c.dimension != 3:
            raise MalformedLift("projection expects spatial curves")
        zs = [abs(v[2]) <= tol for v in c.vertices]
        if not any(zs):
            continue
        if all(zs):
            out.append(PolyCurve([(v[0], v[1]) for v in c.vertices], c.weight))
            continue
        verts = list(c.vertices)
        flags = list(zs)
        closed = c.is_closed
        if closed:
            # rotate so the flat run is contiguous in the list
            verts = verts[:-1]
            flags = flags[:-1]
            n = len(verts)
            start = next(
                i for i in range(n) if flags[i] and not flags[(i - 1) % n]
            )
            verts = verts[start:] + verts[:start]
            flags = flags[start:] + flags[:start]
            verts.append(verts[0])
            # the closing duplicate repeats the run's first vertex; keep
            # it out of the run so contiguity means cyclic contiguity
            flags.append(False)
        idx = [i for i, z in enumerate(flags) if z]
        if idx != list(range(idx[0], idx[-1] + 1)):
            raise MalformedLift("height-zero vertices are not contiguous")
        if len(idx) < 2:
            raise MalformedLift("flat portion has no length")
        lo, hi = idx[0], idx[-1]
        checks = [(lo - 1, lo), (hi + 1, hi)]
        if closed and lo == 0:
            checks.append((len(verts) - 2, 0))
        for j, k in checks:
            if 0 <= j < len(verts):
                a, b = verts[j], verts[k]
                if abs(a[0] - b[0]) > tol or abs(a[1] - b[1]) > tol:
                    raise MalformedLift(
                        "flat portion not entered by a vertical segment"
                    )
        out.append(
            PolyCurve([(v[0], v[1]) for v in verts[lo : hi + 1]], c.weight)
        )
    return out


# ---------------------------------------------------------------------------
# numerical pipeline


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
        i = np.minimum(np.maximum(np.floor(u).astype(int), 0), nx - 2)
        j = np.minimum(np.maximum(np.floor(v).astype(int), 0), ny - 2)
        # exact and within [0, 1] for points inside the grid
        du, dv = u - i, v - j
        cu, cv = 1 - du, 1 - dv
        k = i * ny + j  # flat index of the cell's corner (i, j)
        corners = ((k + ny, du, cv), (k + 1, cu, dv), (k + ny + 1, du, dv))
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


def mollify(
    f: CurveField,
    eps: float,
    h: float,
    bounds: tuple[float, float, float, float] | None = None,
) -> GridField:
    """Gaussian mollification of the field and its variation measure,
    kernel bandwidth eps truncated at 4 eps and discretely normalized;
    tau gets a floor of eps times a unit Gaussian bump at the support
    centroid (renormalized so the floor integrates to eps exactly)."""
    if not (eps > 0 and h > 0):
        raise ValueError(f"mollify needs eps > 0 and h > 0, got {eps}, {h}")
    from scipy.signal import fftconvolve

    pts = [v for c in f for v in c.vertices]
    if bounds is None:
        if pts:
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            m = 4 * eps + 2 * h
            bounds = (min(xs) - m, min(ys) - m, max(xs) + m, max(ys) + m)
        else:
            bounds = (-4 * eps, -4 * eps, 4 * eps, 4 * eps)
    x0, y0, x1, y1 = bounds
    nx = int(math.ceil((x1 - x0) / h)) + 1
    ny = int(math.ceil((y1 - y0) / h)) + 1
    Mx = np.zeros((nx, ny))
    My = np.zeros((nx, ny))
    Mv = np.zeros((nx, ny))

    def deposit(A, px, py, val):
        u = (px - x0) / h
        v = (py - y0) / h
        i = min(max(int(math.floor(u)), 0), nx - 2)
        j = min(max(int(math.floor(v)), 0), ny - 2)
        du = u - i
        dv = v - j
        A[i, j] += val * (1 - du) * (1 - dv)
        A[i + 1, j] += val * du * (1 - dv)
        A[i, j + 1] += val * (1 - du) * dv
        A[i + 1, j + 1] += val * du * dv

    for c in f:
        for a, b in c.segments():
            L = dist(a, b)
            if L == 0.0:
                continue
            n = max(1, int(math.ceil(L / (h / 2))))
            for k in range(n):
                t0, t1 = k / n, (k + 1) / n
                mxp = a[0] + (t0 + t1) / 2 * (b[0] - a[0])
                myp = a[1] + (t0 + t1) / 2 * (b[1] - a[1])
                seg = ((b[0] - a[0]) / n, (b[1] - a[1]) / n)
                deposit(Mx, mxp, myp, c.weight * seg[0])
                deposit(My, mxp, myp, c.weight * seg[1])
                deposit(Mv, mxp, myp, abs(c.weight) * L / n)

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
    from the seed, n = round(T / dt). LeftGrid when a stage leaves the
    grid; the final point itself is not sampled."""
    n = int(round(T / dt))
    X = np.empty((n + 1, 2))
    X[0] = seed[0], seed[1]
    for k in range(n):
        X[k + 1] = X[k] + _rk4_step(gf, X[k : k + 1], dt)[0][0]
    return X


def flow_trace(
    gf: GridField, seed: Point, T: float = 1.0, dt: float = 1e-3
) -> PolyCurve:
    """Fixed-step fourth-order integration of x' = sigma(x); vertices
    recorded every step. LeftGrid when a stage leaves the grid."""
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
