"""Curve decomposition, exact and numerical.

Exact side: snap a polygonal field onto a graph (merging vertices,
splitting collinear overlaps, cancelling antiparallel mass), then peel
off source-to-sink paths and cycles whose recomposition reproduces the
edge weights. From the merge on, a node is its representative's index,
and representatives are made in sorted point order, so index order is
point order. Both run in sweeps that only move forward: each vertex
meets only the representatives in its sorted-x window
(`core.x_window`), and each segment, when split at the nodes lying on
it, only the nodes in its box, widened by a slack and found through the
same sorted x-coordinates; sources come from one cursor over the sorted
nodes, cycle walks start from each node in sorted order and resume from
their prefix after each cycle or dead end; each node's first live
out-edge comes from its own cursor into its sorted out-neighbours, whose
weights sit in a parallel list, so walks spend weights by position.
The peel checks the graph's nodes once and builds its curves from them
without checking each vertex again. A dimension lift sends any
finite-divergence planar field to a divergence-free spatial one, so the
cycle machinery applies to fields with sources; projecting each
maximal height-zero run of a lifted curve back to the plane, as its own
curve with the curve's weight, recovers the plane field.

Numerical side: mollify the field to a smooth direction field
sigma = f_eps / tau_eps on a grid, trace its flow with fixed-step RK4,
and check the resulting curve decomposition by Monte-Carlo integration
against grid integrals, including the mass-transport invariant
tau(G_t(x)) det(grad G_t(x)) = const along trajectories. The
bilinear stencil is `_cell`'s; it places mollify's deposits too. The
one RK4 step, `_rk4`, only adds and scales what its sigma returns, so it
steps numpy arrays and Python floats alike. Particle clouds
(`reconstruct_check`) keep x and y as two 1-D arrays and read sigma
through the batched `GridField._sample`; single flow curves
(`flow_trace`, `transport_invariant`) read it through
`_point_sampler`'s stencil on Python floats, about 50 times faster for
one point; its per-call memo reads only the cells a curve visits. Both
samplers share the stencil, corner order and arithmetic, so IEEE
arithmetic gives them the same bits; tests pin them equal bit for bit.
A cloud of N particles is stepped in min(CPUs, N // 5,000) contiguous
slices (at least one), each other than the first in a forked child
process. Phi must be row-wise: each row of Phi(X) depends on that row
of X alone. Then every particle's path depends on that particle alone,
and the joined slices give the one-process bits.
The drift check reads tau and div sigma along the whole curve at once.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
from collections import deque
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidInput, LeftGrid, MalformedLift
from .core import (
    CurveField,
    Point,
    PolyCurve,
    as_point,
    dist,
    field_divergence,
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
    """(t, n) for the nodes n within tol of the interior of each segment
    (i, j, w), t the projection parameter. Segment ends and hits are
    indices into reps, whose first coordinates must not decrease. The
    projection uses every coordinate, so a lifted height-0 segment does
    not meet the height-1 copy of a vertex.

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
    hits: list[list[tuple[float, int]]] = [[] for _ in segs]
    if not segs:
        return hits
    # one row per coordinate; every segment end is a representative
    R = np.array(reps, dtype=float).T.copy()
    ends = np.array([(a, b) for a, b, _ in segs]).T
    A, B = R.take(ends[0], axis=1), R.take(ends[1], axis=1)
    D = B - A
    L = np.array([dist(reps[a], reps[b]) for a, b, _ in segs])
    slack = 2 * max(tol, _TINY) + 16 * np.spacing(np.abs(R).max())
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
            a0, b0, _ = segs[s]
            if n == a0 or n == b0:
                continue
            proj = tuple(ak + t * (bk - ak) for ak, bk in zip(reps[a0], reps[b0]))
            if dist(proj, reps[n]) <= tol:
                hits[s].append((t, n))
    return hits


def snap_to_graph(f: CurveField, tol: float = 1e-9) -> FlowGraph:
    """Merge vertices within tol, split edges at nodes lying on them,
    cancel antiparallel overlaps, drop zero weight. Node imbalances then
    equal the field's divergence coefficients. InvalidInput unless
    0 <= tol < inf."""
    if not 0 <= tol < math.inf:
        raise InvalidInput(f"snap_to_graph needs 0 <= tol < inf, got {tol}")
    # each vertex, in sorted order, goes to the first earlier
    # representative within tol, or becomes one; representatives are
    # appended in sorted order, so x never decreases and index order is
    # point order
    reps: list[Point] = []
    xs: list[float] = []
    rep: dict[Point, int] = {}
    for p in sorted({p for c in f for p in c.vertices}):
        r = next((k for k in x_window(xs, p[0], tol) if dist(p, reps[k]) <= tol), None)
        if r is None:
            r = len(reps)
            reps.append(p)
            xs.append(p[0])
        rep[p] = r
    segs: list[tuple[int, int, float]] = []
    for c in f:
        for a, b in c.segments():
            u, v = rep[a], rep[b]
            if u != v:
                segs.append((u, v, c.weight))
    # each piece between consecutive nodes on a segment, and its
    # reverse, accumulate under the smaller orientation
    acc: dict[tuple[int, int], float] = {}
    for (a, b, w), hits in zip(segs, _interior_nodes(segs, reps, tol)):
        ns = [a] + [n for _, n in sorted(hits)] + [b]
        for u, v in zip(ns, ns[1:]):
            key = min((u, v), (v, u))
            acc[key] = acc.get(key, 0.0) + (w if key == (u, v) else -w)
    used = sorted({n for key, w in acc.items() if w != 0.0 for n in key})
    index = {r: i for i, r in enumerate(used)}
    edges = []
    for (u, v), w in sorted(acc.items()):
        if w > 0.0:
            edges.append((index[u], index[v], w))
        elif w < 0.0:
            edges.append((index[v], index[u], -w))
    imb = [0.0] * len(used)
    for u, v, w in edges:
        imb[u] += w
        imb[v] -= w
    return FlowGraph(tuple(reps[r] for r in used), tuple(sorted(edges)), tuple(imb))


def graph_decompose(g: FlowGraph) -> list[PolyCurve]:
    """Peel source-to-sink paths while positive imbalances remain, then
    cycles; each extraction removes the minimum weight along its walk,
    and weights and imbalances at or below 1e-12 count as spent.
    Deterministic: lexicographically smallest choices throughout.
    InvalidInput unless every node passes `as_point`; the nodes are
    checked once, not again in each curve."""
    tol = 1e-12
    nodes = [as_point(p) for p in g.nodes]
    # out[u]: u's out-neighbours, sorted by node; w[u]: the summed
    # weights of the edges to them, in the same positions
    acc: list[dict[int, float]] = [{} for _ in g.nodes]
    for u, v, wt in g.edges:
        acc[u][v] = acc[u].get(v, 0.0) + wt
    out = [sorted(a, key=g.nodes.__getitem__) for a in acc]
    w = [[a[v] for v in vs] for a, vs in zip(acc, out)]
    imb = list(g.imbalance)

    def walk_to_sink(s: int):
        # breadth-first over live edges to the nearest deficit node;
        # conservation guarantees one is reachable from any source. The
        # path comes back as its edges, (u, k) for out[u][k]
        parent = {s: None}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if imb[u] < -tol and u != s:
                steps = []
                while parent[u] is not None:
                    u, k = parent[u]
                    steps.append((u, k))
                return steps[::-1]
            for k, v in enumerate(out[u]):
                if v not in parent and w[u][k] > tol:
                    parent[v] = (u, k)
                    queue.append(v)
        return None

    # weights and source imbalances only fall, so a node that stops being
    # a source and an edge that dies stay so: the cursors below only move
    # forward, past nodes and edges that can never be chosen again
    cur = [0] * len(g.nodes)  # out[u][:cur[u]] are dead

    def first_live(u):
        ws, i = w[u], cur[u]
        while i < len(ws) and not ws[i] > tol:
            i += 1
        cur[u] = i
        return out[u][i] if i < len(ws) else None

    curves: list[PolyCurve] = []
    node_order = sorted(range(len(g.nodes)), key=g.nodes.__getitem__)
    k = 0
    while True:
        while k < len(node_order) and not imb[node_order[k]] > tol:
            k += 1
        if k == len(node_order):
            break
        steps = walk_to_sink(node_order[k])
        if steps is None:
            break
        path = [node_order[k]] + [out[u][i] for u, i in steps]
        amt = min(min(w[u][i] for u, i in steps), imb[path[0]], -imb[path[-1]])
        for u, i in steps:
            w[u][i] -= amt
        imb[path[0]] -= amt
        imb[path[-1]] += amt
        curves.append(PolyCurve._of_points([nodes[i] for i in path], amt))
    # cycles: walk from each node in order while it has a live edge,
    # leaving each node a by out[a][cur[a]]. A cycle or a dead end changes
    # no edge of the walk before it, so a walk restarted from the same
    # node would retrace that prefix: the walk resumes from it instead
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
                    w[path[-1]][cur[path[-1]]] = 0.0
            elif nxt in pos:
                q = pos[nxt]
                cyc = path[q:] + [nxt]
                amt = min(w[a][cur[a]] for a in cyc[:-1])
                for a in cyc[:-1]:
                    w[a][cur[a]] -= amt
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
    `sigma_at_masked` gives 0 there and at points not alive. InvalidInput
    unless tau is positive everywhere."""

    origin: Point
    h: float
    eps: float
    fx: np.ndarray
    fy: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        if not (m := float(self.tau.min())) > 0:
            raise InvalidInput(f"min tau {m:.3g} <= 0: tau's floor is below round-off")
        self.sigx = self.fx / self.tau
        self.sigy = self.fy / self.tau
        gx = np.gradient(self.sigx, self.h, axis=0)
        gy = np.gradient(self.sigy, self.h, axis=1)
        self.div_sigma = gx + gy

    @property
    def shape(self):
        return self.fx.shape

    def _sample(self, x: np.ndarray, y: np.ndarray, arrays, alive=None):
        """Bilinear values of each grid array at the points (x, y), and
        the mask of points inside the grid. The cell and its weights are
        found once for all arrays. Without `alive`, a point outside the
        grid raises LeftGrid; with it, points that are dead or outside
        get 0."""
        nx, ny = self.shape
        u = (x - self.origin[0]) / self.h
        v = (y - self.origin[1]) / self.h
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
                val, part = np.zeros(len(x)), val
                val[ok] = part
            out.append(val)
        return tuple(out), inside

    def sigma_at(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._sample(pts[:, 0], pts[:, 1], (self.sigx, self.sigy))[0]

    def sigma_at_masked(self, x, y, alive):
        (sx, sy), inside = self._sample(x, y, (self.sigx, self.sigy), alive)
        return sx, sy, inside

    def tau_at(self, pts: np.ndarray) -> np.ndarray:
        return self._sample(pts[:, 0], pts[:, 1], (self.tau,))[0][0]

    def div_sigma_at(self, pts: np.ndarray) -> np.ndarray:
        return self._sample(pts[:, 0], pts[:, 1], (self.div_sigma,))[0][0]

    def total_tau(self) -> float:
        return float(self.tau.sum()) * self.h * self.h


def _convolve_same(arrays, K: np.ndarray) -> list[np.ndarray]:
    """`scipy.signal.fftconvolve(M, K, mode="same")` for each of the
    equal-shape 2-D arrays M, step for step and so bit for bit, with K
    transformed once: the full convolution at a fast real-FFT size, then
    its centred part of M's shape. Every axis must have length at least
    2 (fftconvolve multiplies length-1 axes without a transform)."""
    from scipy import fft

    (nx, ny), (kx, ky) = arrays[0].shape, K.shape
    size = [fft.next_fast_len(n + k - 1, True) for n, k in ((nx, kx), (ny, ky))]
    Khat = fft.rfftn(K, size)
    i, j = (kx - 1) // 2, (ky - 1) // 2
    return [
        fft.irfftn(fft.rfftn(M, size) * Khat, size)[i : i + nx, j : j + ny].copy()
        for M in arrays
    ]


def mollify(f: CurveField, eps: float, h: float) -> GridField:
    """Gaussian mollification of the field and its variation measure,
    kernel bandwidth eps truncated at 4 eps and discretely normalized;
    tau gets the floor eps spread evenly over the grid, so it integrates
    to eps and no length but eps and h enters: scaling the field, eps
    and h by a power of 2 scales fx, fy and tau by its inverse, bit for
    bit. The floor divides by h twice, so where h * h underflows it is
    inf, not a ZeroDivisionError. DimensionMismatch for a field off the
    plane; InvalidInput unless eps and h are finite and positive and the
    grid's extent, in steps of h, is finite; also when tau is not
    positive somewhere, as when the field's weight is so large that the
    convolution's round-off outweighs the floor."""
    if f.dimension not in (None, 2):
        raise DimensionMismatch("mollify needs a planar field")
    if not (0 < eps < math.inf and 0 < h < math.inf):
        raise InvalidInput(f"mollify needs finite eps > 0 and h > 0, got {eps}, {h}")
    pts = [v for c in f for v in c.vertices]
    if pts:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        m = 4 * eps + 2 * h
        x0, y0, x1, y1 = min(xs) - m, min(ys) - m, max(xs) + m, max(ys) + m
    else:
        x0, y0, x1, y1 = -4 * eps, -4 * eps, 4 * eps, 4 * eps
    if not math.isfinite((x1 - x0) / h + (y1 - y0) / h):
        raise InvalidInput(f"mollify's grid has no finite extent at eps {eps}, h {h}")
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

    fx, fy, tau = _convolve_same((Mx, My, Mv), K)
    tau += eps / (nx * ny) / h / h
    return GridField((x0, y0), h, eps, fx, fy, tau)


def _rk4(sigma, x, y, dt):
    """The RK4 increment (dx, dy) of (x, y)' = sigma(x, y) over one step
    dt, dt / 6 (k1 + 2 k2 + 2 k3 + k4) summed in that order, for Python
    floats or equal-length numpy arrays x and y alike."""
    half, sixth = 0.5 * dt, dt / 6.0
    k1x, k1y = sigma(x, y)
    k2x, k2y = sigma(x + half * k1x, y + half * k1y)
    k3x, k3y = sigma(x + half * k2x, y + half * k2y)
    k4x, k4y = sigma(x + dt * k3x, y + dt * k3y)
    return (
        (k1x + 2 * k2x + 2 * k3x + k4x) * sixth,
        (k1y + 2 * k2y + 2 * k3y + k4y) * sixth,
    )


def _steps(T: float, dt: float) -> int:
    """The number of fixed steps, round(T / dt); InvalidInput unless T and
    dt are finite and positive and make at least one step, which for
    positive T and dt means 0.5 < T / dt < inf."""
    if not (0 < T < math.inf and 0 < dt < math.inf and 0.5 < T / dt < math.inf):
        raise InvalidInput(
            f"a flow needs finite T, dt > 0 with round(T / dt) >= 1, got {T}, {dt}"
        )
    return round(T / dt)


def _point_sampler(gf: GridField):
    """sigma at one point of Python floats, LeftGrid off the grid:
    `_sample`'s stencil, corner order and sums, so `_sample`'s bits. A
    cell's 8 corner values, sigx's then sigy's, are read on its first
    visit and kept in the sampler, so a flow reads only its own cells."""
    nx, ny = gf.shape
    (ox, oy), h, floor = gf.origin, gf.h, math.floor
    ux, uy, ix, iy = nx - 1, ny - 1, nx - 2, ny - 2
    cells = {}

    def sigma(x, y):
        u, v = (x - ox) / h, (y - oy) / h
        if not (0 <= u <= ux and 0 <= v <= uy):
            raise LeftGrid("point outside the sampled grid")
        # u, v >= 0 here (NaN failed the test) and -0.0 floors to 0, so
        # floor(u), floor(v) >= 0: the cell is clamped from above only
        i, j = floor(u), floor(v)
        if i > ix:
            i = ix
        if j > iy:
            j = iy
        if (c := cells.get(k := i * ny + j)) is None:
            sx, sy = gf.sigx[i : i + 2, j : j + 2], gf.sigy[i : i + 2, j : j + 2]
            c = cells[k] = sx.T.ravel().tolist() + sy.T.ravel().tolist()
        s0, s1, s2, s3, t0, t1, t2, t3 = c
        du, dv = u - i, v - j
        cu, cv = 1 - du, 1 - dv
        return (
            s0 * cu * cv + s1 * du * cv + s2 * cu * dv + s3 * du * dv,
            t0 * cu * cv + t1 * du * cv + t2 * cu * dv + t3 * du * dv,
        )

    return sigma


def _trajectory(gf: GridField, seed: Point, T: float, dt: float) -> list[Point]:
    """The n + 1 points of the fixed-step RK4 flow of x' = sigma(x) from
    the seed, n = `_steps(T, dt)`: `_rk4` on Python floats, sigma read by
    a `_point_sampler` (cells clamped from above only, the bounds test
    having run first) whose cell memo lives for this call, so every
    point has the bits a particle cloud's step gives it. DimensionMismatch
    unless the seed has two coordinates; LeftGrid when the seed, a stage
    or the final point leaves the grid; the seed is checked before T and
    dt."""
    if len(seed) != 2:
        raise DimensionMismatch(f"a flow needs a planar seed, not {len(seed)}-D")
    sigma = _point_sampler(gf)
    x, y = float(seed[0]), float(seed[1])
    sigma(x, y)  # LeftGrid if the seed is outside
    n = _steps(T, dt)
    pts = [(x, y)]
    for _ in range(n):
        dx, dy = _rk4(sigma, x, y, dt)
        x, y = x + dx, y + dy
        pts.append((x, y))
    sigma(x, y)  # LeftGrid if the final point is outside
    return pts


def flow_trace(
    gf: GridField, seed: Point, T: float = 1.0, dt: float = 1e-3
) -> PolyCurve:
    """Fixed-step fourth-order integration of x' = sigma(x); vertices
    recorded every step. DimensionMismatch unless the seed is planar;
    LeftGrid when a stage or the final point leaves the grid."""
    # the points lie inside the grid, so they are finite floats
    return PolyCurve._of_points(_trajectory(gf, seed, T, dt), 1.0)


def rotation(cx: float, cy: float, X: np.ndarray) -> np.ndarray:
    """The quarter-turn field (-(y - cy), x - cx) about (cx, cy); bound
    by `functools.partial`, a Phi for `reconstruct_check`."""
    return np.stack([-(X[:, 1] - cy), X[:, 0] - cx], axis=1)


# The fewest particles per slice. Two slices against one process on
# AC-9's triangle (200 steps of 1e-3, 2-CPU host, medians of 7): 1.33x
# the time at 50 particles, 1.02x at 1,000, 0.94x at 2,000, 0.75x at
# 5,000 and 0.63x at 10,000. The fork, pipe and join cost 10-25 ms,
# so below 1,000 per slice the split loses; 5,000 keeps it a clear
# gain when the other CPU is busy, and keeps small checks (such as
# the benchmark's 1,000-particle probes) in one process.
_SLICE = 5000


def _cloud(gf, Phi, x, y, nsteps, dt):
    """Step the particles (x, y), two equal-length 1-D arrays, in place
    by nsteps fixed RK4 steps of dt; return each particle's line
    integral of Phi along its path, by the midpoint rule on each step,
    and whether it stayed on the grid. A particle that leaves the grid
    at any stage of a step stops there and keeps its integral so far."""
    alive = np.ones(len(x), dtype=bool)

    def sigma(px, py):
        # a point that leaves the grid at any stage is dead after the step
        # either way, and alive masks every later use of its values
        sx, sy, inside = gf.sigma_at_masked(px, py, alive)
        np.logical_and(alive, inside, out=alive)
        return sx, sy

    integral = np.zeros(len(x))
    for _ in range(nsteps):
        dx, dy = _rk4(sigma, x, y, dt)
        pv = Phi(np.stack([x + 0.5 * dx, y + 0.5 * dy], axis=1))
        inc = pv[:, 0] * dx + pv[:, 1] * dy
        np.add(integral, inc, out=integral, where=alive)
        np.add(x, dx, out=x, where=alive)
        np.add(y, dy, out=y, where=alive)
    return integral, alive


def _child(conn, work):
    """Send work()'s result through conn, or the exception it raised."""
    try:
        conn.send(work())
    except Exception as e:
        conn.send(e)


def _in_slices(work, cuts):
    """[work(a, b) for consecutive cuts a, b]: the first in this process,
    each other one in a forked child that sends its result back through
    a pipe. Raises the first exception of this process's slice or of
    the children's, in slice order; every child is terminated and
    joined before this returns or raises."""
    procs, conns = [], []
    try:
        for a, b in zip(cuts[1:], cuts[2:]):
            # forked, a child inherits work and all it refers to unpickled
            ctx = multiprocessing.get_context("fork")
            r, w = ctx.Pipe(duplex=False)
            conns.append(r)
            p = ctx.Process(target=_child, args=(w, lambda a=a, b=b: work(a, b)))
            p.start()
            procs.append(p)
            w.close()  # the child holds the only write end: EOF if it dies
        out = [work(cuts[0], cuts[1])]
        for r in conns:
            got = r.recv()
            if isinstance(got, BaseException):
                raise got
            out.append(got)
        return out
    finally:
        for p in procs:
            p.terminate()
            p.join()
        for r in conns:
            r.close()


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
    Phi maps an (N, 2) array to an (N, 2) array, row-wise: each row of
    Phi(X) depends on that row of X alone. Returns (lhs, estimate,
    stderr, number of truncated trajectories).

    All seeds are drawn here, from the one rng. The cloud is then
    stepped in min(CPUs, N // 5,000) contiguous slices, at least one
    (one in a daemonic process, which may not start children): the
    first in this process, each other one in a forked child process,
    so Phi need not pickle. Fork copies only the calling thread, so a
    Phi that takes a lock another thread may hold can hang a child. A
    particle's step, its alive flag and its line integral depend on
    that particle alone, so the slices' arrays, joined in order, are
    the one-process arrays element for element, and the statistics
    over them have the same bits for any number of slices. An
    exception in any slice is raised here, and every child has ended
    when this returns or raises."""
    if N < 2:
        raise InvalidInput(f"reconstruct_check needs N >= 2, got {N}")
    nsteps = _steps(T, dt)
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
    x, y = (cells[pick] + jitter).T.copy()
    # reflect jittered seeds back into the grid: on its edge sigma is
    # round-off and may point out of it
    for col, g in zip((x, y), (gx, gy)):
        np.copyto(col, 2 * g[0] - col, where=col < g[0])
        np.copyto(col, 2 * g[-1] - col, where=col > g[-1])

    # where the platform cannot say (macOS, Windows), one CPU: no fork
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    parts = max(1, min(cpus, N // _SLICE))
    if multiprocessing.current_process().daemon:
        parts = 1  # a daemonic process may not start children
    cuts = [N * k // parts for k in range(parts + 1)]
    slices = _in_slices(
        lambda a, b: _cloud(gf, Phi, x[a:b], y[a:b], nsteps, dt), cuts
    )
    integral, alive = (np.concatenate(a) for a in zip(*slices))
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
    equation, O(dt^2 + h^2) discretely. DimensionMismatch unless the
    seed is planar; LeftGrid when a stage or the final point leaves the
    grid."""
    x, y = np.array(_trajectory(gf, seed, T, dt)).T
    (tau, div), _ = gf._sample(x, y, (gf.tau, gf.div_sigma))
    # trapezoid rule, summed in step order (cumsum does not pair terms);
    # math.log, because np.log may differ from it by an ulp
    acc = np.cumsum(0.5 * (div[:-1] + div[1:]) * dt)
    log0, *logs = map(math.log, tau.tolist())
    return max(abs(lg - log0 + a) for lg, a in zip(logs, acc.tolist()))
