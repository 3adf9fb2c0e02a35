"""Output checks computed with the benchmark's own arithmetic.

Nothing here imports dmfields: every check recomputes the quantity it
judges from first principles (shoelace areas, midpoint-rule line
integrals, endpoint divergences, the capped transport metric), so a
fault in the program cannot also hide in its own verdict. A check
returns a list of problems; an empty list means the output passed.

Curves are passed as (vertices, weight) pairs, measures as
{point: coefficient} dicts, so the checks accept dmfields values and
plain data alike.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np


def as_curves(field) -> list[tuple[tuple, float]]:
    """(vertices, weight) pairs of a dmfields field or curve list."""
    return [(tuple(c.vertices), float(c.weight)) for c in field]


def signed_area(ring) -> float:
    """Shoelace area of a ring, positive when counterclockwise. A
    repeated closing vertex is allowed."""
    pts = list(ring)
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts = pts[:-1]
    s = 0.0
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        s += x1 * y2 - x2 * y1
    return 0.5 * s


def rotation_flux(curves) -> float:
    """Integral of the rotation field (-y, x) along closed curves:
    twice their weighted signed area, whatever the rotation centre."""
    return 2.0 * sum(w * signed_area(v) for v, w in curves)


def mass(curves) -> float:
    return sum(abs(w) * math.dist(a, b) for v, w in curves for a, b in zip(v, v[1:]))


def affine_flux(curves, c, A) -> tuple[float, float]:
    """Integral of Phi(x) = c + A x along the curves by the midpoint
    rule, which is exact for affine Phi, and the sum of the absolute
    values of its terms, the scale of its rounding error."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    total = 0.0
    size = 0.0
    for v, w in curves:
        P = np.asarray(v, dtype=float)
        mid = 0.5 * (P[1:] + P[:-1])
        terms = w * ((c + mid @ A.T) * (P[1:] - P[:-1])).sum(axis=1)
        total += float(terms.sum())
        size += float(np.abs(terms).sum())
    return total, size


def divergence(curves) -> dict:
    """+w at each open curve's start, -w at its end, summed per point."""
    out: dict = defaultdict(float)
    for v, w in curves:
        if v[0] == v[-1]:
            continue
        out[v[0]] += w
        out[v[-1]] -= w
    return dict(out)


def edge_weights(curves) -> dict:
    """Net weight per undirected segment, keyed by its endpoints in
    sorted order and signed along that order; zero nets dropped."""
    net: dict = defaultdict(float)
    for v, w in curves:
        for a, b in zip(v, v[1:]):
            if a < b:
                net[(a, b)] += w
            else:
                net[(b, a)] -= w
    return {k: w for k, w in net.items() if w != 0.0}


def match_measures(a: dict, b: dict, tol: float, loc_tol: float = 1e-9) -> list[str]:
    """Atom-by-atom comparison: every atom heavier than tol on either
    side must meet an atom within loc_tol on the other side carrying
    the same coefficient to tol."""
    a = {p: c for p, c in a.items() if abs(c) > tol}
    b = {p: c for p, c in b.items() if abs(c) > tol}
    problems = []
    for first, second, label in ((a, b, "left"), (b, a, "right")):
        for p, c in first.items():
            near = [q for q in second if math.dist(p, q) <= loc_tol]
            got = sum(second[q] for q in near)
            if abs(got - c) > tol:
                problems.append(f"atom {p}: {label} side {c!r}, other side {got!r}")
    return problems


def near_any(p, points, tol: float = 1e-9) -> bool:
    return any(math.dist(p, q) <= tol for q in points)


def rho(p, q) -> float:
    """The capped metric with a base point: min(|p-q|, 2) between
    points, 1 between a point and the base point. The base point is any
    node that is not a coordinate tuple."""
    if p == q:
        return 0.0
    if not isinstance(p, tuple) or not isinstance(q, tuple):
        return 1.0
    return min(math.dist(p, q), 2.0)


def check_ae_certificate(atoms, value, terms, dual, tol: float = 1e-9) -> list[str]:
    """Certificate for a transport norm value.

    atoms: (point, coefficient) pairs of the element m. terms: (a, p, q)
    dipoles meaning a * (delta_q - delta_p), either end possibly the
    base point. dual: potential per node, base point included.

    Primal: the terms carry positive amounts, recombine to m and cost
    exactly the value. Dual: zero at the base point, rho-Lipschitz over
    the support and the base point, and its objective equals the value.
    Together they prove the value optimal.
    """
    problems = []
    m: dict = defaultdict(float)
    for p, c in atoms:
        m[tuple(p)] += c
    scale = 1.0 + sum(abs(c) for c in m.values())

    recomb: dict = defaultdict(float)
    cost = 0.0
    for a, p, q in terms:
        if not a > 0.0:
            problems.append(f"dipole amount {a!r} is not positive")
        if isinstance(q, tuple):
            recomb[q] += a
        if isinstance(p, tuple):
            recomb[p] -= a
        cost += a * rho(p, q)
    for p in set(m) | set(recomb):
        if abs(m.get(p, 0.0) - recomb.get(p, 0.0)) > tol * scale:
            problems.append(
                f"dipoles recombine to {recomb.get(p, 0.0)!r} at {p}, element has {m.get(p, 0.0)!r}"
            )
            break
    if abs(cost - value) > tol * scale:
        problems.append(f"dipole cost {cost!r} differs from value {value!r}")

    bases = [k for k in dual if not isinstance(k, tuple)]
    if len(bases) != 1:
        problems.append(f"dual has {len(bases)} base-point entries")
        return problems
    if abs(dual[bases[0]]) > tol:
        problems.append(f"dual is {dual[bases[0]]!r} at the base point")
    pts = sorted(m)
    missing = [p for p in pts if p not in dual]
    if missing:
        problems.append(f"dual misses {len(missing)} support points")
        return problems
    if pts:
        P = np.asarray(pts, dtype=float)
        D = np.asarray([dual[p] for p in pts], dtype=float) - dual[bases[0]]
        dist = np.sqrt(((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=2))
        gap = np.abs(D[:, None] - D[None, :]) - np.minimum(dist, 2.0)
        if gap.max() > tol or np.abs(D).max() > 1.0 + tol:
            problems.append(f"dual is not rho-Lipschitz (excess {max(gap.max(), np.abs(D).max() - 1.0):.3e})")
    objective = sum(c * dual[p] for p, c in m.items())
    if abs(objective - value) > tol * scale:
        problems.append(f"dual objective {objective!r} differs from value {value!r}")
    return problems
