"""Weighted polygonal curves, curve fields and atomic measures.

A curve field is a finite list of polygonal curves, each carrying a real
weight; it represents the vector measure that integrates a test field
along every curve. Its distributional divergence is an atomic measure:
a curve with weight w contributes +w at its start and -w at its end, and
closed curves contribute nothing. All values are immutable and every
operation is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch

Point = tuple[float, ...]


def as_point(coords: Iterable[float]) -> Point:
    p = tuple(float(c) for c in coords)
    if len(p) < 2:
        raise ValueError("points need dimension >= 2")
    if not all(math.isfinite(c) for c in p):
        raise ValueError(f"non-finite coordinate in {p}")
    return p


def dist(p: Point, q: Point) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


@dataclass(frozen=True)
class PolyCurve:
    """An ordered polygonal curve with a scalar weight.

    Consecutive duplicate vertices are dropped on construction, except
    that a fully degenerate curve keeps a single point-pair so that it
    still has a start and an end. The curve is closed iff its first and
    last vertices are exactly equal.
    """

    vertices: tuple[Point, ...]
    weight: float = 1.0

    def __init__(self, vertices: Sequence[Sequence[float]], weight: float = 1.0):
        pts = [as_point(v) for v in vertices]
        if len(pts) < 2:
            raise ValueError("a curve needs at least two vertices")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise DimensionMismatch("mixed vertex dimensions in curve")
        dedup = [pts[0]]
        for p in pts[1:]:
            if p != dedup[-1]:
                dedup.append(p)
        if len(dedup) == 1:  # degenerate point curve
            dedup = [pts[0], pts[0]]
        object.__setattr__(self, "vertices", tuple(dedup))
        object.__setattr__(self, "weight", float(weight))

    @property
    def dimension(self) -> int:
        return len(self.vertices[0])

    @property
    def start(self) -> Point:
        return self.vertices[0]

    @property
    def end(self) -> Point:
        return self.vertices[-1]

    @property
    def is_closed(self) -> bool:
        return self.vertices[0] == self.vertices[-1]

    def length(self) -> float:
        return sum(dist(a, b) for a, b in zip(self.vertices, self.vertices[1:]))

    def reversed(self) -> "PolyCurve":
        return PolyCurve(tuple(reversed(self.vertices)), self.weight)

    def segments(self) -> list[tuple[Point, Point]]:
        return list(zip(self.vertices, self.vertices[1:]))

    def point_at(self, t: float) -> Point:
        """Point at global parameter t in [0, n_segments]; integer values
        are vertices, fractional parts interpolate within a segment."""
        n = len(self.vertices) - 1
        t = min(max(t, 0.0), float(n))
        i = min(int(t), n - 1)
        frac = t - i
        # exact vertices at integer parameters, no interpolation noise
        if frac == 0.0:
            return self.vertices[i]
        if frac == 1.0:
            return self.vertices[i + 1]
        a, b = self.vertices[i], self.vertices[i + 1]
        return tuple(x + frac * (y - x) for x, y in zip(a, b))


@dataclass(frozen=True)
class CurveField:
    """A finite collection of weighted polygonal curves (all one dimension).

    The curve list is stored in the given order but every operation on
    fields is insensitive to that order.
    """

    curves: tuple[PolyCurve, ...]

    def __init__(self, curves: Iterable[PolyCurve] = ()):
        cs = tuple(curves)
        dims = {c.dimension for c in cs}
        if len(dims) > 1:
            raise DimensionMismatch(f"mixed curve dimensions {sorted(dims)}")
        object.__setattr__(self, "curves", cs)

    @property
    def dimension(self) -> int | None:
        return self.curves[0].dimension if self.curves else None

    def __len__(self) -> int:
        return len(self.curves)

    def __iter__(self):
        return iter(self.curves)

    def union(self, other: "CurveField") -> "CurveField":
        return CurveField(self.curves + other.curves)

    def scaled(self, s: float) -> "CurveField":
        return CurveField(
            tuple(PolyCurve(c.vertices, s * c.weight) for c in self.curves)
        )


@dataclass(frozen=True)
class AtomicMeasure:
    """A finitely supported signed measure: distinct locations with
    nonzero coefficients. Locations are merged on exact coordinate
    equality only; use :meth:`coalesced` for tolerance-based merging
    after floating point arithmetic."""

    atoms: tuple[tuple[Point, float], ...]

    def __init__(self, atoms: Iterable[tuple[Sequence[float], float]] = ()):
        merged: dict[Point, float] = {}
        for loc, coeff in atoms:
            p = as_point(loc)
            merged[p] = merged.get(p, 0.0) + float(coeff)
        kept = tuple(
            (p, c) for p, c in sorted(merged.items()) if c != 0.0
        )
        object.__setattr__(self, "atoms", kept)

    @property
    def is_empty(self) -> bool:
        return not self.atoms

    def total_mass(self) -> float:
        return sum(abs(c) for _, c in self.atoms)

    def total(self) -> float:
        return sum(c for _, c in self.atoms)

    def locations(self) -> list[Point]:
        return [p for p, _ in self.atoms]

    def coefficient(self, p: Point) -> float:
        for q, c in self.atoms:
            if q == p:
                return c
        return 0.0

    def __add__(self, other: "AtomicMeasure") -> "AtomicMeasure":
        return AtomicMeasure(self.atoms + other.atoms)

    def __neg__(self) -> "AtomicMeasure":
        return AtomicMeasure(tuple((p, -c) for p, c in self.atoms))

    def scaled(self, s: float) -> "AtomicMeasure":
        return AtomicMeasure(tuple((p, s * c) for p, c in self.atoms))

    def restrict(self, pred: Callable[[Point], bool]) -> "AtomicMeasure":
        return AtomicMeasure(tuple((p, c) for p, c in self.atoms if pred(p)))

    def coalesced(self, tol: float = 1e-9) -> "AtomicMeasure":
        """Merge atoms whose locations are within tol of each other
        (single-linkage clusters, represented by their lexicographically
        smallest member); drop coefficients below tol."""
        atoms = list(self.atoms)
        n = len(atoms)
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(n):
            for j in range(i + 1, n):
                if dist(atoms[i][0], atoms[j][0]) <= tol:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[rj] = ri
        groups: dict[int, list[int]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        merged = []
        for idxs in groups.values():
            loc = min(atoms[i][0] for i in idxs)
            coeff = sum(atoms[i][1] for i in idxs)
            if abs(coeff) > tol:
                merged.append((loc, coeff))
        return AtomicMeasure(merged)

    def same_atoms(self, other: "AtomicMeasure", tol: float = 1e-9) -> bool:
        """Atom-by-atom equality after coalescing both sides at tol."""
        a = self.coalesced(tol).atoms
        b = other.coalesced(tol).atoms
        if len(a) != len(b):
            return False
        return all(
            dist(p, q) <= tol and abs(c - d) <= tol
            for (p, c), (q, d) in zip(a, b)
        )


# ---------------------------------------------------------------------------
# operations


def field_mass(f: CurveField) -> float:
    """Curve-sum total variation: sum of |weight| * length over curves."""
    return sum(abs(c.weight) * c.length() for c in f)


def field_divergence(f: CurveField) -> AtomicMeasure:
    """Endpoint dipoles, +weight at each start and -weight at each end,
    coalesced on exact location equality. Empty for closed curves."""
    atoms: list[tuple[Point, float]] = []
    for c in f:
        if c.is_closed:
            continue
        atoms.append((c.start, c.weight))
        atoms.append((c.end, -c.weight))
    return AtomicMeasure(atoms)


_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss01(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GAUSS_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        _GAUSS_CACHE[order] = ((x + 1.0) / 2.0, w / 2.0)
    return _GAUSS_CACHE[order]


def pair_vector(
    f: CurveField,
    phi: Callable[[Point], Sequence[float]],
    order: int = 8,
) -> float:
    """Integrate the vector function phi along the field:
    sum_i w_i * int phi(gamma_i(t)) . gamma_i'(t) dt.

    Each segment is integrated by Gauss-Legendre quadrature of the given
    order, which is exact (up to rounding) for polynomial phi of degree
    <= order on each segment. Evaluation errors of phi propagate.
    """
    nodes, weights = _gauss01(order)
    total = 0.0
    for c in f:
        acc = 0.0
        for a, b in c.segments():
            d = [y - x for x, y in zip(a, b)]
            for t, w in zip(nodes, weights):
                pt = tuple(x + t * dd for x, dd in zip(a, d))
                val = phi(pt)
                acc += w * sum(v * dd for v, dd in zip(val, d))
        total += c.weight * acc
    return total
