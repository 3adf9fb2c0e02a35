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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching

from .errors import DimensionMismatch, InvalidInput

Point = tuple[float, ...]


def as_point(coords: Iterable[float], bound: float = math.inf) -> Point:
    """The coordinates as a tuple of floats; InvalidInput below dimension
    2, or for a coordinate that is not finite or exceeds bound in size."""
    p = tuple(float(c) for c in coords)
    if len(p) < 2:
        raise InvalidInput("points need dimension >= 2")
    if not all(math.isfinite(c) for c in p):
        raise InvalidInput(f"non-finite coordinate in {p}")
    if bound < math.inf and not all(abs(c) <= bound for c in p):
        raise InvalidInput(f"coordinate beyond {bound:g} in {p}")
    return p


def dist(p: Point, q: Point) -> float:
    # ** squares by libm pow, an ulp off x*x on some inputs: products move ae_norm
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def x_window(xs: Sequence[float], x: float, tol: float) -> range:
    """Indices of the sorted first coordinates xs within 2 tol of x. A
    point outside the window is more than tol, by `dist`, from every
    point with first coordinate x, at any coordinate scale where squares
    of distances near tol do not underflow: the factor 2 covers the
    rounding of x -+ 2 tol, also where 2 tol is below one ulp of x."""
    return range(bisect_left(xs, x - 2 * tol), bisect_right(xs, x + 2 * tol))


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
        self._build([as_point(v) for v in vertices], weight)

    @classmethod
    def _of_points(cls, pts: list[Point], weight: float) -> "PolyCurve":
        """PolyCurve(pts, weight) for points that already passed
        `as_point`: the same curve and the same errors, without
        converting and checking each coordinate again."""
        c = object.__new__(cls)
        c._build(pts, weight)
        return c

    def _build(self, pts: list[Point], weight: float) -> None:
        if len(pts) < 2:
            raise InvalidInput("a curve needs at least two vertices")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise DimensionMismatch("mixed vertex dimensions in curve")
        dedup = [pts[0]]
        for p in pts[1:]:
            if p != dedup[-1]:
                dedup.append(p)
        if len(dedup) == 1:  # degenerate point curve
            dedup = [pts[0], pts[0]]
        if not math.isfinite(weight := float(weight)):
            raise InvalidInput(f"non-finite curve weight {weight}")
        object.__setattr__(self, "vertices", tuple(dedup))
        object.__setattr__(self, "weight", weight)

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
    nonzero coefficients, all of one dimension (DimensionMismatch
    otherwise). Locations are merged on exact coordinate equality only;
    use :meth:`coalesced` for tolerance-based merging after floating
    point arithmetic."""

    atoms: tuple[tuple[Point, float], ...]

    def __init__(self, atoms: Iterable[tuple[Sequence[float], float]] = ()):
        merged: dict[Point, float] = {}
        for loc, coeff in atoms:
            p = as_point(loc)
            merged[p] = merged.get(p, 0.0) + float(coeff)
        if not all(map(math.isfinite, merged.values())):
            raise InvalidInput("non-finite coefficient in atomic measure")
        dims = {len(p) for p in merged}
        if len(dims) > 1:
            raise DimensionMismatch(f"mixed atom dimensions {sorted(dims)}")
        kept = tuple(
            (p, c) for p, c in sorted(merged.items()) if c != 0.0
        )
        object.__setattr__(self, "atoms", kept)

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
        smallest member); drop coefficients below tol. Atoms are sorted,
        so each is tested only against the later ones in its x-window.
        InvalidInput unless 0 <= tol < inf."""
        if not 0 <= tol < math.inf:
            raise InvalidInput(f"coalescing needs 0 <= tol < inf, got {tol}")
        atoms = list(self.atoms)
        n = len(atoms)
        xs = [p[0] for p, _ in atoms]
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, x_window(xs, xs[i], tol).stop)
            if dist(atoms[i][0], atoms[j][0]) <= tol
        ]
        rows, cols = zip(*pairs) if pairs else ((), ())
        M = csr_matrix((np.ones(len(pairs)), (rows, cols)), shape=(n, n))
        # members of each cluster in index order, clusters in order of
        # their first member
        _, comp = connected_components(M, directed=False)
        groups: dict[int, list[int]] = {}
        for i, c in enumerate(comp.tolist()):
            groups.setdefault(c, []).append(i)
        merged = []
        for idxs in groups.values():
            loc = min(atoms[i][0] for i in idxs)
            coeff = sum(atoms[i][1] for i in idxs)
            if abs(coeff) > tol:
                merged.append((loc, coeff))
        return AtomicMeasure(merged)

    def same_atoms(self, other: "AtomicMeasure", tol: float = 1e-9) -> bool:
        """Whether, after coalescing both sides at tol, the atoms pair
        one to one, in any order, with locations and coefficients within
        tol of each other. InvalidInput unless 0 <= tol < inf."""
        a = self.coalesced(tol).atoms
        b = other.coalesced(tol).atoms
        if len(a) != len(b):
            return False
        xs = [q[0] for q, _ in b]
        pairs = [
            (i, j)
            for i, (p, c) in enumerate(a)
            for j in x_window(xs, p[0], tol)
            if dist(p, b[j][0]) <= tol and abs(c - b[j][1]) <= tol
        ]
        rows, cols = zip(*pairs) if pairs else ((), ())
        M = csr_matrix((np.ones(len(pairs)), (rows, cols)), shape=(len(a),) * 2)
        return bool((maximum_bipartite_matching(M) >= 0).all())


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


# 8-point Gauss-Legendre nodes and weights on [0, 1]
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_GAUSS_X, _GAUSS_W = (_GAUSS_X + 1.0) / 2.0, _GAUSS_W / 2.0


def pair_vector(f: CurveField, phi: Callable[[Point], Sequence[float]]) -> float:
    """Integrate the vector function phi along the field:
    sum_i w_i * int phi(gamma_i(t)) . gamma_i'(t) dt.

    Each segment is integrated by 8-point Gauss-Legendre quadrature,
    which is exact (up to rounding) for polynomial phi of degree <= 8 on
    each segment. Evaluation errors of phi propagate.
    """
    total = 0.0
    for c in f:
        acc = 0.0
        for a, b in c.segments():
            d = [y - x for x, y in zip(a, b)]
            for t, w in zip(_GAUSS_X, _GAUSS_W):
                pt = tuple(x + t * dd for x, dd in zip(a, d))
                val = phi(pt)
                acc += w * sum(v * dd for v, dd in zip(val, d))
        total += c.weight * acc
    return total
