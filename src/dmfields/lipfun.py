"""Lipschitz test functions as closed expression trees.

Every node carries enough structure to compute a certified global
Lipschitz constant compositionally. Gradients are never formed: all
downstream pairing formulas use point evaluations only, so kinks from
Min/Max cost nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch, InvalidInput
from .core import Point


class LipFunc:
    """Base class; subclasses implement __call__ and lip_bound."""

    def __call__(self, x: Point) -> float:
        raise NotImplementedError

    def lip_bound(self) -> float:
        raise NotImplementedError

    def __add__(self, other: "LipFunc") -> "LipFunc":
        return Sum(self, other)

    def __neg__(self) -> "LipFunc":
        return Neg(self)


@dataclass(frozen=True)
class Const(LipFunc):
    c: float

    def __call__(self, x):
        return self.c

    def lip_bound(self):
        return 0.0


@dataclass(frozen=True)
class Linear(LipFunc):
    """x -> v . x"""

    v: tuple[float, ...]

    def __init__(self, v: Sequence[float]):
        object.__setattr__(self, "v", tuple(float(c) for c in v))

    def __call__(self, x):
        if len(x) != len(self.v):
            raise DimensionMismatch(
                f"Linear direction has dim {len(self.v)}, point has {len(x)}"
            )
        return sum(a * b for a, b in zip(self.v, x))

    def lip_bound(self):
        return math.sqrt(sum(c * c for c in self.v))


@dataclass(frozen=True)
class DistTo(LipFunc):
    p: tuple[float, ...]

    def __init__(self, p: Sequence[float]):
        object.__setattr__(self, "p", tuple(float(c) for c in p))

    def __call__(self, x):
        if len(x) != len(self.p):
            raise DimensionMismatch(
                f"DistTo anchor has dim {len(self.p)}, point has {len(x)}"
            )
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(x, self.p)))

    def lip_bound(self):
        return 1.0


@dataclass(frozen=True)
class Neg(LipFunc):
    f: LipFunc

    def __call__(self, x):
        return -self.f(x)

    def lip_bound(self):
        return self.f.lip_bound()


@dataclass(frozen=True)
class Sum(LipFunc):
    f: LipFunc
    g: LipFunc

    def __call__(self, x):
        return self.f(x) + self.g(x)

    def lip_bound(self):
        return self.f.lip_bound() + self.g.lip_bound()


@dataclass(frozen=True)
class Scale(LipFunc):
    s: float
    f: LipFunc

    def __call__(self, x):
        return self.s * self.f(x)

    def lip_bound(self):
        return abs(self.s) * self.f.lip_bound()


@dataclass(frozen=True)
class Min(LipFunc):
    f: LipFunc
    g: LipFunc

    def __call__(self, x):
        return min(self.f(x), self.g(x))

    def lip_bound(self):
        return max(self.f.lip_bound(), self.g.lip_bound())


@dataclass(frozen=True)
class Max(LipFunc):
    f: LipFunc
    g: LipFunc

    def __call__(self, x):
        return max(self.f(x), self.g(x))

    def lip_bound(self):
        return max(self.f.lip_bound(), self.g.lip_bound())


@dataclass(frozen=True)
class Clamp(LipFunc):
    f: LipFunc
    lo: float
    hi: float

    def __call__(self, x):
        return min(max(self.f(x), self.lo), self.hi)

    def lip_bound(self):
        return self.f.lip_bound()


@dataclass(frozen=True)
class Wave(LipFunc):
    """x -> a * sin(k * (x . d)) for a unit direction d."""

    a: float
    k: float
    d: tuple[float, ...]

    def __init__(self, a: float, k: float, d: Sequence[float]):
        dd = tuple(float(c) for c in d)
        n = math.sqrt(sum(c * c for c in dd))
        if n == 0:
            raise InvalidInput("Wave direction must be nonzero")
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "k", float(k))
        object.__setattr__(self, "d", tuple(c / n for c in dd))

    def __call__(self, x):
        if len(x) != len(self.d):
            raise DimensionMismatch(
                f"Wave direction has dim {len(self.d)}, point has {len(x)}"
            )
        return self.a * math.sin(self.k * sum(a * b for a, b in zip(x, self.d)))

    def lip_bound(self):
        return abs(self.a) * abs(self.k)


def lip_bound(f: LipFunc) -> float:
    return f.lip_bound()


def weakstar_sequence(kind: str, k: int, base: LipFunc) -> LipFunc:
    """A member of a uniformly Lipschitz, pointwise convergent family.

    wave-perturbation: base + Wave(1/k, k, e1). The perturbation has
    sup 1/k and Lipschitz constant exactly 1, so the family converges
    uniformly to base while the oscillation never settles.
    mollified-ramp: clamp of a steep ramp along e1, Clamp(k*x1, 0, 1),
    converging pointwise to the indicator of {x1 > 0} away from 0.
    """
    if k < 1:
        raise InvalidInput("k must be a positive integer")
    e1 = (1.0, 0.0)
    if kind == "wave-perturbation":
        return Sum(base, Wave(1.0 / k, float(k), e1))
    if kind == "mollified-ramp":
        return Clamp(Scale(float(k), Linear(e1)), 0.0, 1.0)
    raise InvalidInput(f"unknown weak-* sequence kind: {kind!r}")
