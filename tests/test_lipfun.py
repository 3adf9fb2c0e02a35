import math

import pytest
from hypothesis import given, settings, strategies as st

from dmfields import (
    Clamp,
    DimensionMismatch,
    Const,
    DistTo,
    Linear,
    Max,
    Min,
    Scale,
    Sum,
    Wave,
    lip_bound,
    weakstar_sequence,
)
from dmfields.core import dist

coord = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
point2 = st.tuples(coord, coord)


def _tree(rng_draw, depth):
    return rng_draw


leaf = st.one_of(
    st.builds(Const, st.floats(-2, 2, allow_nan=False)),
    st.builds(Linear, st.tuples(coord, coord)),
    st.builds(DistTo, st.tuples(coord, coord)),
    st.builds(
        Wave,
        st.floats(-1, 1, allow_nan=False),
        st.floats(0.1, 4, allow_nan=False),
        st.tuples(st.floats(0.1, 1), st.floats(0.1, 1)),
    ),
)
tree = st.recursive(
    leaf,
    lambda sub: st.one_of(
        st.builds(Sum, sub, sub),
        st.builds(Min, sub, sub),
        st.builds(Max, sub, sub),
        st.builds(Scale, st.floats(-2, 2, allow_nan=False), sub),
        st.builds(Clamp, sub, st.just(-1.0), st.just(1.0)),
    ),
    max_leaves=8,
)


def test_basic_evaluations():
    assert Const(3.0)((5.0, 5.0)) == 3.0
    assert Linear((2.0, -1.0))((1.0, 1.0)) == 1.0
    assert DistTo((0.0, 0.0))((3.0, 4.0)) == 5.0
    assert Clamp(Linear((1.0, 0.0)), 0.0, 1.0)((2.5, 0.0)) == 1.0


def test_wave_direction_is_normalized():
    w = Wave(2.0, 3.0, (3.0, 4.0))
    assert w.d == (0.6, 0.8)
    assert lip_bound(w) == 6.0


def test_lip_bound_rules():
    f = Linear((3.0, 4.0))  # bound 5
    g = DistTo((0.0, 0.0))  # bound 1
    assert lip_bound(Sum(f, g)) == 6.0
    assert lip_bound(Min(f, g)) == 5.0
    assert lip_bound(Scale(-2.0, g)) == 2.0
    assert lip_bound(Clamp(f, 0.0, 1.0)) == 5.0


def test_operators_build_trees():
    f = Linear((1.0, 0.0)) + Const(1.0)
    assert f((2.0, 0.0)) == 3.0
    assert (-f)((2.0, 0.0)) == -3.0


@given(tree, point2, point2)
@settings(max_examples=200, deadline=None)
def test_certified_lipschitz_bound(f, x, y):
    """The compositional bound really is a Lipschitz constant."""
    assert abs(f(x) - f(y)) <= lip_bound(f) * dist(x, y) + 1e-9


def test_wave_perturbation_family():
    base = Linear((0.0, 1.0))
    for k in (1, 5, 50):
        fk = weakstar_sequence("wave-perturbation", k, base)
        x = (0.3, 0.4)
        assert abs(fk(x) - base(x)) <= 1.0 / k + 1e-15
        assert lip_bound(fk) == lip_bound(base) + 1.0


def test_mollified_ramp_family():
    f5 = weakstar_sequence("mollified-ramp", 5, Const(0.0))
    assert f5((1.0, 0.0)) == 1.0
    assert f5((-1.0, 0.0)) == 0.0
    assert f5((0.1, 0.0)) == pytest.approx(0.5)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        weakstar_sequence("nope", 1, Const(0.0))
    with pytest.raises(ValueError):
        weakstar_sequence("wave-perturbation", 0, Const(0.0))


def test_wave_needs_a_direction():
    with pytest.raises(ValueError):
        Wave(1, 1, (0, 0))


@pytest.mark.parametrize(
    "f", [Linear((1.0, 0.0)), DistTo((0.0, 0.0)), Wave(1, 1, (1, 0))]
)
def test_leaves_reject_a_point_of_another_dimension(f):
    with pytest.raises(DimensionMismatch):
        f((0.0, 0.0, 0.0))
