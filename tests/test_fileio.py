import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmfields import (
    AEElement,
    AtomicMeasure,
    CurveField,
    PolyCurve,
    PolyRegion,
    PolygonalDomain,
    box_region,
    fileio,
    mollify,
)
from dmfields.aespace import BASE, DipoleRep
from dmfields.lipfun import Clamp, Const, DistTo, Linear, Max, Min, Neg, Scale, Sum, Wave

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def test_dumps_is_deterministic():
    a = fileio.dumps({"b": 1.5, "a": [0.1, 0.2]})
    b = fileio.dumps({"a": [0.1, 0.2], "b": 1.5})
    assert a == b
    assert a.endswith("\n")


@given(st.lists(st.tuples(st.lists(st.tuples(finite, finite), min_size=2, max_size=5), finite.filter(lambda w: w != 0)), max_size=3))
@settings(max_examples=60, deadline=None)
def test_field_roundtrip_is_exact(specs):
    try:
        f = CurveField([PolyCurve(pts, w) for pts, w in specs])
    except ValueError:
        return
    back = fileio.field_from_json(fileio.field_to_json(f))
    assert tuple(back) == tuple(f)


def test_measure_roundtrip():
    m = AtomicMeasure([((0.1, 0.2), 1.5), ((3.0, -1.0), -0.25)])
    assert fileio.measure_from_json(fileio.measure_to_json(m)).atoms == m.atoms


def test_region_and_domain_roundtrip():
    r = PolyRegion(
        [(0, 0), (4, 0), (4, 4), (0, 4)], [[(1, 1), (3, 1), (3, 3), (1, 3)]]
    )
    back = fileio.region_from_json(fileio.region_to_json(r))
    assert back.outer == r.outer and back.holes == r.holes

    d = PolygonalDomain((r, box_region(5, 5, 6, 6)), 0.5, 0.4)
    back_d = fileio.domain_from_json(fileio.domain_to_json(d))
    assert back_d.parts == d.parts
    assert back_d.declared_eps == 0.5
    assert back_d.declared_delta == 0.4


def test_a_domain_does_not_write_as_a_region():
    # a domain is a PolyRegion whose rings are its parts'; its empty
    # `outer` and `holes` must not write as an empty region
    d = PolygonalDomain(box_region(0, 0, 1, 1))
    with pytest.raises(TypeError, match="domain_to_json"):
        fileio.region_to_json(d)


def test_bare_region_reads_as_domain():
    payload = fileio.region_to_json(box_region(0, 0, 1, 1))
    d = fileio.domain_from_json(payload)
    assert len(d.parts) == 1
    assert d.declared_eps is None


def test_lipfunc_roundtrip_evaluates_identically():
    f = Min(
        Sum(Linear((1.0, -2.0)), Scale(0.5, Wave(0.3, 2.0, (1.0, 1.0)))),
        Clamp(Linear((0.0, 1.0)), -1.0, 1.0),
    )
    back = fileio.lipfunc_from_json(fileio.lipfunc_to_json(f))
    for p in [(0.0, 0.0), (1.3, -0.7), (-2.0, 5.0)]:
        assert back(p) == f(p)


def test_lipfunc_unknown_kind_rejected():
    with pytest.raises(ValueError):
        fileio.lipfunc_from_json({"kind": "polynomial"})


def test_element_accepts_bare_measure():
    m = fileio.element_from_json({"atoms": [{"location": [0, 0], "coefficient": 1.0}]})
    assert isinstance(m, AEElement)
    assert m.support.total() == 1.0


def test_dipole_roundtrip_with_base_point():
    rep = DipoleRep(((1.5, BASE, (0.0, 1.0)), (-0.5, (2.0, 2.0), BASE)), 2.0)
    back = fileio.dipole_from_json(fileio.dipole_to_json(rep))
    assert back.terms == rep.terms
    assert back.cost == rep.cost


def test_decomposition_tags_cycles():
    path = PolyCurve([(0.0, 0.0), (1.0, 0.0)], 1.0)
    cycle = PolyCurve([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)], 0.5)
    payload = fileio.decomposition_to_json([path, cycle])
    assert [c["kind"] for c in payload["curves"]] == ["path", "cycle"]


def test_gridfield_roundtrip():
    gf = mollify(
        CurveField([PolyCurve([(0.0, 0.0), (1.0, 0.0)], 1.0)]), 0.1, 0.05
    )
    back = fileio.gridfield_from_json(fileio.gridfield_to_json(gf))
    assert back.origin == gf.origin
    assert back.shape == gf.shape
    assert np.array_equal(back.fx, gf.fx)
    assert np.array_equal(back.tau, gf.tau)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_dumps_writes_no_non_finite_number(value):
    with pytest.raises(ValueError):
        fileio.dumps({"value": value})


def test_load_keeps_integers_that_fit_a_float(tmp_path):
    path = tmp_path / "n.json"
    path.write_text('{"nx": 3, "big": ' + "9" * 300 + "}")
    got = fileio.load(str(path))
    assert got == {"nx": 3, "big": int("9" * 300)}
    assert type(got["nx"]) is int


def test_save_load_files(tmp_path):
    path = tmp_path / "m.json"
    m = AtomicMeasure([((0.5, 0.5), 2.0)])
    fileio.save(str(path), fileio.measure_to_json(m))
    assert fileio.measure_from_json(fileio.load(str(path))).atoms == m.atoms


def test_lipfunc_roundtrip_covers_every_kind():
    leaf = DistTo((0.5, -1.0))
    f = Max(
        Neg(Sum(Const(2.5), Scale(-0.5, leaf))),
        Min(Clamp(Linear((1.0, 2.0)), -1.0, 1.0), Wave(0.3, 2.0, (3.0, 4.0))),
    )
    payload = fileio.lipfunc_to_json(f)
    kinds, stack = set(), [payload]
    while stack:
        node = stack.pop()
        kinds.add(node["kind"])
        stack += [v for v in node.values() if isinstance(v, dict)]
    assert len(kinds) == 10
    back = fileio.lipfunc_from_json(payload)
    assert back == f
    assert fileio.dumps(fileio.lipfunc_to_json(back)) == fileio.dumps(payload)
    assert payload["g"]["g"] == {"kind": "wave", "a": 0.3, "k": 2.0, "d": [0.6, 0.8]}
    assert payload["f"]["f"]["f"] == {"kind": "const", "c": 2.5}


def test_lipfunc_json_errors():
    with pytest.raises(TypeError):
        fileio.lipfunc_to_json(Neg(3.0))
    with pytest.raises(KeyError):
        fileio.lipfunc_from_json({"kind": "clamp", "f": {"kind": "const", "c": 1.0}})
    with pytest.raises(KeyError):
        fileio.lipfunc_from_json({"c": 1.0})
