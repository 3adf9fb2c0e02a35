"""JSON serialization for every public value type.

All writers are deterministic (sorted keys, fixed separators) and all
floats survive the round trip exactly: json emits shortest-repr decimals
and Python parses those back to the identical binary value. The reader
rejects non-finite numbers (NaN, Infinity, 1e999) and integers too large
for a float, and the value readers take only JSON numbers where numbers
belong (a string or boolean is InvalidInput); the writer never emits NaN
or Infinity.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from typing import Sequence

import numpy as np

from .core import AtomicMeasure, CurveField, PolyCurve
from .errors import InvalidInput
from .lipfun import (
    Clamp,
    Const,
    DistTo,
    Linear,
    LipFunc,
    Max,
    Min,
    Neg,
    Scale,
    Sum,
    Wave,
)
from .regions import PolyRegion
from .domain import PolygonalDomain
from .aespace import AEElement, BASE, DipoleRep
from .smirnov import GridField


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1, allow_nan=False) + "\n"


def save(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def _finite(text: str) -> float:
    if math.isfinite(x := float(text)):
        return x
    raise InvalidInput(f"non-finite number {text} in JSON input")


def _int(text: str) -> int:
    if math.isfinite(float(text)):
        return int(text)
    raise InvalidInput(f"integer of {len(text)} characters in JSON input is too large for a float")


def load(path: str):
    with open(path) as fh:
        return json.load(fh, parse_float=_finite, parse_int=_int, parse_constant=_finite)


def _number(x):
    # bool is an int subclass, so compare types exactly
    if type(x) in (int, float):
        return x
    raise InvalidInput(f"expected a JSON number, got {x!r}")


def _numbers(v) -> tuple:
    return tuple(map(_number, v))


# ---------------------------------------------------------------------------
# core types


def field_to_json(f: CurveField) -> dict:
    return {
        "curves": [
            {"weight": c.weight, "vertices": [list(v) for v in c.vertices]}
            for c in f
        ]
    }


def field_from_json(d: dict) -> CurveField:
    return CurveField(
        [
            PolyCurve([_numbers(v) for v in c["vertices"]], _number(c["weight"]))
            for c in d["curves"]
        ]
    )


def measure_to_json(m: AtomicMeasure) -> dict:
    return {
        "atoms": [
            {"location": list(p), "coefficient": c} for p, c in m.atoms
        ]
    }


def measure_from_json(d: dict) -> AtomicMeasure:
    return AtomicMeasure(
        [(_numbers(a["location"]), _number(a["coefficient"])) for a in d["atoms"]]
    )


def region_to_json(r: PolyRegion) -> dict:
    """One region's rings; TypeError for a domain, whose `outer` and
    `holes` are empty (it writes with `domain_to_json`)."""
    if isinstance(r, PolygonalDomain):
        raise TypeError("a domain writes with domain_to_json")
    return {
        "outer": [list(v) for v in r.outer],
        "holes": [[list(v) for v in h] for h in r.holes],
    }


def region_from_json(d: dict) -> PolyRegion:
    return PolyRegion(
        [_numbers(v) for v in d["outer"]],
        [[_numbers(v) for v in h] for h in d.get("holes", [])],
    )


def domain_to_json(d: PolygonalDomain) -> dict:
    out = {"regions": [region_to_json(p) for p in d.parts]}
    if d.declared_eps is not None:
        out["eps"] = d.declared_eps
    if d.declared_delta is not None:
        out["delta"] = d.declared_delta
    return out


def domain_from_json(d: dict) -> PolygonalDomain:
    if "regions" in d:
        parts = [region_from_json(r) for r in d["regions"]]
    else:  # bare region file doubles as a single-part domain
        parts = [region_from_json(d)]
    eps, delta = (_number(d[k]) if k in d else None for k in ("eps", "delta"))
    return PolygonalDomain(tuple(parts), eps, delta)


# ---------------------------------------------------------------------------
# Lipschitz expression trees, tagged by node kind


_LIPFUNCS = {
    "const": Const,
    "linear": Linear,
    "dist": DistTo,
    "neg": Neg,
    "sum": Sum,
    "scale": Scale,
    "min": Min,
    "max": Max,
    "clamp": Clamp,
    "wave": Wave,
}


def lipfunc_to_json(f: LipFunc) -> dict:
    """The node's kind plus one key per dataclass field: subtrees
    nested, tuples as lists. (lipfun's annotations are strings, so a
    subtree field's type reads "LipFunc".)"""
    for kind, cls in _LIPFUNCS.items():
        if isinstance(f, cls):
            out = {"kind": kind}
            for fld in fields(cls):
                v = getattr(f, fld.name)
                if fld.type == "LipFunc":
                    v = lipfunc_to_json(v)
                out[fld.name] = list(v) if isinstance(v, tuple) else v
            return out
    raise TypeError(f"unserializable LipFunc node: {type(f).__name__}")


def lipfunc_from_json(d: dict) -> LipFunc:
    k = d["kind"]
    cls = next((c for kind, c in _LIPFUNCS.items() if k == kind), None)
    if cls is None:
        raise InvalidInput(f"unknown LipFunc kind: {k!r}")
    # a field's annotation is "LipFunc", "float" or "tuple[float, ...]"
    read = {"LipFunc": lipfunc_from_json, "float": _number}
    return cls(*(read.get(fld.type, _numbers)(d[fld.name]) for fld in fields(cls)))


# ---------------------------------------------------------------------------
# Arens-Eells values


def element_from_json(d: dict) -> AEElement:
    if "support" in d:
        return AEElement(measure_from_json(d["support"]))
    return AEElement(measure_from_json(d))  # bare measure accepted


def _node_to_json(p):
    return "e" if p == BASE else list(p)


def _node_from_json(v):
    return BASE if v == "e" else tuple(v)


def dipole_to_json(rep: DipoleRep) -> dict:
    return {
        "terms": [
            {"coefficient": a, "p": _node_to_json(p), "q": _node_to_json(q)}
            for a, p, q in rep.terms
        ],
        "cost": rep.cost,
    }


def ae_norm_to_json(value: float, rep: DipoleRep, dual: dict) -> dict:
    """`ae_norm`'s result: the value, the dipole representation and the
    dual potentials as rows sorted by node."""
    return {
        "value": value,
        "dipole": dipole_to_json(rep),
        "dual": [
            {"node": _node_to_json(k), "potential": v}
            for k, v in sorted(dual.items(), key=lambda kv: str(kv[0]))
        ],
    }


def dipole_from_json(d: dict) -> DipoleRep:
    return DipoleRep(
        tuple(
            (t["coefficient"], _node_from_json(t["p"]), _node_from_json(t["q"]))
            for t in d["terms"]
        ),
        d["cost"],
    )


# ---------------------------------------------------------------------------
# Smirnov values


def decomposition_to_json(curves: Sequence[PolyCurve]) -> dict:
    return {
        "curves": [
            {
                "weight": c.weight,
                "vertices": [list(v) for v in c.vertices],
                "kind": "cycle" if c.is_closed else "path",
            }
            for c in curves
        ]
    }


def gridfield_to_json(gf: GridField) -> dict:
    nx, ny = gf.shape
    return {
        "origin": list(gf.origin),
        "h": gf.h,
        "eps": gf.eps,
        "nx": nx,
        "ny": ny,
        "fx": gf.fx.ravel().tolist(),
        "fy": gf.fy.ravel().tolist(),
        "tau": gf.tau.ravel().tolist(),
    }


def gridfield_from_json(d: dict) -> GridField:
    shape = (d["nx"], d["ny"])
    return GridField(
        tuple(d["origin"]),
        d["h"],
        d["eps"],
        np.array(d["fx"]).reshape(shape),
        np.array(d["fy"]).reshape(shape),
        np.array(d["tau"]).reshape(shape),
    )
