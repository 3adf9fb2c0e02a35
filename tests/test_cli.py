import json
import re
import shlex
from pathlib import Path

import pytest

from dmfields import acceptance, cli, fileio
from dmfields.core import CurveField, PolyCurve, field_divergence
from dmfields.domain import complement_region, domain_preset
from dmfields.regions import PolyRegion, box_region, clip_field
from dmfields.tracext import extend_divfree, lift_config


@pytest.fixture()
def files(tmp_path):
    def write(name, payload):
        p = tmp_path / name
        p.write_text(fileio.dumps(payload))
        return str(p)

    field = write(
        "field.json",
        {
            "curves": [
                {"weight": 1.0, "vertices": [[-0.5, 0.3], [0.5, 0.4], [1.5, 0.7]]}
            ]
        },
    )
    square = write(
        "square.json",
        {
            "regions": [
                {"outer": [[0, 0], [1, 0], [1, 1], [0, 1]], "holes": []}
            ],
            "eps": 0.5,
            "delta": 0.4,
        },
    )
    phi = write("phi.json", {"kind": "linear", "v": [1.0, 0.0]})
    elem = write(
        "elem.json",
        {
            "atoms": [
                {"location": [0.0, 0.3], "coefficient": 1.0},
                {"location": [1.0, 0.7], "coefficient": -1.0},
            ]
        },
    )
    return {
        "dir": tmp_path,
        "field": field,
        "square": square,
        "phi": phi,
        "elem": elem,
        "write": write,
    }


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def test_trace_verb(files):
    out = str(files["dir"] / "trace.json")
    rc = cli.main(
        ["trace", "--field", files["field"], "--region", files["square"], "--out", out]
    )
    assert rc == 0
    atoms = _read(out)["atoms"]
    locs = {tuple(a["location"]): a["coefficient"] for a in atoms}
    assert locs[(0.0, 0.35)] == pytest.approx(1.0)
    assert locs[(1.0, 0.55)] == pytest.approx(-1.0)


def test_pairing_verb(files, capsys):
    rc = cli.main(
        [
            "pairing",
            "--field",
            files["field"],
            "--phi",
            files["phi"],
            "--region",
            files["square"],
        ]
    )
    assert rc == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert value == pytest.approx(1.0)  # unit horizontal transport across


def test_ae_norm_verb(files, capsys):
    rc = cli.main(["ae-norm", "--element", files["elem"]])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(2.0 ** 0.5 * 0.0 + 1.0774, abs=0.2)
    assert payload["dipole"]["terms"]


def test_lift_verb_is_deterministic(files):
    out1 = str(files["dir"] / "lift1.json")
    out2 = str(files["dir"] / "lift2.json")
    for out in (out1, out2):
        rc = cli.main(
            [
                "lift",
                "--element",
                files["elem"],
                "--domain",
                files["square"],
                "--out",
                out,
            ]
        )
        assert rc == 0
    assert Path(out1).read_text() == Path(out2).read_text()
    assert _read(out1)["provenance"]


def test_decompose_verb(files, capsys):
    rc = cli.main(["decompose", "--field", files["field"]])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(c["kind"] == "path" for c in payload["curves"])


def test_smirnov_sim_verb(files, capsys):
    loop = files["write"](
        "loop.json",
        {
            "curves": [
                {
                    "weight": 1.0,
                    "vertices": [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]],
                }
            ]
        },
    )
    rc = cli.main(
        [
            "smirnov-sim",
            "--field",
            loop,
            "--seed",
            "11",
            "--eps",
            "0.15",
            "--grid-h",
            "0.05",
            "--dt",
            "0.002",
            "--samples",
            "2000",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["within_3_stderr"]
    assert payload["truncated"] == 0


def test_smirnov_sim_runs_on_an_l_of_side_10(files, capsys):
    # tau's floor used to be a unit-width bump at the centroid, which FFT
    # round-off outweighed this far out: the verb exited 1
    ell = files["write"](
        "ell.json",
        {"curves": [{"weight": 1.0, "vertices": [[0, 0], [10, 0], [10, 10]]}]},
    )
    rc = cli.main(
        ["smirnov-sim", "--field", ell, "--samples", "200", "--dt", "0.05", "--seed", "0"]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["truncated"] == 0


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--samples", "1"),
        ("--samples", "0"),
        ("--grid-h", "0"),
        ("--dt", "0"),
        ("--eps", "0"),
        ("--eps", "inf"),
        ("--eps", "1e308"),
        ("--grid-h", "inf"),
        ("--dt", "inf"),
        ("--dt", "5"),
    ],
)
def test_smirnov_sim_rejects_out_of_range_input(files, capsys, flag, value):
    # one sample used to print "stderr": NaN, which is not JSON; the
    # zeros used to end in a ZeroDivisionError or a NaN probability, an
    # infinite or 1e308 eps in an OverflowError; dt = inf and dt = 5
    # used to make no step and exit 0
    loop = files["write"](
        "loop.json",
        {"curves": [{"weight": 1.0, "vertices": [[0, 0], [1, 0], [1, 1], [0, 0]]}]},
    )
    rc = cli.main(["smirnov-sim", "--field", loop, "--seed", "1", flag, value])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.startswith("invalid input")


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_decompose_rejects_a_bad_tolerance(files, capsys, value):
    # a T-junction: nan and -1 used to skip its split and give 2 edges
    # instead of 3, inf an empty graph
    tee = files["write"](
        "tee.json",
        {
            "curves": [
                {"weight": 1.0, "vertices": [[0, 0], [1, 0]]},
                {"weight": 1.0, "vertices": [[0.5, 0], [0.5, 1]]},
            ]
        },
    )
    rc = cli.main(["decompose", "--field", tee, "--tolerance", value])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.startswith("invalid input")


@pytest.mark.parametrize("verb", ["trace", "pairing"])
@pytest.mark.parametrize(
    "number",
    ["NaN", "Infinity", "-Infinity", "1e999", pytest.param("1" + "0" * 400, id="10**400")],
)
def test_non_finite_numbers_are_invalid_input(files, capsys, verb, number):
    # json reads these literals, and 1e999 as inf: a NaN region vertex
    # used to give one wrong atom, a NaN constant phi "value": NaN; the
    # integer 10**400 overflowed float() in trace and read 0.0 in pairing
    path = files["dir"] / "input.json"
    if verb == "trace":
        ring = f"[[0, 0], [1, 0], [{number}, 1], [0, 1]]"
        path.write_text(f'{{"regions": [{{"outer": {ring}, "holes": []}}]}}')
        args = ["--region", str(path)]
    else:
        path.write_text(f'{{"kind": "const", "c": {number}}}')
        args = ["--region", files["square"], "--phi", str(path)]
    rc = cli.main([verb, "--field", files["field"], *args])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.startswith("invalid input")


@pytest.mark.parametrize(
    "verb, payload",
    [
        ("trace", {"curves": [{"weight": "nan", "vertices": [[-0.5, 0.3], [1.5, 0.7]]}]}),
        ("trace", {"curves": [{"weight": "inf", "vertices": [[-0.5, 0.3], [1.5, 0.7]]}]}),
        (
            "ae-norm",
            {
                "atoms": [
                    {"location": [0, 0], "coefficient": "nan"},
                    {"location": [1, 0], "coefficient": -1},
                ]
            },
        ),
    ],
    ids=["trace-nan", "trace-inf", "ae-norm-nan"],
)
def test_non_finite_weights_and_coefficients_are_invalid_input(files, capsys, verb, payload):
    # float() reads the strings "nan" and "inf": trace wrote
    # "coefficient": NaN, which its own reader rejects, and ae-norm
    # exited 0 with "value": 0.0
    path = files["write"]("input.json", payload)
    if verb == "trace":
        args = ["trace", "--field", path, "--region", files["square"]]
    else:
        args = ["ae-norm", "--element", path]
    rc = cli.main(args)
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.startswith("invalid input")


LINEAR = {"kind": "linear", "v": [1, 0]}
SQUARE_RING = [[0, 0], [1, 0], [1, 1], [0, 1]]


@pytest.mark.parametrize(
    "flag, payload",
    [
        ("--field", {"curves": [{"weight": True, "vertices": [[-0.5, 0.3], [1.5, 0.7]]}]}),
        (
            "--field",
            {"curves": [{"weight": "2.5", "vertices": [["-0.5", 0.3], [1.5, " 0.7 "]]}]},
        ),
        ("--element", {"atoms": [{"location": ["0.1", 0.2], "coefficient": "1"}]}),
        ("--region", {"outer": [[0, 0], ["1", 0], [1, 1], [0, 1]]}),
        ("--region", {"regions": [{"outer": SQUARE_RING}], "eps": True}),
        ("--region", {"regions": [{"outer": SQUARE_RING}], "delta": True}),
        ("--box", {"outer": [[-1, -1], [2, -1], [2, "2"], [-1, 2]]}),
        ("--phi", {"kind": "const", "c": True}),
        ("--phi", {"kind": "linear", "v": [True, False]}),
        ("--phi", {"kind": "dist", "p": ["0", 0]}),
        ("--phi", {"kind": "scale", "s": True, "f": LINEAR}),
        ("--phi", {"kind": "clamp", "f": LINEAR, "lo": False, "hi": 1}),
        ("--phi", {"kind": "clamp", "f": LINEAR, "lo": 0, "hi": True}),
        ("--phi", {"kind": "wave", "a": True, "k": 1, "d": [1, 0]}),
        ("--phi", {"kind": "wave", "a": 1, "k": "1", "d": [1, 0]}),
        ("--phi", {"kind": "wave", "a": 1, "k": 1, "d": ["1", 0]}),
    ],
    ids=[
        "field-weight-bool",
        "field-strings",
        "element-strings",
        "region-vertex",
        "domain-eps",
        "domain-delta",
        "box-vertex",
        "const-c",
        "linear-v",
        "dist-p",
        "scale-s",
        "clamp-lo",
        "clamp-hi",
        "wave-a",
        "wave-k",
        "wave-d",
    ],
)
def test_numbers_must_be_json_numbers(files, capsys, flag, payload):
    # float() read true as 1.0 and "2.5" as 2.5, and a bool passed for a
    # number of a Lipschitz node: each of these exited 0
    box = files["write"]("box.json", {"outer": [[-1, -1], [2, -1], [2, 2], [-1, 2]]})
    paths = {
        "--field": files["field"],
        "--region": files["square"],
        "--domain": files["square"],
        "--phi": files["phi"],
        "--element": files["elem"],
        "--box": box,
        flag: files["write"]("input.json", payload),
    }
    verb, flags = {
        "--field": ("trace", ["--field", "--region"]),
        "--region": ("trace", ["--field", "--region"]),
        "--element": ("ae-norm", ["--element"]),
        "--box": ("extend", ["--field", "--domain", "--box"]),
        "--phi": ("pairing", ["--field", "--phi", "--region"]),
    }[flag]
    rc = cli.main([verb, *(x for f in flags for x in (f, paths[f]))])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.startswith("invalid input: InvalidInput: expected a JSON number")


@pytest.mark.parametrize("depth", [600, 5000])
def test_a_phi_nested_past_the_recursion_limit_is_invalid_input(files, capsys, depth):
    # json.load (at 5,000) or the node reader (at 600) ran out of stack:
    # an uncaught RecursionError
    path = files["dir"] / "deep.json"
    path.write_text('{"kind": "neg", "f": ' * depth + '{"kind": "const", "c": 1}' + "}" * depth)
    rc = cli.main(["pairing", "--field", files["field"], "--phi", str(path), "--region", files["square"]])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.startswith("invalid input: RecursionError")


@pytest.mark.parametrize(
    "holes",
    [
        [[[5, 1], [6, 1], [6, 2]]],
        [[[0.5, 0.5], [3.5, 0.5], [3.5, 2.5], [0.5, 2.5]], [[1, 1], [2, 1], [2, 2], [1, 2]]],
        # a plus sign; neither first vertex lies in the other hole
        [[[0.5, 1.5], [3, 1.5], [3, 1], [0.5, 1]], [[1.5, 2.5], [2, 2.5], [2, 0.5], [1.5, 0.5]]],
    ],
    ids=["outside", "nested", "crossing"],
)
def test_malformed_holes_are_invalid_input(files, capsys, holes):
    region = files["write"](
        "holes.json", {"outer": [[0, 0], [4, 0], [4, 3], [0, 3]], "holes": holes}
    )
    rc = cli.main(["trace", "--field", files["field"], "--region", region])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.startswith("invalid input: InvalidInput: hole")


def test_domain_preset_verb(files, capsys):
    rc = cli.main(["domain-preset", "--name", "lshape"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["regions"][0]["outer"]) == 6


def test_missing_file_exits_1(files):
    assert cli.main(["trace", "--field", "nope.json", "--region", files["square"]]) == 1


@pytest.mark.parametrize(
    "parts",
    [
        [[[0, 0], [2, 0], [2, 2], [0, 2]], [[1, 1], [3, 1], [3, 3], [1, 3]]],
        [[[0, 0], [4, 0], [4, 4], [0, 4]], [[1, 1], [2, 1], [2, 2], [1, 2]]],
        [[[0, 0], [2, 0], [2, 2], [0, 2]], [[2, 1], [3, 0], [3, 2]]],
        [[[0, 1], [3, 1], [3, 2], [0, 2]], [[1, 0], [2, 0], [2, 3], [1, 3]]],
    ],
    ids=[
        "overlapping",
        "inside-another",
        "first-vertex-on-another-boundary",
        "crossing",
    ],
)
def test_trace_on_parts_not_outside_one_another_exits_1(files, parts, capsys):
    region = files["write"](
        "parts.json", {"regions": [{"outer": r, "holes": []} for r in parts]}
    )
    assert cli.main(["trace", "--field", files["field"], "--region", region]) == 1
    assert "must lie outside the other parts" in capsys.readouterr().err


def test_unknown_verb_exits_1(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_bad_flag_value_exits_1_with_argparse_message(capsys):
    assert cli.main(["verify", "--suite", "AC-11"]) == 1
    err = capsys.readouterr().err
    assert "invalid choice" in err and "AC-11" in err


def test_domain_error_exits_2(files):
    inside = files["write"](
        "inside.json", {"atoms": [{"location": [0.5, 0.5], "coefficient": 1.0}]}
    )
    rc = cli.main(["lift", "--element", inside, "--domain", files["square"]])
    assert rc == 2


def test_trace_of_a_spatial_field_exits_2(files):
    spatial = files["write"](
        "spatial.json",
        {"curves": [{"weight": 1.0, "vertices": [[0, 0, 5.0], [1, 0, 7.0]]}]},
    )
    rc = cli.main(["trace", "--field", spatial, "--region", files["square"]])
    assert rc == 2


def test_smirnov_sim_of_a_spatial_field_exits_2(files):
    spatial = files["write"](
        "spatial.json",
        {
            "curves": [
                {
                    "weight": 1.0,
                    "vertices": [[0.2, 0.2, 0], [0.8, 0.2, 0], [0.8, 0.8, 3], [0.2, 0.2, 0]],
                }
            ]
        },
    )
    rc = cli.main(["smirnov-sim", "--field", spatial, "--seed", "1"])
    assert rc == 2


def test_ae_norm_of_atoms_of_mixed_dimension_exits_2(files, capsys):
    # the third coordinate used to be dropped: "value": 0.0, exit 0
    mixed = files["write"](
        "mixed.json",
        {
            "atoms": [
                {"location": [0.0, 0.0], "coefficient": 1.0},
                {"location": [0.0, 0.0, 5.0], "coefficient": -1.0},
            ]
        },
    )
    rc = cli.main(["ae-norm", "--element", mixed])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert "DimensionMismatch" in err


def test_lift_rejects_an_atom_just_off_the_boundary(files):
    near = files["write"](
        "near.json", {"atoms": [{"location": [0.5, 1e-10], "coefficient": 1.0}]}
    )
    rc = cli.main(["lift", "--element", near, "--domain", files["square"]])
    assert rc == 2


def _extend(files, verb, curves):
    field = files["write"]("chords.json", {"curves": curves})
    box = files["write"](
        "box.json", {"outer": [[-1, -1], [2, -1], [2, 2], [-1, 2]], "holes": []}
    )
    out = str(files["dir"] / f"{verb}.json")
    args = ["--field", field, "--domain", files["square"], "--box", box]
    assert cli.main([verb, *args, "--out", out]) == 0
    return _read(out)


@pytest.mark.parametrize("verb", ["lift", "extend"])
@pytest.mark.parametrize(
    "flag,value",
    [("--grid-h", v) for v in ("0", "-0.02", "nan", "inf")]
    + [("--delta", v) for v in ("0", "-1", "nan", "inf")],
)
def test_out_of_range_grid_step_or_delta_is_invalid_input(
    files, capsys, verb, flag, value
):
    # grid steps and deltas must lie in (0, inf); the parent code raised
    # ZeroDivisionError at 0, InfeasibleDelta for some others, and
    # `extend --delta 0` built a net of every grid node
    if verb == "lift":
        args = ["--element", files["elem"], "--domain", files["square"]]
    else:
        box = files["write"](
            "box.json", {"outer": [[-1, -1], [2, -1], [2, 2], [-1, 2]], "holes": []}
        )
        args = ["--field", files["field"], "--domain", files["square"], "--box", box]
    assert cli.main([verb, *args, flag, value]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid input")


def test_extend_verb_clears_the_boundary(files):
    chord = {"weight": 1.0, "vertices": [[0.0, 0.3], [0.5, 0.45], [1.0, 0.7]]}
    stub = {"weight": 0.5, "vertices": [[0.5, 0.0], [0.5, 0.5]]}
    payload = _extend(files, "extend", [chord, stub])
    f = fileio.field_from_json(payload)
    assert f.curves[:2] == fileio.field_from_json({"curves": [chord, stub]}).curves
    d = fileio.domain_from_json(_read(files["square"]))
    div = field_divergence(f).coalesced(1e-9)
    assert not div.restrict(d.on_boundary).atoms
    assert div.coefficient((0.5, 0.5)) == -0.5


def test_extend_keeps_the_box_holes(files, capsys):
    # the box's holes used to be dropped: the extension crossed this one
    hole = [[1.3, 0.45], [1.6, 0.45], [1.6, 0.75], [1.3, 0.75]]
    chord = {"weight": 1.0, "vertices": [[0.0, 0.3], [0.5, 0.45], [1.0, 0.7]]}
    field = files["write"]("chord.json", {"curves": [chord]})
    out = str(files["dir"] / "extend.json")

    def extend(holes):
        box = files["write"](
            "box.json", {"outer": [[-1, -1], [2, -1], [2, 2], [-1, 2]], "holes": holes}
        )
        args = ["--field", field, "--domain", files["square"], "--box", box]
        return cli.main(["extend", *args, "--out", out])

    assert extend([hole]) == 0
    f = fileio.field_from_json(_read(out))
    assert len(f.curves) > 1
    assert not clip_field(f, PolyRegion(hole)).curves
    # a square inside the box's hole has no complement in the box
    assert extend([[[-0.5, -0.5], [1.5, -0.5], [1.5, 1.5], [-0.5, 1.5]]]) == 1
    assert capsys.readouterr().err.startswith("invalid input: InvalidInput")


def test_extend_divfree_verb_leaves_no_divergence(files):
    chord = {"weight": 1.0, "vertices": [[0.0, 0.3], [0.5, 0.45], [1.0, 0.7]]}
    payload = _extend(files, "extend-divfree", [chord])
    assert payload["punctures"] == []
    f = fileio.field_from_json(payload)
    assert len(f.curves) > 1
    assert field_divergence(f).coalesced(1e-9).atoms == ()


def test_extend_divfree_verb_keeps_the_punctures_of_a_complement_of_two_parts(files):
    # the annulus's complement in [-3, 3]^2 is a frame and an island: one
    # base point cannot serve both, so the verb extends with punctures
    annulus, box = domain_preset("annulus"), box_region(-3, -3, 3, 3)
    f = CurveField(
        [
            PolyCurve([(0.1, 0.2), (1.5, 0.4), (2.5, 0.7)], 1.0),
            PolyCurve([(2.5, -0.7), (1.5, -0.4), (0.1, -0.2)], 1.0),
        ]
    )
    write = files["write"]
    out = str(files["dir"] / "divfree.json")
    args = [
        "--field", write("f.json", fileio.field_to_json(f)),
        "--domain", write("annulus.json", fileio.domain_to_json(annulus)),
        "--box", write("box.json", fileio.region_to_json(box)),
        "--grid-h", "0.05",
    ]
    assert cli.main(["extend-divfree", *args, "--out", out]) == 0
    cfg = lift_config(complement_region(annulus, box), 0.05, 0.3)
    g, punctures = extend_divfree(f, annulus, cfg)
    want = fileio.field_to_json(g)
    want["punctures"] = [list(p) for p in punctures]
    assert _read(out) == json.loads(fileio.dumps(want))


def test_verify_writes_its_results(files, capsys):
    out = str(files["dir"] / "verify.json")
    assert cli.main(["verify", "--suite", "AC-1", "--out", out]) == 0
    (row,) = _read(out)["results"]
    assert row["suite"] == "AC-1" and row["passed"] is True
    assert re.fullmatch(r"500 fields, worst scaled residual \S+, \d+\.\ds", row["detail"])
    assert capsys.readouterr().out == f"AC-1: PASS - {row['detail']}\n"


def test_ae_norm_out_prints_value_and_dual(files, capsys):
    out = str(files["dir"] / "norm.json")
    assert cli.main(["ae-norm", "--element", files["elem"], "--out", out]) == 0
    payload = _read(out)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"value {payload['value']!r}"
    assert lines[1:] == [
        f"  {row['node']}  {row['potential']!r}" for row in payload["dual"]
    ]
    assert len(lines) == 1 + len(payload["dual"]) > 1


def test_verify_runs_every_suite_in_order(monkeypatch, capsys):
    for name in acceptance.SUITES:
        monkeypatch.setitem(
            acceptance.SUITES, name, (lambda name=name: (True, f"{name} ok"), None)
        )
    assert cli.main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [f"AC-{i}" for i in range(1, 11)]
    assert [line.split(":")[0] for line in lines] == names
    for name, line in zip(names, lines):
        assert re.fullmatch(rf"{name}: PASS - {name} ok, \d+\.\ds", line)


def test_readme_cli_lines_parse():
    # every `dmfields ...` line in README's shell blocks names flags its
    # verb has and gives every flag it requires, and every verb has one
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("dmfields ")
    ]
    parser = cli._build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
    assert {line.split()[1] for line in lines} == set(cli.VERBS)
