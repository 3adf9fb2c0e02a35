import json

import pytest

from dmfields import cli, fileio


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
    assert open(out1).read() == open(out2).read()
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


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--samples", "1"),
        ("--samples", "0"),
        ("--grid-h", "0"),
        ("--dt", "0"),
        ("--eps", "0"),
    ],
)
def test_smirnov_sim_rejects_out_of_range_input(files, capsys, flag, value):
    # one sample used to print "stderr": NaN, which is not JSON; the
    # zeros used to end in a ZeroDivisionError or a NaN probability
    loop = files["write"](
        "loop.json",
        {"curves": [{"weight": 1.0, "vertices": [[0, 0], [1, 0], [1, 1], [0, 0]]}]},
    )
    rc = cli.main(["smirnov-sim", "--field", loop, "--seed", "1", flag, value])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.startswith("invalid input")


def test_domain_preset_verb(files, capsys):
    rc = cli.main(["domain-preset", "--name", "lshape"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["regions"][0]["outer"]) == 6


def test_missing_file_exits_1(files):
    assert cli.main(["trace", "--field", "nope.json", "--region", files["square"]]) == 1


def test_unknown_verb_exits_1(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_domain_error_exits_2(files):
    inside = files["write"](
        "inside.json", {"atoms": [{"location": [0.5, 0.5], "coefficient": 1.0}]}
    )
    rc = cli.main(["lift", "--element", inside, "--domain", files["square"]])
    assert rc == 2
