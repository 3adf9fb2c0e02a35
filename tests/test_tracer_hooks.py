"""The benchmark's traced run (`perfbench/run.py --trace 1`) patches
dmfields' functions and methods by name from outside. A rename in
dmfields would break that run without failing any other test."""

import sys
from pathlib import Path

import dmfields

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import COUNTS, SPANS, Tracer  # noqa: E402


def test_tracer_installs_every_hook_and_uninstalls_cleanly():
    t = Tracer()
    try:
        t.install()
        patched = list(t._undo)
        targets = {(owner, attr) for owner, attr, _ in patched}
        for modname, clsname, attr, *_ in SPANS + COUNTS:
            home = getattr(dmfields, modname)
            owner = home if clsname is None else getattr(home, clsname)
            assert (owner, attr) in targets, f"{modname}.{clsname}.{attr}"
    finally:
        t.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner}.{attr}"
