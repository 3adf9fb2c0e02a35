"""Spans and counts around dmfields' layers, installed from outside.

The program has no instrumentation of its own, so the traced run wraps
its public functions and methods. dmfields modules bind each other's
functions by name (tracext binds `route` from domain, the package binds
nearly everything), so a function is replaced in every dmfields module
that binds it; methods are replaced on their class. Each span records
its name, start, end and parent span; counts are kept at the same
boundaries. Everything stays in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, class or None, attribute, span name, caller category or None).
# A span with a category labels the predicate counts made inside it;
# spans without one inherit the enclosing label.
SPANS = [
    ("domain", "RoutingGraph", "__init__", "domain.graph_build", "graph_build"),
    ("domain", "RoutingGraph", "nearest_visible", "domain.nearest_visible", "route"),
    ("domain", "RoutingGraph", "dijkstra", "domain.dijkstra", None),
    ("domain", None, "select_lambda", "domain.select_lambda", None),
    ("domain", None, "separation", "domain.separation", None),
    ("domain", None, "route", "domain.route", "route"),
    ("tracext", None, "lift_config", "tracext.lift_config", None),
    ("tracext", None, "lift_surject", "tracext.lift_surject", None),
    ("tracext", "LiftConfig", "nearest_lam", "tracext.nearest_lam", "route"),
    ("tracext", None, "domain_trace", "tracext.domain_trace", "trace"),
    ("regions", None, "normal_trace", "regions.normal_trace", "trace"),
    ("regions", None, "pairing_over_set", "regions.pairing_over_set", "trace"),
    ("aespace", None, "ae_norm", "aespace.ae_norm", None),
    ("smirnov", None, "mollify", "smirnov.mollify", None),
    ("smirnov", None, "reconstruct_check", "smirnov.reconstruct_check", None),
    ("smirnov", None, "transport_invariant", "smirnov.transport_invariant", None),
    ("smirnov", None, "snap_to_graph", "smirnov.snap_to_graph", None),
    ("smirnov", None, "graph_decompose", "smirnov.graph_decompose", None),
    ("smirnov", "GridField", "sigma_at_masked", "smirnov.sample", None),
    ("smirnov", "GridField", "sigma_at", "smirnov.point_sample", None),
    ("smirnov", "GridField", "tau_at", "smirnov.point_sample", None),
    ("smirnov", "GridField", "div_sigma_at", "smirnov.point_sample", None),
]

# (module, class or None, attribute, count name, split by caller category)
COUNTS = [
    ("domain", None, "routing_graph", "domain.graph_lookup", False),
    ("domain", None, "segment_in_domain", "domain.segment_in_domain", False),
    ("regions", "PolyRegion", "contains", "regions.contains", True),
    ("regions", "PolyRegion", "on_boundary", "regions.on_boundary", True),
]

CATEGORIES = ("graph_build", "route", "trace", "other")

# derived counts taken from arguments or results: span name -> hook
_ARG_COUNTS = {
    "aespace.ae_norm": lambda a, k: {"aespace.support_atoms": len(a[0].atoms())},
    "smirnov.sample": lambda a, k: {"smirnov.sample.points": len(a[1])},
}
_RESULT_COUNTS = {
    "domain.select_lambda": lambda r: {"domain.net_points": len(r)},
    "smirnov.reconstruct_check": lambda r: {"smirnov.truncated": r[3]},
    "smirnov.snap_to_graph": lambda r: {
        "smirnov.graph_nodes": len(r.nodes),
        "smirnov.graph_edges": len(r.edges),
    },
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []  # name id, start, end, parent
        self.counts: Counter = Counter()
        self.top_time: Counter = Counter()  # time of spans with no same-name ancestor
        self.self_time: dict = defaultdict(float)  # (name, parent name) -> self time
        self._ids: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, name, child time]
        self._open: Counter = Counter()
        self._cats = ["other"]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _begin(self, name: str, cat: str | None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1][0] if self._stack else -1
        self.counts[name] += 1
        if name == "domain.dijkstra" and self._open["domain.route"]:
            self.counts["domain.route.grid_fallback"] += 1
        if name == "domain.nearest_visible" and self._open["tracext.nearest_lam"]:
            self.counts["tracext.nearest_lam.visible"] += 1
        self._open[name] += 1
        self._cats.append(cat or self._cats[-1])
        self.spans.append((self._ids[name], perf_counter(), 0.0, parent))
        self._stack.append([len(self.spans) - 1, name, 0.0])

    def _end(self):
        end = perf_counter()
        idx, name, child = self._stack.pop()
        nid, start, _, parent = self.spans[idx]
        self.spans[idx] = (nid, start, end, parent)
        self._cats.pop()
        self._open[name] -= 1
        dur = end - start
        if not self._open[name]:
            self.top_time[name] += dur
        pname = self._stack[-1][1] if self._stack else ""
        self.self_time[(name, pname)] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def span(self, name: str, fn):
        """fn wrapped in a span of the given name (for the benchmark's
        own callbacks)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._begin(name, None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end()

        return wrapper

    def _spanned(self, fn, name, cat):
        arg_hook = _ARG_COUNTS.get(name)
        result_hook = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if arg_hook:
                self.counts.update(arg_hook(args, kwargs))
            self._begin(name, cat)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end()
            if result_hook:
                self.counts.update(result_hook(result))
            return result

        return wrapper

    def _counted(self, fn, name, split):
        counts = self.counts
        cats = self._cats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[f"{name}.{cats[-1]}" if split else name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self):
        """Replace the listed functions and methods by recording ones."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "dmfields" or name.startswith("dmfields.")
        }
        table = [(m, c, a, self._spanned, n, cat) for m, c, a, n, cat in SPANS]
        table += [(m, c, a, self._counted, n, split) for m, c, a, n, split in COUNTS]
        for modname, clsname, attr, make, name, extra in table:
            home = mods[f"dmfields.{modname}"]
            if clsname is not None:
                cls = getattr(home, clsname)
                original = cls.__dict__[attr]
                self._replace(cls, attr, make(original, name, extra))
                continue
            original = getattr(home, attr)
            wrapped = make(original, name, extra)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._replace(mod, key, wrapped)

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, name -> (value, unit)."""
        c, t = self.counts, self.top_time
        out = {}
        for name in (
            "domain.graph_build", "domain.select_lambda", "domain.separation",
            "domain.route", "domain.nearest_visible", "tracext.lift_config",
            "tracext.lift_surject", "tracext.nearest_lam",
            "regions.normal_trace", "regions.pairing_over_set",
            "aespace.ae_norm", "smirnov.mollify", "smirnov.reconstruct_check",
            "smirnov.sample", "smirnov.point_sample", "smirnov.phi",
            "smirnov.snap_to_graph", "smirnov.graph_decompose",
        ):
            out[f"{name}.s"] = (t[name], "s")
        for name in (
            "domain.graph_build", "domain.graph_lookup", "domain.net_points",
            "domain.route", "domain.route.grid_fallback",
            "domain.nearest_visible", "domain.segment_in_domain",
            "tracext.nearest_lam", "aespace.support_atoms", "smirnov.sample",
            "smirnov.point_sample", "smirnov.truncated", "smirnov.graph_nodes",
            "smirnov.graph_edges",
        ):
            out[f"{name}.count"] = (c[name], "count")
        out["smirnov.sample.points"] = (c["smirnov.sample.points"], "count")
        calls = c["tracext.nearest_lam"]
        out["tracext.nearest_lam.visible_per_call"] = (
            c["tracext.nearest_lam.visible"] / calls if calls else 0.0,
            "count/call",
        )
        for pred in ("regions.contains", "regions.on_boundary"):
            for cat in CATEGORIES:
                out[f"{pred}.count.{cat}"] = (c[f"{pred}.{cat}"], "count")
        return out

    def write(self, path):
        """All spans, plus self time per (span, parent span) pair, as
        gzipped JSON."""
        summary = defaultdict(lambda: [0, 0.0, 0.0])
        names = self.names
        for nid, start, end, parent in self.spans:
            pname = names[self.spans[parent][0]] if parent >= 0 else ""
            row = summary[(names[nid], pname)]
            row[0] += 1
            row[1] += end - start
        for key, own in self.self_time.items():
            summary[key][2] = own
        doc = {
            "span_fields": ["name", "start_s", "end_s", "parent_index"],
            "spans": [[names[n], s, e, p] for n, s, e, p in self.spans],
            "by_parent": [
                {"name": n, "parent": p, "count": r[0], "total_s": r[1], "self_s": r[2]}
                for (n, p), r in sorted(summary.items(), key=lambda kv: -kv[1][2])
            ],
            "counts": dict(sorted(self.counts.items())),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
