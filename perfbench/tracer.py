"""Per-layer tracing from outside the package.

``Tracer.install`` replaces ucgkit's public functions with timing
wrappers.  A function is replaced under every name any ucgkit module
binds it to, so calls made inside the package through ``from … import``
bindings are caught as well as the benchmark's own.  ``Graph.__init__``
and the ``Graph.dist`` cached property (the all-pairs BFS) are wrapped
on the class.  Each span records its duration and the part of it spent
in traced child spans; self time is the difference.  ``uninstall``
restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

#: (defining module, function, metric prefix).  Several functions may
#: share one prefix: the three builders form ``scaffolds.build``.
FUNCTIONS = (
    ("graphs", "metric_profile", "graphs.metric_profile"),
    ("analysis", "ucg_analysis", "analysis.ucg_analysis"),
    ("coverings", "cov_A", "coverings.cov_A"),
    ("coverings", "cov_profile", "coverings.cov_profile"),
    ("coverings", "decide_cover_k", "coverings.decide_cover_k"),
    ("coverings", "covering_passes", "coverings.covering_passes"),
    ("scaffolds", "build_scaffold", "scaffolds.build"),
    ("scaffolds", "build_refined_scaffold", "scaffolds.build"),
    ("scaffolds", "build_cone", "scaffolds.build"),
    ("scaffolds", "verify_construction", "scaffolds.verify_construction"),
    ("appendage", "appendage_number", "appendage.appendage_number"),
    ("appendage", "brute_force_appendage", "appendage.brute_force_appendage"),
    ("codecs", "load_graph_text", "codecs.load_graph_text"),
    ("codecs", "encode_graph6", "codecs.encode_graph6"),
    ("cli", "run_command", "cli.run_command"),
)
WITNESSES = "coverings.iter_covering_witnesses"

#: Spans with a ``calls`` count and a ``self_s`` time, in report order.
SPANS = ("graphs.Graph", "graphs.dist") + tuple(dict.fromkeys(
    m for _, _, m in FUNCTIONS))

#: Every per-layer metric a traced run reports, with its unit.
METRICS = {
    **{f"{s}.{k}": u for s in SPANS for k, u in (("calls", "count"), ("self_s", "s"))},
    f"{WITNESSES}.yielded": "count",
    f"{WITNESSES}.self_s": "s",
    "coverings.decide.found_ratio": "ratio",
    "scaffolds.verify_construction.ok_ratio": "ratio",
    "appendage.verify_per_answer": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Metrics each workload must drive above zero (the tracer self-test).
EXERCISED = {
    "prism_search": ("graphs.Graph.calls", "graphs.dist.calls",
                     "graphs.metric_profile.calls", "coverings.cov_A.calls",
                     "coverings.decide_cover_k.calls", "coverings.covering_passes.calls",
                     f"{WITNESSES}.yielded", f"{WITNESSES}.self_s",
                     "scaffolds.build.calls", "scaffolds.verify_construction.calls",
                     "analysis.ucg_analysis.calls", "appendage.appendage_number.calls"),
    "atlas_sweep": ("graphs.Graph.calls", "graphs.dist.calls",
                    "graphs.metric_profile.calls", "coverings.cov_A.calls",
                    "coverings.cov_profile.calls", "coverings.decide_cover_k.calls",
                    "coverings.covering_passes.calls", f"{WITNESSES}.yielded",
                    f"{WITNESSES}.self_s", "scaffolds.build.calls",
                    "scaffolds.verify_construction.calls", "analysis.ucg_analysis.calls",
                    "appendage.appendage_number.calls", "appendage.verify_per_answer",
                    "scaffolds.verify_construction.ok_ratio",
                    "coverings.decide.found_ratio"),
    "verify_sweep": ("graphs.Graph.calls", "graphs.dist.calls", "graphs.dist.self_s",
                     "graphs.metric_profile.calls", "analysis.ucg_analysis.calls",
                     "analysis.ucg_analysis.self_s", "scaffolds.build.calls",
                     "scaffolds.verify_construction.calls",
                     "scaffolds.verify_construction.self_s",
                     "scaffolds.verify_construction.ok_ratio"),
    "oracle": ("graphs.Graph.calls", "graphs.dist.calls", "cli.run_command.calls",
               "codecs.load_graph_text.calls", "codecs.encode_graph6.calls",
               "appendage.brute_force_appendage.calls",
               "appendage.brute_force_appendage.self_s"),
}


class Tracer:
    """Counts and self times of the traced layers for one traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.events: Counter = Counter()
        self._open: list[list] = []  # [name, time in child spans] per open span
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _span(self, name: str, fn, args, kwargs, count: bool = True):
        frame = [name, 0.0]
        self._open.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._open.pop()
            self.self_s[name] += dt - frame[1]
            if self._open:
                self._open[-1][1] += dt
            if count:
                self.calls[name] += 1

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._open)

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self._span(name, fn, args, kwargs)
            if hook:
                hook(self, out)
            return out
        return traced

    def _wrap_witnesses(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[WITNESSES] += 1
            return self._witness_stream(fn(*args, **kwargs))
        return traced

    def _witness_stream(self, gen):
        done = object()
        while True:
            item = self._span(WITNESSES, next, (gen, done), {}, count=False)
            if item is done:
                return
            self.events[f"{WITNESSES}.yielded"] += 1
            yield item

    # -- installation --------------------------------------------------------

    def _replace(self, owner, attr: str, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind(self, original, new, modules):
        """Point every module-level binding of ``original`` at ``new``."""
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._replace(mod, attr, new)

    def install(self) -> list[str]:
        """Wrap the layers; returns the names that could not be found."""
        import ucgkit
        from ucgkit import graphs

        missing = []
        for mod_name in dict.fromkeys(m for m, _, _ in FUNCTIONS):
            try:
                importlib.import_module(f"ucgkit.{mod_name}")
            except ImportError:
                missing.append(f"ucgkit.{mod_name}")
        modules = [ucgkit] + [m for k, m in sorted(sys.modules.items())
                              if k.startswith("ucgkit.") and m is not None]
        for mod_name, fn_name, metric in FUNCTIONS:
            original = getattr(sys.modules.get(f"ucgkit.{mod_name}"), fn_name, None)
            if original is None:
                missing.append(f"{mod_name}.{fn_name}")
                continue
            self._rebind(original, self._wrap(metric, original), modules)
        original = getattr(sys.modules.get("ucgkit.coverings"), "iter_covering_witnesses", None)
        if original is None:
            missing.append(WITNESSES)
        else:
            self._rebind(original, self._wrap_witnesses(original), modules)

        init = graphs.Graph.__init__

        @functools.wraps(init)
        def traced_init(obj, *args, **kwargs):
            self._span("graphs.Graph", init, (obj,) + args, kwargs)
        self._replace(graphs.Graph, "__init__", traced_init)

        prop = graphs.Graph.__dict__.get("dist")
        if isinstance(prop, functools.cached_property):
            compute = prop.func

            def dist(g):
                return self._span("graphs.dist", compute, (g,), {})
            new = functools.cached_property(dist)
            new.__set_name__(graphs.Graph, "dist")
            self._replace(graphs.Graph, "dist", new)
        else:
            missing.append("graphs.Graph.dist")
        return missing

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in SPANS:
            out[f"{s}.calls"] = self.calls[s]
            out[f"{s}.self_s"] = self.self_s[s]
        out[f"{WITNESSES}.yielded"] = self.events[f"{WITNESSES}.yielded"]
        out[f"{WITNESSES}.self_s"] = self.self_s[WITNESSES]
        for name, (num, den) in self.bases().items():
            out[name] = num / den if den else 0.0
        out["trace.overhead_frac"] = overhead_frac
        return out

    def bases(self) -> dict[str, tuple[int, int]]:
        """Numerator and denominator of each ratio metric."""
        return {"coverings.decide.found_ratio":
                (self.events["decide.found"], self.calls["coverings.decide_cover_k"]),
                "scaffolds.verify_construction.ok_ratio":
                (self.events["verify.ok"], self.calls["scaffolds.verify_construction"]),
                "appendage.verify_per_answer":
                (self.events["verify.in_appendage"],
                 self.calls["appendage.appendage_number"])}


def _decide_hook(tracer: Tracer, res):
    if getattr(res, "found", False):
        tracer.events["decide.found"] += 1


def _verify_hook(tracer: Tracer, rep):
    if getattr(rep, "ok", False):
        tracer.events["verify.ok"] += 1
    if tracer.inside("appendage.appendage_number"):
        tracer.events["verify.in_appendage"] += 1


_HOOKS = {"coverings.decide_cover_k": _decide_hook,
          "scaffolds.verify_construction": _verify_hook}
