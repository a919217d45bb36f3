"""Per-layer tracing of multishape from outside the package.

The tracer wraps the public entry points of each module (plus the grid's
sector-table memo) with timing spans and counters.  Nothing under ``src/`` is
edited: wrappers replace the attributes at run time and are removed again by
:meth:`Tracer.uninstall`.

A span's self time is its duration minus the time of the traced spans it
called.  Spans are aggregated per name (calls, inclusive seconds, self
seconds) instead of being stored one by one, so tracing adds no memory that
grows with the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# attribute set on an AlignmentSearcher after its first search; marking the
# instance (not its id(), which CPython reuses) tells cold from warm searches
WARM_MARK = "_perfbench_searched"

SEARCH_SPANS = ("align.search_cold", "align.search_warm")


class Tracer:
    """Aggregated spans and counters for one process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counters = defaultdict(int)
        self.active = defaultdict(int)
        self.missing = []
        self.enabled = True
        self._stack = []          # open spans: [name, seconds of children]
        self._restore = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, name, after):
        stack, active = self._stack, self.active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            frame = [label, 0.0]
            stack.append(frame)
            active[label] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[label] -= 1
                self.calls[label] += 1
                self.inclusive[label] += elapsed
                self.self_seconds[label] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark-side checks without counting their calls."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def in_search(self):
        return any(self.active[name] for name in SEARCH_SPANS)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target in every multishape module that binds it.

        Modules come from ``importlib`` because ``multishape.align`` as an
        attribute is the ``align`` function: the package re-exports it over
        the submodule name.
        """
        for module, attr, name, after in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(original, name, after)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "multishape"
                                       or mod_name.startswith("multishape.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
        for module, cls_name, attr, name, after in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{module}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self._wrap(original, name, after))
            self._restore.append((cls, attr, original))

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- results -----------------------------------------------------------

    def export(self):
        return {
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "self_seconds": dict(self.self_seconds),
            "counters": dict(self.counters),
            "missing": list(self.missing),
        }

    def merge(self, doc):
        """Add the exported totals of another process (a CLI child)."""
        for key, table in (("calls", self.calls),
                           ("inclusive", self.inclusive),
                           ("self_seconds", self.self_seconds),
                           ("counters", self.counters)):
            for name, value in doc[key].items():
                table[name] += value
        self.missing.extend(m for m in doc["missing"]
                            if m not in self.missing)


# -- hooks run after a traced call returns ---------------------------------

def _search_name(args):
    return ("align.search_warm" if getattr(args[0], WARM_MARK, False)
            else "align.search_cold")


def _after_search(tracer, args, result):
    setattr(args[0], WARM_MARK, True)


def _after_grid(tracer, args, result):
    tracer.counters["geometry.grid_build.pixels"] += args[0].size


def _after_q(tracer, args, result):
    # rows x pixels evaluated, the kernel's operation count
    pixels = int(getattr(result, "size", 0))
    tracer.counters["geometry.q.pixels"] += pixels
    if tracer.active["evolution.evolve"] and not tracer.in_search():
        tracer.counters["evolution.mask_pixels"] += pixels


def _after_evolve(tracer, args, result):
    state = result[1]
    counters = tracer.counters
    counters["evolution.iterations"] += state.iteration
    counters["evolution.trace_rows"] += len(state.trace)
    counters["evolution.accepted_rows"] += sum(1 for row in state.trace
                                               if row.accepted)
    counters[f"evolution.halts.{state.halted_reason}"] += 1
    if tracer.active["importance.learn"]:
        counters["importance.trial_evolves"] += 1


def _after_build_model(tracer, args, result):
    if tracer.active["importance.learn"]:
        counters = tracer.counters
        counters["importance.models_built"] += 1


def _after_learn(tracer, args, result):
    tracer.counters["importance.commits"] += len(result[2])


def _file_bytes(key):
    def after(tracer, args, result):
        tracer.counters[key] += os.path.getsize(args[0])
    return after


# (module, attribute, span name, after hook)
FUNCTIONS = (
    ("multishape.evolution", "evolve", "evolution.evolve", _after_evolve),
    ("multishape.evolution", "trust_region_step",
     "evolution.trust_region_step", None),
    ("multishape.importance", "learn", "importance.learn", _after_learn),
    ("multishape.shape_model", "synthesize", "shape_model.synthesize", None),
    ("multishape.shape_model", "build_model", "shape_model.build_model",
     _after_build_model),
    ("multishape.shape_model", "sample_shape_vector",
     "shape_model.sample_shape_vector", None),
    ("multishape.netpbm", "read_pgm", "netpbm.read",
     _file_bytes("netpbm.read.bytes")),
    ("multishape.netpbm", "write_pgm", "netpbm.write",
     _file_bytes("netpbm.write.bytes")),
    ("multishape.raster", "rasterize", "raster.rasterize", None),
    ("multishape.synthgen", "generate_scene", "synthgen.generate_scene", None),
    ("multishape.synthgen", "export_dataset", "synthgen.export_dataset", None),
    ("multishape.synthgen", "import_dataset", "synthgen.import_dataset", None),
    ("multishape.metrics", "object_report", "metrics.object_report", None),
    ("multishape.metrics", "pixel_metrics", "metrics.pixel_metrics", None),
)

# (module, class, method, span name, after hook)
METHODS = (
    ("multishape.align", "AlignmentSearcher", "__init__",
     "align.searcher_build", None),
    ("multishape.align", "AlignmentSearcher", "search", _search_name,
     _after_search),
    ("multishape.geometry", "RadialGrid", "__init__", "geometry.grid_build",
     _after_grid),
    ("multishape.geometry", "RadialGrid", "_sector_table",
     "geometry.sector_table", None),
    ("multishape.geometry", "RadialGrid", "q_values", "geometry.q", _after_q),
    ("multishape.geometry", "RadialGrid", "q_select", "geometry.q", _after_q),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metric values by name, from the traced totals."""
    calls, self_s, incl, counters = (tracer.calls, tracer.self_seconds,
                                     tracer.inclusive, tracer.counters)
    out = {}
    for span in ("align.search_warm", "align.search_cold",
                 "align.searcher_build", "geometry.grid_build",
                 "geometry.sector_table", "geometry.q",
                 "evolution.trust_region_step", "shape_model.synthesize",
                 "shape_model.build_model", "shape_model.sample_shape_vector",
                 "netpbm.read", "netpbm.write", "raster.rasterize",
                 "synthgen.generate_scene", "metrics.object_report"):
        out[f"{span}.n"] = calls[span]
        out[f"{span}.s"] = self_s[span]
    for span in ("synthgen.export_dataset", "synthgen.import_dataset",
                 "metrics.pixel_metrics"):
        out[f"{span}.s"] = self_s[span]
    for key in ("geometry.grid_build.pixels", "geometry.q.pixels",
                "netpbm.read.bytes", "netpbm.write.bytes",
                "evolution.iterations", "evolution.mask_pixels",
                "evolution.halts.energy_threshold",
                "evolution.halts.no_decrease",
                "evolution.halts.max_iterations",
                "evolution.halts.zero_gradient",
                "importance.trial_evolves", "importance.commits"):
        out[key] = counters[key]
    out["evolution.evolve.n"] = calls["evolution.evolve"]
    out["evolution.evolve.self_s"] = self_s["evolution.evolve"]
    out["evolution.accept_ratio"] = _ratio(counters["evolution.accepted_rows"],
                                           counters["evolution.trace_rows"])
    search_s = sum(incl[name] for name in SEARCH_SPANS)
    out["align.search_share"] = _ratio(search_s, incl["evolution.evolve"])
    # every model built inside learn after its first is one tried bump
    tried = counters["importance.models_built"] - calls["importance.learn"]
    out["importance.commit_ratio"] = _ratio(counters["importance.commits"],
                                            tried)
    return out


def top_self_times(doc, count=5):
    """The largest self times of an exported trace, largest first."""
    items = sorted(doc["self_seconds"].items(), key=lambda kv: -kv[1])
    return [(name, round(seconds, 4)) for name, seconds in items[:count]]
