"""Outside-in layer spans for the oqlab benchmark.

The tracer wraps the package's boundary functions from outside: every
module attribute under `oqlab` that is one of the listed functions is
replaced by a wrapper, so the defining module, the `from .x import y`
copies in other modules and the `oqlab` namespace all record spans.
Nothing under src/ changes.

A span is (layer, start_ns, end_ns, parent_index); a call into a layer
from the same layer adds no span, so `calls` counts entries into a layer
and self time (span time minus child spans) partitions the traced time.
Spans stay in memory and are written out when the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# layer -> (defining module, boundary functions)
LAYERS = {
    "qcore": ("oqlab.qcore", (
        "validate_state", "make_pure_state", "make_mixed_state",
        "bloch_vector", "state_from_bloch", "rotate_polarization",
    )),
    "contexts": ("oqlab.contexts", ("context_table", "single_probs", "sequential_probs")),
    "oq": ("oqlab.oq", ("oq_distribution", "oq_closed_form", "negativity_region")),
    "analysis.estimate": ("oqlab.analysis", ("estimate_probs",)),
    "analysis.bootstrap": ("oqlab.analysis", ("bootstrap_negativity_error",)),
    "analysis.analyze": ("oqlab.analysis", ("analyze", "dark_count_correction")),
    "photonsim.count": ("oqlab.photonsim", ("simulate_counts",)),
    "photonsim.weakfield": ("oqlab.photonsim", ("weakfield_run",)),
    "photonsim.timing": ("oqlab.photonsim", ("generate_click_streams",)),
    "photonsim.io": ("oqlab.photonsim", ("count_tables_to_csv", "count_tables_from_csv")),
    "correlation": ("oqlab.correlation", ("start_stop_histogram", "g2_zero")),
    "cli": ("oqlab.cli", ("main",)),
}


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_weakfield(counters, fn, args, kwargs, result):
    counters["pulses"] += int(_bound(fn, args, kwargs)["n_pulses"])
    counters["kept"] += int(result.total)


def _count_timing(counters, fn, args, kwargs, result):
    counters["clicks"] += sum(s.times_ns.size for s in result)
    mb = sum(s.times_ns.nbytes for s in result) / 1e6
    counters["array_mb"] = max(counters["array_mb"], mb)


def _count_correlation(counters, fn, args, kwargs, result):
    if fn.__name__ == "start_stop_histogram":
        a = _bound(fn, args, kwargs)
        counters["clicks"] += a["start"].times_ns.size + a["stop"].times_ns.size


def _count_io(counters, fn, args, kwargs, result):
    counters["bytes"] += os.path.getsize(_bound(fn, args, kwargs)["path"])


def _count_bootstrap(counters, fn, args, kwargs, result):
    counters["resamples"] += int(_bound(fn, args, kwargs)["n_boot"])


COUNTERS = {
    "photonsim.weakfield": _count_weakfield,
    "photonsim.timing": _count_timing,
    "correlation": _count_correlation,
    "photonsim.io": _count_io,
    "analysis.bootstrap": _count_bootstrap,
}


class Tracer:
    """Records spans while `active`; wraps the boundaries on install()."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        self.spans = []
        self.stack = []
        self.counters = {layer: _zero_counters() for layer in LAYERS}
        self.bindings = []

    def _wrap(self, fn, layer):
        spans, stack = self.spans, self.stack
        count = COUNTERS.get(layer)
        counters = self.counters[layer]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or (stack and spans[stack[-1]][0] == layer):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([layer, 0, 0, stack[-1] if stack else -1])
            stack.append(idx)
            span = spans[idx]
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counters, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every binding of every boundary function under `oqlab`.

        Fails when a listed function no longer exists in its defining
        module, so that a rename cannot silently drop a layer.
        """
        originals = {}
        for layer, (modname, names) in LAYERS.items():
            mod = sys.modules[modname]
            for name in names:
                fn = getattr(mod, name, None)
                if not inspect.isfunction(fn):
                    raise RuntimeError(f"boundary {modname}.{name} of layer {layer} is missing")
                originals[id(fn)] = (fn, self._wrap(fn, layer))
        for modname, mod in sorted(sys.modules.items()):
            if modname != "oqlab" and not modname.startswith("oqlab."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self.bindings.append(f"{modname}.{attr}")
        return self.bindings

    def layer_totals(self):
        """Per-layer calls, self seconds and counters of the recorded spans."""
        child_ns = [0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {layer: dict(calls=0, self_s=0.0, **self.counters[layer]) for layer in LAYERS}
        for i, (layer, start, end, parent) in enumerate(self.spans):
            out[layer]["calls"] += 1
            out[layer]["self_s"] += (end - start - child_ns[i]) / 1e9
            if layer == "oq" and parent >= 0 and self.spans[parent][0] == "analysis.bootstrap":
                out["analysis.bootstrap"]["valid"] += 1
        return out

    def write(self, path, origin_ns):
        """Write the spans, relative to origin_ns, as one JSON document."""
        with open(path, "w") as fh:
            json.dump({
                "run_id": self.run_id,
                "fields": ["name", "start_ns", "end_ns", "parent", "run_id"],
                "bindings": self.bindings,
                "spans": [[n, s - origin_ns, e - origin_ns, p, self.run_id]
                          for n, s, e, p in self.spans],
            }, fh, separators=(",", ":"))


def _zero_counters():
    return dict(pulses=0, kept=0, clicks=0, array_mb=0.0, bytes=0, resamples=0, valid=0)
