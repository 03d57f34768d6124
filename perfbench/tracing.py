"""Spans around the package's public functions, recorded from outside.

``install`` replaces every public module-level function of each layer
module (plus ``SimPolicy.from_allocation``) with a wrapper that records a
span: name, start, end and the index of the enclosing span.  The modules
bind each other's functions with ``from .x import f``, so a function is
rebound under every module attribute that holds it, not only where it is
defined; calls inside one module go through its globals and are caught the
same way.

Private helpers are left alone on purpose.  ``_y_prime_clamped`` runs about
300 000 times per K=60 split and ``_advance`` once per busy frame; a Python
wrapper costs about as much as their bodies, so wrapping them would distort
exactly what they should measure.  Their time shows as the self time of
the public function that calls them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

PACKAGE = "urllc_ee"
LAYERS = ("cli", "config_io", "model", "rate", "traffic", "fading",
          "allocator", "simulator", "experiments")


class Tracer:
    """In-memory span log; each span is ``[name, start, end, parent]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished span measured by the caller."""
        self.spans.append([name, start, end, self._stack[-1]])

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
        return traced

    def write(self, path: str) -> None:
        """Write the spans as JSON lines (times in perf_counter seconds)."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def public_functions(module) -> dict:
    """Public functions defined in ``module``, keyed by their name."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer and SimPolicy's factory."""
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, fn in public_functions(module).items():
            wrapped[id(fn)] = tracer.wrap(f"{layer}.{name}", fn)
    modules = [m for key, m in sys.modules.items()
               if key == PACKAGE or key.startswith(PACKAGE + ".")]
    for module in modules:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                setattr(module, name, wrapped[id(obj)])
    policy = sys.modules[f"{PACKAGE}.simulator"].SimPolicy
    policy.from_allocation = staticmethod(tracer.wrap(
        "simulator.SimPolicy.from_allocation", policy.from_allocation))


def summarize(spans: list[list]) -> dict:
    """Per span name and per layer: call count, inclusive and self seconds.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time sums that over the layer's spans.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    names: dict[str, list] = {}
    layers: dict[str, list] = {}
    for i, (name, start, end, _) in enumerate(spans):
        dur = end - start
        rec = names.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child[i]
        lay = layers.setdefault(name.split(".", 1)[0], [0, 0.0])
        lay[0] += 1
        lay[1] += dur - child[i]
    return {"names": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in names.items()},
            "layers": {k: {"calls": v[0], "self_s": v[1]}
                       for k, v in layers.items()}}
