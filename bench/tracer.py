"""Per-layer tracing of one in-process ``padicsde`` CLI run.

A layer is one module of the package.  The tracer wraps every public
function and method that a layer module defines and rebinds each wrapper
under every name the package holds for it: ``cli`` imports
``solve_evolution`` and ``sde`` imports ``cell_round`` by name, so patching
only the defining module would miss those calls.  Module imports are timed
too, through a meta-path finder, so a layer's self time covers everything
it costs one CLI process.

Each wrapped call adds its duration to its parent's child time and its own
duration minus child time to its layer's self time.  Only calls of the
coarse functions (``_is_span``) are kept as span records; the hot leaves
(``PAdicValue`` operators, ``draw_raw``, ``cell_round``, ...) run hundreds
of thousands of times and are counted and timed in aggregate only.
"""

from __future__ import annotations

import importlib.machinery
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "padicsde"
LAYERS = ("cli", "padic", "charfun", "measure", "antider", "sde",
          "evolution", "charexpect")

# Dunder methods that do layer work; the dataclass-generated ones do not.
_DUNDERS = {"__add__", "__sub__", "__mul__", "__truediv__", "__neg__",
            "__pow__", "__call__", "__getitem__"}

# Module-level functions called per cell, per matrix or per draw.
_HOT_FUNCTIONS = {"cell_of", "cell_add", "cell_sub", "cell_mul", "cell_pow",
                  "cell_round", "cell_is_zero", "mat_identity", "mat_zero",
                  "mat_add", "mat_sub", "mat_scale", "mat_mul", "mat_inv",
                  "mat_is_zero", "mat_norm", "mat_round",
                  "derive_seed", "cached_sampler", "frac_part",
                  "digit_prefix", "mahler_poly", "character",
                  "sample_gaussian", "antider_u_cell", "antider_w_cell",
                  "covariation_cell", "pair_antider_cell",
                  "antider_powers_cell", "antider_mixed_cell"}

# SplitMix64 primitives, called only from inside ``measure``: their time is
# measure's self time either way, and wrapping them would triple the traced
# run of a sampling workload.
_UNTRACED = {"mix64", "RandomStream.u64", "RandomStream.float53",
             "RandomStream.below"}

# Methods that write artifacts are few and coarse: keep them as spans.
_SPAN_METHODS = {"Artifacts.write_csv", "Artifacts.write_json",
                 "Artifacts.finish"}


def _is_span(qualname: str) -> bool:
    if "." in qualname:
        return qualname in _SPAN_METHODS
    return qualname not in _HOT_FUNCTIONS


class Tracer:
    """Counts, self times and coarse spans of every wrapped call."""

    def __init__(self):
        self.calls: Counter = Counter()           # "layer.qualname" -> calls
        self.calls_in: Counter = Counter()        # (name, enclosing span name)
        self.self_s: dict = defaultdict(float)    # layer -> seconds
        self.spans: list = []                     # (id, parent, name, t0, t1)
        self.returns: dict = {}                   # name -> callback(result)
        # one frame per active call: [enclosing span id, its name, child time]
        self._stack = [[0, "root", 0.0]]
        self._next_id = 1
        self.originals: dict = {}                 # "layer.qualname" -> object

    def timed(self, fn, layer: str, name: str, span: bool):
        """Return ``fn`` wrapped so that each call is counted and timed."""
        stack, calls, calls_in = self._stack, self.calls, self.calls_in
        self_s, spans, returns = self.self_s, self.spans, self.returns
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if span:
                sid = self._next_id
                self._next_id = sid + 1
                frame = [sid, name, 0.0]
            else:
                frame = [parent[0], parent[1], 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                self_s[layer] += dt - frame[2]
                parent[2] += dt
                calls[name] += 1
                calls_in[name, parent[1]] += 1
                if span:
                    spans.append((frame[0], parent[0], name, t0, t1))
            hook = returns.get(name)
            if hook is not None:
                hook(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- imports -------------------------------------------------------

    def time_imports(self) -> None:
        """Time the import of each layer module as a span of that layer.

        Call before anything imports the package."""
        if PACKAGE in sys.modules:
            raise RuntimeError(f"{PACKAGE} is already imported")
        sys.meta_path.insert(0, _ImportTimer(self))

    # -- wrapping ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module."""
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"]
                   for layer in LAYERS}
        swaps = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in _UNTRACED or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    name = f"{layer}.{attr}"
                    self.originals[name] = obj
                    swaps[id(obj)] = self.timed(obj, layer, name,
                                                _is_span(attr))
        # rebind every by-name import, across all modules of the package
        for mod in [sys.modules[PACKAGE], *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                wrapper = swaps.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if attr.startswith("_") and attr not in _DUNDERS or \
                    qual in _UNTRACED:
                continue
            name = f"{layer}.{qual}"
            span = qual in _SPAN_METHODS
            if isinstance(raw, (classmethod, staticmethod)):
                self.originals[name] = raw.__func__
                wrapped = type(raw)(self.timed(raw.__func__, layer, name,
                                               span))
            elif inspect.isfunction(raw):
                self.originals[name] = raw
                wrapped = self.timed(raw, layer, name, span)
            else:
                continue    # properties and data
            setattr(cls, attr, wrapped)

    # -- results -------------------------------------------------------

    def count(self, *names: str) -> int:
        return sum(self.calls[name] for name in names)


class _ImportTimer:
    """Meta-path finder that wraps each layer module's ``exec_module``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        pkg, _, layer = fullname.partition(".")
        if pkg != PACKAGE or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        spec.loader.exec_module = self.tracer.timed(
            spec.loader.exec_module, layer, f"{layer}.import", True)
        return spec
