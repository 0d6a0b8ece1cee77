"""Layer tracing from outside the package.

The layers are the package's modules. While installed, the tracer replaces
every public function and every public method of a public class of those
modules with a wrapper that records a span (layer, name, start, end,
parent, size). Functions are replaced in every module namespace that holds
a reference (``entanglement`` imports ``min_eigenvalue``, the package
``__init__`` re-exports most names), so calls between modules are seen no
matter how they are spelled. Spans stay in memory for one pass and are
reduced to per-layer figures after the pass; ``write_spans`` writes a
pass's spans out as JSON lines; ``uninstall`` restores the original
objects.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

import numpy as np

LAYERS = ("states", "entanglement", "nonclassicality", "ramsey", "oracle",
          "cli")

# names whose spans feed the layer-specific counters
_CHI = {"chi", "chi_normal"}
_CHI2 = {"chi2"}
_WITNESS = {"paper_witness", "witness_from_eta", "witness_expectation"}


def _size(args, kwargs, name: str):
    """Work size recorded on a span: points for chi kernels, the cutoff
    for displacement_matrix."""
    if name in _CHI or name in _CHI2:
        # method: (self, alpha[, beta]); module function: (state, alpha[, beta])
        alpha = args[1] if len(args) > 1 else kwargs.get("alpha")
        return int(np.size(alpha))
    if name == "displacement_matrix":
        return int(args[1] if len(args) > 1 else kwargs["dim"])
    return 0


class Tracer:
    def __init__(self, cw):
        self.cw = cw
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.warnings: dict[str, int] = {}

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(owner, attribute, original, layer, name) for every public
        function and method of the six modules."""
        modules = {layer: getattr(self.cw, layer) for layer in LAYERS}
        namespaces = list(modules.values()) + [self.cw]
        funcs = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    funcs[obj] = (layer, name)
                elif inspect.isclass(obj):
                    for attr, meth in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(meth):
                            yield obj, attr, meth, layer, attr
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in funcs:
                    layer, fname = funcs[obj]
                    yield ns, name, obj, layer, fname

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, orig, layer, name in list(self._targets()):
            if orig not in wrappers:
                wrappers[orig] = self._wrap(orig, LAYERS.index(layer), name)
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, wrappers[orig])

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _wrap(self, fn, layer: int, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sized = name in _CHI or name in _CHI2 or name == "displacement_matrix"
        scan = name == "region_scan"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(layer)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            size = _size(args, kwargs, name) if sized else 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if scan:
                    size = int(np.size(result.values))
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (layer, name, t0, t1, parent, size)
        return wrapper

    def on_warning(self, *args, **kwargs):
        """warnings.showwarning replacement: count per emitting layer (an
        open span holds its layer index until it closes)."""
        layer = LAYERS[self.spans[self._stack[-1]]] if self._stack else "bench"
        self.warnings[layer] = self.warnings.get(layer, 0) + 1

    # -- reduction -------------------------------------------------------

    def reduce(self) -> dict:
        """Per-layer figures of the spans recorded since the last reset.
        A span's self time is its duration minus its children's; traced_s
        is the time covered by top-level spans."""
        spans = self.spans
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        out.update({"states.chi_points": 0, "states.chi2_points": 0,
                    "entanglement.moments_calls": 0,
                    "entanglement.moments_s": 0.0,
                    "entanglement.witness_s": 0.0,
                    "nonclassicality.eig_calls": 0,
                    "nonclassicality.eig_s": 0.0,
                    "nonclassicality.scan_cells": 0,
                    "ramsey.prepare_s": 0.0,
                    "oracle.dispmat_calls": 0, "oracle.dispmat_s": 0.0,
                    "oracle.dim_sq": 0, "oracle.max_dim": 0,
                    "traced_s": 0.0})
        for layer, name, t0, t1, parent, size in spans:
            dur = t1 - t0
            lname = LAYERS[layer]
            out[f"{lname}.calls"] += 1
            out[f"{lname}.self_s"] += dur
            outer = outer_name = None
            if parent >= 0:
                outer, outer_name = LAYERS[spans[parent][0]], spans[parent][1]
                out[f"{outer}.self_s"] -= dur
            else:
                out["traced_s"] += dur
            # points count where a call enters states from another layer
            if lname == "states" and outer != "states":
                if name in _CHI:
                    out["states.chi_points"] += size
                elif name in _CHI2:
                    out["states.chi2_points"] += size
            elif name == "moments9":
                out["entanglement.moments_calls"] += 1
                out["entanglement.moments_s"] += dur
            elif name in _WITNESS and outer_name not in _WITNESS:
                out["entanglement.witness_s"] += dur
            elif name == "min_eigenvalue":
                out["nonclassicality.eig_calls"] += 1
                out["nonclassicality.eig_s"] += dur
            elif name == "region_scan":
                out["nonclassicality.scan_cells"] += size
            elif name == "prepare_conditional":
                out["ramsey.prepare_s"] += dur
            elif name == "displacement_matrix":
                out["oracle.dispmat_calls"] += 1
                out["oracle.dispmat_s"] += dur
                out["oracle.dim_sq"] += size * size
                out["oracle.max_dim"] = max(out["oracle.max_dim"], size)
        return out

    def reset(self):
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans.clear()
        self.warnings = {}


def write_spans(spans, path):
    """Spans as JSON lines (id, layer, name, start, end, parent, size);
    returns the path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for idx, (layer, name, t0, t1, parent, size) in enumerate(spans):
            fh.write(json.dumps({"id": idx, "layer": LAYERS[layer],
                                 "name": name, "start": t0, "end": t1,
                                 "parent": parent, "size": size}) + "\n")
    return path
