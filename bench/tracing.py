"""Per-layer tracing of the anmf package from outside it.

``Tracer.patched()`` replaces every public function of every anmf module
with a wrapper that records a span (name, start, end, parent, op id), at
every module attribute that refers to it, so calls made through an import
site such as ``anmf.training.update_latents`` or ``anmf.cli.separate`` are
seen as well. The originals are restored on exit. Spans stay in memory
until ``write``.

A few spans also carry counts measured where the work happens: the shapes
of each latent update (for its computed flop and byte counts), the bytes
of each matrix read or written, and the all-zero columns handed to the
separation solver.
"""

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "io", "adversarial", "training", "core", "separation", "features", "metrics")


def _shape(x):
    return np.shape(getattr(x, "entries", x))


def _latent_update_counts(args, kwargs, result):
    """Work of one update_latents call, computed from its operand shapes.

    num = W.T U costs 2mdn flops, W.T W costs 2md^2, (W.T W) H costs 2d^2 n
    and the entrywise scaling about 4dn; the bytes are one read of H, W, U
    and one write of the result, in float64.
    """
    m, d = _shape(args[1] if len(args) > 1 else kwargs["W"])
    n = np.shape(result)[1]
    return {
        "flop": 2 * m * d * n + 2 * m * d * d + 2 * d * d * n + 4 * d * n,
        "bytes": 8 * (2 * d * n + m * d + m * n),
        "columns": n,
    }


def _read_counts(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _write_counts(args, kwargs, result):
    rows, cols = _shape(args[1] if len(args) > 1 else kwargs["matrix"])
    return {"bytes": 8 * rows * cols}


def _solver_input_counts(args, kwargs, result):
    V = np.asarray(getattr(args[0], "entries", args[0]))
    return {"columns": V.shape[1], "zero_columns": int(np.count_nonzero(~V.any(axis=0)))}


PROBES = {
    "core.update_latents": _latent_update_counts,
    "io.read_matrix": _read_counts,
    "io.write_matrix": _write_counts,
    "separation.separate": _solver_input_counts,
    "separation.project_denoise": _solver_input_counts,
}


class Tracer:
    """Span recorder for the public functions of every anmf layer module."""

    def __init__(self):
        layers = [importlib.import_module(f"anmf.{layer}") for layer in LAYERS]
        self.modules = [importlib.import_module("anmf")] + layers
        self.spans = []  # [name, start, end, parent index, op id, counts]
        self._stack = []
        self.op = None
        self._wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mod in zip(LAYERS, layers):
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if probe is not None:
                span[5] = probe(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def patched(self, op):
        """Route every import site of every public function through its wrapper."""
        self.op = op
        replaced = []
        try:
            for mod in self.modules:
                for attr, value in list(vars(mod).items()):
                    entry = self._wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(mod, attr, entry[1])
                        replaced.append((mod, attr, value))
            yield
        finally:
            for mod, attr, value in replaced:
                setattr(mod, attr, value)
            self.op = None

    def op_totals(self, op):
        """Per function name: calls, seconds, self seconds, callers and summed counts.

        Self seconds are a span's duration minus that of its direct children;
        ``callers`` counts calls by the name of the calling span.
        """
        first = next(i for i, s in enumerate(self.spans) if s[4] == op)
        spans = [s for s in self.spans[first:] if s[4] == op]
        child_s = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_s[s[3] - first] += s[2] - s[1]
        totals = {}
        for s, inner in zip(spans, child_s):
            t = totals.setdefault(s[0], {"calls": 0, "s": 0.0, "self_s": 0.0, "callers": {}})
            t["calls"] += 1
            t["s"] += s[2] - s[1]
            t["self_s"] += s[2] - s[1] - inner
            caller = spans[s[3] - first][0] if s[3] >= 0 else None
            t["callers"][caller] = t["callers"].get(caller, 0) + 1
            for key, value in (s[5] or {}).items():
                t[key] = t.get(key, 0) + value
        return totals

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                                    "op": s[4], "counts": s[5]}) + "\n")
