"""Span recorder and per-layer attribution for traced benchmark runs.

Nothing inside the package is edited: `Instrumentation` replaces the layer
functions and methods of the tvconv modules from the outside with wrappers
that open a span on entry and close it on return, and puts the originals
back on `restore()`. A span is a list

    [name, start, end, parent, unit, macs, nbytes]

where `parent` is the index of the enclosing span (-1 at the root) and
`unit` is what the workload set when the span opened: a step or request
number, `eval<i>` for a held-out evaluation, `setup<i>` or `freeze<i>` in
set-up, None otherwise. Spans stay in memory; the runner writes them out
once the run is over.

Attribution rules:

- A layer's self time is its duration minus the durations of its direct
  children. Spans on one thread nest, so children never overlap.
- `conv_dx` and `dwconv_dx` delegate to `conv` and `dwconv`. A kernel span
  opened inside another kernel span is kept in the trace but counted under
  the outermost kernel only, so no kernel time is counted twice.
- Kernel MACs come from `costmodel.op_macs`, the same shape description the
  analytic model uses. Bytes moved are computed, not measured: every array
  argument read once plus every array result written once.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

KERNELS = ("conv", "conv_dx", "conv_dw", "dwconv", "dwconv_dx", "dwconv_dw",
           "tvconv", "tvconv_dx", "tvconv_dw", "layer_norm_fwd", "layer_norm_bwd")
NO_MACS = ("layer_norm_fwd", "layer_norm_bwd")


class Tracer:
    """In-memory span list plus the current unit id and the tape-node count."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.unit = None
        self.on = True
        self.tape_nodes = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.unit, 0, 0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (output checks, reference values)."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was


# --- cost of one kernel call --------------------------------------------------

def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return 0


def kernel_macs(costmodel, fn: str, args) -> int:
    """MACs of one kernel call: batch size times the cost model's per-image
    count for the op the kernel computes."""
    if fn in NO_MACS:
        return 0
    OpSpec = costmodel.OpSpec
    n, c, h, w = args[0].shape
    if fn.startswith("conv"):
        if fn == "conv_dw":             # conv_dw(g [n, co, h, w], x [n, ci, h, w], k)
            ci, co, k = args[1].shape[1], c, args[2]
        else:                           # conv(x, w [co, ci, k, k]), conv_dx(g, w)
            wt = args[1]
            ci, co, k = c, wt.shape[0 if fn == "conv" else 1], wt.shape[-1]
        if k == 1:
            spec = OpSpec("pointwise", c_in=ci, c_out=co, h=h, w=w)
        else:
            spec = OpSpec("conv", c_in=ci, c_out=co, h=h, w=w, k=k)
        return n * costmodel.op_macs(spec)
    if fn.endswith("_dw"):              # (g, x, k)
        k = args[2]
    elif fn.startswith("dwconv"):       # w [c, k, k]
        k = args[1].shape[-1]
    else:                               # w5 [c, k, k, h, w]
        k = args[1].shape[1]
    kind = "depthwise" if fn.startswith("dwconv") else "tvconv_apply"
    return n * costmodel.op_macs(OpSpec(kind, c=c, h=h, w=w, k=k))


# --- wrapping -----------------------------------------------------------------

class Instrumentation:
    """Installs span wrappers on the tvconv modules; `restore()` undoes it."""

    def __init__(self, tracer: Tracer, pkg):
        self.tracer = tracer
        self.pkg = pkg
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, cost=None):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if cost is not None:
                tracer.spans[idx][5], tracer.spans[idx][6] = cost(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def function(self, module, attr, name, cost=None):
        """Wrap module.attr and every other tvconv module's reference to it."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(name)
            return
        wrapped = self._wrap(name, orig, cost)
        for mod in self.pkg.modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, key, wrapped)

    def method(self, cls, attr, name, cost=None):
        orig = cls.__dict__.get(attr)
        if orig is None:
            self.missing.append(name)
            return
        self._set(cls, attr, self._wrap(name, orig, cost))

    def install(self) -> "Instrumentation":
        p = self.pkg
        costmodel = p.costmodel

        def kcost(fn):
            return lambda args, out: (kernel_macs(costmodel, fn, args),
                                      _nbytes(args) + _nbytes(out))

        for fn in KERNELS:
            self.function(p.kernels, fn, f"kernels.{fn}", kcost(fn))
        self.function(p.autograd, "backward", "autograd.backward")
        self.function(p.training, "evaluate", "training.evaluate")
        self.function(p.training, "sgd_step", "training.sgd_step")
        self.function(p.data, "gen_layout_dataset", "data.gen_layout_dataset")
        self.function(p.operator, "generate_weights", "operator.generate_weights")
        self.method(p.models.LayoutModel, "forward", "models.forward")
        self.method(p.models.LayoutModel, "_field_node", "models.field")
        self.method(p.models.LayoutModel, "predict", "models.predict")
        layer = p.operator.TVConvLayer
        self.method(layer, "fingerprint", "operator.fingerprint",
                    lambda args, out: (0, sum(a.nbytes for _, a in args[0].arrays())))
        self.method(layer, "cached_field", "operator.cached_field")
        self.method(layer, "freeze", "operator.freeze")
        self.method(layer, "infer_cached", "operator.infer_cached")

        tracer, node_init = self.tracer, p.autograd.Node.__init__

        def counted_init(node, *args, **kwargs):
            if tracer.on and is_loop(tracer.unit):
                tracer.tape_nodes += 1
            node_init(node, *args, **kwargs)

        self._set(p.autograd.Node, "__init__", counted_init)
        return self

    def restore(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()


# --- accounting ---------------------------------------------------------------

def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - child[i] for i, s in enumerate(spans)]


def _nested_kernel(spans, s) -> bool:
    return s[3] >= 0 and spans[s[3]][0].startswith("kernels.")


def outermost_kernels(spans):
    """Kernel spans whose parent is not itself a kernel span."""
    for s in spans:
        if s[0].startswith("kernels.") and not _nested_kernel(spans, s):
            yield s


def kernel_macs_by_unit(spans) -> dict:
    out: dict = {}
    for s in outermost_kernels(spans):
        out[s[4]] = out.get(s[4], 0) + s[5]
    return out


def is_loop(unit) -> bool:
    """Loop units are step or request numbers and held-out evaluations;
    set-up units are "setup<i>" and "freeze<i>"."""
    return isinstance(unit, int) or (isinstance(unit, str) and unit.startswith("eval"))


@dataclass
class _Layer:
    ms: float = 0.0             # loop spans, inclusive
    calls: int = 0
    self_ms: float = 0.0
    macs: int = 0
    nbytes: int = 0
    setup_ms: float = 0.0       # set-up spans, inclusive


def per_layer(spans, units: int, setups: int, tape_nodes: int) -> dict[str, float]:
    """Per-layer figures of the measured loop, per step or request (`units`);
    the layers that run only in set-up are per set-up."""
    layers: dict[str, _Layer] = defaultdict(_Layer)
    for s, self_s in zip(spans, self_times(spans)):
        name, dur, a = s[0], s[2] - s[1], layers[s[0]]
        if not is_loop(s[4]):
            a.setup_ms += dur * 1e3
        elif not (name.startswith("kernels.") and _nested_kernel(spans, s)):
            a.ms += dur * 1e3
            a.calls += 1
            a.self_ms += self_s * 1e3
            a.macs += s[5]
            a.nbytes += s[6]

    per, per_setup = max(units, 1), max(setups, 1)
    out: dict[str, float] = {}
    for fn in KERNELS:
        k = layers[f"kernels.{fn}"]
        out[f"kernels.{fn}.ms"] = k.ms / per
        out[f"kernels.{fn}.calls"] = k.calls / per
        out[f"kernels.{fn}.mb"] = k.nbytes / 1e6 / per
        if fn not in NO_MACS:
            out[f"kernels.{fn}.gmac_s"] = k.macs / k.ms / 1e6 if k.ms else 0.0
    out["autograd.backward.self_ms"] = layers["autograd.backward"].self_ms / per
    out["autograd.tape_nodes"] = tape_nodes / per
    out["models.forward.self_ms"] = layers["models.forward"].self_ms / per
    out["models.field.ms"] = layers["models.field"].ms / per
    out["training.evaluate.ms"] = layers["training.evaluate"].ms / per
    out["training.sgd_step.ms"] = layers["training.sgd_step"].ms / per
    out["operator.fingerprint.ms"] = layers["operator.fingerprint"].ms / per
    out["operator.fingerprint.mb"] = layers["operator.fingerprint"].nbytes / 1e6 / per
    out["operator.cached_field.ms"] = layers["operator.cached_field"].ms / per
    out["operator.generate_weights.ms"] = layers["operator.generate_weights"].setup_ms / per_setup
    out["data.gen_layout_dataset.ms"] = layers["data.gen_layout_dataset"].setup_ms / per_setup
    return out
