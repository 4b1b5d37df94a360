"""Reverse-mode differentiation over the shared numpy kernels.

A forward pass builds a tape of Nodes; each op records its inputs plus the
values its backward rule needs. Inside `no_tape()` the same ops compute the
same values but record nothing, so an inference pass keeps no intermediate
array alive beyond its use. backward() walks the tape once in reverse
topological order, accumulating gradients across fan-out, and returns the
gradient map for parameter leaves. Backward rules are looked up in a registry
keyed by op name so an unknown op on the tape is a hard error rather than a
silent zero.

Batched layouts are [n, c, h, w] throughout.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import kernels
from .tensor import Tensor


class GradError(RuntimeError):
    """Tape misuse: non-scalar loss or an op without a backward rule."""


_recording = True


@contextmanager
def no_tape():
    """Nodes built inside keep no parents and no saved values."""
    global _recording
    was, _recording = _recording, False
    try:
        yield
    finally:
        _recording = was


def recording() -> bool:
    return _recording


class Node:
    __slots__ = ("op", "value", "parents", "saved", "grad", "name", "is_param")

    def __init__(self, op, value, parents=(), saved=None, name=None, is_param=False):
        self.op = op
        self.value = value
        self.parents = tuple(parents) if _recording else ()
        self.saved = (saved or {}) if _recording else {}
        self.grad = None
        self.name = name
        self.is_param = is_param

    def __repr__(self):
        return f"Node({self.op}, shape={np.shape(self.value)}, name={self.name})"


def leaf(value, name=None, param=False) -> Node:
    arr = np.asarray(value)
    if arr.dtype.char not in "fd":  # float32 or float64; a cheap test, run per leaf per call
        arr = arr.astype(np.float64)
    return Node("leaf", arr, (), name=name, is_param=param)


def constant(value) -> Node:
    return leaf(value)


_RULES = {}


def _rule(name):
    def deco(fn):
        _RULES[name] = fn
        return fn

    return deco


# ---------------------------------------------------------------- ops


def relu(x: Node) -> Node:
    return Node("relu", np.maximum(x.value, 0), (x,))


@_rule("relu")
def _relu_bwd(n, g):
    return (g * (n.value > 0),)  # y > 0 exactly where x > 0


def dwconv(x: Node, w: Node) -> Node:
    return Node("dwconv", kernels.dwconv(x.value, w.value), (x, w), {"k": w.value.shape[-1]})


@_rule("dwconv")
def _dwconv_bwd(n, g):
    x, w = n.parents
    return kernels.dwconv_dx(g, w.value), kernels.dwconv_dw(g, x.value, n.saved["k"])


def conv(x: Node, w: Node) -> Node:
    return Node("conv", kernels.conv(x.value, w.value), (x, w), {"k": w.value.shape[-1]})


@_rule("conv")
def _conv_bwd(n, g):
    x, w = n.parents
    # A non-parameter leaf input (the image) has no use for its gradient.
    dx = None if x.op == "leaf" and not x.is_param else kernels.conv_dx(g, w.value)
    return dx, kernels.conv_dw(g, x.value, n.saved["k"])


def tvconv(x: Node, wf: Node, k: int) -> Node:
    """Apply a per-position weight field wf [c*k*k, h, w] to x [n, c, h, w]."""
    c = x.value.shape[1]
    h, w = x.value.shape[2:]
    w5 = wf.value.reshape(c, k, k, h, w)
    return Node("tvconv", kernels.tvconv(x.value, w5), (x, wf), {"k": k, "w5": w5})


@_rule("tvconv")
def _tvconv_bwd(n, g):
    x, wf = n.parents
    k = n.saved["k"]
    dx = kernels.tvconv_dx(g, n.saved["w5"])
    dw5 = kernels.tvconv_dw(g, x.value, k)
    return dx, dw5.reshape(wf.value.shape)


def layer_norm(x: Node, gamma: Node, beta: Node, eps: float = 1e-5) -> Node:
    y, mean, inv_std = kernels.layer_norm_fwd(x.value, gamma.value, beta.value, eps)
    return Node("layer_norm", y, (x, gamma, beta), {"mean": mean, "inv_std": inv_std})


@_rule("layer_norm")
def _layer_norm_bwd(n, g):
    x, gamma, _ = n.parents
    return kernels.layer_norm_bwd(g, x.value, n.saved["mean"], n.saved["inv_std"], gamma.value)


def linear(x: Node, w: Node, b: Node) -> Node:
    return Node("linear", x.value @ w.value + b.value, (x, w, b))


@_rule("linear")
def _linear_bwd(n, g):
    x, w, _ = n.parents
    return g @ w.value.T, x.value.T @ g, g.sum(axis=0)


def pool_mean(x: Node) -> Node:
    """Global mean over the spatial axes: [n,c,h,w] -> [n,c]."""
    return Node("pool_mean", x.value.mean(axis=(2, 3)), (x,))


@_rule("pool_mean")
def _pool_mean_bwd(n, g):
    h, w = n.parents[0].value.shape[2:]
    return (np.broadcast_to(g[:, :, None, None], n.parents[0].value.shape) / (h * w),)


def subsample(x: Node, stride: int) -> Node:
    # A strided view, not a copy: no op writes into a node's value, and a
    # copy per call shifts the allocator's heap trimming enough to cost
    # batch-128 inference measurable page faults.
    return Node("subsample", x.value[:, :, ::stride, ::stride], (x,), {"s": stride})


@_rule("subsample")
def _subsample_bwd(n, g):
    s = n.saved["s"]
    dx = np.zeros_like(n.parents[0].value)
    dx[:, :, ::s, ::s] = g
    return (dx,)


def reshape(x: Node, shape) -> Node:
    return Node("reshape", x.value.reshape(shape), (x,))


@_rule("reshape")
def _reshape_bwd(n, g):
    return (g.reshape(n.parents[0].value.shape),)


def add(a: Node, b: Node) -> Node:
    if np.shape(a.value) != np.shape(b.value):
        raise ValueError("add requires matching shapes")
    return Node("add", a.value + b.value, (a, b))


@_rule("add")
def _add_bwd(n, g):
    return g, g


def scale(x: Node, alpha: float) -> Node:
    return Node("scale", x.value * alpha, (x,), {"a": alpha})


@_rule("scale")
def _scale_bwd(n, g):
    return (g * n.saved["a"],)


def mul_const(x: Node, arr) -> Node:
    """Elementwise multiply by a fixed array (no gradient for the array)."""
    arr = np.asarray(arr)
    return Node("mul_const", x.value * arr, (x,), {"arr": arr})


@_rule("mul_const")
def _mul_const_bwd(n, g):
    return (g * n.saved["arr"],)


def ssum(x: Node) -> Node:
    return Node("sum", np.asarray(x.value.sum()), (x,))


@_rule("sum")
def _sum_bwd(n, g):
    return (np.broadcast_to(g, n.parents[0].value.shape).copy(),)


def softmax_xent(logits: Node, labels) -> Node:
    """Mean softmax cross-entropy; labels is a fixed int vector."""
    labels = np.asarray(labels)
    z = logits.value - logits.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    n = logits.value.shape[0]
    loss = -logp[np.arange(n), labels].mean()
    return Node(
        "softmax_xent", np.asarray(loss), (logits,), {"labels": labels, "logp": logp}
    )


@_rule("softmax_xent")
def _softmax_xent_bwd(n, g):
    labels = n.saved["labels"]
    p = np.exp(n.saved["logp"])
    m = p.shape[0]
    p[np.arange(m), labels] -= 1.0
    return (g * p / m,)


@_rule("leaf")
def _leaf_bwd(n, g):
    return ()


def registered_ops() -> tuple[str, ...]:
    return tuple(sorted(k for k in _RULES if k != "leaf"))


# ---------------------------------------------------------- backward


def _topo(loss: Node) -> list[Node]:
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order


def backward(loss: Node) -> dict[Node, np.ndarray]:
    """Propagate d(loss)/d(node) through the tape.

    Returns the gradient map for parameter leaves; every visited node also
    gets its .grad set. Gradients accumulate across fan-out.
    """
    if np.size(loss.value) != 1:
        raise GradError(f"loss must be scalar, got shape {np.shape(loss.value)}")
    order = _topo(loss)
    for n in order:
        n.grad = None
    loss.grad = np.ones_like(np.asarray(loss.value))
    for node in reversed(order):
        if node.grad is None:
            continue
        if node.op not in _RULES:
            raise GradError(f"no backward rule registered for op '{node.op}'")
        pgrads = _RULES[node.op](node, node.grad)
        for parent, pg in zip(node.parents, pgrads):
            if pg is None:
                continue
            if parent.grad is None:
                parent.grad = pg  # no rule writes into the gradient it gets
            else:
                parent.grad = parent.grad + pg
    return {n: n.grad for n in order if n.is_param and n.grad is not None}


# ------------------------------------------------- numeric checking


def _as_array(x):
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def finite_diff_grad(f, x, eps: float = 1e-6):
    """Central differences: (f(x+eps*e_i) - f(x-eps*e_i)) / (2*eps).

    f maps the same container type as x to a scalar; the result matches the
    container of x.
    """
    wrap = isinstance(x, Tensor)
    base = _as_array(x)
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        hi = base.copy()
        hi[idx] += eps
        lo = base.copy()
        lo[idx] -= eps
        if wrap:
            grad[idx] = (f(Tensor(hi)) - f(Tensor(lo))) / (2 * eps)
        else:
            grad[idx] = (f(hi) - f(lo)) / (2 * eps)
    return Tensor(grad) if wrap else grad


@dataclass
class GradReport:
    max_abs_err: float
    max_rel_err: float
    count: int
    tol: float
    passed: bool


def grad_check(analytic, numeric, tol: float = 1e-5) -> GradReport:
    """Elementwise relative error |a-n| / max(|a|, |n|, 1e-8) against tol."""
    a = _as_array(analytic)
    n = _as_array(numeric)
    if a.shape != n.shape:
        raise ValueError(f"gradient shape mismatch: {a.shape} vs {n.shape}")
    abs_err = np.abs(a - n)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
    rel = abs_err / denom
    max_rel = float(rel.max()) if rel.size else 0.0
    max_abs = float(abs_err.max()) if abs_err.size else 0.0
    return GradReport(max_abs, max_rel, int(a.size), tol, max_rel < tol)
