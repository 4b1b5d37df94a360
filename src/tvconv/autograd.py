"""Reverse-mode differentiation over the shared numpy kernels.

A forward pass builds a tape of Nodes; each op records its inputs plus the
values its backward rule needs. Inside `no_tape()` the same ops compute the
same values but record nothing, so an inference pass keeps no intermediate
array alive beyond its use. backward() walks the tape once in reverse
topological order, accumulating gradients across fan-out, and returns the
gradient map for parameter leaves. Backward rules are looked up in a registry
keyed by op name so an unknown op on the tape is a hard error rather than a
silent zero.

Only the loss's 1.0 and the parameters' gradients outlive backward(). Each
other node's gradient is dropped as soon as its rule has used it, so the walk
holds the gradients still in flight, not every gradient of the step, and a
training step's peak is its tape plus that front. A gradient a rule hands on
as a view (`reshape`'s, the norm's residual gradient) lives on in the parent
that holds it.

The tape holds only the ops the desk models run, and nothing else: layer
norm is the one op with an epilogue (`layer_norm`'s residual, ReLU and
stride), so there is no separate add, ReLU or subsample op. Each rule is one
or two kernel calls; the norm's epilogue and how its backward undoes it are
described once, in `kernels`. The gradient checker lives in `gradsuite`,
which forms its losses from these same ops.

Batched layouts are [n, c, h, w] throughout.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import kernels


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
    return Node("leaf", np.asarray(value), (), name=name, is_param=param)


def constant(value) -> Node:
    return leaf(value)


_RULES = {}


def _rule(name):
    def deco(fn):
        _RULES[name] = fn
        return fn

    return deco


# ---------------------------------------------------------------- ops


def dwconv(x: Node, w: Node) -> Node:
    return Node("dwconv", kernels.dwconv(x.value, w.value), (x, w))


@_rule("dwconv")
def _dwconv_bwd(n, g):
    x, w = n.parents
    return kernels.dwconv_dx(g, w.value), kernels.dwconv_dw(g, x.value, w.value.shape[-1])


def conv(x: Node, w: Node) -> Node:
    return Node("conv", kernels.conv(x.value, w.value), (x, w))


@_rule("conv")
def _conv_bwd(n, g):
    x, w = n.parents
    # A non-parameter leaf input (the image) has no use for its gradient.
    dx = None if x.op == "leaf" and not x.is_param else kernels.conv_dx(g, w.value)
    return dx, kernels.conv_dw(g, x.value, w.value.shape[-1])


def tvconv(x: Node, wf: Node) -> Node:
    """Apply a per-position weight field wf [c, k, k, h, w] to x [n, c, h, w]."""
    return Node("tvconv", kernels.tvconv(x.value, wf.value), (x, wf))


@_rule("tvconv")
def _tvconv_bwd(n, g):
    x, wf = n.parents
    return kernels.tvconv_dx(g, wf.value), kernels.tvconv_dw(g, x.value, wf.value.shape[1])


def layer_norm(x: Node, gamma: Node, beta: Node, relu: bool = False,
               residual: Node | None = None, stride: int = 1) -> Node:
    """Layer norm (`kernels.LN_EPS`) and its epilogue as one node, run by
    `kernels.layer_norm_fwd` and undone by `kernels.layer_norm_bwd`, which
    own its order. The residual is a fourth parent."""
    res = None if residual is None else residual.value
    y, mean, inv_std = kernels.layer_norm_fwd(x.value, gamma.value, beta.value, relu=relu,
                                              residual=res, stride=stride)
    parents = (x, gamma, beta) if residual is None else (x, gamma, beta, residual)
    return Node("layer_norm", y, parents,
                {"mean": mean, "inv_std": inv_std, "relu": relu, "stride": stride})


@_rule("layer_norm")
def _layer_norm_bwd(n, g):
    # Without a residual, the kernel's fourth gradient is None and zip drops it.
    s = n.saved
    return kernels.layer_norm_bwd(g, n.parents[0].value, n.value, s["mean"], s["inv_std"],
                                  n.parents[1].value, relu=s["relu"],
                                  residual=len(n.parents) == 4, stride=s["stride"])


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


def reshape(x: Node, shape) -> Node:
    return Node("reshape", x.value.reshape(shape), (x,))


@_rule("reshape")
def _reshape_bwd(n, g):
    return (g.reshape(n.parents[0].value.shape),)


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

    Returns the gradient map for parameter leaves. Gradients accumulate
    across fan-out. Afterwards `loss.grad` is 1.0, each parameter's `.grad`
    is its entry in the map, and every other node's `.grad` is None: it was
    freed once its rule had returned, since nothing reads it later.
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
        if node is not loss and not node.is_param:
            node.grad = None
        for parent, pg in zip(node.parents, pgrads):
            if pg is None:
                continue
            if parent.grad is None:
                parent.grad = pg  # no rule writes into the gradient it gets
            else:
                parent.grad = parent.grad + pg
    return {n: n.grad for n in order if n.is_param and n.grad is not None}

