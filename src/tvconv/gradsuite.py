"""Randomized gradient verification for every registered op, and the repo's
one gradient checker.

Each op gets an instance generator that draws small random shapes and values.
The suite forms a scalar loss from a fixed random weighting of the op output,
so gradients are generically nonzero. It forms the weighted sum with ops the
model's own tape runs (`weighted_sum`: a reshape and a linear), so the tape
holds no op that only this suite would use. It then compares the tape
gradient of every parameter against central finite differences
(`max_rel_err`).

Two kinds of draws are rejected and re-drawn, because they poison the
finite-difference oracle without indicating a wrong derivative: instances
where the preactivations of a ReLU fused into a layer norm land within 10*EPS
of the kink (the perturbation would cross it), and instances where random
cancellation leaves a nonzero gradient element below 1e-3 in magnitude
(float64 roundoff in the central difference is ~1e-8 at EPS = 1e-6, so such
elements cannot be resolved to the 1e-5 relative tolerance no matter how
correct the rule is). Exact-zero elements are fine, both routes agree on
those.

The full operator layer (generator + per-position apply) is checked end to
end as its own entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import kernels
from .autograd import backward
from .operator import GeneratorParams, generator_field

EPS = 1e-6  # the central-difference step; the re-draw rules (module docstring) assume it


@dataclass
class OpCheckResult:
    op: str
    instances: int
    max_rel_err: float
    passed: bool


def _gen_dwconv(rng):
    c = int(rng.integers(1, 4))
    h, w = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    k = int(rng.choice([1, 3]))
    return (
        {"x": rng.standard_normal((int(rng.integers(1, 3)), c, h, w)),
         "w": rng.standard_normal((c, k, k))},
        lambda n: ag.dwconv(n["x"], n["w"]),
    )


def _gen_conv(rng):
    ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    h, w = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    k = int(rng.choice([1, 3]))
    return (
        {"x": rng.standard_normal((int(rng.integers(1, 3)), ci, h, w)),
         "w": rng.standard_normal((co, ci, k, k))},
        lambda n: ag.conv(n["x"], n["w"]),
    )


def _gen_tvconv(rng):
    c = int(rng.integers(1, 3))
    h, w = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    k = int(rng.choice([1, 3]))
    return (
        {"x": rng.standard_normal((int(rng.integers(1, 3)), c, h, w)),
         "wf": rng.standard_normal((c, k, k, h, w))},
        lambda n: ag.tvconv(n["x"], n["wf"]),
    )


def _gen_layer_norm(rng):
    """The norm with each part of the epilogue the model trains with drawn on
    or off (the residual, the ReLU, a stride of 2), on maps of 2-5 rows and
    columns, odd ones included."""
    c = int(rng.integers(1, 4))
    shape = (int(rng.integers(1, 3)), c, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
    relu, residual = bool(rng.integers(2)), bool(rng.integers(2))
    stride = int(rng.integers(1, 3))
    params = {"x": rng.standard_normal(shape) * 2 + rng.standard_normal(),
              "gamma": rng.uniform(0.5, 1.5, c), "beta": rng.standard_normal(c)}
    if residual:
        params["res"] = rng.standard_normal(shape)
    return params, lambda n: ag.layer_norm(n["x"], n["gamma"], n["beta"], relu=relu,
                                           residual=n.get("res"), stride=stride)


def _gen_linear(rng):
    f, o = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    return (
        {"x": rng.standard_normal((int(rng.integers(1, 5)), f)),
         "w": rng.standard_normal((f, o)), "b": rng.standard_normal(o)},
        lambda n: ag.linear(n["x"], n["w"], n["b"]),
    )


def _gen_pool_mean(rng):
    shape = (int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 5)))
    return {"x": rng.standard_normal(shape)}, lambda n: ag.pool_mean(n["x"])


def _gen_reshape(rng):
    a, b, c = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    return {"x": rng.standard_normal((a, b, c))}, lambda n: ag.reshape(n["x"], (a * b, c))


def _gen_softmax_xent(rng):
    n, k = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    labels = rng.integers(0, k, n)
    return {"z": rng.standard_normal((n, k)) * 2}, lambda nd: ag.softmax_xent(nd["z"], labels)


def _gen_tvconv_layer(rng):
    """Full operator: generator (conv/LN/relu stack) feeding the apply."""
    c = int(rng.integers(1, 3))
    k = int(rng.choice([1, 3]))
    h, w = int(rng.integers(3, 5)), int(rng.integers(3, 5))
    c_a = int(rng.integers(1, 3))
    depth = int(rng.integers(0, 3))
    width = int(rng.integers(2, 5))
    k_gen = int(rng.choice([1, 3]))
    gen = GeneratorParams.create(
        c, h, w, k, affinity_channels=c_a, depth=depth, width=width, k_gen=k_gen,
        rng=np.random.default_rng(rng.integers(0, 2**31)),
    )
    gen.aff[...] = rng.standard_normal((c_a, h, w))
    params = {"x": rng.standard_normal((1, c, h, w))}
    for name, arr in gen.arrays():
        if name.endswith(".gamma"):
            arr = rng.uniform(0.5, 1.5, arr.shape)
        elif name.endswith(".beta"):
            arr = rng.standard_normal(arr.shape)
        params[name] = arr
    return params, lambda nodes: ag.tvconv(nodes["x"], generator_field(nodes, gen))


GENERATORS = {
    "dwconv": _gen_dwconv,
    "conv": _gen_conv,
    "tvconv": _gen_tvconv,
    "layer_norm": _gen_layer_norm,
    "linear": _gen_linear,
    "pool_mean": _gen_pool_mean,
    "reshape": _gen_reshape,
    "softmax_xent": _gen_softmax_xent,
    "tvconv_layer": _gen_tvconv_layer,
}


def weighted_sum(out: ag.Node, weight) -> ag.Node:
    """sum(weight * out) as a [1, 1] node, through ops the model runs: `out`
    flattened to one row times `weight` as an [N, 1] constant, plus a zero
    bias. The gradient reaching `out` is exactly 1.0 * weight."""
    return ag.linear(ag.reshape(out, (1, -1)), ag.constant(np.reshape(weight, (-1, 1))),
                     ag.constant(np.zeros(1)))


def _build_loss(rng, params, build):
    """(scalar loss, the fixed random weighting of the op output)."""
    nodes = {name: ag.leaf(v, name=name, param=True) for name, v in params.items()}
    out = build(nodes)
    shape = np.shape(out.value)
    weight = rng.uniform(0.5, 1.5, shape) * rng.choice([-1.0, 1.0], shape)
    return weighted_sum(out, weight), weight


def _well_conditioned(grads, floor=1e-3):
    for g in grads.values():
        nz = np.abs(g[g != 0])
        if nz.size and nz.min() < floor:
            return False
    return True


def _relu_input(n: ag.Node) -> np.ndarray:
    """What the ReLU fused into a layer norm node clamps: the node's forward
    run again without it, so the same bits."""
    x, gamma, beta, *residual = (p.value for p in n.parents)
    return kernels.layer_norm_fwd(x, gamma, beta, residual=residual[0] if residual else None,
                                  stride=n.saved["stride"])[0]


def finite_diff_grad(f, x, eps: float = EPS):
    """Central differences: (f(x+eps*e_i) - f(x-eps*e_i)) / (2*eps).

    f maps an array shaped like x to a scalar.
    """
    base = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        hi = base.copy()
        hi[idx] += eps
        lo = base.copy()
        lo[idx] -= eps
        grad[idx] = (f(hi) - f(lo)) / (2 * eps)
    return grad


def grad_check(analytic, numeric) -> float:
    """Largest elementwise relative error |a-n| / max(|a|, |n|, 1e-8)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.shape != n.shape:
        raise ValueError(f"gradient shape mismatch: {a.shape} vs {n.shape}")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
    rel = np.abs(a - n) / denom
    return float(rel.max()) if rel.size else 0.0


def max_rel_err(params, build, weight) -> float:
    """The worst `grad_check` error over every parameter: the tape gradient of
    `weighted_sum(build(leaves), weight)` against central differences of
    sum(weight * build(params)). A nan error stays nan."""
    nodes = {name: ag.leaf(v, name=name, param=True) for name, v in params.items()}
    grads = backward(weighted_sum(build(nodes), weight))
    worst = 0.0
    for name in params:
        def f(arr, _name=name):
            arrs = dict(params)
            arrs[_name] = arr
            return float((build({k: ag.leaf(v) for k, v in arrs.items()}).value * weight).sum())

        num = finite_diff_grad(f, params[name])
        worst = float(np.maximum(worst, grad_check(grads[nodes[name]], num)))
    return worst


def check_op(op: str, rng: np.random.Generator, tol: float = 1e-5,
             instances: int = 100) -> OpCheckResult:
    gen = GENERATORS[op]
    worst = 0.0
    for _ in range(instances):
        # Re-draw on kink proximity or unresolvably small gradient elements.
        for _attempt in range(50):
            params, build = gen(rng)
            loss, weight = _build_loss(rng, params, build)
            pre = [_relu_input(n) for n in ag._topo(loss)
                   if n.op == "layer_norm" and n.saved["relu"]]
            if (all(np.abs(p).min() > 10 * EPS for p in pre if p.size)
                    and _well_conditioned(backward(loss))):
                break
        worst = float(np.maximum(worst, max_rel_err(params, build, weight)))
    return OpCheckResult(op, instances, worst, worst < tol)  # a nan fails


def run_suite(seed: int = 0, tol: float = 1e-5, instances: int = 100) -> list[OpCheckResult]:
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    if not 0 < tol < math.inf:  # false for nan too
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    rng = np.random.default_rng(seed)
    return [check_op(n, rng, tol=tol, instances=instances) for n in GENERATORS]
