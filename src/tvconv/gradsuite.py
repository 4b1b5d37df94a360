"""Randomized gradient verification for every registered op.

Each op gets an instance generator that draws small random shapes and values,
builds a scalar loss (a fixed random weighting of the op output, so gradients
are generically nonzero), and compares the tape gradient of every parameter
against central finite differences.

Two kinds of draws are rejected and re-drawn, because they poison the
finite-difference oracle without indicating a wrong derivative: instances
whose ReLU preactivations land within 10*eps of the kink (the perturbation
would cross it), and instances where random cancellation leaves a nonzero
gradient element below 1e-3 in magnitude (float64 roundoff in the central
difference is ~1e-8 at eps=1e-6, so such elements cannot be resolved to the
1e-5 relative tolerance no matter how correct the rule is). Exact-zero
elements are fine, both routes agree on those.

The full operator layer (generator + per-position apply) is checked end to
end as its own entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import backward, finite_diff_grad, grad_check
from .operator import GeneratorParams, generator_field


@dataclass
class OpCheckResult:
    op: str
    instances: int
    max_rel_err: float
    passed: bool


def _gen_relu(rng):
    shape = (int(rng.integers(1, 3)), int(rng.integers(1, 4)), 3, 3)
    return {"x": rng.standard_normal(shape)}, lambda n: ag.relu(n["x"])


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
         "wf": rng.standard_normal((c * k * k, h, w))},
        lambda n: ag.tvconv(n["x"], n["wf"], k=k),
    )


def _gen_layer_norm(rng):
    c = int(rng.integers(1, 4))
    shape = (int(rng.integers(1, 3)), c, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
    return (
        {"x": rng.standard_normal(shape) * 2 + rng.standard_normal(),
         "gamma": rng.uniform(0.5, 1.5, c), "beta": rng.standard_normal(c)},
        lambda n: ag.layer_norm(n["x"], n["gamma"], n["beta"]),
    )


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


def _gen_subsample(rng):
    s = int(rng.choice([1, 2, 3]))
    shape = (int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(s, 7)), int(rng.integers(s, 7)))
    return {"x": rng.standard_normal(shape)}, lambda n: ag.subsample(n["x"], s)


def _gen_reshape(rng):
    a, b, c = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    return {"x": rng.standard_normal((a, b, c))}, lambda n: ag.reshape(n["x"], (a * b, c))


def _gen_add(rng):
    shape = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    return (
        {"x": rng.standard_normal(shape), "y": rng.standard_normal(shape)},
        lambda n: ag.add(n["x"], n["y"]),
    )


def _gen_scale(rng):
    alpha = float(rng.uniform(-2, 2))
    return (
        {"x": rng.standard_normal((int(rng.integers(1, 4)), 3))},
        lambda n: ag.scale(n["x"], alpha),
    )


def _gen_mul_const(rng):
    shape = (int(rng.integers(1, 4)), 3)
    arr = rng.standard_normal(shape)
    return {"x": rng.standard_normal(shape)}, lambda n: ag.mul_const(n["x"], arr)


def _gen_sum(rng):
    return {"x": rng.standard_normal((int(rng.integers(1, 5)),))}, lambda n: ag.ssum(n["x"])


def _gen_softmax_xent(rng):
    n, k = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    labels = rng.integers(0, k, n)
    return (
        {"z": rng.standard_normal((n, k)) * 2},
        lambda nd: ag.softmax_xent(nd["z"], labels),
        True,  # already scalar; skip the weighting wrapper
    )


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
        c, k, affinity_channels=c_a, depth=depth, width=width, k_gen=k_gen,
        rng=np.random.default_rng(rng.integers(0, 2**31)),
    )
    params = {"affinity": rng.standard_normal((c_a, h, w)),
              "x": rng.standard_normal((1, c, h, w))}
    for name, arr in gen.arrays():
        if name.endswith(".gamma"):
            arr = rng.uniform(0.5, 1.5, arr.shape)
        elif name.endswith(".beta"):
            arr = rng.standard_normal(arr.shape)
        params[name] = arr
    return params, lambda nodes: ag.tvconv(nodes["x"], generator_field(nodes, gen), k=k)


GENERATORS = {
    "relu": _gen_relu,
    "dwconv": _gen_dwconv,
    "conv": _gen_conv,
    "tvconv": _gen_tvconv,
    "layer_norm": _gen_layer_norm,
    "linear": _gen_linear,
    "pool_mean": _gen_pool_mean,
    "subsample": _gen_subsample,
    "reshape": _gen_reshape,
    "add": _gen_add,
    "scale": _gen_scale,
    "mul_const": _gen_mul_const,
    "sum": _gen_sum,
    "softmax_xent": _gen_softmax_xent,
    "tvconv_layer": _gen_tvconv_layer,
}


def _build_loss(rng, params, build, scalar_already):
    """(leaves, scalar loss, the fixed weighting of the op output or None)."""
    nodes = {name: ag.leaf(v, name=name, param=True) for name, v in params.items()}
    out = build(nodes)
    if scalar_already:
        return nodes, out, None
    shape = np.shape(out.value)
    weight = rng.uniform(0.5, 1.5, shape) * rng.choice([-1.0, 1.0], shape)
    return nodes, ag.ssum(ag.mul_const(out, weight)), weight


def _well_conditioned(grads, floor=1e-3):
    for g in grads.values():
        nz = np.abs(g[g != 0])
        if nz.size and nz.min() < floor:
            return False
    return True


def check_op(op: str, rng: np.random.Generator, tol: float = 1e-5, eps: float = 1e-6,
             instances: int = 100) -> OpCheckResult:
    gen = GENERATORS[op]
    worst = 0.0
    for _ in range(instances):
        # Re-draw on kink proximity or unresolvably small gradient elements.
        for _attempt in range(50):
            drawn = gen(rng)
            params, build = drawn[0], drawn[1]
            scalar_already = len(drawn) > 2 and drawn[2]
            nodes, loss, weight = _build_loss(rng, params, build, scalar_already)
            pre = [n.parents[0].value for n in ag._topo(loss) if n.op == "relu"]
            grads = backward(loss)
            if all(np.abs(p).min() > 10 * eps for p in pre if p.size) and _well_conditioned(grads):
                break

        def loss_value(arrs):
            out2 = build({name: ag.leaf(v) for name, v in arrs.items()}).value
            return float(out2 if weight is None else (out2 * weight).sum())

        for name in params:
            def f(arr, _name=name):
                arrs = dict(params)
                arrs[_name] = arr
                return loss_value(arrs)

            num = finite_diff_grad(f, params[name], eps=eps)
            rep = grad_check(grads[nodes[name]], num, tol=tol)
            worst = max(worst, rep.max_rel_err)
    return OpCheckResult(op, instances, worst, worst < tol)


def run_suite(seed: int = 0, tol: float = 1e-5, eps: float = 1e-6, instances: int = 100,
              ops: list[str] | None = None) -> list[OpCheckResult]:
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    names = list(GENERATORS) if ops is None else list(ops)
    unknown = [n for n in names if n not in GENERATORS]
    if unknown:
        raise ValueError(f"unknown ops in gradient suite: {unknown}")
    rng = np.random.default_rng(seed)
    return [check_op(n, rng, tol=tol, eps=eps, instances=instances) for n in names]
