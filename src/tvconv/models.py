"""Desk-scale layout classifiers.

A model is a named chain of cost-model blocks (`costmodel.BlockSpec`) and a
global-mean-pool linear head. `desk_arch` expands a `ModelSpec` into the
chain: a plain k x k `stem`, then per stage a plain 1x1 transition `s{i}.t`
entered with the stage's stride and the stage's inverted-residual blocks
`s{i}.b{j}` (expand 1, stride 1). `create` and `forward` each walk it in one
loop; `model_macs` prices it with the cost model's `chain_cost`. A plain block
is conv -> layer norm -> relu, as in the weight generator. A residual block
adds spatial op -> norm -> relu -> pointwise -> norm onto its input; the
projection stays linear and its norm gain starts small (BRANCH_GAIN), so
blocks begin near identity and gradients flow through the skip even when a hot
momentum step would otherwise kill every relu in the branch (how the
unnormalized variant dies on some seeds). The spatial op is a shared depthwise
filter or the per-position variant, which is bound to its feature-map size and
caches its weight field at freeze. `freeze` snapshots the raw bytes of every
parameter: each per-position layer guards its own, the model the rest, so
frozen `predict` refuses to serve after any bit of any parameter changed and
names the parameter.

Parameters live in one ordered name -> array dict. The arrays are shared
(never copied) with the per-position layer objects and with the tape leaves,
which are bound once at construction, so in-place SGD updates keep every view
consistent. `create` alone defines that layout; `load_model` fills it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import report
from .costmodel import BODY_OPS, ArchSpec, BlockSpec, chain_cost, check_arch
from .operator import (GeneratorParams, StateError, TVConvLayer, check_unchanged,
                       generator_field, init_affinity_from_stats, raw_bytes)
from .seeding import rng_for
from .tensor import Tensor, load_tensor, save_tensor

OPERATORS = BODY_OPS   # the spatial ops a residual block can mount

# Initial gain of each residual branch's projection norm. Small, so early
# updates stay tame and no hot momentum step can kill a fresh network, but
# nonzero, so blocks contribute (and learn) from the first step; pilots with
# gain 0 wasted a third of the desk-scale epoch budget waking the blocks up.
BRANCH_GAIN = 0.25


@dataclass(frozen=True)
class StageSpec:
    channels: int
    blocks: int
    operator: str
    stride: int


@dataclass(frozen=True)
class ModelSpec:
    in_channels: int = 1
    h: int = 32
    w: int = 32
    classes: int = 8
    stem_channels: int = 8
    stages: tuple[StageSpec, ...] = (StageSpec(8, 1, "depthwise", 2),
                                     StageSpec(16, 1, "depthwise", 2))
    k: int = 3
    affinity_channels: int = 2
    gen_depth: int = 1
    gen_width: int = 8
    gen_kernel: int = 3
    affinity_init: str = "constant"   # or "stats"


def default_model_spec(op: str = "depthwise", **kw) -> ModelSpec:
    if op not in OPERATORS:
        raise ValueError(f"unknown operator '{op}'")
    stages = kw.pop("stages", (StageSpec(8, 1, op, 2), StageSpec(16, 1, op, 2)))
    return ModelSpec(stages=tuple(stages), **kw)


def to_operator(spec: ModelSpec, op: str) -> ModelSpec:
    """The same architecture with every stage using the given operator."""
    return replace(spec, stages=tuple(replace(st, operator=op)
                                      for st in spec.stages))


def scale_model_spec(spec: ModelSpec, mult: float) -> ModelSpec:
    """Width-scale stem and stage channels (plain rounding, minimum 1)."""
    stages = tuple(replace(st, channels=max(1, round(st.channels * mult)))
                   for st in spec.stages)
    return replace(spec, stem_channels=max(1, round(spec.stem_channels * mult)),
                   stages=stages)


def desk_arch(spec: ModelSpec) -> tuple[ArchSpec, tuple[str, ...]]:
    """The model as a cost-model chain at its exact widths, and the name of
    each block: the stem, then per stage a strided pointwise transition
    `s{i}.t` and its residual blocks `s{i}.b{j}`. Rejects a spec no model
    can have."""
    for name in ("classes", "stem_channels", "affinity_channels"):
        if getattr(spec, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {getattr(spec, name)}")
    chain = [("stem", BlockSpec("plain", spec.in_channels, spec.stem_channels,
                                spec.k, 1, 1, "depthwise"))]
    c = spec.stem_channels
    for i, st in enumerate(spec.stages):
        if st.blocks < 0:
            raise ValueError(f"stage {i}: blocks must be >= 0, got {st.blocks}")
        chain.append((f"s{i}.t", BlockSpec("plain", c, st.channels, 1,
                                           st.stride, 1, st.operator)))
        c = st.channels
        chain += [(f"s{i}.b{j}", BlockSpec("inverted-residual", c, c, spec.k,
                                           1, 1, st.operator))
                  for j in range(st.blocks)]
    names, blocks = zip(*chain)
    arch = ArchSpec(1.0, (spec.in_channels, spec.h, spec.w), blocks,
                    classes=spec.classes, gen_affinity=spec.affinity_channels,
                    gen_depth=spec.gen_depth, gen_width=spec.gen_width,
                    gen_kernel=spec.gen_kernel)
    check_arch(arch, names)
    return arch, names


class LayoutModel:
    def __init__(self, spec: ModelSpec, chain: tuple[tuple[str, BlockSpec], ...],
                 params: dict[str, np.ndarray], tv_layers: dict[str, TVConvLayer]):
        self.spec = spec
        self.chain = chain
        self.params = params
        self.tv_layers = tv_layers
        self.leaves = {name: ag.leaf(arr, name=name, param=True)
                       for name, arr in params.items()}
        self._guarded: dict[str, np.ndarray] = {}   # set by freeze
        self._frozen_bytes: tuple | None = None

    @classmethod
    def create(cls, spec: ModelSpec, seed: int = 0,
               stats_images=None) -> "LayoutModel":
        if spec.affinity_init not in ("constant", "stats"):
            raise ValueError(f"unknown affinity init '{spec.affinity_init}'")
        if spec.affinity_init == "stats" and stats_images is None:
            raise ValueError("affinity_init='stats' requires stats_images")
        rng = rng_for(seed, "init")
        arch, names = desk_arch(spec)
        chain = tuple(zip(names, arch.blocks))
        params: dict[str, np.ndarray] = {}
        tv_layers: dict[str, TVConvLayer] = {}

        def he(shape, fan):
            return rng.normal(0.0, np.sqrt(2.0 / fan), size=shape)

        def ln(prefix, c, gain=1.0):
            params[f"{prefix}.g"] = np.full(c, gain, dtype=np.float64)
            params[f"{prefix}.b"] = np.zeros(c)

        hi, wi = spec.h, spec.w
        for p, b in chain:
            c, k = b.c_out, b.k
            hi, wi = hi // b.stride, wi // b.stride
            if b.kind == "plain":
                params[f"{p}.w"] = he((c, b.c_in, k, k), b.c_in * k * k)
                ln(f"{p}.ln", c)
                continue
            if b.op == "depthwise":
                params[f"{p}.dw.w"] = he((c, k, k), k * k)
            else:
                gen = GeneratorParams.create(
                    channels=c, k=k, affinity_channels=spec.affinity_channels,
                    depth=spec.gen_depth, width=spec.gen_width,
                    k_gen=spec.gen_kernel, rng=rng)
                if spec.affinity_init == "constant":
                    aff = np.ones((spec.affinity_channels, hi, wi))
                else:
                    aff = init_affinity_from_stats(
                        stats_images, spec.affinity_channels, hi, wi).values
                layer = TVConvLayer(aff, gen, hi, wi, name=f"{p}.tv")
                for name, arr in layer.arrays():
                    params[f"{p}.tv.{name}"] = arr
                tv_layers[f"{p}.tv"] = layer
            ln(f"{p}.sp.ln", c)
            params[f"{p}.pw.w"] = he((c, c, 1, 1), c)
            ln(f"{p}.pw.ln", c, gain=BRANCH_GAIN)
        params["head.w"] = rng.normal(0.0, np.sqrt(1.0 / c), size=(c, spec.classes))
        params["head.b"] = np.zeros(spec.classes)
        return cls(spec, chain, params, tv_layers)

    # --- tape forward -------------------------------------------------------

    def _field_node(self, leaves, prefix: str, layer: TVConvLayer) -> ag.Node:
        nodes = {name: leaves[f"{prefix}.{name}"] for name, _ in layer.gen.arrays()}
        nodes["affinity"] = leaves[f"{prefix}.aff"]
        return generator_field(nodes, layer.gen)

    def forward(self, x: np.ndarray) -> ag.Node:
        """Logits node over `self.leaves`. With recording off, a frozen
        per-position layer serves its cached field instead of regenerating."""
        x = np.asarray(x, dtype=np.float64)
        want = (self.spec.in_channels, self.spec.h, self.spec.w)
        if x.ndim != 4 or x.shape[1:] != want:
            raise ValueError(
                f"expected input [n, {want[0]}, {want[1]}, {want[2]}], "
                f"got {x.shape}")
        check_finite(x)
        leaves = self.leaves

        def lnr(node, prefix):
            return ag.relu(ag.layer_norm(node, leaves[f"{prefix}.g"],
                                         leaves[f"{prefix}.b"]))

        h = ag.constant(x)
        for p, b in self.chain:
            if b.kind == "plain":
                if b.stride > 1:
                    h = ag.subsample(h, b.stride)
                h = lnr(ag.conv(h, leaves[f"{p}.w"]), f"{p}.ln")
                continue
            if b.op == "depthwise":
                r = ag.dwconv(h, leaves[f"{p}.dw.w"])
            else:
                layer = self.tv_layers[f"{p}.tv"]
                if layer.frozen and not ag.recording():
                    field = ag.constant(layer.cached_field().values)
                else:
                    field = self._field_node(leaves, f"{p}.tv", layer)
                r = ag.tvconv(h, field, b.k)
            r = lnr(r, f"{p}.sp.ln")
            r = ag.conv(r, leaves[f"{p}.pw.w"])
            r = ag.layer_norm(r, leaves[f"{p}.pw.ln.g"], leaves[f"{p}.pw.ln.b"])
            h = ag.add(h, r)
        return ag.linear(ag.pool_mean(h), leaves["head.w"], leaves["head.b"])

    def logits_array(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x).value

    def loss(self, x: np.ndarray, y) -> ag.Node:
        return ag.softmax_xent(self.forward(x), y)

    def weight_fields(self) -> dict[str, np.ndarray]:
        """Current generated field per per-position layer (tape values)."""
        return {name: self._field_node(self.leaves, name, layer).value
                for name, layer in self.tv_layers.items()}

    # --- frozen inference -----------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen_bytes is not None

    def freeze(self) -> "LayoutModel":
        """Cache every per-position field and snapshot the raw bytes of the
        parameters no per-position layer guards."""
        if self.frozen:
            raise StateError("model is already frozen")
        for layer in self.tv_layers.values():
            layer.freeze()
        owned = {id(arr) for layer in self.tv_layers.values()
                 for _, arr in layer.arrays()}
        self._guarded = {name: arr for name, arr in self.params.items()
                         if id(arr) not in owned}
        self._frozen_bytes = raw_bytes(self._guarded.items())
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Logits from the forward walk with recording off; uses cached
        fields when frozen, after verifying no parameter changed."""
        if self.frozen:
            check_unchanged(self._guarded, self._frozen_bytes,
                            raw_bytes(self._guarded.items()))
        with ag.no_tape():
            return self.forward(x).value


def check_finite(x: np.ndarray) -> None:
    """Reject a batch [n, ...] that holds a nan or inf, naming the first bad image."""
    if not np.isfinite(x).all():
        bad = ~np.isfinite(x.reshape(len(x), -1)).all(axis=1)
        raise ValueError(f"image {int(np.argmax(bad))} has a non-finite value")


# --- analytic cost ------------------------------------------------------------

def model_macs(spec: ModelSpec) -> tuple[int, int]:
    """(steady-state MACs per image, one-time field-generation MACs), from
    the cost model's pricer on the model's own chain."""
    rep = chain_cost(*desk_arch(spec))
    return rep.total_macs, rep.one_time_generation_macs


def matched_depthwise_twin(spec: ModelSpec, baseline: ModelSpec | None = None,
                           tol: float = 0.02, max_mult: float = 4.0,
                           step: float = 0.05) -> tuple[ModelSpec, float]:
    """Widen a depthwise baseline until its MACs match the given model's
    within tol. Because per-position application costs exactly a depthwise
    pass, the unscaled twin already matches when the baseline is the same
    chain; the scan exists for handicapped baselines."""
    target, _ = model_macs(spec)
    base = baseline if baseline is not None else to_operator(spec, "depthwise")
    for i in range(int(round((max_mult - 1.0) / step)) + 1):
        mult = round(1.0 + i * step, 10)
        twin = scale_model_spec(base, mult)
        got, _ = model_macs(twin)
        if abs(got - target) <= tol * target:
            return twin, mult
    raise ValueError(
        f"no width multiplier in [1.0, {max_mult}] brings the baseline "
        f"within {tol:.0%} of {target} MACs")


# --- checkpoints --------------------------------------------------------------

def _stages_text(stages) -> str:
    return ";".join(f"{s.channels}:{s.blocks}:{s.operator}:{s.stride}"
                    for s in stages)


def _stages_parse(text: str) -> tuple[StageSpec, ...]:
    return tuple(StageSpec(int(c), int(b), op, int(s))
                 for c, b, op, s in (part.split(":") for part in text.split(";")))


def save_model(model: LayoutModel, path) -> None:
    out = Path(path)
    (out / "params").mkdir(parents=True, exist_ok=True)
    manifest = report.spec_kv(model.spec, stages=_stages_text)
    manifest["params"] = ",".join(model.params)
    (out / "model.txt").write_text(report.format_kv(manifest))
    for name, arr in model.params.items():
        save_tensor(Tensor(arr), out / "params" / f"{name}.tvt")


def load_model(path) -> LayoutModel:
    """Build the spec's skeleton with `create` and copy each saved array into
    it in place, so the per-position layers keep aliasing the parameters."""
    src = Path(path)
    source = str(src / "model.txt")
    manifest = report.parse_kv((src / "model.txt").read_text(), source)
    spec = report.spec_from_kv(ModelSpec, manifest, source, stages=_stages_parse)
    model = LayoutModel.create(replace(spec, affinity_init="constant"))
    model.spec = spec
    names = manifest.get("params", "").split(",")
    if names != list(model.params):
        raise ValueError(f"{source}: params do not match the spec: missing "
                         f"{[n for n in model.params if n not in names]}, "
                         f"unexpected {[n for n in names if n not in model.params]}")
    for name, arr in model.params.items():
        file = src / "params" / f"{name}.tvt"
        loaded = load_tensor(file).data
        if loaded.shape != arr.shape:
            raise ValueError(f"{file}: shape {loaded.shape} does not match "
                             f"the spec's {arr.shape}")
        arr[...] = loaded
    return model
