"""Desk-scale layout classifiers.

A model is a dense stem, a chain of stages (stride-2 entry, pointwise
transition, then residual blocks of [spatial 3x3 -> pointwise]), and a
global-mean-pool linear head. Stem and transition convs are followed by
layer norm and relu, the same pattern the weight generator uses. Each
block is a residual branch: spatial op -> norm -> relu -> pointwise ->
norm, added back onto its input. The branch projection stays linear (no
relu) and its norm gain starts small (BRANCH_GAIN), so blocks begin near
identity; both choices keep gradients flowing through the skip even when
a hot momentum step would otherwise kill every relu in the branch, which
is how the unnormalized variant of this backbone dies on some seeds. Each
stage's spatial operator is either a shared depthwise filter or the
per-position variant; per-position stages are bound to their feature-map
size at construction and carry a single-layer cache/freeze object so a
trained model can serve frozen inference with staleness detection.

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
from .costmodel import OpSpec, generator_macs, op_macs
from .operator import (GeneratorParams, TVConvLayer, generator_field,
                       init_affinity_from_stats)
from .seeding import rng_for
from .tensor import Tensor, load_tensor, save_tensor

OPERATORS = ("depthwise", "tvconv")

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


def _stage_sizes(spec: ModelSpec) -> list[tuple[int, int]]:
    h, w = spec.h, spec.w
    sizes = []
    for i, st in enumerate(spec.stages):
        if st.operator not in OPERATORS:
            raise ValueError(f"stage {i}: unknown operator '{st.operator}'")
        if h % st.stride or w % st.stride:
            raise ValueError(
                f"stage {i}: stride {st.stride} does not divide {h}x{w}")
        h, w = h // st.stride, w // st.stride
        sizes.append((h, w))
    return sizes


class LayoutModel:
    def __init__(self, spec: ModelSpec, params: dict[str, np.ndarray],
                 tv_layers: dict[str, TVConvLayer]):
        self.spec = spec
        self.params = params
        self.tv_layers = tv_layers
        self.leaves = {name: ag.leaf(arr, name=name, param=True)
                       for name, arr in params.items()}

    @classmethod
    def create(cls, spec: ModelSpec, seed: int = 0,
               stats_images=None) -> "LayoutModel":
        if spec.affinity_init not in ("constant", "stats"):
            raise ValueError(f"unknown affinity init '{spec.affinity_init}'")
        if spec.affinity_init == "stats" and stats_images is None:
            raise ValueError("affinity_init='stats' requires stats_images")
        rng = rng_for(seed, "init")
        sizes = _stage_sizes(spec)
        params: dict[str, np.ndarray] = {}
        tv_layers: dict[str, TVConvLayer] = {}

        def he(shape, fan):
            return rng.normal(0.0, np.sqrt(2.0 / fan), size=shape)

        def ln(prefix, c, gain=1.0):
            params[f"{prefix}.g"] = np.full(c, gain, dtype=np.float64)
            params[f"{prefix}.b"] = np.zeros(c)

        k = spec.k
        params["stem.w"] = he((spec.stem_channels, spec.in_channels, k, k),
                              spec.in_channels * k * k)
        ln("stem.ln", spec.stem_channels)
        c_prev = spec.stem_channels
        for i, st in enumerate(spec.stages):
            c = st.channels
            hi, wi = sizes[i]
            params[f"s{i}.t.w"] = he((c, c_prev, 1, 1), c_prev)
            ln(f"s{i}.t.ln", c)
            for j in range(st.blocks):
                p = f"s{i}.b{j}"
                if st.operator == "depthwise":
                    params[f"{p}.dw.w"] = he((c, k, k), k * k)
                else:
                    gen = GeneratorParams.create(
                        channels=c, k=k,
                        affinity_channels=spec.affinity_channels,
                        depth=spec.gen_depth, width=spec.gen_width,
                        k_gen=spec.gen_kernel, rng=rng)
                    if spec.affinity_init == "constant":
                        aff = np.ones((spec.affinity_channels, hi, wi))
                    else:
                        aff = init_affinity_from_stats(
                            stats_images, spec.affinity_channels, hi, wi).values
                    layer = TVConvLayer(aff, gen, hi, wi)
                    params[f"{p}.tv.aff"] = layer.affinity
                    for name, arr in gen.arrays():
                        params[f"{p}.tv.{name}"] = arr
                    tv_layers[f"{p}.tv"] = layer
                ln(f"{p}.sp.ln", c)
                params[f"{p}.pw.w"] = he((c, c, 1, 1), c)
                ln(f"{p}.pw.ln", c, gain=BRANCH_GAIN)
            c_prev = c
        params["head.w"] = rng.normal(0.0, np.sqrt(1.0 / c_prev),
                                      size=(c_prev, spec.classes))
        params["head.b"] = np.zeros(spec.classes)
        return cls(spec, params, tv_layers)

    # --- tape forward -------------------------------------------------------

    def _field_node(self, leaves, prefix: str, layer: TVConvLayer) -> ag.Node:
        nodes = {name: leaves[f"{prefix}.{name}"] for name, _ in layer.gen.arrays()}
        nodes["affinity"] = leaves[f"{prefix}.aff"]
        return generator_field(nodes, layer.gen)

    def forward(self, x: np.ndarray) -> ag.Node:
        """Logits node over `self.leaves`. With recording off, a frozen
        per-position layer serves its cached field instead of regenerating."""
        x = np.asarray(x, dtype=np.float64)
        spec = self.spec
        want = (spec.in_channels, spec.h, spec.w)
        if x.ndim != 4 or x.shape[1:] != want:
            raise ValueError(
                f"expected input [n, {want[0]}, {want[1]}, {want[2]}], "
                f"got {x.shape}")
        leaves = self.leaves

        def lnr(node, prefix):
            return ag.relu(ag.layer_norm(node, leaves[f"{prefix}.g"],
                                         leaves[f"{prefix}.b"]))

        h = lnr(ag.conv(ag.constant(x), leaves["stem.w"]), "stem.ln")
        for i, st in enumerate(spec.stages):
            if st.stride > 1:
                h = ag.subsample(h, st.stride)
            h = lnr(ag.conv(h, leaves[f"s{i}.t.w"]), f"s{i}.t.ln")
            for j in range(st.blocks):
                p = f"s{i}.b{j}"
                if st.operator == "depthwise":
                    b = ag.dwconv(h, leaves[f"{p}.dw.w"])
                else:
                    layer = self.tv_layers[f"{p}.tv"]
                    if layer.frozen and not ag.recording():
                        field = ag.constant(layer.cached_field().values)
                    else:
                        field = self._field_node(leaves, f"{p}.tv", layer)
                    b = ag.tvconv(h, field, spec.k)
                b = lnr(b, f"{p}.sp.ln")
                b = ag.conv(b, leaves[f"{p}.pw.w"])
                b = ag.layer_norm(b, leaves[f"{p}.pw.ln.g"],
                                  leaves[f"{p}.pw.ln.b"])
                h = ag.add(h, b)
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

    def freeze(self) -> "LayoutModel":
        for layer in self.tv_layers.values():
            layer.freeze()
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Logits from the forward walk with recording off; uses cached
        fields when frozen."""
        with ag.no_tape():
            return self.forward(x).value


# --- analytic cost ------------------------------------------------------------

def model_macs(spec: ModelSpec) -> tuple[int, int]:
    """(steady-state MACs per image, one-time field-generation MACs)."""
    sizes = _stage_sizes(spec)
    k = spec.k
    total = op_macs(OpSpec("conv", c_in=spec.in_channels,
                           c_out=spec.stem_channels, h=spec.h, w=spec.w, k=k))
    one_time = 0
    c_prev = spec.stem_channels
    for i, st in enumerate(spec.stages):
        hi, wi = sizes[i]
        c = st.channels
        total += op_macs(OpSpec("pointwise", c_in=c_prev, c_out=c, h=hi, w=wi))
        for _ in range(st.blocks):
            if st.operator == "depthwise":
                total += op_macs(OpSpec("depthwise", c=c, h=hi, w=wi, k=k))
            else:
                total += op_macs(OpSpec("tvconv_apply", c=c, h=hi, w=wi, k=k))
                one_time += generator_macs(c, k, hi, wi,
                                           spec.affinity_channels,
                                           spec.gen_depth, spec.gen_width,
                                           spec.gen_kernel)
            total += op_macs(OpSpec("pointwise", c_in=c, c_out=c, h=hi, w=wi))
        c_prev = c
    total += c_prev * spec.classes
    return total, one_time


def matched_depthwise_twin(spec: ModelSpec, baseline: ModelSpec | None = None,
                           tol: float = 0.02, max_mult: float = 4.0,
                           step: float = 0.05) -> tuple[ModelSpec, float]:
    """Widen a depthwise baseline until its MACs match the given model's
    within tol. Because per-position application costs exactly a depthwise
    pass, the unscaled twin already matches when the baseline is the same
    chain; the scan exists for handicapped baselines."""
    target, _ = model_macs(spec)
    base = baseline if baseline is not None else to_operator(spec, "depthwise")
    steps = int(round((max_mult - 1.0) / step)) + 1
    for i in range(steps):
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
