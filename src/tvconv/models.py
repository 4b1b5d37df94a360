"""Desk-scale layout classifiers.

A model is a named chain of cost-model blocks (`costmodel.BlockSpec`) and a
global-mean-pool linear head. `desk_arch` expands a `ModelSpec` into the
chain: a plain k x k `stem`, then per stage a plain 1x1 transition `s{i}.t`
entered with the stage's stride and the stage's inverted-residual blocks
`s{i}.b{j}` (expand 1, stride 1). `create` walks it in one loop, and one
loop (`_features`) runs it up to the pool for both `forward` (the tape, whole
batch) and `predict` (no tape); `model_macs` prices it with the cost model's
`chain_cost`. A plain block is conv -> layer norm + relu, as in the weight
generator; a relu always runs fused into the norm before it, as one tape op.
A residual block adds spatial op -> norm + relu -> pointwise -> norm onto its
input, and that last norm runs the add. A block's last norm also runs the
entry stride of the block after it when that is a transition, so it writes
only the rows and columns the transition reads (`kernels.layer_norm_fwd`'s
epilogue). The projection stays linear and its norm gain starts small
(BRANCH_GAIN), so blocks begin near identity and gradients flow through the
skip even when a hot momentum step would otherwise kill every relu in the
branch (how the unnormalized variant dies on some seeds). The spatial op is
a shared depthwise filter or the per-position variant, whose generator and
affinity maps are bound to its feature-map size. `freeze` caches every
per-position weight field and snapshots the raw bytes of every parameter, so
frozen `predict` and `weight_fields` refuse to serve after any bit of any
parameter changed and name the parameter.

`predict` walks the chain over blocks of at most PREDICT_BLOCK = 32 images,
whose stem activation (2 MB) fits one core's L2 (`kernels.L2_BYTES`), and
runs the head once on all the pooled features, so its logits equal
`forward`'s bit for bit.

Parameters live in one ordered name -> array dict. The arrays are shared
(never copied) with the tape leaves, which are bound once at construction,
and with each per-position block's `GeneratorParams`, which holds all of
that block's arrays, its affinity maps (`{prefix}.aff`) first. So in-place
SGD updates keep every view consistent. `create` alone defines that layout;
`load_model` fills it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import report
from .costmodel import BODY_OPS, ArchSpec, BlockSpec, chain_cost, check_arch
from .operator import (GeneratorParams, StateError, check_unchanged, generator_field,
                       init_affinity_from_stats, raw_bytes)
from .seeding import rng_for
from .tensor import Tensor, tensor_from_bytes, tensor_to_bytes

OPERATORS = BODY_OPS   # the spatial ops a residual block can mount

# Initial gain of each residual branch's projection norm. Small, so early
# updates stay tame and no hot momentum step can kill a fresh network, but
# nonzero, so blocks contribute (and learn) from the first step; pilots with
# gain 0 wasted a third of the desk-scale epoch budget waking the blocks up.
BRANCH_GAIN = 0.25

PREDICT_BLOCK = 32   # images per block of a `predict` walk; see `predict`


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
    """`ModelSpec(**kw)` with every stage using `op`."""
    if op not in OPERATORS:
        raise ValueError(f"unknown operator '{op}'")
    return to_operator(ModelSpec(**kw), op)


def to_operator(spec: ModelSpec, op: str) -> ModelSpec:
    """The same architecture with every stage using the given operator."""
    return replace(spec, stages=tuple(replace(st, operator=op)
                                      for st in spec.stages))


def desk_arch(spec: ModelSpec) -> tuple[ArchSpec, tuple[str, ...]]:
    """The model as a cost-model chain at its exact widths, and the name of
    each block: the stem, then per stage a strided pointwise transition
    `s{i}.t` and its residual blocks `s{i}.b{j}`. Rejects a spec no model
    can have, and a `k` (or a per-position block's `gen_kernel`) wider than
    2*min(h, w) - 1 on a block's h x w map, naming the block and the key."""
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
    h, w = spec.h, spec.w
    for i, (name, b) in enumerate(chain):
        h, w = h // b.stride, w // b.stride
        sizes = {"k": b.k}
        if b.kind != "plain" and b.op == "tvconv":
            sizes["gen_kernel"] = spec.gen_kernel
        for key, size in sizes.items():
            if size > 2 * min(h, w) - 1:  # each tap past that reads only padding
                raise ValueError(f"block {i + 1} ({name}): {key} must be <= "
                                 f"{2 * min(h, w) - 1} on a {h}x{w} map, got {size}")
    return arch, names


class LayoutModel:
    def __init__(self, spec: ModelSpec, chain: tuple[tuple[str, BlockSpec], ...],
                 params: dict[str, np.ndarray], tv_layers: dict[str, GeneratorParams]):
        self.spec = spec
        self.chain = chain
        self.params = params
        self.tv_layers = tv_layers   # prefix -> generator, its arrays in `params`
        self.leaves = {name: ag.leaf(arr, name=name, param=True)
                       for name, arr in params.items()}
        self._frozen_fields: dict[str, np.ndarray] = {}   # set by freeze
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
        tv_layers: dict[str, GeneratorParams] = {}

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
                    c, hi, wi, k=k, affinity_channels=spec.affinity_channels,
                    depth=spec.gen_depth, width=spec.gen_width,
                    k_gen=spec.gen_kernel, rng=rng)
                if spec.affinity_init == "stats":
                    gen.aff[...] = init_affinity_from_stats(
                        stats_images, spec.affinity_channels, hi, wi)
                for name, arr in gen.arrays():
                    params[f"{p}.tv.{name}"] = arr
                tv_layers[f"{p}.tv"] = gen
            ln(f"{p}.sp.ln", c)
            params[f"{p}.pw.w"] = he((c, c, 1, 1), c)
            ln(f"{p}.pw.ln", c, gain=BRANCH_GAIN)
        params["head.w"] = rng.normal(0.0, np.sqrt(1.0 / c), size=(c, spec.classes))
        params["head.b"] = np.zeros(spec.classes)
        return cls(spec, chain, params, tv_layers)

    # --- tape forward -------------------------------------------------------

    def _field_node(self, prefix: str, gen: GeneratorParams) -> ag.Node:
        return generator_field({name: self.leaves[f"{prefix}.{name}"]
                                for name, _ in gen.arrays()}, gen)

    def _fields(self) -> dict[str, ag.Node]:
        """Weight-field node per per-position layer. With recording off, a
        frozen model serves its cached fields (after its guard) instead of
        regenerating."""
        if self.frozen and not ag.recording():
            check_unchanged(self.params, self._frozen_bytes,
                            raw_bytes(self.params.items()))
            return {name: ag.constant(f) for name, f in self._frozen_fields.items()}
        return {name: self._field_node(name, gen) for name, gen in self.tv_layers.items()}

    def _checked_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        want = (self.spec.in_channels, self.spec.h, self.spec.w)
        if x.ndim != 4 or x.shape[1:] != want or len(x) == 0:
            raise ValueError(
                f"expected input [n, {want[0]}, {want[1]}, {want[2]}] with n >= 1, "
                f"got {x.shape}")
        check_finite(x)
        return x

    def _features(self, x: np.ndarray, fields: dict[str, ag.Node]) -> ag.Node:
        """The chain up to the global mean pool: features [n, c]. Each block's
        last norm runs the epilogue: a residual block's skip add, and the
        entry stride of the next block when that block is a plain one (a
        transition), so the walk builds no `subsample` or `add` node.
        `desk_arch` gives the stem, which no norm precedes, stride 1."""
        leaves = self.leaves

        def ln(node, prefix, relu=True, **epilogue):
            return ag.layer_norm(node, leaves[f"{prefix}.g"], leaves[f"{prefix}.b"],
                                 relu=relu, **epilogue)

        h = ag.constant(x)
        nxt = [b.stride if b.kind == "plain" else 1 for _, b in self.chain[1:]] + [1]
        for (p, b), stride in zip(self.chain, nxt):
            if b.kind == "plain":
                h = ln(ag.conv(h, leaves[f"{p}.w"]), f"{p}.ln", stride=stride)
                continue
            if b.op == "depthwise":
                r = ag.dwconv(h, leaves[f"{p}.dw.w"])
            else:
                r = ag.tvconv(h, fields[f"{p}.tv"])
            r = ln(r, f"{p}.sp.ln")
            r = ag.conv(r, leaves[f"{p}.pw.w"])
            h = ln(r, f"{p}.pw.ln", relu=False, residual=h, stride=stride)
        return ag.pool_mean(h)

    def _head(self, features: ag.Node) -> ag.Node:
        return ag.linear(features, self.leaves["head.w"], self.leaves["head.b"])

    def forward(self, x: np.ndarray) -> ag.Node:
        """Logits node over `self.leaves`, the whole batch in one walk."""
        x = self._checked_input(x)
        return self._head(self._features(x, self._fields()))

    def logits_array(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x).value

    def loss(self, x: np.ndarray, y) -> ag.Node:
        return ag.softmax_xent(self.forward(x), y)

    def weight_fields(self) -> dict[str, np.ndarray]:
        """Current field per per-position layer, generated without a tape
        (a frozen model's cached field, after its guard)."""
        with ag.no_tape():
            return {name: node.value for name, node in self._fields().items()}

    # --- frozen inference -----------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen_bytes is not None

    def freeze(self) -> "LayoutModel":
        """Cache every per-position field and snapshot the raw bytes of every
        parameter."""
        if self.frozen:
            raise StateError("model is already frozen")
        self._frozen_fields = self.weight_fields()
        self._frozen_bytes = raw_bytes(self.params.items())
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Logits with recording off; uses cached fields when frozen, after
        verifying no parameter changed.

        The guard, the input check and each field run once per call. The
        chain then walks blocks of at most PREDICT_BLOCK images: 32 desk
        images make a 2 MB stem activation (8 x 32 x 32 float64 each), which
        fits one core's L2 (`kernels.L2_BYTES`), so no op streams a whole
        b128 batch's 8 MB arrays from L3. The head
        runs once, on the pooled features of all blocks: every op before it
        gives the same bits at any batch size, but the head's [1, c] GEMM
        (a BLAS gemv) rounds a lone row differently from the same row in a
        larger batch, so a final block of one image must never reach it
        alone. Logits are bit-identical to `forward` on the whole batch."""
        with ag.no_tape():
            fields = self._fields()   # the frozen guard runs before the input check
            x = self._checked_input(x)
            features = [self._features(x[i:i + PREDICT_BLOCK], fields).value
                        for i in range(0, len(x), PREDICT_BLOCK)]
            return self._head(ag.constant(np.concatenate(features))).value


def check_finite(x: np.ndarray) -> None:
    """Reject a batch [n, ...] that holds a nan or inf, naming the first bad image."""
    if not np.isfinite(x).all():
        bad = ~np.isfinite(x.reshape(len(x), -1)).all(axis=1)
        raise ValueError(f"image {int(np.argmax(bad))} has a non-finite value")


def non_finite_param(params: dict[str, np.ndarray]) -> str | None:
    """Name of the first parameter that holds a nan or inf, or None."""
    return next((name for name, arr in params.items() if not np.isfinite(arr).all()), None)


# --- analytic cost ------------------------------------------------------------

def model_macs(spec: ModelSpec) -> tuple[int, int]:
    """(steady-state MACs per image, one-time field-generation MACs), from
    the cost model's pricer on the model's own chain."""
    rep = chain_cost(*desk_arch(spec))
    return rep.total_macs, rep.one_time_generation_macs


def matched_depthwise_twin(spec: ModelSpec) -> tuple[ModelSpec, float]:
    """The same chain with depthwise stages, and its width multiplier 1.0.
    Per-position application costs exactly one depthwise pass, so the
    unscaled twin already matches the model's steady-state MACs."""
    return to_operator(spec, "depthwise"), 1.0


# --- checkpoints --------------------------------------------------------------

def _stages_text(stages) -> str:
    return ";".join(f"{s.channels}:{s.blocks}:{s.operator}:{s.stride}"
                    for s in stages)


def _stages_parse(text: str) -> tuple[StageSpec, ...]:
    return tuple(StageSpec(int(c), int(b), op, int(s))
                 for c, b, op, s in (part.split(":") for part in text.split(";")))


def save_model(model: LayoutModel, path) -> None:
    """Write the manifest and one file per parameter; a model with a
    non-finite parameter is refused before anything is written. The manifest
    records the sha256 of each parameter file as `sha256.<name>`."""
    out = Path(path)
    bad = non_finite_param(model.params)
    if bad is not None:
        raise ValueError(f"parameter {bad} is not finite; not saving {out}")
    raw = {name: tensor_to_bytes(Tensor(arr)) for name, arr in model.params.items()}
    (out / "params").mkdir(parents=True, exist_ok=True)
    manifest = report.spec_kv(model.spec, stages=_stages_text)
    manifest.update((f"sha256.{name}", hashlib.sha256(b).hexdigest())
                    for name, b in raw.items())
    manifest["params"] = ",".join(model.params)
    (out / "model.txt").write_text(report.format_kv(manifest))
    for name, b in raw.items():
        (out / "params" / f"{name}.tvt").write_bytes(b)


def load_model(path) -> LayoutModel:
    """Build the spec's skeleton with `create` and copy each saved array into
    it in place, so the generators keep aliasing the parameters.
    A spec `create` refuses or cannot allocate is refused naming model.txt; a
    file with a wrong shape, a non-finite value or a sha256 other than the
    manifest's is refused by name."""
    src = Path(path)
    source = str(src / "model.txt")
    manifest = report.parse_kv((src / "model.txt").read_text(), source)
    spec = report.spec_from_kv(ModelSpec, manifest, source, stages=_stages_parse)
    try:
        model = LayoutModel.create(replace(spec, affinity_init="constant"))
    except ValueError as e:
        raise ValueError(f"{source}: {e}") from e
    except MemoryError as e:   # a list's MemoryError carries no text
        raise ValueError(f"{source}: {str(e) or 'out of memory'}") from e
    model.spec = spec
    names = manifest.get("params", "").split(",")
    if names != list(model.params):
        raise ValueError(f"{source}: params do not match the spec: missing "
                         f"{[n for n in model.params if n not in names]}, "
                         f"unexpected {[n for n in names if n not in model.params]}")
    for name, arr in model.params.items():
        key = f"sha256.{name}"
        if key not in manifest:
            raise report.KvError(f"{source}: missing key '{key}'")
        file = src / "params" / f"{name}.tvt"
        raw = file.read_bytes()
        loaded = tensor_from_bytes(raw).data
        if loaded.shape != arr.shape:
            raise ValueError(f"{file}: shape {loaded.shape} does not match "
                             f"the spec's {arr.shape}")
        if not np.isfinite(loaded).all():
            raise ValueError(f"{file}: holds a non-finite value")
        if hashlib.sha256(raw).hexdigest() != manifest[key]:
            raise ValueError(f"{file}: sha256 does not match {source}")
        arr[...] = loaded
    return model
