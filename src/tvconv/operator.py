"""Translation-variant depthwise convolution.

The operator applies a different k x k filter at every spatial position of a
fixed-size feature map. The filters are not stored directly: a small generator
network runs over trainable affinity maps (repeated [conv -> layer norm +
relu] stages, the relu fused into the norm's op, then a plain output conv)
and emits all c*k*k taps per position as a weight field, one plain array in
the layout below from the generator to the kernels. Generation happens
once per weight update during training and exactly once after freezing, so
steady-state inference cost matches a plain depthwise conv of the same shape.

Shapes:
    affinity maps  [c_A, h, w]
    weight field   [c, k, k, h, w], field[ch, u, v] = tap (u, v) of channel ch,
                   row (ch*k + u)*k + v of the generator's output conv
    input/output   [c, h, w]
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import kernels
from .tensor import Tensor, save_tensor


class StateError(RuntimeError):
    """Layer used in the wrong mode (training vs frozen)."""


class StaleCacheError(StateError):
    """Parameters changed after freeze; the cached weight field is stale."""


def raw_bytes(arrays) -> tuple:
    """Each array's shape and raw bytes, from (name, array) pairs. Two results
    are equal only if every bit is, so -0.0 differs from 0.0 and a nan that
    was there at freeze equals itself."""
    return tuple((arr.shape, arr.tobytes()) for _, arr in arrays)


def check_unchanged(names, frozen: tuple, now: tuple) -> None:
    """Raise StaleCacheError naming the first array whose `raw_bytes` entry
    differs between freeze and now; `names` lists the arrays in that order."""
    if now != frozen:
        name = next(name for name, a, b in zip(names, frozen, now) if a != b)
        raise StaleCacheError(f"parameter '{name}' changed since freeze; "
                              "cached weights are stale")


@dataclass
class HiddenLayer:
    w: np.ndarray  # [width, prev, k_gen, k_gen], bias-free; LN beta supplies the offset
    gamma: np.ndarray
    beta: np.ndarray


@dataclass
class GeneratorParams:
    """All trainable arrays of one per-position layer: its affinity maps and
    the field generator that runs over them.

    `depth` hidden stages of [conv -> layer norm + relu, one fused tape op]
    followed by one plain output conv (no norm, activation, or bias) that
    emits c*k*k maps.
    """

    aff: np.ndarray  # [c_A, h, w]
    hidden: list[HiddenLayer]
    w_out: np.ndarray
    channels: int
    k: int

    def __post_init__(self):
        shape = np.shape(self.aff)
        if len(shape) != 3 or shape[0] != self.affinity_channels:
            raise ValueError(f"affinity shape {shape} does not match "
                             f"[{self.affinity_channels}, h, w]")

    @property
    def k_gen(self) -> int:
        return self.w_out.shape[-1]

    @property
    def affinity_channels(self) -> int:
        first = self.hidden[0].w if self.hidden else self.w_out
        return first.shape[1]

    @property
    def depth(self) -> int:
        return len(self.hidden)

    def arrays(self):
        """(name, array) pairs in a fixed order, the affinity maps first."""
        yield "aff", self.aff
        for i, hl in enumerate(self.hidden):
            yield f"h{i}.w", hl.w
            yield f"h{i}.gamma", hl.gamma
            yield f"h{i}.beta", hl.beta
        yield "out.w", self.w_out

    @classmethod
    def create(
        cls,
        channels: int,
        h: int,
        w: int,
        k: int = 3,
        affinity_channels: int = 4,
        depth: int = 3,
        width: int = 64,
        k_gen: int = 3,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> "GeneratorParams":
        """Fresh generator weights over [affinity_channels, h, w] maps that
        are all ones."""
        sizes = {"channels": channels, "h": h, "w": w, "k": k, "depth": depth,
                 "affinity_channels": affinity_channels, "width": width, "k_gen": k_gen}
        for name, value in sizes.items():
            least = 0 if name == "depth" else 1
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        for name in ("k", "k_gen"):
            if sizes[name] % 2 == 0:
                raise ValueError(f"{name} must be odd, got {sizes[name]}")
        if rng is None:
            rng = np.random.default_rng(seed)
        hidden = []
        prev = affinity_channels
        for _ in range(depth):
            sd = np.sqrt(2.0 / (prev * k_gen * k_gen))
            hidden.append(
                HiddenLayer(
                    w=rng.standard_normal((width, prev, k_gen, k_gen)) * sd,
                    gamma=np.ones(width),
                    beta=np.zeros(width),
                )
            )
            prev = width
        sd = np.sqrt(2.0 / (prev * k_gen * k_gen))
        w_out = rng.standard_normal((channels * k * k, prev, k_gen, k_gen)) * sd
        return cls(np.ones((affinity_channels, h, w)), hidden, w_out, channels, k)


def generator_field(nodes: dict[str, ag.Node], gen: GeneratorParams) -> ag.Node:
    """The generator as tape ops, returning the field node [c, k, k, h, w]
    (a view of the output conv).

    `nodes` maps every `gen.arrays()` name to a node; `gen` supplies only
    the structure (depth, c, k).
    """
    aff = nodes["aff"]
    c_a, h, w = aff.value.shape
    a = ag.reshape(aff, (1, c_a, h, w))
    for i in range(gen.depth):
        a = ag.conv(a, nodes[f"h{i}.w"])
        a = ag.layer_norm(a, nodes[f"h{i}.gamma"], nodes[f"h{i}.beta"], relu=True)
    return ag.reshape(ag.conv(a, nodes["out.w"]), (gen.channels, gen.k, gen.k, h, w))


def generate_weights(gen: GeneratorParams) -> np.ndarray:
    """Run the generator over its affinity maps; the field [c, k, k, h, w]."""
    with ag.no_tape():
        nodes = {name: ag.constant(arr) for name, arr in gen.arrays()}
        return generator_field(nodes, gen).value


def tvconv_apply(x: Tensor, field: np.ndarray) -> Tensor:
    """Per-position depthwise conv of [c, h, w] with a field [c, k, k, h, w];
    `kernels.tvconv` refuses a field that does not fit."""
    if len(x.dims) != 3:
        raise ValueError(f"input must be [c, h, w], got {x.dims}")
    return Tensor(kernels.tvconv(x.data[None], field)[0])


def tvconv_naive_oracle(x: Tensor, field: np.ndarray) -> Tensor:
    """Reference implementation: five explicit loops over the definition."""
    if len(x.dims) != 3:
        raise ValueError(f"input must be [c, h, w], got {x.dims}")
    c, h, w = x.dims
    if np.ndim(field) != 5 or (field.shape[0], *field.shape[3:]) != (c, h, w):
        raise ValueError(f"input of shape {x.dims} does not match weight field of "
                         f"shape {np.shape(field)}: want [{c}, k, k, {h}, {w}]")
    k = field.shape[1]
    r = k // 2
    xv = x.data
    out = np.zeros_like(xv)
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for u in range(k):
                    for v in range(k):
                        a, b = i + u - r, j + v - r
                        if 0 <= a < h and 0 <= b < w:
                            acc += field[ch, u, v, i, j] * xv[ch, a, b]
                out[ch, i, j] = acc
    return Tensor(out)


def param_count_naive(c: int, k: int, h: int, w: int) -> int:
    """Storing every per-position filter directly."""
    return c * k * k * h * w


def param_count_factorized(c: int, k: int, h: int, w: int, affinity_channels: int) -> int:
    """Basis plus coefficient maps."""
    return c * k * k * affinity_channels + affinity_channels * h * w


def reduction_ratio(c: int, k: int, h: int, w: int, affinity_channels: int) -> float:
    return param_count_naive(c, k, h, w) / param_count_factorized(c, k, h, w, affinity_channels)


def init_affinity_from_stats(images, affinity_channels: int, h: int, w: int) -> np.ndarray:
    """Seed maps [c_A, h, w] from dataset statistics.

    Channel-meaned images are reduced to a per-pixel mean map and a population
    std map, each downsampled to (h, w); affinity channels alternate
    mean, std, mean, std, ...
    """
    imgs = np.asarray(images, dtype=np.float64)
    if imgs.ndim != 4:
        raise ValueError(f"images must be [n, c, h, w], got {imgs.shape}")
    flat = imgs.mean(axis=1)  # [n, H, W]
    mean_map = flat.mean(axis=0)
    std_map = flat.std(axis=0)  # population
    maps = []
    for i in range(affinity_channels):
        m = mean_map if i % 2 == 0 else std_map
        maps.append(kernels.downsample_mean(m[None, None], h, w)[0, 0])
    return np.stack(maps)


class TVConvLayer:
    """One translation-variant conv layer: its `GeneratorParams`, affinity
    maps and generator together, bound to a fixed (c, h, w).

    Starts in training mode, where weights() regenerates the field from the
    current parameters. freeze() generates once and caches the field with a
    snapshot of every parameter's raw bytes; from then on the layer is frozen
    and only infer_cached() is legal. Changing any bit of any parameter after
    freeze makes the cache stale, which cached_field() detects by comparing
    bytes and refuses, naming the array.
    """

    def __init__(self, gen: GeneratorParams):
        self.gen = gen
        self._cache: np.ndarray | None = None
        self._frozen_bytes: tuple | None = None

    @classmethod
    def create(cls, channels: int, h: int, w: int, **kw) -> "TVConvLayer":
        """A layer over `GeneratorParams.create(channels, h, w, **kw)`."""
        return cls(GeneratorParams.create(channels, h, w, **kw))

    @property
    def frozen(self) -> bool:
        return self._cache is not None

    def arrays(self):
        return self.gen.arrays()

    def fingerprint(self) -> tuple:
        """`raw_bytes` of every parameter, in `arrays()` order."""
        return raw_bytes(self.arrays())

    def weights(self) -> np.ndarray:
        if self.frozen:
            raise StateError("layer is frozen; use infer_cached")
        return generate_weights(self.gen)

    def freeze(self) -> "TVConvLayer":
        if self.frozen:
            raise StateError("layer is already frozen")
        self._cache = generate_weights(self.gen)
        self._frozen_bytes = self.fingerprint()
        return self

    def cached_field(self) -> np.ndarray:
        """The frozen weight field, after verifying no parameter changed."""
        if not self.frozen:
            raise StateError("layer is in training mode; call freeze() first")
        check_unchanged((n for n, _ in self.arrays()), self._frozen_bytes,
                        self.fingerprint())
        return self._cache

    def infer_cached(self, x: Tensor) -> Tensor:
        return tvconv_apply(x, self.cached_field())


# ------------------------------------------------------------- export


def pgm_bytes(gray: np.ndarray) -> bytes:
    """8-bit binary PGM for a [h, w] uint8 array."""
    gray = np.asarray(gray, dtype=np.uint8)
    h, w = gray.shape
    return f"P5\n{w} {h}\n255\n".encode() + gray.tobytes()


def export_affinity(affinity, outdir, basename: str = "affinity") -> list[Path]:
    """Write raw TVTENSOR plus one min-max normalized PGM per channel.

    Constant channels map to mid-gray 128. Maps holding a nan or inf have no
    gray scale, so they are refused, naming the first such channel, before
    anything is written.
    """
    vals = np.asarray(affinity)
    if vals.ndim != 3:
        raise ValueError(f"affinity must be [c_A, h, w], got {vals.shape}")
    bad = ~np.isfinite(vals).all(axis=(1, 2))
    if bad.any():
        raise ValueError(f"affinity channel {int(np.argmax(bad))} has a non-finite value")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    raw = outdir / f"{basename}.tvt"
    save_tensor(Tensor(np.ascontiguousarray(vals, dtype=np.float64)), raw)
    written.append(raw)
    for ch in range(vals.shape[0]):
        v = vals[ch]
        lo, hi = float(v.min()), float(v.max())
        if hi > lo:
            gray = np.rint((v - lo) / (hi - lo) * 255).astype(np.uint8)
        else:
            gray = np.full(v.shape, 128, dtype=np.uint8)
        p = outdir / f"{basename}_ch{ch}.pgm"
        p.write_bytes(pgm_bytes(gray))
        written.append(p)
    return written
