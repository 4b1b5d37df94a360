"""Translation-variant depthwise convolution.

The operator applies a different k x k filter at every spatial position of a
fixed-size feature map. The filters are not stored directly: a small generator
network runs over trainable affinity maps (repeated [conv -> layer norm ->
relu] stages, then a plain output conv) and emits all c*k*k taps per position
as a weight field. Generation happens once per weight update during training
and exactly once after freezing, so steady-state inference cost matches a
plain depthwise conv of the same shape.

Shapes:
    affinity maps  [c_A, h, w]
    weight field   [c*k*k, h, w], row (ch*k + u)*k + v = tap (u, v) of channel ch
    input/output   [c, h, w]
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
class AffinityMaps:
    """Trainable per-position maps the generator reads, shape [c_A, h, w]."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.dtype.kind in "iub":
            self.values = self.values.astype(np.float64)
        if self.values.ndim != 3:
            raise ValueError(f"affinity maps must be [c_A, h, w], got {self.values.shape}")

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def h(self) -> int:
        return self.values.shape[1]

    @property
    def w(self) -> int:
        return self.values.shape[2]


@dataclass
class HiddenLayer:
    w: np.ndarray  # [width, prev, k_gen, k_gen], bias-free; LN beta supplies the offset
    gamma: np.ndarray
    beta: np.ndarray


@dataclass
class GeneratorParams:
    """Weights of the field generator.

    `depth` hidden stages of [conv -> layer norm -> relu] followed by one
    plain output conv (no norm, activation, or bias) that emits c*k*k maps.
    """

    hidden: list[HiddenLayer]
    w_out: np.ndarray
    k_gen: int
    channels: int
    k: int
    eps: float = 1e-5

    @property
    def affinity_channels(self) -> int:
        first = self.hidden[0].w if self.hidden else self.w_out
        return first.shape[1]

    @property
    def depth(self) -> int:
        return len(self.hidden)

    def arrays(self):
        """(name, array) pairs in a fixed order."""
        for i, hl in enumerate(self.hidden):
            yield f"h{i}.w", hl.w
            yield f"h{i}.gamma", hl.gamma
            yield f"h{i}.beta", hl.beta
        yield "out.w", self.w_out

    @classmethod
    def create(
        cls,
        channels: int,
        k: int = 3,
        affinity_channels: int = 4,
        depth: int = 3,
        width: int = 64,
        k_gen: int = 3,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ) -> "GeneratorParams":
        if k % 2 == 0 or k_gen % 2 == 0:
            raise ValueError(f"kernel sizes must be odd, got k={k}, k_gen={k_gen}")
        if rng is None:
            rng = np.random.default_rng(seed)
        hidden = []
        prev = affinity_channels
        for _ in range(depth):
            sd = np.sqrt(2.0 / (prev * k_gen * k_gen))
            hidden.append(
                HiddenLayer(
                    w=(rng.standard_normal((width, prev, k_gen, k_gen)) * sd).astype(dtype),
                    gamma=np.ones(width, dtype=dtype),
                    beta=np.zeros(width, dtype=dtype),
                )
            )
            prev = width
        sd = np.sqrt(2.0 / (prev * k_gen * k_gen))
        w_out = (rng.standard_normal((channels * k * k, prev, k_gen, k_gen)) * sd).astype(dtype)
        return cls(hidden=hidden, w_out=w_out, k_gen=k_gen, channels=channels, k=k)


@dataclass
class WeightField:
    """Per-position filters, flattened to [c*k*k, h, w]."""

    values: np.ndarray
    c: int
    k: int

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 3:
            raise ValueError(f"weight field must be rank 3, got {self.values.shape}")
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError(f"filter size must be odd and positive, got {self.k}")
        want = self.c * self.k * self.k
        if self.values.shape[0] != want:
            raise ValueError(
                f"weight field has {self.values.shape[0]} rows, expected c*k*k = {want}"
            )

    @property
    def h(self) -> int:
        return self.values.shape[1]

    @property
    def w(self) -> int:
        return self.values.shape[2]

    def as5d(self) -> np.ndarray:
        """View as [c, k, k, h, w]."""
        return self.values.reshape(self.c, self.k, self.k, self.h, self.w)


def generator_field(nodes: dict[str, ag.Node], gen: GeneratorParams) -> ag.Node:
    """The generator as tape ops, returning the field node [c*k*k, h, w].

    `nodes` maps "affinity" and every `gen.arrays()` name to a node; `gen`
    supplies only the structure (depth, eps, c, k).
    """
    aff = nodes["affinity"]
    c_a, h, w = aff.value.shape
    a = ag.reshape(aff, (1, c_a, h, w))
    for i in range(gen.depth):
        a = ag.conv(a, nodes[f"h{i}.w"])
        a = ag.layer_norm(a, nodes[f"h{i}.gamma"], nodes[f"h{i}.beta"], gen.eps)
        a = ag.relu(a)
    return ag.reshape(ag.conv(a, nodes["out.w"]), (gen.channels * gen.k * gen.k, h, w))


def generate_weights(affinity: AffinityMaps, gen: GeneratorParams) -> WeightField:
    """Run the generator over the affinity maps and emit the weight field."""
    if affinity.channels != gen.affinity_channels:
        raise ValueError(
            f"affinity channels {affinity.channels} do not match "
            f"generator input {gen.affinity_channels}"
        )
    with ag.no_tape():
        nodes = {name: ag.constant(arr) for name, arr in gen.arrays()}
        nodes["affinity"] = ag.constant(affinity.values)
        return WeightField(generator_field(nodes, gen).value, c=gen.channels, k=gen.k)


def tvconv_apply(x: Tensor, wf: WeightField) -> Tensor:
    """Per-position depthwise conv of [c,h,w] with the weight field."""
    if len(x.dims) != 3:
        raise ValueError(f"input must be [c, h, w], got {x.dims}")
    if x.dims != (wf.c, wf.h, wf.w):
        raise ValueError(f"input dims {x.dims} do not match weight field ({wf.c}, {wf.h}, {wf.w})")
    return Tensor(kernels.tvconv(x.data[None], wf.as5d())[0])


def tvconv_naive_oracle(x: Tensor, wf: WeightField) -> Tensor:
    """Reference implementation: five explicit loops over the definition."""
    c, h, w = x.dims
    if (c, h, w) != (wf.c, wf.h, wf.w):
        raise ValueError("input dims do not match weight field")
    k = wf.k
    r = k // 2
    xv = x.data
    w5 = wf.as5d()
    out = np.zeros_like(xv)
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for u in range(k):
                    for v in range(k):
                        a, b = i + u - r, j + v - r
                        if 0 <= a < h and 0 <= b < w:
                            acc += w5[ch, u, v, i, j] * xv[ch, a, b]
                out[ch, i, j] = acc
    return Tensor(out)


def factorized_weights(basis, coeff, c: int, k: int, h: int, w: int) -> WeightField:
    """Rank-limited field: basis [c*k*k, c_A] times coeff [c_A, h*w]."""
    basis = np.asarray(basis)
    coeff = np.asarray(coeff)
    if basis.ndim != 2 or coeff.ndim != 2 or basis.shape[1] != coeff.shape[0]:
        raise ValueError(f"cannot multiply basis {basis.shape} by coeff {coeff.shape}")
    if basis.shape[0] != c * k * k:
        raise ValueError(f"basis has {basis.shape[0]} rows, expected c*k*k = {c * k * k}")
    if coeff.shape[1] != h * w:
        raise ValueError(f"coeff has {coeff.shape[1]} columns, expected h*w = {h * w}")
    return WeightField((basis @ coeff).reshape(c * k * k, h, w), c=c, k=k)


def param_count_naive(c: int, k: int, h: int, w: int) -> int:
    """Storing every per-position filter directly."""
    return c * k * k * h * w


def param_count_factorized(c: int, k: int, h: int, w: int, affinity_channels: int) -> int:
    """Basis plus coefficient maps."""
    return c * k * k * affinity_channels + affinity_channels * h * w


def reduction_ratio(c: int, k: int, h: int, w: int, affinity_channels: int) -> float:
    return param_count_naive(c, k, h, w) / param_count_factorized(c, k, h, w, affinity_channels)


def init_affinity_constant(
    affinity_channels: int, h: int, w: int, value: float = 1.0, dtype=np.float64
) -> AffinityMaps:
    return AffinityMaps(np.full((affinity_channels, h, w), value, dtype=dtype))


def init_affinity_from_stats(images, affinity_channels: int, h: int, w: int) -> AffinityMaps:
    """Seed maps from dataset statistics.

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
    return AffinityMaps(np.stack(maps))


class TVConvLayer:
    """One translation-variant conv layer bound to a fixed (c, h, w).

    Starts in training mode, where weights() regenerates the field from the
    current parameters. freeze() generates once, caches the field with a
    snapshot of every parameter's raw bytes, and switches to frozen mode where
    only infer_cached() is legal. Changing any bit of any parameter after
    freeze makes the cache stale, which cached_field() detects by comparing
    bytes and refuses, naming the array. `name`, if given, prefixes the array
    names in that message (a model passes the prefix of its parameter names).
    """

    def __init__(self, affinity: np.ndarray, gen: GeneratorParams, h: int, w: int,
                 name: str = ""):
        affinity = np.asarray(affinity)
        if affinity.shape != (gen.affinity_channels, h, w):
            raise ValueError(
                f"affinity shape {affinity.shape} does not match "
                f"({gen.affinity_channels}, {h}, {w})"
            )
        self.affinity = affinity
        self.gen = gen
        self.h = h
        self.w = w
        self.mode = "training"
        self.name = name
        self._cache: WeightField | None = None
        self._frozen_bytes: tuple | None = None

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
        affinity_value: float = 1.0,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ) -> "TVConvLayer":
        gen = GeneratorParams.create(
            channels, k, affinity_channels, depth, width, k_gen, seed=seed, rng=rng, dtype=dtype
        )
        aff = init_affinity_constant(affinity_channels, h, w, value=affinity_value, dtype=dtype)
        return cls(aff.values, gen, h, w)

    @property
    def channels(self) -> int:
        return self.gen.channels

    @property
    def k(self) -> int:
        return self.gen.k

    @property
    def frozen(self) -> bool:
        return self.mode == "frozen"

    def arrays(self):
        yield "aff", self.affinity
        yield from self.gen.arrays()

    def fingerprint(self) -> tuple:
        """`raw_bytes` of every parameter, in `arrays()` order."""
        return raw_bytes(self.arrays())

    def weights(self) -> WeightField:
        if self.frozen:
            raise StateError("layer is frozen; use infer_cached")
        return generate_weights(AffinityMaps(self.affinity), self.gen)

    def freeze(self) -> "TVConvLayer":
        if self.frozen:
            raise StateError("layer is already frozen")
        self._cache = generate_weights(AffinityMaps(self.affinity), self.gen)
        self._frozen_bytes = self.fingerprint()
        self.mode = "frozen"
        return self

    def cached_field(self) -> WeightField:
        """The frozen weight field, after verifying no parameter changed."""
        if not self.frozen:
            raise StateError("layer is in training mode; call freeze() first")
        names = (f"{self.name}.{n}" if self.name else n for n, _ in self.arrays())
        check_unchanged(names, self._frozen_bytes, self.fingerprint())
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

    Constant channels map to mid-gray 128.
    """
    if isinstance(affinity, AffinityMaps):
        vals = affinity.values
    else:
        vals = np.asarray(affinity)
        if vals.ndim != 3:
            raise ValueError(f"affinity must be [c_A, h, w], got {vals.shape}")
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
