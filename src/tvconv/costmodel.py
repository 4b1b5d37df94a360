"""Analytic cost model: multiply-accumulate and parameter counts.

Counting conventions:
  - A MAC is one multiply-accumulate. Elementwise work (ReLU, layer norm,
    residual adds) is not counted.
  - Per-position filtering does exactly the multiplies of a shared depthwise
    filter of the same size, so its steady-state MACs equal the depthwise
    count. Producing the weight field costs extra, but only once per frozen
    network (or once per update during training), so `network_cost` reports
    it separately as `one_time_generation_macs` instead of folding it into
    the per-image total.
  - Parameter counts cover conv and classifier weights, affinity maps, and
    the field generator's hidden-norm scale and offset pairs. They leave out
    each block's own layer norms and the classifier's bias, so a desk
    `LayoutModel` holds more values than `total_params` counts. No conv has
    a bias (the filter paths are bias-free).

Architectures are described by `ArchSpec`, a linear chain of `BlockSpec`s.
`network_cost` applies the width multiplier (outputs snap to multiples of 8;
see `round8`) and hands the final channel counts to `chain_cost`, the block
pricer that `models.model_macs` uses too. Flipping each block's `op` field
costs the chain with shared depthwise or with per-position filters, which is
how the matched-budget comparisons are generated.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import report

BLOCK_KINDS = ("plain", "inverted-residual")
BODY_OPS = ("depthwise", "tvconv")


class ArchError(ValueError):
    """Malformed architecture description."""


# --- single-op costs ---------------------------------------------------------

@dataclass(frozen=True)
class OpSpec:
    """Shape description for one operator; unused fields stay None."""

    kind: str
    c: int | None = None
    c_in: int | None = None
    c_out: int | None = None
    h: int | None = None
    w: int | None = None
    k: int | None = None


def _need(spec: OpSpec, *names: str) -> list[int]:
    vals = []
    for name in names:
        v = getattr(spec, name)
        if v is None:
            raise ValueError(f"op kind '{spec.kind}' requires field '{name}'")
        vals.append(v)
    return vals


def _generator_convs(c: int, k: int, affinity_channels: int, depth: int,
                     width: int, k_gen: int) -> int:
    """Conv weights of the field generator: affinity maps -> `depth` hidden
    layers of `width` channels -> c*k*k filter rows, each a k_gen x k_gen conv.
    Summed in closed form, so a huge depth costs no memory."""
    pairs = (affinity_channels * c * k * k if depth < 1 else
             width * (affinity_channels + (depth - 1) * width + c * k * k))
    return pairs * k_gen * k_gen


def generator_macs(c: int, k: int, h: int, w: int, affinity_channels: int,
                   depth: int, width: int, k_gen: int) -> int:
    """MACs to produce one weight field of c*k*k filters on an h*w map."""
    return _generator_convs(c, k, affinity_channels, depth, width, k_gen) * h * w


def generator_params(c: int, k: int, h: int, w: int, affinity_channels: int,
                     depth: int, width: int, k_gen: int) -> int:
    """Values one per-position layer stores, the arrays `GeneratorParams`
    holds: its h*w affinity maps, the generator's convs, and a norm scale
    and offset per hidden channel."""
    return (affinity_channels * h * w
            + _generator_convs(c, k, affinity_channels, depth, width, k_gen)
            + 2 * width * depth)


def op_macs(spec: OpSpec) -> int:
    """MACs of one op on one image, as `chain_cost` and perfbench's kernel
    trace count them."""
    if spec.kind in ("depthwise", "tvconv_apply"):  # one multiply per tap
        c, h, w, k = _need(spec, "c", "h", "w", "k")
        return c * h * w * k * k
    if spec.kind == "pointwise":
        ci, co, h, w = _need(spec, "c_in", "c_out", "h", "w")
        return ci * co * h * w
    if spec.kind == "conv":
        ci, co, h, w, k = _need(spec, "c_in", "c_out", "h", "w", "k")
        return ci * co * h * w * k * k
    raise ValueError(f"unknown op kind '{spec.kind}'")


# --- architectures -----------------------------------------------------------

def round8(v: float) -> int:
    """Snap a scaled channel count to a multiple of 8 (minimum 8), bumping
    up whenever plain rounding would land below 90% of the request."""
    out = max(8, int(v + 4) // 8 * 8)
    if out < 0.9 * v:
        out += 8
    return out


@dataclass(frozen=True)
class BlockSpec:
    kind: str        # plain (dense conv) | inverted-residual
    c_in: int        # unscaled in an ArchSpec; network_cost applies the width
    c_out: int
    k: int
    stride: int
    expand: int      # hidden = c_in * expand; ignored by plain blocks
    op: str          # spatial operator where the block has a depthwise slot


@dataclass(frozen=True)
class ArchSpec:
    width: float
    input_shape: tuple[int, int, int]       # channels, height, width
    blocks: tuple[BlockSpec, ...]
    head_embed: int = 0                     # global dw + pointwise embedding; 0: none
    classes: int = 0                        # classifier on the embedding
    gen_affinity: int = 4                   # generator shape for tvconv slots
    gen_depth: int = 3
    gen_width: int = 64
    gen_kernel: int = 3


@dataclass
class BlockCost:
    name: str
    macs: int
    params: int
    out_h: int
    out_w: int
    activation_elems: int


@dataclass
class CostReport:
    blocks: list[BlockCost] = field(default_factory=list)
    total_macs: int = 0
    total_params: int = 0
    one_time_generation_macs: int = 0
    peak_activation_elems: int = 0

    def kv(self) -> dict[str, str]:
        return {
            "total_macs": str(self.total_macs),
            "total_params": str(self.total_params),
            "one_time_generation_macs": str(self.one_time_generation_macs),
            "peak_activation_elems": str(self.peak_activation_elems),
        }

    def table(self) -> str:
        rows = [[b.name, f"{b.out_h}x{b.out_w}", b.macs, b.params]
                for b in self.blocks]
        rows.append(["total", "", self.total_macs, self.total_params])
        out = report.format_table(["block", "out", "macs", "params"], rows)
        out += f"one_time_generation_macs={self.one_time_generation_macs}\n"
        out += f"peak_activation_elems={self.peak_activation_elems}\n"
        return out


def check_arch(spec: ArchSpec, names: Sequence[str]) -> None:
    """Reject a chain no network can have. Each error names the field, and
    a block's error names the block by position and by `names`."""
    if not spec.blocks:
        raise ArchError("architecture has no blocks")
    if not spec.width > 0:
        raise ArchError(f"width must be > 0, got {spec.width}")
    if spec.width * max(b.c_out for b in spec.blocks) == math.inf:  # round8 cannot snap inf
        raise ArchError(f"width must be finite after scaling, got {spec.width}")
    if min(spec.input_shape) < 1:
        raise ArchError(f"input dims must be >= 1, got {spec.input_shape}")
    for name, least in (("gen_affinity", 1), ("gen_width", 1), ("gen_kernel", 1),
                        ("gen_depth", 0), ("classes", 0), ("head_embed", 0)):
        if getattr(spec, name) < least:
            raise ArchError(f"{name} must be >= {least}, got {getattr(spec, name)}")
    if spec.gen_kernel % 2 == 0:
        raise ArchError(f"gen_kernel must be odd, got {spec.gen_kernel}")
    c, h, w = spec.input_shape
    for i, (name, b) in enumerate(zip(names, spec.blocks)):
        where = f"block {i + 1} ({name})"
        if b.kind not in BLOCK_KINDS:
            raise ArchError(f"{where}: unknown kind '{b.kind}'")
        if b.op not in BODY_OPS:
            raise ArchError(f"{where}: unknown op '{b.op}'")
        for f in ("c_in", "c_out", "k", "stride", "expand"):
            if getattr(b, f) < 1:
                raise ArchError(f"{where}: {f} must be >= 1, got {getattr(b, f)}")
        if b.k % 2 == 0:
            raise ArchError(f"{where}: k must be odd, got {b.k}")
        if b.c_in != c:
            raise ArchError(f"{where}: expects {b.c_in} input channels, "
                            f"but {c} arrive")
        if h % b.stride or w % b.stride:
            raise ArchError(f"{where}: stride {b.stride} does not divide {h}x{w}")
        c, h, w = b.c_out, h // b.stride, w // b.stride


def _block_cost(spec: ArchSpec, b: BlockSpec, name: str, h: int,
                w: int) -> tuple[BlockCost, int]:
    """Cost one block at exactly its channel counts. Returns (cost, gen_macs)."""
    c_in, c_out = b.c_in, b.c_out
    oh, ow = h // b.stride, w // b.stride
    macs = params = gen = inter = 0

    if b.kind == "plain":
        macs += op_macs(OpSpec("conv", c_in=c_in, c_out=c_out, h=oh, w=ow, k=b.k))
        params += c_in * c_out * b.k * b.k
    else:
        hidden = c_in * b.expand
        if b.expand != 1:
            macs += op_macs(OpSpec("pointwise", c_in=c_in, c_out=hidden, h=h, w=w))
            params += c_in * hidden
            inter = max(inter, hidden * h * w)
        if b.op == "depthwise":
            macs += op_macs(OpSpec("depthwise", c=hidden, h=oh, w=ow, k=b.k))
            params += hidden * b.k * b.k
        else:
            macs += op_macs(OpSpec("tvconv_apply", c=hidden, h=oh, w=ow, k=b.k))
            layer = (hidden, b.k, oh, ow, spec.gen_affinity, spec.gen_depth,
                     spec.gen_width, spec.gen_kernel)
            params += generator_params(*layer)
            gen = generator_macs(*layer)
        inter = max(inter, hidden * oh * ow)
        macs += op_macs(OpSpec("pointwise", c_in=hidden, c_out=c_out, h=oh, w=ow))
        params += hidden * c_out

    act = c_in * h * w + c_out * oh * ow + inter
    return BlockCost(name, macs, params, oh, ow, act), gen


def chain_cost(spec: ArchSpec, names: Sequence[str]) -> CostReport:
    """Price a checked chain at exactly the channel counts its blocks carry
    (`spec.width` is not applied), then its head; `names` label the rows."""
    c, h, w = spec.input_shape
    rep = CostReport()
    for name, b in zip(names, spec.blocks):
        cost, gen = _block_cost(spec, b, name, h, w)
        c, h, w = b.c_out, cost.out_h, cost.out_w
        rep.blocks.append(cost)
        rep.total_macs += cost.macs
        rep.total_params += cost.params
        rep.one_time_generation_macs += gen

    if spec.head_embed:
        gdw = c * h * w                       # one h*w filter per channel
        pw = c * spec.head_embed
        rep.blocks.append(BlockCost("head", gdw + pw, gdw + pw, 1, 1,
                                    c * h * w + c + spec.head_embed))
        rep.total_macs += gdw + pw
        rep.total_params += gdw + pw
        c, h, w = spec.head_embed, 1, 1
    if spec.classes:
        fc = c * spec.classes
        rep.blocks.append(BlockCost("classifier", fc, fc, 1, 1, c + spec.classes))
        rep.total_macs += fc
        rep.total_params += fc

    rep.peak_activation_elems = max(b.activation_elems for b in rep.blocks)
    return rep


def network_cost(spec: ArchSpec) -> CostReport:
    """Check the chain, apply the width (each block's output snaps with
    `round8`; the raw input channels are never scaled) and price it."""
    names = [f"b{i + 1}.{b.kind}" for i, b in enumerate(spec.blocks)]
    check_arch(spec, names)
    blocks, c = [], spec.input_shape[0]
    for b in spec.blocks:
        blocks.append(replace(b, c_in=c, c_out=round8(b.c_out * spec.width)))
        c = blocks[-1].c_out
    return chain_cost(replace(spec, blocks=tuple(blocks)), names)


# --- the width-scaled reference network --------------------------------------

# expand / channels / repeats / first stride, after a stride-1 dense stem
_MOBILENET_TABLE = (
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
)


def mobilenet_v2(width: float, op: str = "depthwise") -> ArchSpec:
    """Inverted-residual reference chain for 96x96 face-sized inputs: dense
    stem, the standard bottleneck table, then a global-depthwise head into a
    512-dim embedding and a 10,575-way classifier."""
    blocks = [BlockSpec("plain", 3, 32, 3, 1, 1, "depthwise")]
    c_prev = 32
    for expand, c, repeats, stride in _MOBILENET_TABLE:
        for j in range(repeats):
            blocks.append(BlockSpec("inverted-residual", c_prev, c, 3,
                                    stride if j == 0 else 1, expand, op))
            c_prev = c
    return ArchSpec(width, (3, 96, 96), tuple(blocks), head_embed=512, classes=10575)


# --- text form ---------------------------------------------------------------

def _dims(value: str) -> tuple[int, int, int]:
    c, h, w = map(int, value.split("x"))
    return c, h, w


def _body_op(value: str) -> str:
    if value not in BODY_OPS:
        raise ValueError(value)
    return value


# key -> (reader, the form it accepts); block fields in BlockSpec's order
_INT = (int, "an integer")
_HEADERS = {"width": (float, "a number"), "input": (_dims, "CxHxW"),
            **{name: _INT for name in ("head_embed", "classes", "gen_affinity",
                                       "gen_depth", "gen_width", "gen_kernel")}}
_BLOCK_FIELDS = {"cin": _INT, "cout": _INT, "k": _INT, "stride": _INT,
                 "expand": _INT, "op": (_body_op, f"one of {BODY_OPS}")}


def _read_fields(tokens: Sequence[str], table: dict, into: dict, where: str,
                 what: str) -> dict:
    """Read each `key=value` token into `into` through `table`, refusing a
    key the table lacks, one `into` already holds or an unreadable value."""
    for tok in tokens:
        key, eq, value = (part.strip() for part in tok.partition("="))
        if not eq or key not in table:
            raise ArchError(f"{where}: unexpected {what} {tok!r}")
        if key in into:
            raise ArchError(f"{where}: duplicate {what} '{key}'")
        read, form = table[key]
        try:
            into[key] = read(value)
        except ValueError:
            raise ArchError(f"{where}: {key} must be {form}, got {value!r}") from None
    return into


def parse_arch(text: str, source: str = "<string>") -> ArchSpec:
    """Read the arch text form: `key=value` header lines and `block KIND
    key=value ...` lines, in any order; blank and `#` lines are skipped."""
    headers: dict = {}
    blocks: list[BlockSpec] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        where = f"{source}: line {lineno}"
        if not line or line.startswith("#"):
            continue
        if not line.startswith("block "):
            _read_fields([line], _HEADERS, headers, where, "header")
            continue
        _, kind, *tokens = line.split()
        if kind not in BLOCK_KINDS:
            raise ArchError(f"{where}: unknown block kind '{kind}'")
        fields = _read_fields(tokens, _BLOCK_FIELDS, {}, where, "block field")
        for key in _BLOCK_FIELDS:
            if key not in fields:
                raise ArchError(f"{where}: block is missing field '{key}'")
        blocks.append(BlockSpec(kind, *(fields[key] for key in _BLOCK_FIELDS)))
    for required in ("width", "input"):
        if required not in headers:
            raise ArchError(f"{source}: missing required header '{required}'")
    return ArchSpec(headers.pop("width"), headers.pop("input"), tuple(blocks), **headers)


def load_arch(path) -> ArchSpec:
    p = Path(path)
    return parse_arch(p.read_text(), source=str(p))
