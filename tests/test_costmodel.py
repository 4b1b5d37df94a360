"""Cost model oracles: per-op MAC/param closed forms frozen by hand,
block/network aggregation on tiny architectures worked out on paper, the
mobilenet-style reference builder checked against its published budgets,
and the arch text round-trip."""

import numpy as np
import pytest

from tvconv import costmodel as cm
from tvconv import models
from tvconv.operator import GeneratorParams
from tvconv.costmodel import ArchError, ArchSpec, BlockSpec, OpSpec


# --- per-op MACs -----------------------------------------------------------

def test_macs_depthwise_frozen():
    # 16 channels, 8x8 map, 3x3 kernel: 16*64*9
    assert cm.op_macs(OpSpec("depthwise", c=16, h=8, w=8, k=3)) == 9216


def test_macs_pointwise_frozen():
    assert cm.op_macs(OpSpec("pointwise", c_in=16, c_out=32, h=4, w=4)) == 8192


def test_macs_conv_frozen():
    # dense 3->32 conv over 96x96 with k=3: 3*32*9216*9
    s = OpSpec("conv", c_in=3, c_out=32, h=96, w=96, k=3)
    assert cm.op_macs(s) == 7_962_624


def test_macs_apply_equals_depthwise():
    # per-position filters do the same multiplies as a shared filter
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = int(rng.integers(1, 32))
        h = int(rng.integers(1, 40))
        w = int(rng.integers(1, 40))
        k = int(rng.choice([1, 3, 5]))
        a = cm.op_macs(OpSpec("tvconv_apply", c=c, h=h, w=w, k=k))
        d = cm.op_macs(OpSpec("depthwise", c=c, h=h, w=w, k=k))
        assert a == d


def test_macs_generate_frozen_deep():
    # c=16,k=3 at 8x8; affinity 4ch, 3 hidden convs of width 64, k_gen=3:
    #   4*64*64*9 + 2*(64*64*64*9) + 64*144*64*9
    assert (cm.generator_macs(16, 3, 8, 8, affinity_channels=4, depth=3, width=64,
                              k_gen=3)
            == 147_456 + 2 * 2_359_296 + 5_308_416)


def test_macs_generate_frozen_linear():
    # depth 0, 1x1 generator kernel: affinity -> field directly, 4*144*64
    assert cm.generator_macs(16, 3, 8, 8, affinity_channels=4, depth=0, width=64,
                             k_gen=1) == 36_864


def test_macs_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        cm.op_macs(OpSpec("warp", c=1, h=1, w=1, k=1))


def test_macs_missing_field():
    with pytest.raises(ValueError, match="c_out"):
        cm.op_macs(OpSpec("pointwise", c_in=16, h=4, w=4))


# --- block and generator params ---------------------------------------------

def test_params_frozen():
    # conv 3*32*9 = 864; 1x1 transition 32*8; depthwise 8*9 = 72 + pointwise 8*64 = 512
    arch = ArchSpec(1.0, (3, 4, 4), (
        BlockSpec("plain", 3, 32, 3, 1, 1, "depthwise"),
        BlockSpec("plain", 32, 8, 1, 1, 1, "depthwise"),
        BlockSpec("inverted-residual", 8, 64, 3, 1, 1, "depthwise"),
    ))
    rows = cm.chain_cost(arch, ("conv", "t", "ir")).blocks
    assert [b.params for b in rows] == [864, 256, 72 + 512]


def test_params_tvconv_reference_case():
    # 8ch 3x3 filters on a 4x4 map from a linear 1x1 generator over 4
    # affinity channels: 4*16 affinity + 4*72 generator = 352
    assert cm.generator_params(8, 3, 4, 4, affinity_channels=4, depth=0, width=64,
                               k_gen=1) == 352


def test_params_tvconv_frozen_deep():
    # affinity 4*64 on 8x8; h1 2304+128; h2,h3 36864+128; out 144*64*9
    assert cm.generator_params(16, 3, 8, 8, affinity_channels=4, depth=3, width=64,
                               k_gen=3) == 159_616


def _drawn_generator_shapes(n=12, seed=0):
    """(c, k, h, w, c_A, depth, width, k_gen), depth cycling through 0..3."""
    rng = np.random.default_rng(seed)
    return [(int(rng.integers(1, 6)), int(rng.choice([1, 3, 5])),
             int(rng.integers(1, 9)), int(rng.integers(1, 9)),
             int(rng.integers(1, 5)), i % 4, int(rng.integers(1, 9)),
             int(rng.choice([1, 3, 5])))
            for i in range(n)]


@pytest.mark.parametrize("c, k, h, w, c_a, depth, width, k_gen",
                         _drawn_generator_shapes())
def test_generator_params_count_a_built_layer(c, k, h, w, c_a, depth, width, k_gen):
    gen = GeneratorParams.create(c, h, w, k=k, affinity_channels=c_a, depth=depth,
                                 width=width, k_gen=k_gen, seed=0)
    assert cm.generator_params(c, k, h, w, c_a, depth, width, k_gen) == sum(
        a.size for _, a in gen.arrays())


@pytest.mark.parametrize("spec", [
    models.default_model_spec("depthwise"),
    models.default_model_spec("tvconv"),
    models.default_model_spec("tvconv", k=5, affinity_channels=3, gen_depth=2,
                              gen_width=5, gen_kernel=1),
], ids=["depthwise", "tvconv", "tvconv-deep"])
def test_chain_params_count_model_arrays_but_block_norms(spec):
    # Each block row counts exactly the arrays the model allocates under its
    # name, except that block's own layer norms; the classifier row counts
    # head.w but not head.b. The generator's hidden norms are counted. (The
    # default tvconv model holds 17,392 values, of which total_params counts
    # 17,224: 160 block-norm values and head.b's 8 are left out.)
    model = models.LayoutModel.create(spec, seed=0)
    rep = cm.chain_cost(*models.desk_arch(spec))
    for row in rep.blocks[:-1]:
        arrays = [a for n, a in model.params.items() if n.startswith(f"{row.name}.")
                  and not n.endswith((".ln.g", ".ln.b"))]
        assert row.params == sum(a.size for a in arrays), row.name
    assert rep.blocks[-1].name == "classifier"
    assert rep.blocks[-1].params == model.params["head.w"].size
    norms = sum(a.size for n, a in model.params.items() if n.endswith((".ln.g", ".ln.b")))
    assert rep.total_params + norms + spec.classes == sum(
        a.size for a in model.params.values())


# --- channel rounding ------------------------------------------------------

def test_round8_frozen():
    assert cm.round8(3.2) == 8
    assert cm.round8(8.0) == 8
    assert cm.round8(12.0) == 16
    assert cm.round8(16.0) == 16
    assert cm.round8(32.0) == 32
    # never drop more than 10% below the requested width
    assert cm.round8(9.6) == 16
    assert cm.round8(19.2) == 24
    assert cm.round8(20.0) == 24


# --- block / network aggregation -------------------------------------------

def small_arch(body_op: str) -> ArchSpec:
    # channels kept at multiples of 8 so the snap-to-8 rule is a no-op
    # and the hand-computed numbers below are exact
    return ArchSpec(
        width=1.0,
        input_shape=(1, 8, 8),
        blocks=(
            BlockSpec("plain", 1, 8, 3, 1, 1, "depthwise"),
            BlockSpec("inverted-residual", 8, 16, 3, 2, 6, body_op),
        ),
    )


def test_network_cost_frozen_small():
    r = cm.network_cost(small_arch("depthwise"))
    # plain 1*8*64*9; expand 8*48*64; dw 48*9*16; project 48*16*16
    assert r.blocks[0].macs == 4608
    assert r.blocks[1].macs == 24_576 + 6912 + 12_288
    assert r.total_macs == 48_384
    assert r.total_params == 72 + 1584
    assert r.one_time_generation_macs == 0
    # live buffers: input + output + widest intermediate of one block
    assert r.blocks[0].activation_elems == 64 + 512
    assert r.blocks[1].activation_elems == 512 + 256 + 3072
    assert r.peak_activation_elems == 3840


def test_network_cost_frozen_small_tvconv():
    r = cm.network_cost(small_arch("tvconv"))
    assert r.total_macs == 48_384          # apply cost == depthwise cost
    # affinity 64; h1 2304+128; h2,h3 36864+128; out 432*64*9 = 248832
    assert r.total_params == 72 + 384 + 325_312 + 768
    # generation at 4x4: 4*64*16*9 + 2*(64*64*16*9) + 64*432*16*9
    assert r.one_time_generation_macs == 5_197_824


def test_mac_parity_random_archs():
    # swapping depthwise for tvconv never changes steady-state MACs
    rng = np.random.default_rng(11)
    for _ in range(25):
        n_blocks = int(rng.integers(1, 5))
        c_prev = int(rng.integers(1, 9))
        h = int(rng.choice([16, 32, 64]))
        blocks_d, blocks_t = [], []
        res = h
        for _ in range(n_blocks):
            c_out = int(rng.integers(1, 9)) * 8
            stride = int(rng.choice([1, 2])) if res % 2 == 0 else 1
            e = int(rng.integers(1, 7))
            blocks_d.append(BlockSpec(
                "inverted-residual", c_prev, c_out, 3, stride, e, "depthwise"))
            blocks_t.append(BlockSpec(
                "inverted-residual", c_prev, c_out, 3, stride, e, "tvconv"))
            c_prev = c_out
            res //= stride
        a = ArchSpec(1.0, (blocks_d[0].c_in, h, h), tuple(blocks_d))
        b = ArchSpec(1.0, (blocks_t[0].c_in, h, h), tuple(blocks_t))
        ra, rb = cm.network_cost(a), cm.network_cost(b)
        assert ra.total_macs == rb.total_macs
        assert rb.total_params > ra.total_params
        assert rb.one_time_generation_macs > 0


def test_network_cost_stride_must_divide():
    spec = ArchSpec(1.0, (1, 9, 9),
                    (BlockSpec("plain", 1, 4, 3, 2, 1, "depthwise"),))
    with pytest.raises(ArchError, match="block 1"):
        cm.network_cost(spec)


def test_network_cost_channel_chain_checked():
    spec = ArchSpec(1.0, (1, 8, 8), (
        BlockSpec("plain", 1, 4, 3, 1, 1, "depthwise"),
        BlockSpec("plain", 5, 8, 3, 1, 1, "depthwise"),
    ))
    with pytest.raises(ArchError, match="block 2"):
        cm.network_cost(spec)


def test_network_cost_input_channels_checked():
    spec = ArchSpec(1.0, (3, 8, 8),
                    (BlockSpec("plain", 1, 4, 3, 1, 1, "depthwise"),))
    with pytest.raises(ArchError, match="input"):
        cm.network_cost(spec)


def test_network_cost_rejects_bad_kind_and_op():
    # hand-built specs bypass the parser, so the coster must validate too
    bad_kind = ArchSpec(1.0, (1, 8, 8),
                        (BlockSpec("inverted", 1, 4, 3, 1, 1, "depthwise"),))
    with pytest.raises(ArchError, match="kind"):
        cm.network_cost(bad_kind)
    bad_op = ArchSpec(1.0, (1, 8, 8),
                      (BlockSpec("inverted-residual", 1, 4, 3, 1, 1, "avg"),))
    with pytest.raises(ArchError, match="op"):
        cm.network_cost(bad_op)


ONE_BLOCK = ("width=1.0\ninput=8x16x16\n{header}"
             "block inverted-residual cin=8 cout=8 k=3 stride=1 expand=1 op=tvconv\n")


@pytest.mark.parametrize("old, new, match", [
    ("stride=1", "stride=0", r"block 1 \(b1.inverted-residual\): stride must be >= 1"),
    ("k=3", "k=4", r"block 1 \(b1.inverted-residual\): k must be odd, got 4"),
    ("expand=1", "expand=0", r"block 1 \(b1.inverted-residual\): expand must be >= 1"),
    ("cout=8", "cout=0", r"block 1 \(b1.inverted-residual\): c_out must be >= 1"),
    ("width=1.0", "width=-1.0", r"width must be > 0, got -1.0"),
    ("width=1.0", "width=inf", r"width must be finite after scaling, got inf"),
    ("width=1.0", "width=1e308", r"width must be finite after scaling, got 1e\+308"),
    ("{header}", "gen_depth=-2\n", r"gen_depth must be >= 0, got -2"),
    ("{header}", "gen_kernel=2\n", r"gen_kernel must be odd, got 2"),
], ids=["stride", "k", "expand", "cout", "width", "width_inf", "width_overflow",
        "gen_depth", "gen_kernel"])
def test_bad_arch_file_is_rejected_by_field(old, new, match, tmp_path):
    # each of these was once priced without a word (stride=0 divided by zero)
    path = tmp_path / "arch.txt"
    path.write_text(ONE_BLOCK.replace(old, new).replace("{header}", ""))
    with pytest.raises(ArchError, match=match):
        cm.network_cost(cm.load_arch(path))


def test_network_cost_prices_only_after_width():
    # the pricer takes channel counts as given; the width snap lives in
    # network_cost, so 17 channels price as 17 in chain_cost and as 16 there
    spec = ArchSpec(1.0, (1, 8, 8), (BlockSpec("plain", 1, 17, 3, 1, 1, "depthwise"),))
    assert cm.chain_cost(spec, ["b1.plain"]).total_macs == 1 * 17 * 64 * 9
    assert cm.network_cost(spec).total_macs == 1 * 16 * 64 * 9


def test_head_and_classifier_costs():
    # global depthwise + pointwise embedding + classifier, applied to the
    # final 16-channel 4x4 feature map
    spec = ArchSpec(1.0, (1, 8, 8), (
        BlockSpec("plain", 1, 8, 3, 1, 1, "depthwise"),
        BlockSpec("inverted-residual", 8, 16, 3, 2, 6, "depthwise"),
    ), head_embed=16, classes=10)
    r = cm.network_cost(spec)
    body = 48_384
    head = 16 * 16 + 16 * 16    # gdw over 4x4, then pw 16->16
    cls = 16 * 10
    assert r.total_macs == body + head + cls
    assert r.total_params == 1656 + head + cls


# --- the width-scaled reference network -------------------------------------

PUBLISHED = {1.0: 225.72e6, 0.5: 74.03e6, 0.3: 44.20e6,
             0.2: 28.00e6, 0.1: 22.47e6}


@pytest.mark.parametrize("width", sorted(PUBLISHED))
def test_mobilenet_like_budgets(width):
    r = cm.network_cost(cm.mobilenet_v2(width))
    target = PUBLISHED[width]
    assert abs(r.total_macs - target) <= 0.10 * target


def test_mobilenet_like_parity_and_generation_overhead():
    d = cm.network_cost(cm.mobilenet_v2(1.0, op="depthwise"))
    t = cm.network_cost(cm.mobilenet_v2(1.0, op="tvconv"))
    assert d.total_macs == t.total_macs
    assert t.one_time_generation_macs > 0
    assert t.total_params > d.total_params


def test_mobilenet_like_structure():
    spec = cm.mobilenet_v2(1.0)
    assert spec.input_shape == (3, 96, 96)
    assert spec.blocks[0].kind == "plain"
    assert sum(1 for b in spec.blocks if b.kind == "inverted-residual") == 17
    assert spec.head_embed == 512
    assert spec.classes == 10575


# --- arch text --------------------------------------------------------------

def test_no_head_is_one_encoding():
    # head_embed=0 means no head, built directly or read from text; the
    # classifier then sits on the last block's 8 channels: 8*10 MACs
    block = BlockSpec("plain", 3, 8, 3, 1, 1, "depthwise")
    direct = cm.network_cost(ArchSpec(1.0, (3, 8, 8), (block,), head_embed=0,
                                      classes=10))
    text = ("width=1.0\ninput=3x8x8\nhead_embed=0\nclasses=10\n"
            "block plain cin=3 cout=8 k=3 stride=1 expand=1 op=depthwise\n")
    parsed = cm.network_cost(cm.parse_arch(text))
    assert [b.name for b in direct.blocks] == ["b1.plain", "classifier"]
    assert direct.blocks[-1].macs == 80
    assert direct == parsed


def test_parse_arch_optional_headers():
    # every optional header set away from its default
    text = """\
width=0.5
input=3x32x32
head_embed=128
classes=10
gen_affinity=2
gen_depth=1
gen_width=8
gen_kernel=1
block plain cin=3 cout=16 k=3 stride=1 expand=1 op=depthwise
block inverted-residual cin=16 cout=24 k=3 stride=2 expand=6 op=tvconv
"""
    assert cm.parse_arch(text) == ArchSpec(0.5, (3, 32, 32), (
        BlockSpec("plain", 3, 16, 3, 1, 1, "depthwise"),
        BlockSpec("inverted-residual", 16, 24, 3, 2, 6, "tvconv"),
    ), head_embed=128, classes=10, gen_affinity=2, gen_depth=1,
       gen_width=8, gen_kernel=1)


def test_parse_arch_full_example():
    text = """\
# toy network
width=1.0
input=1x8x8
block plain cin=1 cout=8 k=3 stride=1 expand=1 op=depthwise
block inverted-residual cin=8 cout=16 k=3 stride=2 expand=6 op=depthwise
"""
    spec = cm.parse_arch(text)
    assert spec == small_arch("depthwise")


def test_parse_arch_does_not_depend_on_order():
    # Headers anywhere, block fields in any order, extra spaces and comment
    # lines all read as the canonical text: each field lands in BlockSpec's
    # order, not the file's (the values differ, so a swap would show).
    canonical = """\
width=0.5
input=3x32x32
head_embed=128
classes=10
gen_affinity=2
gen_depth=1
gen_width=8
gen_kernel=1
block plain cin=3 cout=16 k=5 stride=2 expand=1 op=depthwise
block inverted-residual cin=16 cout=24 k=3 stride=1 expand=6 op=tvconv
"""
    want = cm.parse_arch(canonical)
    assert want.blocks[0] == BlockSpec("plain", 3, 16, 5, 2, 1, "depthwise")
    lines = canonical.splitlines()
    headers = [line for line in lines if not line.startswith("block")]
    rng = np.random.default_rng(0)
    for _ in range(50):
        text = []
        for line in lines[len(headers):]:
            _, kind, *fields = line.split()
            text += ["# a comment", "", "  ".join(["block", kind, *rng.permutation(fields)])]
        for header in rng.permutation(headers):
            text.insert(int(rng.integers(len(text) + 1)), f"  {header} ")
        assert cm.parse_arch("\n".join(text)) == want


def test_parse_arch_errors_name_the_line():
    with pytest.raises(ArchError, match="line 1"):
        cm.parse_arch("wdith=1.0\ninput=1x8x8\n")
    with pytest.raises(ArchError, match="line 2"):
        cm.parse_arch("width=1.0\ninput=1x8\n")
    bad_block = ("width=1.0\ninput=1x8x8\n"
                 "block plain cin=1 cout=4 k=3 stride=1 expand=1 op=warp\n")
    with pytest.raises(ArchError, match="line 3"):
        cm.parse_arch(bad_block)
    missing = ("width=1.0\ninput=1x8x8\n"
               "block plain cin=1 cout=4 k=3 stride=1 op=depthwise\n")
    with pytest.raises(ArchError, match="expand"):
        cm.parse_arch(missing)
    head = "width=1.0\ninput=1x8x8\n"
    block = "block plain cin=1 cout=4 k=3 stride=1 expand=1 op=depthwise"
    for text, match in [
        ("width=1.0\nwidth=2.0\ninput=1x8x8\n", "line 2: duplicate header 'width'"),
        (head + block + " pad=1\n", "line 3: unexpected block field 'pad=1'"),
        (head + block + " k=5\n", "line 3: duplicate block field 'k'"),
        (head + block.replace("k=3", "k=three") + "\n",
         "line 3: k must be an integer, got 'three'"),
        ("width=wide\ninput=1x8x8\n", "line 1: width must be a number, got 'wide'"),
    ]:
        with pytest.raises(ArchError, match=match):
            cm.parse_arch(text)


def test_parse_arch_requires_width_and_input():
    with pytest.raises(ArchError, match="width"):
        cm.parse_arch("input=1x8x8\n")
    with pytest.raises(ArchError, match="input"):
        cm.parse_arch("width=1.0\n")
    with pytest.raises(ArchError, match="architecture has no blocks"):
        cm.network_cost(cm.parse_arch("width=1.0\ninput=1x8x8\n"))


def test_parse_arch_rejects_unknown_block_kind():
    text = ("width=1.0\ninput=1x8x8\n"
            "block residual cin=1 cout=4 k=3 stride=1 expand=1 op=depthwise\n")
    with pytest.raises(ArchError, match="residual"):
        cm.parse_arch(text)


def test_report_table_and_kv():
    r = cm.network_cost(small_arch("depthwise"))
    table = r.table()
    assert "total" in table and "48384" in table
    kv = r.kv()
    assert kv["total_macs"] == "48384"
    assert kv["total_params"] == "1656"
    assert kv["peak_activation_elems"] == "3840"
