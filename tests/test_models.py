"""Desk-scale network assembly: parameter naming/shapes, tape forward
cross-checked against the single-layer operator module, hand-counted MAC
totals, the matched depthwise twin, freeze consistency,
checkpoint round-trips and the checks load_model makes at that boundary."""

import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from tvconv import autograd as ag
from tvconv import data, kernels, models, operator
from tvconv.models import LayoutModel, ModelSpec, StageSpec
from tvconv.operator import StaleCacheError
from tvconv.report import KvError
from tvconv.tensor import Tensor, save_tensor


def dw_spec(**kw) -> ModelSpec:
    return models.default_model_spec("depthwise", **kw)


def tv_spec(**kw) -> ModelSpec:
    return models.default_model_spec("tvconv", **kw)


def test_default_spec_shape():
    spec = dw_spec()
    assert spec.in_channels == 1 and spec.h == 32 and spec.classes == 8
    assert all(st.operator == "depthwise" for st in spec.stages)
    assert all(st.operator == "tvconv" for st in tv_spec().stages)


def test_param_names_and_shapes_depthwise():
    m = LayoutModel.create(dw_spec(), seed=0)
    spec = m.spec
    names = list(m.params)
    assert names == [
        "stem.w", "stem.ln.g", "stem.ln.b",
        "s0.t.w", "s0.t.ln.g", "s0.t.ln.b",
        "s0.b0.dw.w", "s0.b0.sp.ln.g", "s0.b0.sp.ln.b",
        "s0.b0.pw.w", "s0.b0.pw.ln.g", "s0.b0.pw.ln.b",
        "s1.t.w", "s1.t.ln.g", "s1.t.ln.b",
        "s1.b0.dw.w", "s1.b0.sp.ln.g", "s1.b0.sp.ln.b",
        "s1.b0.pw.w", "s1.b0.pw.ln.g", "s1.b0.pw.ln.b",
        "head.w", "head.b",
    ]
    assert m.params["stem.ln.g"].shape == (spec.stem_channels,)
    assert np.all(m.params["s0.b0.sp.ln.g"] == 1.0)
    assert np.all(m.params["s0.b0.sp.ln.b"] == 0.0)
    # residual branches start near identity: projection norm gain is small
    assert np.all(m.params["s0.b0.pw.ln.g"] == models.BRANCH_GAIN)
    assert np.all(m.params["s1.b0.pw.ln.g"] == models.BRANCH_GAIN)
    c0 = spec.stages[0].channels
    c1 = spec.stages[1].channels
    assert m.params["stem.w"].shape == (spec.stem_channels, 1, 3, 3)
    assert m.params["s0.t.w"].shape == (c0, spec.stem_channels, 1, 1)
    assert m.params["s0.b0.dw.w"].shape == (c0, 3, 3)
    assert m.params["s1.b0.pw.w"].shape == (c1, c1, 1, 1)
    assert m.params["head.w"].shape == (c1, spec.classes)
    assert m.params["head.b"].shape == (spec.classes,)


def test_param_names_tvconv():
    m = LayoutModel.create(tv_spec(), seed=0)
    spec = m.spec
    prefix = "s0.b0.tv"
    assert f"{prefix}.aff" in m.params
    assert f"{prefix}.h0.w" in m.params
    assert f"{prefix}.h0.gamma" in m.params
    assert f"{prefix}.out.w" in m.params
    # stage 0 runs at 16x16 after its stride-2 entry
    assert m.params[f"{prefix}.aff"].shape == (spec.affinity_channels, 16, 16)
    assert np.all(m.params[f"{prefix}.aff"] == 1.0)


def test_create_deterministic():
    a = LayoutModel.create(tv_spec(), seed=5)
    b = LayoutModel.create(tv_spec(), seed=5)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    c = LayoutModel.create(tv_spec(), seed=6)
    assert not np.array_equal(a.params["stem.w"], c.params["stem.w"])


def test_forward_shapes_and_finite():
    m = LayoutModel.create(tv_spec(), seed=1)
    x = np.random.default_rng(0).normal(size=(4, 1, 32, 32))
    logits = m.logits_array(x)
    assert logits.shape == (4, 8)
    assert np.all(np.isfinite(logits))


def test_layer_norm_saves_no_activation():
    # The backward rule rebuilds x-hat from the node's input, so the tape
    # keeps two numbers per sample for each layer norm, not a second copy,
    # plus the flag of the ReLU fused into it, which leaves no relu node, and
    # the stride of the next block's entry, which leaves no subsample node; the
    # skip add runs in the projection norm, which leaves no add node.
    m = LayoutModel.create(tv_spec(), seed=1)
    x = np.random.default_rng(0).normal(size=(4, 1, 32, 32))
    tape = ag._topo(m.loss(x, np.arange(4)))
    norms = [n for n in tape if n.op == "layer_norm"]
    assert len(norms) == 9  # 7 in the body, one in each tvconv block's generator
    for n in norms:
        assert set(n.saved) == {"mean", "inv_std", "relu", "stride"}
        assert isinstance(n.saved["relu"], bool) and isinstance(n.saved["stride"], int)
        arrays = [v for v in n.saved.values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 2
        assert all(v.shape == (len(n.value), 1, 1, 1) for v in arrays)
    assert not any(n.op in ("relu", "subsample", "add") for n in tape)
    assert sorted(n.saved["stride"] for n in norms) == [1] * 7 + [2, 2]


def subsample(x, s):
    return ag.Node("subsample", x.value[:, :, ::s, ::s], (x,), {"s": s})


def subsample_bwd(n, g):
    s = n.saved["s"]
    dx = np.zeros_like(n.parents[0].value)
    dx[:, :, ::s, ::s] = g
    return (dx,)


def add(a, b):
    return ag.Node("add", a.value + b.value, (a, b))


def add_bwd(n, g):
    return g, g


def unfused_features(m, x, fields):
    """The walk before the norms ran the epilogue: a transition subsamples its
    input in a `subsample` node, and a residual block adds its branch onto
    its input in an `add` node. Both nodes are built here; their rules are
    registered by the test that runs this walk."""
    leaves = m.leaves

    def ln(node, prefix, relu=True):
        return ag.layer_norm(node, leaves[f"{prefix}.g"], leaves[f"{prefix}.b"], relu=relu)

    h = ag.constant(x)
    for p, b in m.chain:
        if b.kind == "plain":
            if b.stride > 1:
                h = subsample(h, b.stride)
            h = ln(ag.conv(h, leaves[f"{p}.w"]), f"{p}.ln")
            continue
        r = (ag.dwconv(h, leaves[f"{p}.dw.w"]) if b.op == "depthwise"
             else ag.tvconv(h, fields[f"{p}.tv"]))
        r = ag.conv(ln(r, f"{p}.sp.ln"), leaves[f"{p}.pw.w"])
        h = add(h, ln(r, f"{p}.pw.ln", relu=False))
    return ag.pool_mean(h)


@pytest.mark.parametrize("n", [1, 33])
@pytest.mark.parametrize("frozen", [False, True], ids=["eager", "frozen"])
@pytest.mark.parametrize("op", models.OPERATORS)
def test_fused_walk_equals_unfused_bitwise(op, frozen, n, monkeypatch):
    # The stride and the skip add run inside the norms; logits and every
    # parameter gradient keep the bits of the walk with separate nodes.
    monkeypatch.setitem(ag._RULES, "subsample", subsample_bwd)
    monkeypatch.setitem(ag._RULES, "add", add_bwd)
    m = LayoutModel.create(models.default_model_spec(op), seed=5)
    rng = np.random.default_rng(n)
    x, y = rng.normal(size=(n, 1, 32, 32)), rng.integers(0, 8, n)
    if not frozen:
        fused = ag.softmax_xent(m.forward(x), y)
        unfused = ag.softmax_xent(m._head(unfused_features(m, x, m._fields())), y)
        assert fused.parents[0].value.tobytes() == unfused.parents[0].value.tobytes()
        got = {p.name: g for p, g in ag.backward(fused).items()}
        want = {p.name: g for p, g in ag.backward(unfused).items()}
        assert got.keys() == want.keys() == m.params.keys()
        for name in got:
            assert got[name].tobytes() == want[name].tobytes(), name
    else:
        m.freeze()
    with ag.no_tape():
        fields = m._fields()
        blocks = [unfused_features(m, x[i:i + models.PREDICT_BLOCK], fields).value
                  for i in range(0, n, models.PREDICT_BLOCK)]
        want = m._head(ag.constant(np.concatenate(blocks))).value
    assert m.predict(x).tobytes() == want.tobytes()


def test_negative_block_count_is_rejected():
    spec = ModelSpec(stages=models._stages_parse("8:-1:depthwise:2"))
    with pytest.raises(ValueError, match=r"stage 0: blocks must be >= 0, got -1"):
        models.desk_arch(spec)
    assert models.desk_arch(ModelSpec(stages=(StageSpec(8, 0, "depthwise", 2),)))[1] == (
        "stem", "s0.t")


def test_forward_rejects_wrong_shape():
    m = LayoutModel.create(dw_spec(), seed=1)
    with pytest.raises(ValueError, match="1, 32, 32"):
        m.logits_array(np.zeros((2, 1, 16, 16)))


def test_tape_generator_matches_operator_module():
    # the batched tape must produce bit-for-bit the field that the
    # single-layer module generates from the same parameter arrays
    m = LayoutModel.create(tv_spec(), seed=3)
    fields = m.weight_fields()
    for name, gen in m.tv_layers.items():
        assert gen.aff is m.params[f"{name}.aff"]
        layer = operator.TVConvLayer(gen)
        assert np.array_equal(fields[name], layer.weights())


def test_affinity_stats_init():
    rng = np.random.default_rng(4)
    imgs = rng.uniform(size=(10, 1, 32, 32))
    m = LayoutModel.create(tv_spec(affinity_init="stats"), seed=0,
                           stats_images=imgs)
    expect = operator.init_affinity_from_stats(imgs, m.spec.affinity_channels,
                                               16, 16)
    assert np.array_equal(m.params["s0.b0.tv.aff"], expect)
    with pytest.raises(ValueError, match="stats"):
        LayoutModel.create(tv_spec(affinity_init="stats"), seed=0)


# --- MAC accounting ----------------------------------------------------------

def test_model_macs_frozen():
    total, one_time = models.model_macs(dw_spec())
    # stem 73728; s0: pw 16384 + dw 18432 + pw 16384;
    # s1: pw 8192 + dw 9216 + pw 16384; head linear 128
    assert total == 73_728 + 16_384 + 18_432 + 16_384 + 8192 + 9216 + 16_384 + 128
    assert one_time == 0
    three = ModelSpec(stages=models._stages_parse(
        "8:2:tvconv:2;16:3:depthwise:2;24:1:tvconv:1"))
    assert models.model_macs(dw_spec()) == (158_848, 0)
    assert models.model_macs(tv_spec()) == (158_848, 2_036_736)
    assert models.model_macs(three) == (320_192, 3_732_480)
    assert models.model_macs(tv_spec(k=5, gen_depth=0, affinity_channels=3,
                                     gen_kernel=5)) == (339_072, 5_760_000)
    # 17 channels are priced as given; the cost model's snap to multiples of
    # 8 belongs to network_cost's width multiplier and would give 158,848
    s0, s1 = dw_spec().stages
    wide = replace(dw_spec(), stages=(s0, replace(s1, channels=17)))
    assert models.model_macs(wide) == (162_056, 0)


@pytest.mark.parametrize("op, params_sha, logits_sha", [
    ("depthwise", "15473106812833d2f91f35241ac1a503908785616bf3a154abd749d6428440a6",
     "65250db28d39064faaea71d4340c645995d384074e4f33b46e46ea291e2f49c9"),
    ("tvconv", "557d5b8a4e28ca1c59b53639002d1b69f8649892a8989e39399807a0a5b69ae4",
     "1157dc491b382308002ea80451187f09341e97755ecf4a50857cac76d7a2c9d1"),
], ids=["depthwise", "tvconv"])
def test_create_and_logits_pinned(op, params_sha, logits_sha):
    # the parameter bytes (names, order, init stream) and the forward walk
    # over them are fixed points of any rewrite of the block chain
    m = LayoutModel.create(models.default_model_spec(op), seed=0)
    digest = hashlib.sha256()
    for name, arr in m.params.items():
        digest.update(name.encode() + arr.tobytes())
    assert digest.hexdigest() == params_sha
    x = np.random.default_rng(123).normal(size=(4, 1, 32, 32))
    logits = np.round(m.logits_array(x), 9)   # robust to BLAS summation order
    assert hashlib.sha256(logits.tobytes()).hexdigest() == logits_sha


def test_model_macs_parity():
    td, od = models.model_macs(dw_spec())
    tt, ot = models.model_macs(tv_spec())
    assert td == tt
    assert od == 0 and ot > 0


def test_matched_twin_is_exact_at_parity():
    twin, mult = models.matched_depthwise_twin(tv_spec())
    assert mult == 1.0
    assert all(st.operator == "depthwise" for st in twin.stages)
    assert models.model_macs(twin)[0] == models.model_macs(tv_spec())[0]


# --- freeze and checkpoints --------------------------------------------------

def test_freeze_preserves_logits():
    m = LayoutModel.create(tv_spec(), seed=2)
    x = np.random.default_rng(2).normal(size=(3, 1, 32, 32))
    before = m.logits_array(x)
    assert np.array_equal(m.predict(x), before)
    m.freeze()
    after = m.predict(x)
    assert np.array_equal(before, after)


@pytest.mark.parametrize("op", models.OPERATORS)
def test_frozen_predict_rejects_wrong_shape(op):
    m = LayoutModel.create(models.default_model_spec(op), seed=1).freeze()
    with pytest.raises(ValueError, match="expected input"):
        m.predict(np.zeros((2, 1, 16, 16)))


@pytest.mark.parametrize("frozen", [False, True], ids=["eager", "frozen"])
@pytest.mark.parametrize("op", models.OPERATORS)
def test_empty_batch_is_rejected(op, frozen):
    m = LayoutModel.create(models.default_model_spec(op), seed=1)
    if frozen:
        m.freeze()
    for call in (m.predict, m.forward, m.logits_array):
        with pytest.raises(ValueError, match=re.escape(
                "expected input [n, 1, 32, 32] with n >= 1, got (0, 1, 32, 32)")):
            call(np.zeros((0, 1, 32, 32)))


@pytest.mark.parametrize("frozen", [False, True], ids=["eager", "frozen"])
@pytest.mark.parametrize("op", models.OPERATORS)
def test_predict_rejects_non_finite_input(op, frozen):
    m = LayoutModel.create(models.default_model_spec(op), seed=1)
    if frozen:
        m.freeze()
    x = np.zeros((3, 1, 32, 32))
    x[2, 0, 5, 7] = np.nan
    with pytest.raises(ValueError, match="image 2 has a non-finite value"):
        m.predict(x)
    x[1, 0, 31, 0] = -np.inf
    with pytest.raises(ValueError, match="image 1 has a non-finite value"):
        m.predict(x)
    x = np.zeros((64, 1, 32, 32))   # image 40 sits in the second block
    x[40, 0, 0, 9] = np.inf
    with pytest.raises(ValueError, match="image 40 has a non-finite value"):
        m.predict(x)


def test_freeze_detects_mutation():
    m = LayoutModel.create(tv_spec(), seed=2)
    x = np.zeros((1, 1, 32, 32))
    m.freeze()
    m.params["s0.b0.tv.aff"][0, 0, 0] += 1.0
    with pytest.raises(StaleCacheError):
        m.predict(x)


GUARDED = [(op, name) for op in models.OPERATORS
           for name in LayoutModel.create(models.default_model_spec(op)).params]


@pytest.mark.parametrize("op, name", GUARDED,
                         ids=[f"{op}-{name}" for op, name in GUARDED])
def test_freeze_guards_every_parameter(op, name):
    m = LayoutModel.create(models.default_model_spec(op), seed=4)
    x = np.random.default_rng(4).normal(size=(2, 1, 32, 32))
    m.freeze()
    served = m.predict(x)
    arr = m.params[name]
    original = arr.flat[0]
    arr.flat[0] = original + 0.5
    for call in (lambda: m.predict(x), m.weight_fields):
        with pytest.raises(StaleCacheError,
                           match=f"^parameter '{re.escape(name)}' changed"):
            call()
    arr.flat[0] = original
    assert np.array_equal(m.predict(x), served)


@pytest.mark.parametrize("op", models.OPERATORS)
def test_model_freeze_twice_rejected(op):
    m = LayoutModel.create(models.default_model_spec(op), seed=2).freeze()
    with pytest.raises(operator.StateError, match="already frozen"):
        m.freeze()


def test_predict_unfrozen_uses_tape_path():
    m = LayoutModel.create(dw_spec(), seed=2)
    x = np.random.default_rng(3).normal(size=(2, 1, 32, 32))
    assert np.array_equal(m.predict(x), m.logits_array(x))


@pytest.mark.parametrize("frozen", [False, True], ids=["eager", "frozen"])
@pytest.mark.parametrize("op", models.OPERATORS)
def test_predict_blocks_equal_whole_batch(op, frozen):
    # predict walks blocks of PREDICT_BLOCK images and runs the head once;
    # 33 leaves a final block of one image, whose head row alone would round
    # differently from the same row in a larger batch
    m = LayoutModel.create(models.default_model_spec(op), seed=2)
    if frozen:
        m.freeze()
    x = np.random.default_rng(8).normal(size=(128, 1, 32, 32))
    for n in (1, 31, 32, 33, 65, 128):
        assert np.array_equal(m.predict(x[:n]), m.logits_array(x[:n])), n


@pytest.mark.parametrize("frozen", [False, True], ids=["eager", "frozen"])
def test_predict_makes_each_field_once_per_call(monkeypatch, frozen):
    # over three blocks, each per-position field is generated once, not once
    # per block; frozen, none is generated and the guard runs once
    m = LayoutModel.create(tv_spec(), seed=2)
    if frozen:
        m.freeze()
    calls = []
    for owner, attr in ((LayoutModel, "_field_node"), (models, "raw_bytes")):
        orig = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, lambda *a, attr=attr, orig=orig, **kw:
                            calls.append(attr) or orig(*a, **kw))
    m.predict(np.random.default_rng(9).normal(size=(65, 1, 32, 32)))
    want = ["raw_bytes"] if frozen else ["_field_node"] * len(m.tv_layers)
    assert len(m.tv_layers) == 2 and calls == want


def test_backward_skips_image_gradient(monkeypatch):
    # The stem's input is a constant, so backward computes no conv_dx for it;
    # every parameter gradient is what the rule that always computes it gives.
    m = LayoutModel.create(tv_spec(), seed=2)
    rng = np.random.default_rng(3)
    x, y = rng.uniform(size=(4, 1, 32, 32)), np.array([0, 3, 5, 7])

    def full_rule(n, g):
        x, w = n.parents
        return kernels.conv_dx(g, w.value), kernels.conv_dw(g, x.value, w.value.shape[-1])

    monkeypatch.setitem(ag._RULES, "conv", full_rule)
    full = {n.name: g for n, g in ag.backward(m.loss(x, y)).items()}
    monkeypatch.undo()

    loss = m.loss(x, y)
    tape = ag._topo(loss)
    image_w = {id(n.parents[1].value) for n in tape if n.op == "conv"
               and n.parents[0].op == "leaf" and not n.parents[0].is_param}
    assert len(image_w) == 1
    calls = []
    conv_dx = kernels.conv_dx
    monkeypatch.setattr(kernels, "conv_dx",
                        lambda g, w: calls.append(id(w) in image_w) or conv_dx(g, w))
    grads = {n.name: g for n, g in ag.backward(loss).items()}
    assert calls and not any(calls)
    assert grads.keys() == full.keys() == m.params.keys()
    for name, g in grads.items():
        np.testing.assert_allclose(g, full[name], rtol=0, atol=1e-12)


def test_checkpoint_round_trip(tmp_path):
    m = LayoutModel.create(tv_spec(), seed=9)
    x = np.random.default_rng(5).normal(size=(2, 1, 32, 32))
    ref = m.logits_array(x)
    out = tmp_path / "ckpt"
    models.save_model(m, out)
    assert (out / "model.txt").exists()
    back = models.load_model(out)
    assert back.spec == m.spec
    for name in m.params:
        assert np.array_equal(back.params[name], m.params[name])
    assert np.array_equal(back.logits_array(x), ref)
    assert np.array_equal(back.freeze().predict(x), ref)
    # rewriting produces identical bytes
    first = {p.name: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    models.save_model(m, out)
    second = {p.name: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert first == second


def test_checkpoint_tv_layers_rebound(tmp_path):
    m = LayoutModel.create(tv_spec(), seed=9)
    models.save_model(m, tmp_path / "c")
    back = models.load_model(tmp_path / "c")
    gen = back.tv_layers["s0.b0.tv"]
    # the rebuilt generator must alias the loaded arrays, not copy them
    assert gen.w_out is back.params["s0.b0.tv.out.w"]
    for name, arr in gen.arrays():
        assert arr is back.params[f"s0.b0.tv.{name}"]


def test_load_rejects_wrong_param_shape(tmp_path):
    models.save_model(LayoutModel.create(tv_spec(), seed=0), tmp_path)
    save_tensor(Tensor(np.zeros((3, 3))), tmp_path / "params" / "head.w.tvt")
    with pytest.raises(ValueError, match=r"head\.w\.tvt.*\(3, 3\).*\(16, 8\)"):
        models.load_model(tmp_path)


def test_save_refuses_non_finite_parameter(tmp_path):
    m = LayoutModel.create(tv_spec(), seed=0)
    m.params["s0.b0.tv.aff"][1, 2, 3] = np.nan
    with pytest.raises(ValueError, match=r"parameter s0\.b0\.tv\.aff is not finite"):
        models.save_model(m, tmp_path / "ckpt")
    assert not (tmp_path / "ckpt").exists()


def test_load_refuses_non_finite_file(tmp_path):
    models.save_model(LayoutModel.create(tv_spec(), seed=0), tmp_path)
    save_tensor(Tensor(np.full((16, 8), np.inf)), tmp_path / "params" / "head.w.tvt")
    with pytest.raises(ValueError, match=r"head\.w\.tvt: holds a non-finite value"):
        models.load_model(tmp_path)


def test_load_refuses_a_changed_byte(tmp_path):
    # same shape, finite values: only the manifest's sha256 catches it
    models.save_model(LayoutModel.create(tv_spec(), seed=0), tmp_path)
    file = tmp_path / "params" / "s0.b0.tv.out.w.tvt"
    raw = bytearray(file.read_bytes())
    raw[-8] ^= 0x01       # lowest mantissa byte of the last element
    file.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=r"s0\.b0\.tv\.out\.w\.tvt: sha256 does not "
                                         r"match .*model\.txt"):
        models.load_model(tmp_path)


def test_load_refuses_a_missing_digest(tmp_path):
    models.save_model(LayoutModel.create(tv_spec(), seed=0), tmp_path)
    manifest = tmp_path / "model.txt"
    manifest.write_text("".join(
        line for line in manifest.read_text().splitlines(keepends=True)
        if not line.startswith("sha256.head.b=")))
    with pytest.raises(KvError, match=r"model\.txt: missing key 'sha256\.head\.b'"):
        models.load_model(tmp_path)


@pytest.mark.parametrize("edit", [
    lambda names: names.replace(",head.b", ""),
    lambda names: names.replace("head.b", "head.bias"),
], ids=["dropped", "renamed"])
def test_load_rejects_params_list_mismatch(tmp_path, edit):
    models.save_model(LayoutModel.create(tv_spec(), seed=0), tmp_path)
    manifest = tmp_path / "model.txt"
    lines = manifest.read_text().splitlines(keepends=True)
    lines[-1] = edit(lines[-1])
    manifest.write_text("".join(lines))
    with pytest.raises(ValueError, match=r"params do not match.*missing \['head\.b'\]"):
        models.load_model(tmp_path)


def test_load_missing_manifest_key_names_file_and_key(tmp_path):
    models.save_model(LayoutModel.create(tv_spec(), seed=0), tmp_path)
    manifest = tmp_path / "model.txt"
    manifest.write_text("".join(
        line for line in manifest.read_text().splitlines(keepends=True)
        if not line.startswith("gen_width=")))
    with pytest.raises(KvError, match=r"model\.txt: missing key 'gen_width'"):
        models.load_model(tmp_path)


def test_on_disk_manifests_pinned(tmp_path):
    m = LayoutModel.create(tv_spec(), seed=0)
    models.save_model(m, tmp_path / "m")
    text = (tmp_path / "m" / "model.txt").read_text()
    lines = text.splitlines(keepends=True)
    params = tmp_path / "m" / "params"
    assert [line for line in lines if line.startswith("sha256.")] == [
        f"sha256.{name}={hashlib.sha256((params / f'{name}.tvt').read_bytes()).hexdigest()}\n"
        for name in m.params]
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9b202d06c6ee7f3fe9efeb24372d29f532df19774c78ef011e9317f543bc5799")
    assert "".join(line for line in lines if not line.startswith("sha256.")) == (
        "in_channels=1\nh=32\nw=32\nclasses=8\nstem_channels=8\n"
        "stages=8:1:tvconv:2;16:1:tvconv:2\nk=3\naffinity_channels=2\n"
        "gen_depth=1\ngen_width=8\ngen_kernel=3\naffinity_init=constant\n"
        "params=stem.w,stem.ln.g,stem.ln.b,s0.t.w,s0.t.ln.g,s0.t.ln.b,"
        "s0.b0.tv.aff,s0.b0.tv.h0.w,s0.b0.tv.h0.gamma,s0.b0.tv.h0.beta,"
        "s0.b0.tv.out.w,s0.b0.sp.ln.g,s0.b0.sp.ln.b,s0.b0.pw.w,s0.b0.pw.ln.g,"
        "s0.b0.pw.ln.b,s1.t.w,s1.t.ln.g,s1.t.ln.b,s1.b0.tv.aff,s1.b0.tv.h0.w,"
        "s1.b0.tv.h0.gamma,s1.b0.tv.h0.beta,s1.b0.tv.out.w,s1.b0.sp.ln.g,"
        "s1.b0.sp.ln.b,s1.b0.pw.w,s1.b0.pw.ln.g,s1.b0.pw.ln.b,head.w,head.b\n")
    data.save_dataset(data.gen_layout_dataset(data.LayoutDatasetSpec()),
                      tmp_path / "d")
    assert (tmp_path / "d" / "meta.txt").read_text() == (
        "channels=1\nh=32\nw=32\ngrid=4\nclasses=8\n"
        "bg_amplitude=1.3\nnoise_std=0.05\nn_train=200\nn_test=200\nseed=0\n")


def test_mixed_stage_operators():
    spec = ModelSpec(stages=(StageSpec(8, 1, "tvconv", 2),
                             StageSpec(16, 1, "depthwise", 2)))
    m = LayoutModel.create(spec, seed=0)
    assert "s0.b0.tv.aff" in m.params
    assert "s1.b0.dw.w" in m.params
    x = np.random.default_rng(6).normal(size=(2, 1, 32, 32))
    assert m.logits_array(x).shape == (2, 8)
