"""SGD and training-loop contracts: the update rule against hand-iterated
values, the affinity weight-decay exemption by parameter-wise diff, loop
determinism, the lr=0 no-op, a separable sanity task, and the NaN abort."""

import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

from tvconv import data, models, training
from tvconv.data import Dataset, LayoutDatasetSpec
from tvconv.models import LayoutModel
from tvconv.training import TrainConfig, TrainingError


def cfg(**kw) -> TrainConfig:
    base = dict(lr=0.1, momentum=0.9, weight_decay=0.0, epochs=1,
                batch_size=4, lr_drops=(), seed=0)
    base.update(kw)
    return TrainConfig(**base)


# --- sgd_step ----------------------------------------------------------------

def test_sgd_hand_iterated():
    # v1 = 1 -> p = 0.9; v2 = 0.9*1 + 1 = 1.9 -> p = 0.71
    p = {"w": np.array([1.0])}
    state = {}
    c = cfg(lr=0.1, momentum=0.9)
    training.sgd_step(p, {"w": np.array([1.0])}, state, c)
    assert p["w"][0] == pytest.approx(0.9)
    training.sgd_step(p, {"w": np.array([1.0])}, state, c)
    assert p["w"][0] == pytest.approx(0.71)


def test_sgd_plain_gd_when_no_momentum():
    p = {"w": np.array([2.0, -1.0])}
    training.sgd_step(p, {"w": np.array([0.5, 0.5])}, {},
                      cfg(lr=0.2, momentum=0.0))
    assert np.allclose(p["w"], [1.9, -1.1])


def test_sgd_zero_grad_fresh_state_no_op():
    p = {"w": np.array([3.0])}
    training.sgd_step(p, {"w": np.array([0.0])}, {}, cfg())
    assert p["w"][0] == 3.0


def test_sgd_velocity_decays_geometrically():
    state = {"w": np.array([1.0])}
    p = {"w": np.array([0.0])}
    for i in range(3):
        training.sgd_step(p, {"w": np.array([0.0])}, state,
                          cfg(lr=0.0, momentum=0.5))
        assert state["w"][0] == pytest.approx(0.5 ** (i + 1))


def test_sgd_weight_decay_term():
    p = {"w": np.array([2.0])}
    training.sgd_step(p, {"w": np.array([0.0])}, {},
                      cfg(lr=1.0, momentum=0.0, weight_decay=0.1))
    assert p["w"][0] == pytest.approx(1.8)


def test_sgd_affinity_decay_exemption():
    c_off = cfg(lr=1.0, momentum=0.0, weight_decay=0.1, decay_affinity=False)
    c_on = cfg(lr=1.0, momentum=0.0, weight_decay=0.1, decay_affinity=True)
    g = {"a.tv.aff": np.array([0.0]), "w": np.array([0.0])}
    p1 = {"a.tv.aff": np.array([2.0]), "w": np.array([2.0])}
    training.sgd_step(p1, g, {}, c_off)
    assert p1["a.tv.aff"][0] == 2.0      # exempt
    assert p1["w"][0] == pytest.approx(1.8)
    p2 = {"a.tv.aff": np.array([2.0]), "w": np.array([2.0])}
    training.sgd_step(p2, g, {}, c_on)
    assert p2["a.tv.aff"][0] == pytest.approx(1.8)


def test_sgd_updates_in_place():
    arr = np.array([1.0])
    p = {"w": arr}
    training.sgd_step(p, {"w": np.array([1.0])}, {}, cfg())
    assert p["w"] is arr


def test_sgd_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        training.sgd_step({"w": np.zeros(3)}, {"w": np.zeros(2)}, {}, cfg())


def test_config_validation():
    with pytest.raises(ValueError, match="lr"):
        TrainConfig(lr=-0.1)
    with pytest.raises(ValueError, match="momentum"):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError, match="divisor"):
        TrainConfig(lr_drops=((5, 0.0),))
    with pytest.raises(ValueError, match="batch_size >= 1"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="augment_translate must be >= 0"):
        TrainConfig(augment_translate=-1)
    TrainConfig(lr=0.0)  # allowed: freezes parameters, used as a no-op probe


def test_effective_lr_schedule():
    c = TrainConfig(lr=1.0, lr_drops=((2, 10.0), (4, 2.0)))
    assert [training.effective_lr(c, e) for e in range(5)] == \
        [1.0, 1.0, 0.1, 0.1, 0.05]


# --- the loop ----------------------------------------------------------------

def toy_blobs(n=64, h=16, seed=0) -> Dataset:
    rng = np.random.default_rng(seed)

    def split(m):
        y = np.arange(m) % 2
        x = rng.normal(0.0, 0.1, size=(m, 1, h, h)) + \
            np.where(y[:, None, None, None] == 0, 0.3, -0.3)
        return x, y.astype(np.int64)

    xtr, ytr = split(n)
    xte, yte = split(n)
    spec = LayoutDatasetSpec(h=h, w=h, classes=2, n_train=n, n_test=n)
    return Dataset(xtr, ytr, xte, yte, spec)


def toy_model(seed=0, op="depthwise") -> LayoutModel:
    spec = models.default_model_spec(
        op, h=16, w=16, classes=2, stem_channels=4,
        stages=(models.StageSpec(4, 1, op, 2), models.StageSpec(4, 1, op, 2)))
    return LayoutModel.create(spec, seed=seed)


def test_zero_lr_keeps_params():
    ds = toy_blobs()
    m = toy_model()
    before = {k: v.copy() for k, v in m.params.items()}
    res = training.train(m, ds, cfg(lr=0.0, epochs=2))
    assert len(res.history) == 2
    for k in before:
        assert np.array_equal(m.params[k], before[k])


def test_train_deterministic():
    h1 = training.train(toy_model(), toy_blobs(), cfg(epochs=3, lr=0.05)).history
    h2 = training.train(toy_model(), toy_blobs(), cfg(epochs=3, lr=0.05)).history
    assert h1 == h2


def test_history_entries():
    res = training.train(toy_model(), toy_blobs(), cfg(epochs=2, lr=0.05))
    for epoch, loss, acc in res.history:
        assert isinstance(epoch, int)
        assert np.isfinite(loss)
        assert 0.0 <= acc <= 1.0


def test_separable_toy_reaches_95():
    res = training.train(toy_model(), toy_blobs(),
                         cfg(epochs=20, lr=0.05, weight_decay=5e-4))
    assert res.history[-1][2] >= 0.95


def test_nan_loss_aborts_with_diagnostic():
    m = toy_model()
    m.params["head.b"][:] = np.nan
    with pytest.raises(TrainingError, match="epoch 0"):
        training.train(m, toy_blobs(), cfg(epochs=1))


def test_evaluate_matches_manual_accuracy():
    m = toy_model(seed=3)
    ds = toy_blobs(seed=4)
    acc = training.evaluate(m, ds.test_x, ds.test_y)
    manual = float((m.logits_array(ds.test_x).argmax(axis=1)
                    == ds.test_y).mean())
    assert acc == manual


def test_bad_splits_are_rejected():
    m, ds = toy_model(), toy_blobs(n=8)
    with pytest.raises(ValueError, match="empty split"):
        training.evaluate(m, ds.test_x[:0], ds.test_y[:0])
    for nx, ny in ((8, 1), (1, 8), (8, 6)):
        with pytest.raises(ValueError, match=f"evaluation split has {nx} images but "
                                             f"{ny} labels"):
            training.evaluate(m, ds.test_x[:nx], ds.test_y[:ny])
    for split in ("train", "test"):
        short = replace(ds, **{f"{split}_y": getattr(ds, f"{split}_y")[:5]})
        with pytest.raises(ValueError, match=f"{split}\\w* split has 8 images but 5 labels"):
            training.train(m, short, cfg())
    empty = replace(ds, train_x=ds.train_x[:0], train_y=ds.train_y[:0])
    with pytest.raises(TrainingError, match="training split is empty"):
        training.train(m, empty, cfg())
    ds.test_x[5, 0, 3, 3] = np.inf   # named by its index in the split
    with pytest.raises(ValueError, match="image 5 has a non-finite value"):
        training.evaluate(m, ds.test_x, ds.test_y)
    ds.train_x[6, 0, 0, 0] = np.nan  # named by split index, not shuffled batch
    with pytest.raises(ValueError, match="image 6 has a non-finite value"):
        training.train(m, ds, cfg())


def test_non_finite_parameter_after_last_step_aborts(monkeypatch):
    # The loss is checked before each step; what the epoch's last step leaves
    # behind is checked before the evaluation reads logits off it.
    step = training.sgd_step

    def overflowing_step(params, *args):
        step(params, *args)
        params["s1.b0.pw.w"][0, 0, 0, 0] = np.inf

    monkeypatch.setattr(training, "sgd_step", overflowing_step)
    with pytest.raises(TrainingError, match=r"parameter s1\.b0\.pw\.w is not finite after "
                                            r"the last step of epoch 0"):
        training.train(toy_model(), toy_blobs(n=8), cfg(batch_size=8))


def test_overflowing_model_is_not_scored():
    # Finite parameters can still overflow the forward pass; an accuracy read
    # off nan logits (argmax 0) would be a number about nothing.
    m, ds = toy_model(), toy_blobs(n=8)
    m.params["head.w"][...] = np.finfo(np.float64).max
    x = ds.test_x.copy()
    x[:4] = 0.0   # a blank image pools to zero features: logits = head.b
    with pytest.raises(ValueError, match="image 4 has non-finite logits"):
        training.evaluate(m, x, ds.test_y)


def test_evaluate_predicts_once(monkeypatch):
    # one predict over the whole 200-image split, not one per 128 images:
    # each field is generated once per pass
    m, ds = toy_model(op="tvconv"), toy_blobs(n=200)
    calls = []
    for attr in ("predict", "_field_node"):
        orig = getattr(LayoutModel, attr)
        monkeypatch.setattr(LayoutModel, attr, lambda *a, attr=attr, orig=orig, **kw:
                            calls.append(attr) or orig(*a, **kw))
    training.evaluate(m, ds.test_x, ds.test_y)
    assert len(m.tv_layers) == 2
    assert calls == ["predict"] + ["_field_node"] * len(m.tv_layers)


def test_freeze_does_not_change_metric():
    ds = toy_blobs()
    m = toy_model(op="tvconv")
    training.train(m, ds, cfg(epochs=2, lr=0.05))
    before = training.evaluate(m, ds.test_x, ds.test_y)
    m.freeze()
    assert training.evaluate(m, ds.test_x, ds.test_y) == before


def test_decay_exemption_trains_other_params_identically():
    ds = toy_blobs()
    step_cfg = cfg(lr=0.05, weight_decay=0.1, epochs=1, batch_size=64)
    pa = toy_model(op="tvconv")
    pb = toy_model(op="tvconv")
    training.train(pa, ds, step_cfg)
    training.train(pb, ds, cfg(lr=0.05, weight_decay=0.1, epochs=1,
                               batch_size=64, decay_affinity=True))
    for name in pa.params:
        if name.endswith(".aff"):
            assert not np.array_equal(pa.params[name], pb.params[name])
        else:
            assert np.array_equal(pa.params[name], pb.params[name])


def test_augmentation_deterministic_and_effective():
    ds = toy_blobs()
    a = training.train(toy_model(), ds, cfg(epochs=2, lr=0.05,
                                            augment_translate=3)).history
    b = training.train(toy_model(), ds, cfg(epochs=2, lr=0.05,
                                            augment_translate=3)).history
    c = training.train(toy_model(), ds, cfg(epochs=2, lr=0.05)).history
    assert a == b
    assert a != c


# --- bit identity of the desk recipe -------------------------------------------

def desk_digest(op: str) -> str:
    """sha256 over a 4-epoch desk training: the history, the final parameters,
    eager and frozen `predict` logits on the test split, and the frozen fields."""
    ds = data.gen_layout_dataset(LayoutDatasetSpec(seed=0))
    m = LayoutModel.create(models.default_model_spec(op), seed=0)
    digest = hashlib.sha256(repr(training.train(m, ds, TrainConfig(seed=0, epochs=4)).history)
                            .encode())
    for name, arr in m.params.items():
        digest.update(name.encode() + arr.tobytes())
    digest.update(m.predict(ds.test_x).tobytes())
    m.freeze()
    digest.update(m.predict(ds.test_x).tobytes())
    for name, field in m.weight_fields().items():
        digest.update(name.encode() + field.tobytes())
    return digest.hexdigest()


DESK_DIGESTS = {
    "depthwise": "5d658061a870cfb36ec6d1eef0c01c9d3d6f1860b4fee4109d43f8a91cff022d",
    "tvconv": "a08b04cf483be21260b6669545f98b07542d4671bab74a1b510fc7799aee66fb",
}


@pytest.mark.parametrize("op", models.OPERATORS)
def test_desk_training_bits_pinned(op):
    # Any change to a kernel's arithmetic order, the tape, SGD or the data
    # moves this digest. BLAS's summation order depends on its build and
    # thread count, so a mismatch names the host it ran on.
    got, pinned = desk_digest(op), DESK_DIGESTS[op]
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    assert got == pinned, (
        f"{op} desk training digest {got} != pinned {pinned} on numpy {np.__version__}, "
        f"BLAS {blas.get('name', '?')} {blas.get('version', '?')}, "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}, "
        f"cpu_count={os.cpu_count()}")
