"""Layout dataset and translation augmentation.

The dataset construction is checked structurally (noiseless images decompose
into per-cell pedestals plus known stripe patterns), the variance statistic
against degenerate hand cases and its i.i.d. null, and the random
translations against a loop oracle."""

import numpy as np
import pytest

from tvconv import data
from tvconv.data import LayoutDatasetSpec
from tvconv.seeding import rng_for, subseed
from tvconv.tensor import Tensor, save_tensor


# --- seed derivation ---------------------------------------------------------

def test_subseed_frozen():
    # sha256("0/layout")[:8] little-endian; pins the derivation format
    assert subseed(0, "layout") == 3507542992213308714
    assert subseed(0, "train") == 2765697047129211453
    assert subseed(7, "augment") == 59191349371619766


def test_subseed_streams_independent():
    a = rng_for(0, "layout").uniform(size=4)
    b = rng_for(0, "noise").uniform(size=4)
    c = rng_for(0, "layout").uniform(size=4)
    assert not np.allclose(a, b)
    assert np.array_equal(a, c)


# --- class placement ---------------------------------------------------------

def test_default_assignments_interior_first():
    pairs = data.default_assignments(grid=4, classes=8)
    cells = [p[0] for p in pairs]
    # 8 classes = the four interior cells under two orientations, so class
    # identity cannot be read from orientation alone
    assert cells == [(1, 1), (1, 2), (2, 1), (2, 2)] * 2
    assert [p[1] for p in pairs] == ["h"] * 4 + ["v"] * 4


def test_default_assignments_capacity():
    assert len(data.default_assignments(grid=2, classes=16)) == 16
    with pytest.raises(ValueError, match="capacity"):
        data.default_assignments(grid=2, classes=17)


# --- generation --------------------------------------------------------------

def small_spec(**kw) -> LayoutDatasetSpec:
    base = dict(channels=1, h=16, w=16, grid=4, classes=4,
                noise_std=0.0, n_train=16, n_test=8, seed=3)
    base.update(kw)
    return LayoutDatasetSpec(**base)


def test_shapes_and_dtype():
    ds = data.gen_layout_dataset(small_spec())
    assert ds.train_x.shape == (16, 1, 16, 16)
    assert ds.test_x.shape == (8, 1, 16, 16)
    assert ds.train_x.dtype == np.float64
    assert ds.train_y.shape == (16,)
    assert set(ds.train_y) <= set(range(4))


def test_determinism():
    a = data.gen_layout_dataset(small_spec(noise_std=0.05))
    b = data.gen_layout_dataset(small_spec(noise_std=0.05))
    assert a.train_x.tobytes() == b.train_x.tobytes()
    assert a.test_x.tobytes() == b.test_x.tobytes()
    assert np.array_equal(a.train_y, b.train_y)


def test_noiseless_two_classes_differ_in_one_cell():
    # on a 2x2 grid classes 0 and 4 are the "h" and "v" stripes of cell (0, 0)
    spec = small_spec(grid=2, h=8, w=8, classes=5, n_train=10, n_test=4)
    ds = data.gen_layout_dataset(spec)
    by_class = [ds.train_x[ds.train_y == c] for c in (0, 4)]
    for imgs in by_class:
        for img in imgs[1:]:
            assert np.array_equal(img, imgs[0])
    diff = by_class[0][0] - by_class[1][0]
    assert np.any(diff[:, :4, :4] != 0)
    mask = np.ones((8, 8), bool)
    mask[:4, :4] = False
    assert np.all(diff[:, mask] == 0)


def test_noiseless_layout_shared_across_splits():
    ds = data.gen_layout_dataset(small_spec())
    for c in range(4):
        tr = ds.train_x[ds.train_y == c][0]
        te = ds.test_x[ds.test_y == c][0]
        assert np.array_equal(tr, te)


def test_stripe_structure():
    # class 0 of the default assignment puts "h" stripes in cell (1,1);
    # subtracting each cell's mean must leave +/-amp rows there, 0 elsewhere
    spec = small_spec(grid=4, h=32, w=32, classes=8, n_train=8, n_test=1)
    ds = data.gen_layout_dataset(spec)
    img = ds.train_x[ds.train_y == 0][0][0]
    resid = img.copy()
    for gr in range(4):
        for gc in range(4):
            cell = np.s_[gr * 8:(gr + 1) * 8, gc * 8:(gc + 1) * 8]
            resid[cell] -= img[cell].mean()
    amp = data.PATTERN_AMPLITUDE
    inside = resid[8:16, 8:16]
    rows = np.arange(8, 16)
    expect = np.where(rows[:, None] % 2 == 0, amp, -amp)
    assert np.allclose(inside, expect, atol=1e-12)
    outside = resid.copy()
    outside[8:16, 8:16] = 0.0
    assert np.allclose(outside, 0.0, atol=1e-12)


def test_diagonal_stripes():
    # on a 2x2 grid class 8 is the "d1" stripe of cell (0, 0)
    spec = small_spec(grid=2, h=8, w=8, classes=16, n_train=16, n_test=1)
    ds = data.gen_layout_dataset(spec)
    img0 = ds.train_x[ds.train_y == 8][0][0]
    cell = img0[:4, :4] - img0[:4, :4].mean()
    r, c = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    expect = np.where((r + c) % 4 < 2, 1.0, -1.0) * data.PATTERN_AMPLITUDE
    # mean of the d1 stripe over the cell is zero, so residual == stripe
    assert np.allclose(cell, expect - expect.mean(), atol=1e-12)


def test_label_balance():
    ds = data.gen_layout_dataset(small_spec(classes=3, n_train=10, n_test=5))
    counts = np.bincount(ds.train_y, minlength=3)
    assert counts.max() - counts.min() <= 1
    assert counts.sum() == 10


def test_capacity_error():
    with pytest.raises(ValueError, match="capacity"):
        data.gen_layout_dataset(small_spec(grid=2, classes=17))


def test_spec_validation():
    with pytest.raises(ValueError, match="divisible"):
        data.gen_layout_dataset(small_spec(h=15))
    with pytest.raises(ValueError, match="noise"):
        data.gen_layout_dataset(small_spec(noise_std=-0.1))
    with pytest.raises(ValueError, match="amplitude"):
        data.gen_layout_dataset(small_spec(bg_amplitude=-1.0))


# --- variance statistic ------------------------------------------------------

def test_variance_constant_images():
    imgs = np.full((5, 1, 4, 4), 2.5)
    stats = data.variance_stats(imgs)
    assert stats["intra_image_var"] == 0.0
    assert stats["cross_image_var"] == 0.0


def test_variance_identical_nonconstant_images():
    one = np.arange(16.0).reshape(1, 4, 4)
    imgs = np.stack([one] * 6)
    stats = data.variance_stats(imgs)
    assert stats["intra_image_var"] == pytest.approx(np.var(one))
    assert stats["cross_image_var"] == 0.0


def test_variance_iid_null_is_flat():
    rng = np.random.default_rng(5)
    imgs = rng.normal(0.0, 1.0, size=(200, 1, 16, 16))
    stats = data.variance_stats(imgs)
    ratio = stats["intra_image_var"] / stats["cross_image_var"]
    assert abs(ratio - 1.0) < 0.2


def test_variance_default_dataset_ratio():
    ds = data.gen_layout_dataset(LayoutDatasetSpec())
    stats = data.variance_stats(ds)
    assert stats["intra_image_var"] / stats["cross_image_var"] > 3.0


def test_variance_singleton_rejected():
    with pytest.raises(ValueError, match="at least 2"):
        data.variance_stats(np.zeros((1, 1, 4, 4)))


# --- translations ------------------------------------------------------------

def shift_oracle(img: np.ndarray, dy: int, dx: int) -> np.ndarray:
    out = np.zeros_like(img)
    h, w = img.shape[-2:]
    for r in range(h):
        for c in range(w):
            sr, sc = r - dy, c - dx
            if 0 <= sr < h and 0 <= sc < w:
                out[..., r, c] = img[..., sr, sc]
    return out


def test_random_translations_match_per_image_transform():
    rng = np.random.default_rng(8)
    x = rng.uniform(size=(6, 1, 12, 12))
    shifted, offsets = data.random_translations(
        x, max_px=4, rng=np.random.default_rng(99))
    assert offsets.shape == (6, 2)
    assert np.abs(offsets).max() <= 4
    for i in range(6):
        dy, dx = offsets[i]
        assert np.array_equal(shifted[i], shift_oracle(x[i], dy, dx))
    again, off2 = data.random_translations(
        x, max_px=4, rng=np.random.default_rng(99))
    assert np.array_equal(shifted, again)
    assert np.array_equal(offsets, off2)


# --- persistence -------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    spec = small_spec(noise_std=0.05)
    ds = data.gen_layout_dataset(spec)
    out = tmp_path / "ds"
    data.save_dataset(ds, out)
    assert (out / "meta.txt").exists()
    assert (out / "images.tvt").exists()
    assert (out / "labels.txt").exists()
    back = data.load_dataset(out)
    assert back.spec == spec
    assert np.array_equal(back.train_x, ds.train_x)
    assert np.array_equal(back.test_x, ds.test_x)
    assert np.array_equal(back.train_y, ds.train_y)
    assert np.array_equal(back.test_y, ds.test_y)


def test_save_is_idempotent(tmp_path):
    ds = data.gen_layout_dataset(small_spec())
    out = tmp_path / "ds"
    data.save_dataset(ds, out)
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    data.save_dataset(ds, out)
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_load_rejects_label_count_mismatch(tmp_path):
    spec = LayoutDatasetSpec(n_train=200, n_test=200)
    data.save_dataset(data.gen_layout_dataset(spec), tmp_path)
    labels = tmp_path / "labels.txt"
    lines = labels.read_text().splitlines(keepends=True)
    labels.write_text("".join(lines[:350]))  # 150 test labels for 200 images
    with pytest.raises(ValueError, match=r"labels\.txt: 350 labels for 400 images"):
        data.load_dataset(tmp_path)


def test_load_rejects_label_out_of_range(tmp_path):
    data.save_dataset(data.gen_layout_dataset(small_spec(classes=8)), tmp_path)
    labels = tmp_path / "labels.txt"
    good = labels.read_text().splitlines(keepends=True)
    # the second is beyond int64, which once raised numpy's OverflowError
    for bad in ("99", "99999999999999999999"):
        labels.write_text("".join([*good[:3], f"{bad}\n", *good[4:]]))
        with pytest.raises(ValueError,
                           match=rf"labels\.txt: label {bad} is outside \[0, 8\)"):
            data.load_dataset(tmp_path)


def test_load_rejects_non_integer_label(tmp_path):
    data.save_dataset(data.gen_layout_dataset(small_spec()), tmp_path)
    labels = tmp_path / "labels.txt"
    lines = labels.read_text().splitlines(keepends=True)
    lines[3] = "x\n"
    labels.write_text("".join(lines))
    with pytest.raises(ValueError,
                       match=r"labels\.txt:4: expected an integer label, got 'x'"):
        data.load_dataset(tmp_path)


def test_load_validates_meta(tmp_path):
    data.save_dataset(data.gen_layout_dataset(small_spec(n_train=12, n_test=4)),
                      tmp_path)
    meta = tmp_path / "meta.txt"
    good = meta.read_text()
    # an empty test split used to load, then divide by zero in evaluation
    meta.write_text(good.replace("n_train=12", "n_train=16")
                    .replace("n_test=4", "n_test=0"))
    with pytest.raises(ValueError, match=r"meta\.txt: n_test must be >= 1, got 0"):
        data.load_dataset(tmp_path)
    meta.write_text(good.replace("grid=4", "grid=four"))
    with pytest.raises(ValueError, match=r"meta\.txt: key 'grid': cannot parse 'four'"):
        data.load_dataset(tmp_path)


def test_load_ignores_an_old_assignments_line(tmp_path):
    # meta.txt files written while the class placement was a spec field
    # carry an `assignments=default` line
    ds = data.gen_layout_dataset(small_spec())
    data.save_dataset(ds, tmp_path)
    meta = tmp_path / "meta.txt"
    meta.write_text(meta.read_text().replace("classes=4\n",
                                             "classes=4\nassignments=default\n"))
    back = data.load_dataset(tmp_path)
    assert back.spec == ds.spec
    assert np.array_equal(back.train_x, ds.train_x)


def test_load_rejects_image_shape_mismatch(tmp_path):
    data.save_dataset(data.gen_layout_dataset(small_spec()), tmp_path)
    save_tensor(Tensor(np.zeros((24, 1, 8, 8))), tmp_path / "images.tvt")
    with pytest.raises(ValueError, match=r"images\.tvt: shape \(24, 1, 8, 8\)"):
        data.load_dataset(tmp_path)
