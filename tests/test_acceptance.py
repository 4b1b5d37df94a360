"""Release gate: every criterion in one module, one printed line each.

Each test prints `criterion NN name PASS/FAIL detail` before asserting, so a
plain `pytest tests/test_acceptance.py -s` shows the full scorecard even when
everything is green, and a failure still carries its measured numbers.

The two expensive criteria (the accuracy gap and its translation-augmented
counterpart) share one module-scoped fixture that trains the operator pair
over five seeds twice, roughly three minutes of CPU total. Everything else is
arithmetic, oracles, or single forward passes and finishes in seconds.

Reference numbers from the pinned recipe (mean over seeds 0..4): accuracy gap
+0.245 without augmentation, -0.016 at 13 px shifts, variance ratio 4.65.
Criteria 3, 7 and 8 also compare the figures they print with the ones pinned
in `PRINTED`, so a change that moves a bit of the suite or of a training
fails there, even inside the bounds.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from tvconv import ablations, costmodel, data, gradsuite, kernels, models, operator, training
from tvconv.costmodel import ArchSpec, BlockSpec
from tvconv.tensor import Tensor


# The figures the pinned recipe prints for criteria 3, 7 and 8, without their
# seconds. A change that moves one re-pins it on purpose and logs why.
PRINTED = {
    3: "9 ops x 100 instances, max rel err 2.34e-06",
    7: "mean gap +0.2450 over 5 seeds (per-seed [ 0.365  0.45   0.23   0.4   -0.22 ])",
    8: "gap -0.0160 at +-13px vs +0.2450 plain",
}


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name:<26} {status}  {detail}", flush=True)


# --- 1: constant affinity + 1x1 generator collapses to depthwise -------------

def test_01_degenerates_to_depthwise():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        k = int(rng.choice([1, 3, 5]))
        c = int(rng.integers(1, 6))
        h = int(rng.integers(k, k + 6))
        w = int(rng.integers(k, k + 6))
        layer = operator.TVConvLayer.create(
            c, h, w, k=k,
            affinity_channels=int(rng.integers(1, 4)),
            depth=int(rng.integers(0, 3)),
            width=int(rng.integers(1, 9)),
            k_gen=1, rng=rng)
        field = layer.weights()
        # a constant map through 1x1 stages has no spatial variation left
        flat = field.reshape(c * k * k, -1)
        assert float(np.ptp(flat, axis=1).max()) == 0.0
        x = rng.standard_normal((c, h, w))
        got = operator.tvconv_apply(Tensor(x), field).data
        want = kernels.dwconv(x[None], field[:, :, :, 0, 0])[0]
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 10.0
    _line(1, "degenerates-to-depthwise", ok,
          f"max|diff| {worst:.2e} over 100 configs in {elapsed:.1f}s")
    assert worst < 1e-12
    assert elapsed < 10.0


# --- 2: vectorized apply vs the five-loop definition --------------------------

def test_02_matches_loop_nest_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(1000):
        c = int(rng.integers(1, 5))
        h = int(rng.integers(2, 8))
        w = int(rng.integers(2, 8))
        k = int(rng.choice([1, 3, 5]))
        wf = rng.standard_normal((c, k, k, h, w))
        x = Tensor(rng.standard_normal((c, h, w)))
        fast = operator.tvconv_apply(x, wf).data
        slow = operator.tvconv_naive_oracle(x, wf).data
        worst = max(worst, float(np.abs(fast - slow).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 30.0
    _line(2, "matches-loop-nest-oracle", ok,
          f"max|diff| {worst:.2e} over 1000 instances in {elapsed:.1f}s")
    assert worst < 1e-12
    assert elapsed < 30.0


# --- 3: every tape op against central differences ------------------------------

def test_03_gradient_suite():
    t0 = time.perf_counter()
    results = gradsuite.run_suite(seed=0, tol=1e-5, eps=1e-6, instances=100)
    elapsed = time.perf_counter() - t0
    names = {r.op for r in results}
    worst = max(r.max_rel_err for r in results)
    figures = f"{len(results)} ops x 100 instances, max rel err {worst:.2e}"
    ok = (names == set(gradsuite.GENERATORS)
          and "tvconv_layer" in names
          and all(r.passed and r.instances >= 100 for r in results)
          and elapsed < 300.0 and figures == PRINTED[3])
    _line(3, "gradient-suite", ok, f"{figures} (tol 1e-05) in {elapsed:.0f}s")
    assert names == set(gradsuite.GENERATORS)
    for r in results:
        assert r.passed and r.instances >= 100, (r.op, r.max_rel_err)
    assert elapsed < 300.0
    assert figures == PRINTED[3]


# --- 4: cached inference is the training-path result, and stays honest --------

def test_04_frozen_cache_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(40)
    layer = operator.TVConvLayer.create(4, 7, 6, k=3, affinity_channels=3,
                                        depth=2, width=8, rng=rng)
    layer.gen.aff[:] = rng.standard_normal(layer.gen.aff.shape)
    inputs = [rng.standard_normal((4, 7, 6)) for _ in range(100)]
    eager = [operator.tvconv_apply(Tensor(x), layer.weights()).data
             for x in inputs]
    layer.freeze()
    frozen = [layer.infer_cached(Tensor(x)).data for x in inputs]
    identical = all(np.array_equal(a, b) for a, b in zip(eager, frozen))
    layer.gen.aff[0, 0, 0] += 1e-9
    stale_caught = False
    try:
        layer.infer_cached(Tensor(inputs[0]))
    except operator.StaleCacheError:
        stale_caught = True
    elapsed = time.perf_counter() - t0
    ok = identical and stale_caught and elapsed < 10.0
    _line(4, "frozen-cache-consistency", ok,
          f"100 inputs bit-identical={identical}, "
          f"stale mutation caught={stale_caught}, {elapsed:.1f}s")
    assert identical
    assert stale_caught
    assert elapsed < 10.0


# --- 5: storage arithmetic and the factorization payoff -----------------------

def test_05_parameter_arithmetic():
    rng = np.random.default_rng(50)
    for _ in range(20):
        c = int(rng.integers(1, 8))
        k = int(rng.choice([1, 3, 5]))
        h = int(rng.integers(1, 12))
        w = int(rng.integers(1, 12))
        c_a = int(rng.integers(1, 6))
        # element-count oracles: size of the actual arrays being stored
        naive = np.empty((c * k * k, h, w))
        basis = np.empty((c * k * k, c_a))
        coeff = np.empty((c_a, h * w))
        assert operator.param_count_naive(c, k, h, w) == naive.size
        assert (operator.param_count_factorized(c, k, h, w, c_a)
                == basis.size + coeff.size)
    ratio = operator.reduction_ratio(32, 3, 56, 56, 1)
    ok = abs(ratio - 288.0) <= 0.1 * 288.0
    _line(5, "parameter-arithmetic", ok,
          f"counts exact on 20 configs; 32ch 3x3 56x56 rank-1 reduction "
          f"{ratio:.1f}x vs c*k*k=288 ({abs(ratio - 288) / 288:.1%} off)")
    assert ok


# --- 6: steady-state MAC parity plus published-scale budgets -------------------

def test_06_mac_parity_and_budgets():
    t0 = time.perf_counter()
    specs = [costmodel.mobilenet_v2(wm) for wm in (1.0, 0.5, 0.3, 0.2, 0.1)]
    rng = np.random.default_rng(60)
    for _ in range(20):
        hw = int(rng.choice([8, 16, 32]))
        side = hw
        c_in, c, blocks = 3, int(rng.integers(4, 17)), []
        for i in range(int(rng.integers(1, 5))):
            kind = "plain" if i == 0 and rng.random() < 0.5 else "inverted-residual"
            stride = int(rng.choice([1, 2]))
            if side % stride or side // stride < 1:
                stride = 1
            side //= stride
            expand = 1 if kind == "plain" else int(rng.integers(1, 7))
            blocks.append(BlockSpec(kind, c_in, c, 3, stride, expand,
                                    "depthwise"))
            c_in, c = c, c + int(rng.integers(0, 9))
        specs.append(ArchSpec(float(rng.choice([0.25, 0.5, 1.0, 1.5])),
                              (3, hw, hw), tuple(blocks),
                              head_embed=int(rng.choice([0, 16])),
                              classes=int(rng.choice([0, 10]))))
    max_gap = 0
    for spec in specs:
        variants = []
        for op in ("depthwise", "tvconv"):
            blocks = tuple(
                bl if bl.kind == "plain" else replace(bl, op=op)
                for bl in spec.blocks)
            variants.append(costmodel.network_cost(replace(spec, blocks=blocks)))
        max_gap = max(max_gap,
                      abs(variants[0].total_macs - variants[1].total_macs))
    big = costmodel.network_cost(costmodel.mobilenet_v2(1.0)).total_macs
    small = costmodel.network_cost(costmodel.mobilenet_v2(0.1)).total_macs
    big_off = abs(big - 225.72e6) / 225.72e6
    small_off = abs(small - 22.47e6) / 22.47e6
    elapsed = time.perf_counter() - t0
    ok = (max_gap == 0 and big_off <= 0.10 and small_off <= 0.10
          and elapsed < 1.0)
    _line(6, "mac-parity-and-budgets", ok,
          f"parity exact on {len(specs)} archs; x1.0 {big / 1e6:.2f}M "
          f"({big_off:.1%} off 225.72M), x0.1 {small / 1e6:.2f}M "
          f"({small_off:.1%} off 22.47M), {elapsed:.2f}s")
    assert max_gap == 0
    assert big_off <= 0.10 and small_off <= 0.10
    assert elapsed < 1.0


# --- shared training sweeps for 7, 8, 10 --------------------------------------

@pytest.fixture(scope="module")
def sweeps():
    """Train matched-MAC operator pairs over 5 seeds, plain and augmented."""
    tv_spec = models.default_model_spec("tvconv")
    twin, mult = models.matched_depthwise_twin(tv_spec)
    assert mult == 1.0  # per-position application already costs one dw pass
    px = ablations.translation_pixels(0.4, tv_spec.h, tv_spec.w)
    out = {"twin_mult": mult, "px": px}
    for label, shift in (("zero", 0), ("shifted", px)):
        t0 = time.perf_counter()
        tv_acc, dw_acc = [], []
        for seed in range(5):
            ds = data.gen_layout_dataset(data.LayoutDatasetSpec(seed=seed))
            cfg = training.TrainConfig(seed=seed, augment_translate=shift)
            m_tv = models.LayoutModel.create(tv_spec, seed=seed)
            tv_acc.append(training.train(m_tv, ds, cfg).history[-1][2])
            m_dw = models.LayoutModel.create(twin, seed=seed)
            dw_acc.append(training.train(m_dw, ds, cfg).history[-1][2])
            if label == "zero" and seed == 0:
                out["tv_model"] = m_tv
        out[label] = {"tv": np.array(tv_acc), "dw": np.array(dw_acc),
                      "elapsed": time.perf_counter() - t0}
    return out


# --- 7: iso-compute accuracy on the layout task --------------------------------

def test_07_layout_accuracy_gap(sweeps):
    z = sweeps["zero"]
    gaps = z["tv"] - z["dw"]
    gap = float(gaps.mean())
    per_seed = np.array2string(gaps, precision=3)
    figures = f"mean gap {gap:+.4f} over 5 seeds (per-seed {per_seed})"
    ok = gap >= 0.05 and z["elapsed"] < 900.0 and figures == PRINTED[7]
    _line(7, "layout-accuracy-gap", ok,
          f"mean gap {gap:+.4f} over 5 seeds (need >= +0.05; per-seed "
          f"{per_seed}), {z['elapsed']:.0f}s")
    assert gap >= 0.05
    assert z["elapsed"] < 900.0
    assert figures == PRINTED[7]


# --- 8: the advantage should wash out under translation ------------------------

def test_08_translation_sensitivity(sweeps):
    zero_gap = float((sweeps["zero"]["tv"] - sweeps["zero"]["dw"]).mean())
    s = sweeps["shifted"]
    shifted_gap = float((s["tv"] - s["dw"]).mean())
    figures = f"gap {shifted_gap:+.4f} at +-{sweeps['px']}px vs {zero_gap:+.4f} plain"
    ok = shifted_gap <= 0.5 * zero_gap and s["elapsed"] < 1800.0 and figures == PRINTED[8]
    _line(8, "translation-sensitivity", ok,
          f"{figures} (need <= {0.5 * zero_gap:+.4f}), {s['elapsed']:.0f}s")
    assert shifted_gap <= 0.5 * zero_gap
    assert s["elapsed"] < 1800.0
    assert figures == PRINTED[8]


# --- 9: the task statistic that motivates position-dependent filters -----------

def test_09_variance_statistic():
    t0 = time.perf_counter()
    ds = data.gen_layout_dataset(data.LayoutDatasetSpec())
    stats = data.variance_stats(ds)
    ratio = stats["intra_image_var"] / stats["cross_image_var"]
    null_imgs = np.random.default_rng(90).normal(size=(400, 1, 32, 32))
    null_stats = data.variance_stats(null_imgs)
    null_ratio = null_stats["intra_image_var"] / null_stats["cross_image_var"]
    elapsed = time.perf_counter() - t0
    ok = ratio > 3.0 and abs(null_ratio - 1.0) <= 0.2 and elapsed < 5.0
    _line(9, "variance-statistic", ok,
          f"layout ratio {ratio:.2f} (need > 3), iid null {null_ratio:.3f} "
          f"(need within 20% of 1), {elapsed:.1f}s")
    assert ratio > 3.0
    assert abs(null_ratio - 1.0) <= 0.2
    assert elapsed < 5.0


# --- 10: training moves the maps from constant toward structure ----------------

def test_10_affinity_learning_signal(sweeps, tmp_path):
    trained = sweeps["tv_model"]
    fresh = models.LayoutModel.create(models.default_model_spec("tvconv"),
                                      seed=0)
    best_name, best_std = None, -1.0
    for name in trained.tv_layers:
        std = float(trained.params[f"{name}.aff"].std(axis=(1, 2)).max())
        if std > best_std:
            best_name, best_std = name, std
    init_std = max(float(fresh.params[f"{n}.aff"].std(axis=(1, 2)).max())
                   for n in fresh.tv_layers)
    # constant init means init_std is exactly 0; the floor keeps the 10x
    # comparison from passing on numerical dust
    grew = best_std > max(10.0 * init_std, 1e-3)
    written = operator.export_affinity(trained.params[f"{best_name}.aff"],
                                       tmp_path, basename="trained")
    pgm_varied = False
    for p in written:
        if p.suffix != ".pgm":
            continue
        payload = p.read_bytes().split(b"\n", 3)[3]
        if len(set(payload)) > 1:
            pgm_varied = True
    ok = grew and pgm_varied
    _line(10, "affinity-learning-signal", ok,
          f"{best_name} per-position std {best_std:.3f} vs {init_std:.0e} at "
          f"init (need >10x and >1e-3); non-uniform pgm={pgm_varied}")
    assert grew
    assert pgm_varied
