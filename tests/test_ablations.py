"""Ablation runners: aggregation, determinism, and degenerate-point checks.

All runs here use a miniature dataset and model so the whole file stays
fast; the runners' claims here are about aggregation and reproducibility,
not accuracy levels.
"""

import numpy as np
import pytest

from tvconv import ablations, data, models, operator, report, training


def tiny_ds(seed=0, **kw):
    return data.gen_layout_dataset(data.LayoutDatasetSpec(
        h=16, w=16, grid=4, classes=4, noise_std=0.02,
        n_train=32, n_test=16, seed=seed, **kw))


def tiny_spec(op="tvconv", **kw):
    stages = (models.StageSpec(4, 1, op, 2), models.StageSpec(8, 1, op, 2))
    return models.default_model_spec(
        op, h=16, w=16, classes=4, stem_channels=4, stages=stages,
        gen_width=4, **kw)


def tiny_cfg(**kw):
    kw.setdefault("epochs", 2)
    kw.setdefault("lr_drops", ())
    return training.TrainConfig(seed=0, **kw)


def direct_error(spec, ds, cfg, seed):
    from dataclasses import replace
    model = models.LayoutModel.create(spec, seed=seed)
    res = training.train(model, ds, replace(cfg, seed=seed))
    return 1.0 - res.history[-1][2]


# --- init ablation --------------------------------------------------------


def test_init_shape_and_ranges():
    res = ablations.run_ablation_init(tiny_ds(), tiny_cfg(), seeds=(0, 1),
                                      spec=tiny_spec())
    assert res.headers == ("init", "err_mean", "err_std")
    assert [r[0] for r in res.rows] == ["constant", "stats"]
    assert len(res.runs) == 4
    for _, mean, std in res.rows:
        assert 0.0 <= mean <= 1.0 and std >= 0.0


@pytest.mark.parametrize("runner", [
    ablations.run_ablation_init, ablations.run_ablation_generator,
    ablations.run_ablation_stage, ablations.run_ablation_affine])
def test_empty_seed_list_rejected(runner):
    with pytest.raises(ValueError, match="at least one seed"):
        runner(tiny_ds(), tiny_cfg(), seeds=(), spec=tiny_spec())


@pytest.mark.parametrize("runner, kw, named", [
    (ablations.run_ablation_init, {"seeds": (0, 1, 0)}, "seed '0'"),
    (ablations.run_ablation_stage, {"seeds": (1, 1)}, "seed '1'"),
    (ablations.run_ablation_generator,
     {"grid": ((1, 4, 2), (0, 4, 2), (1, 4, 2))}, "point 'L1.cB4.cA2'"),
    (ablations.run_ablation_affine,
     {"magnitudes": (0.1, 0.1)}, "point '0.1.tvconv'"),
], ids=["init_seed", "stage_seed", "generator_point", "affine_point"])
def test_repeat_refused_before_training(runner, kw, named, monkeypatch):
    # a repeated seed only repeats a run; a repeated point also collapses to
    # one key=value entry, so both are refused before anything trains
    monkeypatch.setattr(training, "train",
                        lambda *a, **k: pytest.fail("trained before refusing"))
    with pytest.raises(ValueError, match=f"{named} is repeated"):
        runner(tiny_ds(), tiny_cfg(), spec=tiny_spec(), **{"seeds": (0,), **kw})


def test_init_rerun_identical():
    a = ablations.run_ablation_init(tiny_ds(), tiny_cfg(), seeds=(0, 1),
                                    spec=tiny_spec())
    b = ablations.run_ablation_init(tiny_ds(), tiny_cfg(), seeds=(0, 1),
                                    spec=tiny_spec())
    assert a == b


def test_init_constant_row_matches_direct_training():
    ds, cfg, spec = tiny_ds(), tiny_cfg(), tiny_spec()
    res = ablations.run_ablation_init(ds, cfg, seeds=(0, 1), spec=spec)
    for label, seed, err in res.runs:
        if label == "constant":
            assert err == direct_error(spec, ds, cfg, seed)


def test_init_kv_roundtrip():
    res = ablations.run_ablation_init(tiny_ds(), tiny_cfg(), seeds=(0,),
                                      spec=tiny_spec())
    kv = res.kv()
    assert set(kv) == {"constant.err_mean", "constant.err_std",
                      "stats.err_mean", "stats.err_std"}
    assert report.parse_kv(report.format_kv(kv), "ablation") == kv


# --- generator ablation ----------------------------------------------------


def test_generator_grid_rows_and_determinism():
    ds, cfg = tiny_ds(), tiny_cfg()
    grid = ((1, 4, 2), (3, 4, 2), (4, 4, 2))
    res = ablations.run_ablation_generator(ds, cfg, grid=grid, seeds=(0,),
                                           spec=tiny_spec())
    assert [r[0] for r in res.rows] == ["L1.cB4.cA2", "L3.cB4.cA2", "L4.cB4.cA2"]
    assert all(np.isfinite(r[1]) for r in res.rows)
    again = ablations.run_ablation_generator(ds, cfg, grid=grid, seeds=(0,),
                                             spec=tiny_spec())
    assert res == again
    text = res.table()
    assert "err_mean" in text and "L3.cB4.cA2" in text


def test_generator_depth0_k1_is_the_factorized_model():
    spec = tiny_spec(gen_depth=0, gen_kernel=1)
    model = models.LayoutModel.create(spec, seed=3)
    fields = model.weight_fields()
    for i, (hw, name) in enumerate(((8, "s0.b0.tv"), (4, "s1.b0.tv"))):
        c = spec.stages[i].channels
        rows = c * spec.k * spec.k
        basis = model.params[f"{name}.out.w"].reshape(rows,
                                                      spec.affinity_channels)
        coeff = model.params[f"{name}.aff"].reshape(spec.affinity_channels,
                                                    hw * hw)
        fact = operator.factorized_weights(basis, coeff, c=c, k=spec.k,
                                           h=hw, w=hw)
        assert np.max(np.abs(fields[name] - fact)) < 1e-12
    # the same point runs end to end through the grid runner
    res = ablations.run_ablation_generator(
        tiny_ds(), tiny_cfg(), grid=((0, 4, 2),), seeds=(0,), spec=spec)
    assert res.rows[0][0] == "L0.cB4.cA2"


# --- stage ablation --------------------------------------------------------


def test_stage_subsets_enumeration():
    assert ablations.stage_subsets(2) == (
        ("none", ()), ("s0", (0,)), ("s1", (1,)), ("s0+s1", (0, 1)))


def test_stage_all_depthwise_row_equals_baseline():
    ds, cfg = tiny_ds(), tiny_cfg()
    spec = tiny_spec("depthwise")
    res = ablations.run_ablation_stage(ds, cfg, seeds=(0,), spec=spec)
    assert [r[0] for r in res.rows] == ["none", "s0", "s1", "s0+s1"]
    none_err = next(e for label, s, e in res.runs if label == "none")
    assert none_err == direct_error(spec, ds, cfg, 0)


# --- affine sensitivity ----------------------------------------------------


def test_translation_pixels():
    assert ablations.translation_pixels(0.4, 32, 32) == 13
    assert ablations.translation_pixels(0.0, 32, 32) == 0
    assert ablations.translation_pixels(0.25, 16, 16) == 4
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="translation magnitude"):
            ablations.translation_pixels(bad, 32, 32)


def test_magnitudes_that_round_alike_refused_before_training(monkeypatch):
    # at 16x16, 0.1 and 0.11 are both 2 px, so both rows would train the same runs
    monkeypatch.setattr(training, "train",
                        lambda *a, **k: pytest.fail("trained before refusing"))
    with pytest.raises(ValueError,
                       match=r"magnitudes 0\.1 and 0\.11 both round to 2 px at 16x16"):
        ablations.run_ablation_affine(tiny_ds(), tiny_cfg(), magnitudes=(0.0, 0.1, 0.11),
                                      seeds=(0,), spec=tiny_spec())


def test_affine_zero_magnitude_equals_unaugmented():
    ds, cfg = tiny_ds(), tiny_cfg()
    spec = tiny_spec("depthwise")
    res = ablations.run_ablation_affine(ds, cfg, magnitudes=(0.0, 0.25),
                                        seeds=(0,), spec=spec)
    assert res.rows[0][1] == 0 and res.rows[1][1] == 4
    tv_acc = next(a for label, s, a in res.runs if label == "0.0.tvconv")
    direct = 1.0 - direct_error(models.to_operator(spec, "tvconv"), ds, cfg, 0)
    assert tv_acc == direct
    kv = res.kv()
    assert "0.25.gap_mean" in kv
    assert report.parse_kv(report.format_kv(kv), "curves") == kv
