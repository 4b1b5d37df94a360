"""Command-line interface: config plumbing, diagnostics, artifacts."""

import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tvconv
from tvconv import cli, data, models, report, training


def run_cli(args, capsys):
    code = cli.main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TINY_DATA = ["--set", "data.h=16", "--set", "data.w=16",
             "--set", "data.classes=4", "--set", "data.n_train=16",
             "--set", "data.n_test=8"]

TINY_TRAIN = ["--set", "model.stem=4", "--set", "model.stages=4:1:tvconv:2",
              "--set", "model.gen_width=4", "--set", "train.epochs=1",
              "--set", "train.drops="]


def write_arch(path):
    path.write_text("width=1.0\ninput=8x16x16\n"
                    "block inverted-residual cin=8 cout=8 k=3 stride=1 expand=1 "
                    "op=depthwise\n")


# --- count -------------------------------------------------------------------


def test_count_single_block_matches_hand_totals(tmp_path, capsys):
    arch_file = tmp_path / "arch.txt"
    write_arch(arch_file)
    code, out, err = run_cli(["count", arch_file, "--out", tmp_path], capsys)
    assert code == 0 and err == ""
    # depthwise 8*3*3*16*16 + pointwise 8*8*16*16, by hand
    assert "total_macs=34816" in out
    assert "total_params=136" in out
    assert (tmp_path / "count.txt").is_file()


def test_count_idempotent_bytes(tmp_path, capsys):
    arch_file = tmp_path / "arch.txt"
    write_arch(arch_file)
    assert run_cli(["count", arch_file, "--out", tmp_path], capsys)[0] == 0
    first = (tmp_path / "count.txt").read_bytes()
    assert run_cli(["count", arch_file, "--out", tmp_path], capsys)[0] == 0
    assert (tmp_path / "count.txt").read_bytes() == first


def test_count_verbose_prints_the_table(tmp_path, capsys):
    arch_file = tmp_path / "arch.txt"
    write_arch(arch_file)
    code, out, err = run_cli(["count", arch_file, "--out", tmp_path, "--verbose"],
                             capsys)
    assert code == 0 and err == ""
    table = (tmp_path / "count.txt").read_text().split("\n\n")[0]
    assert table and table in out


def test_count_prices_a_huge_generator_depth(tmp_path, capsys):
    # The generator's weights are summed in closed form; a list of
    # gen_depth + 2 channel counts once overflowed an index here.
    arch_file = tmp_path / "arch.txt"
    write_arch(arch_file)
    depth = 99999999999999999999
    arch_file.write_text(arch_file.read_text().replace("op=depthwise", "op=tvconv")
                         .replace("input=", f"gen_depth={depth}\ninput="))
    code, out, err = run_cli(["count", arch_file, "--out", tmp_path], capsys)
    assert code == 0 and err == ""
    # 64 * (4 affinity + (depth - 1) * 64 + 8 * 3 * 3 rows) * 3 * 3 taps * 16 * 16
    assert "one_time_generation_macs=943718399999999999992332288\n" in out


def test_count_missing_file_diagnostic(tmp_path, capsys):
    code, out, err = run_cli(["count", tmp_path / "nope.txt",
                              "--out", tmp_path], capsys)
    assert code == 1
    assert err.startswith("error:") and "nope.txt" in err
    assert err.count("\n") == 1


# --- gradcheck ---------------------------------------------------------------


def test_gradcheck_passes_and_reports_each_op(capsys):
    code, out, err = run_cli(["gradcheck", "--seed", 7, "--tol", "1e-5",
                              "--set", "instances=2"], capsys)
    assert code == 0 and err == ""
    lines = [l for l in out.splitlines() if l]
    assert all(l.startswith("pass ") for l in lines)
    names = {l.split()[1].rstrip(":") for l in lines}
    assert {"conv", "tvconv", "layer_norm", "tvconv_layer"} <= names


def test_gradcheck_unreachable_tolerance_fails(capsys):
    code, out, err = run_cli(["gradcheck", "--seed", 7, "--tol", "1e-14",
                              "--set", "instances=1"], capsys)
    assert code == 1
    assert "FAIL" in out and err.startswith("error:")


# --- synth -------------------------------------------------------------------


def test_synth_writes_loadable_dataset(tmp_path, capsys):
    code, out, err = run_cli(["synth", "--out", tmp_path, *TINY_DATA,
                              "--set", "seed=3"], capsys)
    assert code == 0 and err == ""
    ds = data.load_dataset(tmp_path / "dataset")
    direct = data.gen_layout_dataset(data.LayoutDatasetSpec(
        h=16, w=16, classes=4, n_train=16, n_test=8, seed=3))
    assert np.array_equal(ds.train_x, direct.train_x)
    assert np.array_equal(ds.test_y, direct.test_y)


def test_synth_idempotent_bytes(tmp_path, capsys):
    args = ["synth", "--out", tmp_path, *TINY_DATA]
    assert run_cli(args, capsys)[0] == 0
    first = (tmp_path / "dataset" / "images.tvt").read_bytes()
    assert run_cli(args, capsys)[0] == 0
    assert (tmp_path / "dataset" / "images.tvt").read_bytes() == first


def test_unknown_key_rejected_by_name(tmp_path, capsys):
    code, out, err = run_cli(["synth", "--out", tmp_path,
                              "--set", "data.bogus=1"], capsys)
    assert code == 1
    assert "data.bogus" in err and "synth" in err


def test_config_file_error_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    for text, what in [("seed=1\nnot a pair\n", "expected key=value"),
                       ("seed=1\n=2\n", "empty key"),
                       ("seed=1\nseed=2\n", "duplicate key 'seed'")]:
        cfg.write_text(text)
        code, out, err = run_cli(["synth", "--config", cfg, "--out", tmp_path],
                                 capsys)
        assert code == 1
        assert err.startswith(f"error: {cfg}:2: {what}") and err.count("\n") == 1


def test_override_beats_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# tiny layout dataset\ndata.h=16\ndata.w=16\n"
                   "data.classes=4\ndata.n_train=16\ndata.n_test=8\n"
                   "data.noise_std=0.05\n")
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run_cli(["synth", "--config", cfg, "--out", a], capsys)[0] == 0
    assert run_cli(["synth", "--config", cfg, "--out", b,
                    "--set", "data.noise_std=0.0"], capsys)[0] == 0
    assert run_cli(["synth", "--out", c, *TINY_DATA,
                    "--set", "data.noise_std=0.0"], capsys)[0] == 0
    noisy = (a / "dataset" / "images.tvt").read_bytes()
    override = (b / "dataset" / "images.tvt").read_bytes()
    direct = (c / "dataset" / "images.tvt").read_bytes()
    assert override == direct and override != noisy


# --- config keys ----------------------------------------------------------------

DATA_KEYS = {"data.h", "data.w", "data.grid", "data.classes", "data.channels",
             "data.bg_amplitude", "data.noise_std", "data.n_train", "data.n_test"}
MODEL_KEYS = {"model.stem", "model.stages", "model.k", "model.affinity_channels",
              "model.gen_depth", "model.gen_width", "model.gen_kernel",
              "model.affinity_init"}
TRAIN_KEYS = {"train.lr", "train.momentum", "train.weight_decay",
              "train.decay_affinity", "train.epochs", "train.batch",
              "train.drops", "train.augment_translate"}
RUN_KEYS = ({"seed", "data.path", "model.operator"}
            | DATA_KEYS | MODEL_KEYS | TRAIN_KEYS)


def test_known_keys_per_command():
    assert cli.KNOWN_KEYS == {
        "synth": {"seed"} | DATA_KEYS,
        "train": RUN_KEYS,
        "eval": {"checkpoint", "data.path"},
        "count": {"arch"},
        "gradcheck": {"seed", "tol", "instances"},
        "export-affinity": {"checkpoint"},
        "ablate": RUN_KEYS | {"name", "seeds", "grid", "magnitudes"},
    }


# key, value, (spec the key sets, field), the field's value afterwards
SET_VALUES = [
    ("data.h", "16", ("data", "h"), 16),
    ("data.w", "16", ("data", "w"), 16),
    ("data.grid", "2", ("data", "grid"), 2),
    ("data.classes", "4", ("data", "classes"), 4),
    ("data.channels", "2", ("data", "channels"), 2),
    ("data.bg_amplitude", "0.5", ("data", "bg_amplitude"), 0.5),
    ("data.noise_std", "0.1", ("data", "noise_std"), 0.1),
    ("data.n_train", "8", ("data", "n_train"), 8),
    ("data.n_test", "4", ("data", "n_test"), 4),
    ("model.stem", "4", ("model", "stem_channels"), 4),
    ("model.stages", "4:1:tvconv:2", ("model", "stages"),
     (models.StageSpec(4, 1, "tvconv", 2),)),
    ("model.k", "5", ("model", "k"), 5),
    ("model.affinity_channels", "3", ("model", "affinity_channels"), 3),
    ("model.gen_depth", "2", ("model", "gen_depth"), 2),
    ("model.gen_width", "4", ("model", "gen_width"), 4),
    ("model.gen_kernel", "1", ("model", "gen_kernel"), 1),
    ("model.affinity_init", "stats", ("model", "affinity_init"), "stats"),
    ("train.lr", "0.01", ("train", "lr"), 0.01),
    ("train.momentum", "0.5", ("train", "momentum"), 0.5),
    ("train.weight_decay", "0.001", ("train", "weight_decay"), 0.001),
    ("train.decay_affinity", "TRUE", ("train", "decay_affinity"), True),
    ("train.epochs", "2", ("train", "epochs"), 2),
    ("train.batch", "8", ("train", "batch_size"), 8),
    ("train.drops", "1:2;3:4", ("train", "lr_drops"), ((1, 2.0), (3, 4.0))),
    ("train.augment_translate", "1", ("train", "augment_translate"), 1),
]


def test_set_values_cover_every_section_key():
    assert {key for key, *_ in SET_VALUES} == DATA_KEYS | MODEL_KEYS | TRAIN_KEYS


def run_train_spy(args, tmp_path, monkeypatch):
    """Run `train` with training.train replaced by a spy; return the specs it
    was called with."""
    seen = {}

    def spy(model, ds, cfg):
        seen.update(data=ds.spec, model=model.spec, train=cfg)
        return training.TrainResult([(0, 0.0, 0.0)])

    monkeypatch.setattr(training, "train", spy)
    assert cli.main([str(a) for a in ["train", "--out", tmp_path, *args]]) == 0
    return seen


@pytest.mark.parametrize("key, value, target, want", SET_VALUES,
                         ids=[row[0] for row in SET_VALUES])
def test_set_reaches_spec_field(key, value, target, want, tmp_path,
                                monkeypatch, capsys):
    section, field = target
    default = getattr(run_train_spy([], tmp_path, monkeypatch)[section], field)
    seen = run_train_spy(["--set", f"{key}={value}"], tmp_path, monkeypatch)
    assert default != want
    assert getattr(seen[section], field) == want


def test_seed_and_operator_reach_every_spec(tmp_path, monkeypatch, capsys):
    seen = run_train_spy(["--set", "seed=5", "--set", "model.operator=depthwise",
                          "--set", "data.channels=2", "--set", "data.classes=4"],
                         tmp_path, monkeypatch)
    assert seen["data"].seed == 5 and seen["train"].seed == 5
    assert {st.operator for st in seen["model"].stages} == {"depthwise"}
    assert (seen["model"].in_channels, seen["model"].classes) == (2, 4)


def test_spec_from_kv_reads_false_bool():
    cfg = training.TrainConfig()
    back = report.spec_from_kv(training.TrainConfig, report.spec_kv(cfg), "t",
                               lr_drops=lambda text: cfg.lr_drops)
    assert back.decay_affinity is False and back == cfg


@pytest.mark.parametrize("args, names", [
    (["synth", "--set", "data.grid=0"], "grid"),
    (["synth", "--set", "data.classes=0"], "classes"),
    (["train", *TINY_DATA, "--set", "model.stages=8:1:depthwise:0"], "stride"),
    (["train", *TINY_DATA, "--set", "model.stages=8:-1:depthwise:2"],
     "stage 0: blocks must be >= 0"),
    (["train", *TINY_DATA, "--set", "model.affinity_channels=0"],
     "affinity_channels"),
    (["train", *TINY_DATA, "--set", "model.operator=depthwise",
      "--set", "model.k=4"], "k must be odd"),
    (["train", *TINY_DATA, "--set", "model.gen_depth=-1"], "gen_depth"),
    (["train", *TINY_DATA, "--set", "model.stem=0"], "stem_channels"),
    (["train", *TINY_DATA, "--set", "model.operator=depthwise",
      "--set", "model.stages=4:1:tvconv:2"],
     "model.operator: 'depthwise' disagrees with key model.stages"),
    (["train", *TINY_DATA, "--set", "train.epochs=0"], "train.epochs"),
    (["train", *TINY_DATA, "--set", "train.decay_affinity=yes"],
     "train.decay_affinity"),
    (["gradcheck", "--set", "instances=0"], "instances"),
    (["gradcheck", "--set", "tol=nan"], "tol must be finite and > 0, got nan"),
    (["gradcheck", "--tol", "0"], "tol must be finite and > 0, got 0"),
    (["ablate", "init", *TINY_DATA, "--set", "seeds="], "seed"),
    (["ablate", "generator", *TINY_DATA, "--set", "grid=1,8"], "grid"),
    (["ablate", "affine", *TINY_DATA, "--set", "magnitudes=inf"],
     "translation magnitude"),
    (["ablate", "affine", *TINY_DATA, "--set", "magnitudes=nan"],
     "translation magnitude"),
    (["ablate", "init", *TINY_DATA, "--set", "seeds=0,1,0"], "seed '0' is repeated"),
    (["ablate", "generator", *TINY_DATA, "--set", "grid=1,4,2;1,4,2"],
     "sweep point 'L1.cB4.cA2' is repeated"),
    (["ablate", "affine", *TINY_DATA, "--set", "magnitudes=0.1,0.1"],
     "sweep point '0.1.tvconv' is repeated"),
    (["synth", "--set", "data.noise_std=nan"], "noise_std must be finite"),
    (["synth", "--set", "data.bg_amplitude=nan"], "bg_amplitude must be finite"),
    (["train", *TINY_DATA, "--set", "train.lr=nan"], "lr must be finite"),
    (["train", *TINY_DATA, "--set", "train.lr=inf"], "lr must be finite"),
    (["train", *TINY_DATA, "--set", "train.weight_decay=-1"], "weight_decay"),
    (["train", *TINY_DATA, "--set", "train.weight_decay=nan"], "weight_decay"),
    (["train", *TINY_DATA, "--set", "train.drops=20:nan"], "lr_drops divisor"),
    (["train", *TINY_DATA, "--set", "train.drops=20:inf"], "lr_drops divisor"),
    (["train", *TINY_DATA, *TINY_TRAIN, "--set", "train.batch=4",
      "--set", "train.lr=1e300"], "loss is not finite"),
    (["synth", "--config", "no-such-config.txt"],
     "config file not found: no-such-config.txt"),
    (["synth", "--set", "data.h"], "--set:1: expected KEY=VALUE, got 'data.h'"),
    (["synth", "--set", "=16"], "--set:1: empty key in '=16'"),
    (["train", "--set", "data.path=no-such-dataset"],
     "dataset directory not found: no-such-dataset"),
    (["eval", "--data", "no-such-dataset"], "eval needs a checkpoint"),
    (["eval", "--checkpoint", "no-such-checkpoint"], "eval needs a dataset"),
    (["export-affinity"], "export-affinity needs a checkpoint"),
    (["export-affinity", "--checkpoint", "no-such-checkpoint"],
     "checkpoint directory not found: no-such-checkpoint"),
], ids=["grid", "classes", "stride", "blocks", "affinity_channels", "even_k",
        "gen_depth", "stem", "operator_vs_stages", "epochs", "bool", "instances",
        "tol_nan", "tol_zero", "seeds", "grid3",
        "magnitude_inf", "magnitude_nan", "seed_repeated", "grid_repeated",
        "magnitude_repeated", "noise_nan", "bg_nan", "lr_nan", "lr_inf", "wd_negative",
        "wd_nan", "drop_nan", "drop_inf", "diverges", "config_missing",
        "set_without_equals", "set_empty_key", "dataset_missing", "eval_no_checkpoint",
        "eval_no_data", "export_no_checkpoint", "export_checkpoint_missing"])
def test_bad_value_is_one_error_line(args, names, tmp_path, capsys):
    code, out, err = run_cli([*args, "--out", tmp_path], capsys)
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert names in err


def test_count_bad_block_is_one_error_line(tmp_path, capsys):
    arch_file = tmp_path / "arch.txt"
    write_arch(arch_file)
    arch_file.write_text(arch_file.read_text().replace("stride=1", "stride=0"))
    code, out, err = run_cli(["count", arch_file, "--out", tmp_path], capsys)
    assert code == 1 and out == ""
    assert err == ("error: block 1 (b1.inverted-residual): stride must be >= 1, "
                   "got 0\n")


def test_count_infinite_width_is_one_error_line(tmp_path, capsys):
    # round8 used to raise OverflowError on an infinite scaled channel count
    arch_file = tmp_path / "arch.txt"
    write_arch(arch_file)
    arch_file.write_text(arch_file.read_text().replace("width=1.0", "width=inf"))
    code, out, err = run_cli(["count", arch_file, "--out", tmp_path], capsys)
    assert code == 1 and out == ""
    assert err == "error: width must be finite after scaling, got inf\n"


# --- train / eval / export ----------------------------------------------------


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_train")
    code = cli.main([str(a) for a in
                     ["synth", "--out", tmp, *TINY_DATA]])
    assert code == 0
    code = cli.main([str(a) for a in
                     ["train", "--out", tmp, *TINY_TRAIN,
                      "--set", f"data.path={tmp / 'dataset'}"]])
    assert code == 0
    return tmp


def test_train_writes_model_and_history(trained):
    assert (trained / "model" / "model.txt").is_file()
    hist = (trained / "history.txt").read_text()
    assert "test_acc" in hist and "epoch" in hist


def test_eval_matches_frozen_accuracy(trained, tmp_path, capsys):
    code, out, err = run_cli(
        ["eval", "--checkpoint", trained / "model",
         "--data", trained / "dataset", "--out", tmp_path], capsys)
    assert code == 0 and err == ""
    model = models.load_model(trained / "model").freeze()
    ds = data.load_dataset(trained / "dataset")
    from tvconv import training
    want = training.evaluate(model, ds.test_x, ds.test_y)
    assert f"test_accuracy={want:.6f}" in (tmp_path / "eval.txt").read_text()


def test_export_affinity_trained_checkpoint(trained, tmp_path, capsys):
    code, out, err = run_cli(
        ["export-affinity", "--checkpoint", trained / "model",
         "--out", tmp_path], capsys)
    assert code == 0 and err == ""
    pgms = sorted(tmp_path.glob("*.pgm"))
    assert pgms and (tmp_path / "s0_b0_tv.tvt").is_file()


def test_export_affinity_fresh_model_is_midgray(tmp_path, capsys):
    spec = models.default_model_spec(
        "tvconv", h=16, w=16, classes=4, stem_channels=4,
        stages=(models.StageSpec(4, 1, "tvconv", 2),), gen_width=4)
    models.save_model(models.LayoutModel.create(spec, seed=0),
                      tmp_path / "fresh")
    out = tmp_path / "maps"
    code, _, err = run_cli(
        ["export-affinity", "--checkpoint", tmp_path / "fresh",
         "--out", out], capsys)
    assert code == 0 and err == ""
    pgms = sorted(out.glob("*.pgm"))
    assert len(pgms) == spec.affinity_channels
    for p in pgms:
        blob = p.read_bytes()
        header, pixels = blob.split(b"\n255\n", 1)
        assert header.startswith(b"P5")
        assert set(pixels) == {128}


def test_export_affinity_depthwise_checkpoint_refused(tmp_path, capsys):
    spec = models.default_model_spec("depthwise", h=16, w=16, classes=4,
                                     stem_channels=4,
                                     stages=(models.StageSpec(4, 1, "depthwise", 2),))
    models.save_model(models.LayoutModel.create(spec, seed=0), tmp_path / "dw")
    code, out, err = run_cli(["export-affinity", "--checkpoint", tmp_path / "dw",
                              "--out", tmp_path / "maps"], capsys)
    assert code == 1 and out == ""
    assert err == "error: checkpoint has no per-position stages to export\n"


def test_train_verbose_prints_each_epoch(tmp_path, capsys):
    code, out, err = run_cli(["train", "--out", tmp_path, *TINY_DATA, *TINY_TRAIN,
                              "--set", "train.epochs=2", "--verbose"], capsys)
    assert code == 0 and err == ""
    printed = [line for line in out.splitlines() if line.startswith("epoch ")]
    rows = [row.split() for row in
            (tmp_path / "history.txt").read_text().splitlines()[2:] if row]
    assert printed == [f"epoch {e} loss {l} acc {a}" for e, l, a in rows]
    assert len(printed) == 2


def test_eval_missing_checkpoint_diagnostic(tmp_path, capsys):
    code, out, err = run_cli(
        ["eval", "--checkpoint", tmp_path / "none",
         "--data", tmp_path / "none", "--out", tmp_path], capsys)
    assert code == 1 and "not found" in err


def test_eval_checkpoint_missing_key_diagnostic(trained, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    models.save_model(models.load_model(trained / "model"), ckpt)
    manifest = ckpt / "model.txt"
    manifest.write_text("".join(
        line for line in manifest.read_text().splitlines(keepends=True)
        if not line.startswith("gen_width=")))
    code, out, err = run_cli(
        ["eval", "--checkpoint", ckpt, "--data", trained / "dataset",
         "--out", tmp_path], capsys)
    assert code == 1
    assert err.splitlines() == [
        f"error: {ckpt / 'model.txt'}: missing key 'gen_width'"]


# --- ablate -------------------------------------------------------------------


def test_ablate_init_writes_report(tmp_path, capsys):
    code, out, err = run_cli(
        ["ablate", "init", "--out", tmp_path, *TINY_DATA, *TINY_TRAIN,
         "--set", "seeds=0"], capsys)
    assert code == 0 and err == ""
    text = (tmp_path / "ablation_init.txt").read_text()
    assert "constant" in text and "stats" in text and "err_mean" in text


@pytest.mark.parametrize("args, labels", [
    (["generator", "--set", "grid=1,4,2;0,4,2"], ["L1.cB4.cA2", "L0.cB4.cA2"]),
    (["stage"], ["none", "s0"]),
    (["affine", "--set", "magnitudes=0.0,0.25"], ["0.0", "0.25"]),
], ids=["generator", "stage", "affine"])
def test_ablate_writes_its_sweep_points(args, labels, tmp_path, capsys):
    # a sweep key that never reaches its runner would write the default points
    code, out, err = run_cli(
        ["ablate", *args, "--out", tmp_path, *TINY_DATA, *TINY_TRAIN,
         "--set", "train.epochs=2", "--set", "seeds=0"], capsys)
    assert code == 0 and err == ""
    table, kv = (tmp_path / f"ablation_{args[0]}.txt").read_text().split("\n\n")
    assert [line.split()[0] for line in table.splitlines()[2:]] == labels
    keys = report.parse_kv(kv, "ablation")
    assert list(dict.fromkeys(k.rpartition(".")[0] for k in keys)) == labels


@pytest.mark.parametrize("name, key, owner", [
    ("init", "grid", "generator"),
    ("init", "magnitudes", "affine"),
    ("generator", "magnitudes", "affine"),
    ("affine", "grid", "generator"),
], ids=["init_grid", "init_magnitudes", "generator_magnitudes", "affine_grid"])
def test_ablate_refuses_another_ablations_sweep_key(name, key, owner, tmp_path,
                                                     capsys, monkeypatch):
    # such a key used to be dropped without a word; it is refused before
    # any data is generated
    monkeypatch.setattr(data, "gen_layout_dataset",
                        lambda *a, **k: pytest.fail("generated data before refusing"))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(["ablate", name, "--out", out_dir, *TINY_DATA,
                              "--set", f"{key}=0.1"], capsys)
    assert code == 1 and out == ""
    assert err == f"error: key {key}: only the {owner} ablation reads it, not {name}\n"
    assert not out_dir.exists()


def test_ablate_unknown_name_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["ablate", "bogus", "--out", str(tmp_path)])


# --- packaging ----------------------------------------------------------------


def run_module(args, cwd, address_space=None):
    """`python -m tvconv` in a child that imports the tree under test, not an
    installed copy; `address_space` bytes, when given, cap its RLIMIT_AS."""
    src = str(Path(tvconv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))

    def limit():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-m", "tvconv", *map(str, args)],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          preexec_fn=None if address_space is None else limit)


def test_console_script_runs(tmp_path):
    # `python -m tvconv` makes the same call as the installed `tvconv` wrapper
    arch_file = tmp_path / "arch.txt"
    write_arch(arch_file)
    proc = run_module(["count", arch_file, "--out", tmp_path], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "total_macs=34816" in proc.stdout


def test_diverging_run_prints_only_its_error(tmp_path):
    # numpy's floating-point warnings reach a real stderr, which pytest's
    # in-process capture would hide, so the run goes through a child process
    proc = run_module(["train", *TINY_DATA, *TINY_TRAIN, "--set", "train.batch=4",
                       "--set", "train.lr=1e300", "--out", tmp_path], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == "error: loss is not finite (nan) at epoch 0, batch 1\n"


def test_run_that_overflows_on_its_last_step_saves_nothing(tmp_path):
    # One step at lr 1e300 leaves finite parameters near 1e299 that overflow
    # the evaluation: no accuracy read off nan logits, no model written.
    proc = run_module(["train", *TINY_DATA, *TINY_TRAIN, "--set", "data.n_train=4",
                       "--set", "train.batch=4", "--set", "train.lr=1e300",
                       "--out", tmp_path], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == "error: image 0 has non-finite logits (the model overflows)\n"
    assert not (tmp_path / "model").exists()


@pytest.mark.parametrize("args, named", [
    (["train", "--set", "model.gen_width=1000000"], "model.gen_width=1000000"),
    (["ablate", "init", "--set", "seeds=0", "--set", "model.gen_width=1000000"],
     "model.gen_width=1000000"),
    (["synth", "--set", "data.n_train=10000000000"], "data.n_train=10000000000"),
])
def test_allocation_too_large_is_one_error_line(args, named, tmp_path):
    # Each asks numpy for several GiB or more; the child's 1 GiB address
    # space makes sure no such request can reach the host's memory.
    proc = run_module([*args, "--out", tmp_path], tmp_path, address_space=1 << 30)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: out of memory with {named}: Unable to allocate ")
    assert proc.stderr.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, refusal", [
    (["train", "--set", "model.k=99999"],
     "block 1 (stem): k must be <= 63 on a 32x32 map, got 99999"),
    (["ablate", "init", "--set", "seeds=0", "--set", "model.gen_kernel=99999"],
     "block 3 (s0.b0): gen_kernel must be <= 31 on a 16x16 map, got 99999"),
], ids=["k", "gen_kernel"])
def test_kernel_wider_than_its_map_is_refused_by_name(args, refusal, tmp_path):
    # Past 2*min(h, w) - 1 every added tap reads only padding, so the size is
    # refused before anything is allocated; the 1 GiB cap guards the host.
    proc = run_module([*args, "--out", tmp_path], tmp_path, address_space=1 << 30)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {refusal}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("line", ["k=99999", "gen_kernel=99999", "gen_width=1000000"])
def test_eval_on_a_manifest_asking_too_much_is_one_error_line(line, trained, tmp_path):
    # The model is built from the manifest's spec before any file is read:
    # the first two are refused by size, the last runs out of the child's 1 GiB.
    ckpt = tmp_path / "ckpt"
    shutil.copytree(trained / "model", ckpt)
    manifest = ckpt / "model.txt"
    key = line.partition("=")[0]
    manifest.write_text("".join(
        f"{line}\n" if old.startswith(f"{key}=") else old
        for old in manifest.read_text().splitlines(keepends=True)))
    proc = run_module(["eval", "--checkpoint", ckpt, "--data", trained / "dataset",
                       "--out", tmp_path / "out"], tmp_path, address_space=1 << 30)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {manifest}: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["eval", "train"])
def test_textless_memory_error_is_named(command, trained, tmp_path, capsys,
                                        monkeypatch):
    # A Python list's MemoryError carries no text; its line once ended in ": ".
    def refuse(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(models.LayoutModel, "create", refuse)
    args = {"eval": ["--checkpoint", trained / "model", "--data", trained / "dataset"],
            "train": [*TINY_DATA, *TINY_TRAIN]}[command]
    code, out, err = run_cli([command, *args, "--out", tmp_path], capsys)
    assert code == 1
    assert err == {
        "eval": f"error: {trained / 'model' / 'model.txt'}: out of memory\n",
        "train": "error: out of memory with model.gen_width=4, "
                 "model.stages=4:1:tvconv:2, model.stem=4\n"}[command]


def test_console_script_target_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["tvconv"]
    assert target == "tvconv.cli:main"
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
