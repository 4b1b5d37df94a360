"""Command-line interface: config plumbing, diagnostics, artifacts."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tvconv
from tvconv import cli, costmodel, data, models, report, training


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
    arch = costmodel.ArchSpec(
        width=1.0, input_shape=(8, 16, 16),
        blocks=(costmodel.BlockSpec("inverted-residual", 8, 8, 3, 1, 1,
                                    "depthwise"),))
    costmodel.save_arch(arch, path)
    return arch


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
    assert {"relu", "conv", "tvconv", "layer_norm", "tvconv_layer"} <= names


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
    cfg.write_text("seed=1\nnot a pair\n")
    code, out, err = run_cli(["synth", "--config", cfg, "--out", tmp_path],
                             capsys)
    assert code == 1
    assert f"{cfg}:2" in err


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
        "gradcheck": {"seed", "tol", "eps", "instances"},
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
        return training.TrainResult([(0, 0.0, 0.0)], model)

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
    (["gradcheck", "--set", "eps=0"], "eps"),
    (["ablate", "init", *TINY_DATA, "--set", "seeds="], "seed"),
    (["ablate", "generator", *TINY_DATA, "--set", "grid=1,8"], "grid"),
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
], ids=["grid", "classes", "stride", "blocks", "affinity_channels", "even_k",
        "gen_depth", "stem", "operator_vs_stages", "epochs", "bool", "instances",
        "eps", "seeds", "grid3", "noise_nan", "bg_nan", "lr_nan", "lr_inf",
        "wd_negative", "wd_nan", "drop_nan", "drop_inf", "diverges"])
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


def test_ablate_unknown_name_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["ablate", "bogus", "--out", str(tmp_path)])


# --- packaging ----------------------------------------------------------------


def run_module(args, cwd):
    """`python -m tvconv` in a child that imports the tree under test, not an
    installed copy."""
    src = str(Path(tvconv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "tvconv", *map(str, args)],
                          capture_output=True, text=True, env=env, cwd=cwd)


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


def test_console_script_target_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["tvconv"]
    assert target == "tvconv.cli:main"
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
