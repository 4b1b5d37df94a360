"""Command-line interface: config plumbing, diagnostics, artifacts."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tvconv
from tvconv import cli, costmodel, data, models


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


def test_console_script_runs(tmp_path):
    # `python -m tvconv` makes the same call as the installed `tvconv`
    # wrapper; the child imports the tree under test, not an installed copy.
    arch_file = tmp_path / "arch.txt"
    write_arch(arch_file)
    src = str(Path(tvconv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tvconv", "count", str(arch_file),
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "total_macs=34816" in proc.stdout


def test_console_script_target_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["tvconv"]
    assert target == "tvconv.cli:main"
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
