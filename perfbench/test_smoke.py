"""Toy-size smoke test of the benchmark.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload for one second at toy training sizes, traced and
untraced, in a subprocess each, and checks that the result line carries
exactly the metrics of BENCHMARK.json with their units, that the figures the
benchmark prints by name are all there with their units, that every output
check and both MAC cross-checks pass, and that the runner refuses to report
anything when the package sources are missing.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

TRAIN_FIGURES = [("setup_s", "s"), ("epoch_s", "s"), ("test_acc", "fraction"),
                 ("peak_rss_mb", "MB"), ("fail_ratio", "ratio")]
SERVE_FIGURES = [("setup_s", "s"), ("b1_p50_ms", "ms"), ("b1_p90_ms", "ms"),
                 ("b128_img_per_s", "1/s"), ("layer56_p50_ms", "ms"),
                 ("layer56_p90_ms", "ms"), ("freeze_ms", "ms"),
                 ("peak_rss_mb", "MB"), ("fail_ratio", "ratio")]
PROVENANCE = {"python", "numpy", "blas", "blas_threads", "nproc", "git_commit",
              "src_sha256", "src_loc"}


def run(workload, trace, cwd=ROOT, runner=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_and_units(workload, trace):
    out = run(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    values = {name: m["value"] for name, m in res["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())

    text = out.stdout
    figures = TRAIN_FIGURES if workload.startswith("train") else SERVE_FIGURES
    for name, unit in figures:
        assert re.search(rf"^\s+{name}\s+\S+ {re.escape(unit)}$", text, re.M), name
    assert re.search(r"^\s+fail_ratio\s+0 ratio$", text, re.M)
    prov = json.loads(next(l for l in lines if l.startswith("provenance "))[11:])
    assert PROVENANCE <= set(prov)

    if trace:
        assert values["trace.mac_mismatch"] == 0
        if workload == "serve-frozen":
            assert "MAC cross-checks: exact" in text
            assert values["kernels.tvconv_over_dwconv"] > 0
            assert values["operator.fingerprint.mb"] > 0
        else:
            assert values["kernels.conv_dx.calls"] > 0
            assert values["autograd.tape_nodes"] > 0
        if workload == "train-tvconv":
            assert values["models.field.ms"] > 0 and values["kernels.dwconv.calls"] == 0
        if workload == "train-depthwise":
            assert values["models.field.ms"] == 0 and values["kernels.tvconv.calls"] == 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = run(WORKLOADS[0], 0, cwd=tmp_path, runner=tmp_path / HERE.name / "run.py")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
