"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-tvconv --seed 0 --seconds 38 --trace 0

Run from the root of a checkout: the package is imported from `src/` next to
this directory, never from an installed copy. `--trace 0` measures the
end-to-end metrics; `--trace 1` installs the span wrappers of `spans.py` and
reports the per-layer metrics, plus the tracing overhead against an untraced
stretch of the same run. Metric names and units are those of
`BENCHMARK.json`; the run refuses to report a set that differs from it.

Stdout ends with one JSON line {"correct", "attempted", "failed", "metrics"}.
Above it are the provenance block and every figure under its own name with
its unit. The same, with the spans of a traced run, goes to
`.perfbench-out/<workload>-seed<n>-trace<t>.json` under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("train-tvconv", "train-depthwise", "serve-frozen")


def load_package() -> SimpleNamespace:
    if not (SRC / "tvconv" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC / 'tvconv'}")
    sys.path.insert(0, str(SRC))
    import tvconv
    from tvconv import autograd, costmodel, data, kernels, models, operator, tensor, training

    if not Path(tvconv.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: tvconv was imported from {tvconv.__file__}, not {SRC}")
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "tvconv" or name.startswith("tvconv.")]
    return SimpleNamespace(autograd=autograd, costmodel=costmodel, data=data,
                           kernels=kernels, models=models, operator=operator,
                           tensor=tensor, training=training, modules=modules)


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be found."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    files = sorted(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    lines = 0
    for p in files:
        raw = p.read_bytes()
        digest.update(str(p.relative_to(SRC)).encode() + b"\0" + raw)
        lines += raw.count(b"\n")
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20)
        out = top.stdout.split()
        if top.returncode == 0 and len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_loc": lines,
    }


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="tiny sizes, for the smoke test only")
    args = ap.parse_args(argv)

    # Single-threaded BLAS, set before numpy loads: the box has two cores
    # shared with other work, and one thread keeps run-to-run spread down.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    declared = declared_metrics(args.trace)
    pkg = load_package()
    import spans
    import workloads

    scale = workloads.TOY if args.toy else workloads.FULL
    tracer = instr = None
    if args.trace:
        tracer = spans.Tracer()
        instr = spans.Instrumentation(tracer, pkg).install()
    started = time.time()
    try:
        if args.workload == "serve-frozen":
            res = workloads.serve_workload(pkg, args.seed, args.seconds, scale, tracer)
        else:
            op = args.workload.split("-", 1)[1]
            res = workloads.train_workload(pkg, op, args.seed, args.seconds, scale, tracer)
    finally:
        if instr is not None:
            instr.restore()

    values = res.per_layer if args.trace else res.metrics
    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} differ "
                           "from BENCHMARK.json")
    if instr is not None and instr.missing:
        res.notes.append(f"not traced (no such name): {', '.join(instr.missing)}")
    result = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    prov = provenance()

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    t0 = res.spans[0][1] if res.spans else 0.0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "started_unix": started,
        "provenance": prov, "report": res.report, "notes": res.notes,
        "result": result,
        "span_fields": ["name", "start_s", "end_s", "parent", "unit", "macs", "bytes"],
        "spans": [[s[0], s[1] - t0, s[2] - t0] + s[3:] for s in res.spans],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}.json"
    (out_dir / name).write_text(json.dumps(record))

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(prov))
    for metric, value, unit in res.report:
        print(f"  {metric:<28} {value:>14.6g} {unit}")
    if args.trace:
        for metric in sorted(values):
            print(f"  {metric:<34} {values[metric]:>14.6g} {declared[metric]}")
    for note in res.notes:
        print(f"note: {note}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
