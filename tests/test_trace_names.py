"""The benchmark's span wrappers find every name they trace.

`perfbench/spans.py` wraps package functions and methods by name, and a name
it cannot find only becomes a "not traced" note in a benchmark run. This
installs those wrappers on the package as `perfbench/run.py` loads it and
requires that none is missing, so a renamed kernel or model method fails
here instead."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    run, spans = _load("run"), _load("spans")
    instr = spans.Instrumentation(spans.Tracer(), run.load_package()).install()
    try:
        assert instr.missing == []
    finally:
        instr.restore()
