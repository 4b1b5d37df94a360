"""Seeded reader fuzz: a mutated input file ends every command in exit 0 or
in exactly one `error:` line, never in a traceback.

Each case mutates one file and runs `cli.main` on it:
  - an arch file, through `count`;
  - a dataset's `meta.txt`, `labels.txt` or `images.tvt`, through `eval`;
  - a checkpoint's `model.txt` or one of its param `.tvt` files, through
    `eval` and `export-affinity`.
A text file loses, repeats or truncates a line, or has one value swapped
for a hostile token; a binary file has a bit flipped, is truncated, or has a
header byte overwritten.

`model.txt` gets line edits but no value swaps. A manifest asking for huge
stage or generator depths is refused only after it fills the address space,
which took 5-18 s per case under a 384 MiB to 1 GiB cap;
`test_cli.py::test_eval_on_a_manifest_asking_too_much_is_one_error_line`
covers that refusal.

All cases run in one child process under a 1 GiB `RLIMIT_AS`, so a reader
that asks for too much cannot take the host's memory. The child is this
file run as a script: `python tests/test_reader_fuzz.py DIR SEED CASES`
prints a JSON list of the cases that broke the rule.
"""

import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import tvconv
from tvconv import cli

CASES = 240

HOSTILE = ("", "0", "-1", "2", "0.5", "-0.0", "1e309", "inf", "nan", "abc",
           "99999999999999999999", "-99999999999999999999", "9" * 5000,
           "1x1x1", "tvconv", "=")

ARCH = ("width=1.0\ninput=4x16x16\ngen_depth=1\ngen_width=4\n"
        "block plain cin=4 cout=8 k=3 stride=2 expand=1 op=depthwise\n"
        "block inverted-residual cin=8 cout=8 k=3 stride=1 expand=2 op=tvconv\n")


def _mutate_text(raw: bytes, rng: np.random.Generator, swap: bool) -> tuple[bytes, str]:
    lines = raw.decode().splitlines(keepends=True)
    i = int(rng.integers(len(lines)))
    how = str(rng.choice(["delete", "duplicate", "truncate", "swap"][:4 if swap else 3]))
    if how == "delete":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "truncate":
        lines[i] = lines[i][:int(rng.integers(len(lines[i])))]
    else:   # one key=value token gets a hostile value; a bare line is replaced
        tokens = lines[i].split()
        j = int(rng.integers(len(tokens)))
        key, eq, _ = tokens[j].partition("=")
        value = HOSTILE[int(rng.integers(len(HOSTILE)))]
        tokens[j] = f"{key}={value}" if eq else value
        lines[i] = " ".join(tokens) + "\n"
        how = f"swap {value[:24]!r} into"
    return "".join(lines).encode(), f"{how} line {i + 1}"


def _mutate_binary(raw: bytes, rng: np.random.Generator) -> tuple[bytes, str]:
    out = bytearray(raw)
    how = str(rng.choice(["flip", "truncate", "header"]))
    if how == "flip":
        i = int(rng.integers(len(out)))
        out[i] ^= 1 << int(rng.integers(8))
    elif how == "truncate":
        i = int(rng.integers(len(out)))
        del out[i:]
    else:   # magic, dtype code, ndim and the u32 dims
        i = int(rng.integers(10 + 4 * out[9]))
        out[i] = int(rng.integers(256))
    return bytes(out), f"{how} byte {i}"


def _run(args: list[str]) -> str | None:
    """Run one command; describe how it broke the rule, or return None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(args)
    except Exception as e:   # the escape this test looks for
        return f"raised {type(e).__name__}: {str(e)[:200]}"
    lines = err.getvalue().splitlines()
    if code == 0 and not lines:
        return None
    if (code == 1 and len(lines) == 1 and lines[0].startswith("error: ")
            and lines[0].rpartition(": ")[2].strip()):
        return None
    return f"exit {code}, stderr {err.getvalue()[:300]!r}"


def fuzz(root: Path, seed: int, cases: int) -> list[str]:
    """Build a tiny arch file, dataset and checkpoint under `root`, then run
    `cases` seeded mutations of them; return one line per broken case."""
    out = root / "out"
    arch, ds, ckpt = root / "arch.txt", root / "dataset", root / "model"
    arch.write_text(ARCH)
    tiny = ["--set", "data.h=16", "--set", "data.w=16", "--set", "data.classes=4",
            "--set", "data.n_train=8", "--set", "data.n_test=8"]
    assert _run(["synth", "--out", str(root), *tiny]) is None
    assert _run(["train", "--out", str(root), "--set", f"data.path={ds}",
                 "--set", "model.stem=4", "--set", "model.stages=4:1:tvconv:2",
                 "--set", "model.gen_width=4", "--set", "train.epochs=1",
                 "--set", "train.drops="]) is None
    count = ["count", str(arch), "--out", str(out)]
    evaluate = ["eval", "--checkpoint", str(ckpt), "--data", str(ds), "--out", str(out)]
    export = ["export-affinity", "--checkpoint", str(ckpt), "--out", str(out)]
    groups = [([arch], [count]),
              ([ds / "meta.txt"], [evaluate]),
              ([ds / "labels.txt"], [evaluate]),
              ([ds / "images.tvt"], [evaluate]),
              ([ckpt / "model.txt"], [evaluate, export]),
              (sorted((ckpt / "params").glob("*.tvt")), [evaluate, export])]
    for _, commands in groups:   # the unmutated files pass
        assert all(_run(args) is None for args in commands)

    rng = np.random.default_rng(seed)
    broken = []
    for case in range(cases):
        files, commands = groups[int(rng.integers(len(groups)))]
        path = files[int(rng.integers(len(files)))]
        original = path.read_bytes()
        if path.suffix == ".tvt":
            mutated, how = _mutate_binary(original, rng)
        else:
            mutated, how = _mutate_text(original, rng, swap=path.name != "model.txt")
        path.write_bytes(mutated)
        try:
            for args in commands:
                problem = _run(args)
                if problem:
                    broken.append(f"case {case}: {path.name}: {how}: {args[0]}: {problem}")
        finally:
            path.write_bytes(original)
    return broken


def test_mutated_inputs_end_in_one_error_line(tmp_path):
    src = str(Path(tvconv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def limit():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, __file__, str(tmp_path), "0", str(CASES)],
                          capture_output=True, text=True, env=env, preexec_fn=limit,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


if __name__ == "__main__":
    warnings.simplefilter("always")   # each case's warnings reach its stderr
    print(json.dumps(fuzz(Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])),
                     indent=1))
