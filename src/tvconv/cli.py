"""Command-line entry point wiring every module together.

Usage: tvconv COMMAND [ARGS] [--config FILE] [--set KEY=VALUE ...]
                [--out DIR] [--verbose]

Commands: synth, train, eval, count, gradcheck, export-affinity, ablate.

Configuration is line-oriented ``key=value`` (`#` starts a comment) with
nested structure flattened by dotted keys: ``train.lr=0.05`` sets the ``lr``
field of the training spec. Every ``data.``, ``model.`` and ``train.`` key
names a spec field this way, except the renames in ``_RENAMED``. Values
given with --set override file values; command-specific flags are sugar
for --set. Each command validates its key set and rejects unknown keys
by name. All randomness flows from the single ``seed`` key: dataset
noise, model init, shuffle order, and augmentation derive their streams
from it by the documented (seed, purpose) hashing.

Every command writes its artifacts under --out (default: the current
directory) and is byte-idempotent: rerunning with the same inputs
overwrites with identical bytes. Exit status is 0 exactly when no error
diagnostic was printed; failures print one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import ablations, data, models, report, training
from .costmodel import load_arch, network_cost
from .gradsuite import run_suite
from .operator import export_affinity


class CliError(Exception):
    """Failure with a one-line diagnostic."""


# --- key=value plumbing -----------------------------------------------------

# Each section key is `<section>.<field>` of its spec, except for these
# renames and for the fields that are not keys: the shared `seed` sets the
# seeds, and the dataset sets the model's input shape and class count.
_SECTIONS = {"data": data.LayoutDatasetSpec, "model": models.ModelSpec,
             "train": training.TrainConfig}
_RENAMED = {"model.stem_channels": "model.stem", "train.batch_size": "train.batch",
            "train.lr_drops": "train.drops"}
_NOT_KEYS = {"data.seed", "data.assignments", "train.seed", "model.in_channels",
             "model.h", "model.w", "model.classes"}

# config key -> field name, per section
_FIELDS = {name: {_RENAMED.get(f"{name}.{f.name}", f"{name}.{f.name}"): f.name
                  for f in fields(cls) if f"{name}.{f.name}" not in _NOT_KEYS}
           for name, cls in _SECTIONS.items()}

_RUN_KEYS = {"seed", "data.path", "model.operator"}.union(*_FIELDS.values())

KNOWN_KEYS = {
    "synth": {"seed"} | set(_FIELDS["data"]),
    "train": _RUN_KEYS,
    "eval": {"checkpoint", "data.path"},
    "count": {"arch"},
    "gradcheck": {"seed", "tol", "eps", "instances"},
    "export-affinity": {"checkpoint"},
    "ablate": _RUN_KEYS | {"name", "seeds", "grid", "magnitudes"},
}

# Keys whose value is not cast like their default: key -> (decoder, format).
_DECODERS = {
    "model.stages": (models._stages_parse, "C:B:OP:S;..."),
    "train.drops": (lambda t: tuple((int(e), float(d)) for e, _, d in
                                    (p.partition(":") for p in t.split(";")))
                    if t else (), "EPOCH:DIVISOR;..."),
    "seeds": (lambda t: tuple(int(p) for p in t.split(",") if p.strip()),
              "comma-separated ints"),
    "grid": (lambda t: tuple((int(a), int(b), int(c)) for a, b, c in
                             (p.split(",") for p in t.split(";"))), "L,cB,cA;..."),
    "magnitudes": (lambda t: tuple(float(p) for p in t.split(",")),
                   "comma-separated floats"),
}


def load_config(args: argparse.Namespace) -> dict[str, str]:
    """Merge config file, --set overrides and command flags, in that order of
    precedence from low to high; reject keys unknown to the command."""
    merged: dict[str, str] = {}
    if args.config is not None:
        path = args.config
        if not path.is_file():
            raise CliError(f"config file not found: {path}")
        try:
            merged.update(report.parse_kv(path.read_text(), str(path)))
        except report.KvError as e:
            raise CliError(str(e)) from e
    for i, item in enumerate(args.overrides + _flag_overrides(args)):
        if "=" not in item:
            raise CliError(f"--set:{i + 1}: expected KEY=VALUE, got '{item}'")
        key, _, value = item.partition("=")
        key = key.strip()
        if not key:
            raise CliError(f"--set:{i + 1}: empty key in '{item}'")
        merged[key] = value.strip()
    known = KNOWN_KEYS[args.command]
    for key in merged:
        if key not in known:
            raise CliError(
                f"unknown key '{key}' for command {args.command} "
                f"(known: {', '.join(sorted(known))})")
    return merged


def _get(cfg: dict[str, str], key: str, default):
    """The value of `key` decoded by its table entry or cast like `default`;
    `default` when the key is unset."""
    if key not in cfg:
        return default
    raw = cfg[key]
    if key in _DECODERS:
        decode, form = _DECODERS[key]
        try:
            return decode(raw)
        except ValueError as e:
            raise CliError(f"key {key}: expected {form} in '{raw}'") from e
    try:
        return report.cast(raw, default)
    except ValueError as e:
        raise CliError(f"key {key}: cannot parse '{raw}' as "
                       f"{type(default).__name__}") from e


def _section(cfg: dict[str, str], name: str, base, **fixed):
    """`base` with every `<name>.*` key in cfg set on its field, then `fixed`."""
    return replace(base, **{field: _get(cfg, key, getattr(base, field))
                            for key, field in _FIELDS[name].items()}, **fixed)


def _load_or_gen_dataset(cfg: dict[str, str]) -> data.Dataset:
    if "data.path" in cfg:
        path = Path(cfg["data.path"])
        if not path.is_dir():
            raise CliError(f"dataset directory not found: {path}")
        return data.load_dataset(path)
    return data.gen_layout_dataset(_section(
        cfg, "data", data.LayoutDatasetSpec(), seed=_get(cfg, "seed", 0)))


def _model_spec(cfg: dict[str, str], ds: data.Dataset) -> models.ModelSpec:
    op = cfg.get("model.operator", "tvconv")
    if op not in models.OPERATORS:
        raise CliError(f"key model.operator: unknown operator '{op}'")
    d = ds.spec
    spec = _section(cfg, "model", models.default_model_spec(op),
                    in_channels=d.channels, h=d.h, w=d.w, classes=d.classes)
    other = {st.operator for st in spec.stages} - {op}
    if "model.operator" in cfg and other:
        raise CliError(f"key model.operator: '{op}' disagrees with key model.stages, "
                       f"which uses '{min(other)}'")
    return spec


def _train_config(cfg: dict[str, str]) -> training.TrainConfig:
    tcfg = _section(cfg, "train", training.TrainConfig(),
                    seed=_get(cfg, "seed", 0))
    if tcfg.epochs < 1:   # train and ablate report the last epoch
        raise CliError(f"key train.epochs: must be >= 1, got {tcfg.epochs}")
    return tcfg


def _emit(args: argparse.Namespace, name: str, text: str) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / name
    path.write_text(text)
    return path


# --- commands ----------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    ds = _load_or_gen_dataset(load_config(args))
    spec = ds.spec
    out = args.out / "dataset"
    data.save_dataset(ds, out)
    stats = data.variance_stats(ds)
    ratio = stats["intra_image_var"] / stats["cross_image_var"]
    print(f"wrote {out} ({spec.n_train} train / {spec.n_test} test, "
          f"{spec.classes} classes, intra/cross {ratio:.2f})")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    ds = _load_or_gen_dataset(cfg)
    mspec = _model_spec(cfg, ds)
    tcfg = _train_config(cfg)
    stats = ds.train_x if mspec.affinity_init == "stats" else None
    model = models.LayoutModel.create(mspec, seed=tcfg.seed,
                                      stats_images=stats)
    result = training.train(model, ds, tcfg)
    if args.verbose:
        for epoch, loss, acc in result.history:
            print(f"epoch {epoch} loss {loss:.6f} acc {acc:.4f}")
    out = args.out / "model"
    models.save_model(result.model, out)
    rows = [[e, f"{l:.6f}", f"{a:.4f}"] for e, l, a in result.history]
    hist = _emit(args, "history.txt",
                 report.format_table(["epoch", "loss", "test_acc"], rows) + "\n")
    final = result.history[-1]
    print(f"wrote {out} and {hist}; final loss {final[1]:.6f} "
          f"test acc {final[2]:.4f}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    if "checkpoint" not in cfg:
        raise CliError("eval needs a checkpoint (--checkpoint DIR)")
    if "data.path" not in cfg:
        raise CliError("eval needs a dataset (--data DIR)")
    ckpt = Path(cfg["checkpoint"])
    if not ckpt.is_dir():
        raise CliError(f"checkpoint directory not found: {ckpt}")
    model = models.load_model(ckpt)
    ds = _load_or_gen_dataset(cfg)
    model.freeze()
    acc = training.evaluate(model, ds.test_x, ds.test_y)
    path = _emit(args, "eval.txt", report.format_kv({
        "checkpoint": str(ckpt), "test_accuracy": f"{acc:.6f}"}))
    print(f"test accuracy {acc:.4f} (wrote {path})")
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    if "arch" not in cfg:
        raise CliError("count needs an architecture file (ARCH positional)")
    path = Path(cfg["arch"])
    if not path.is_file():
        raise CliError(f"architecture file not found: {path}")
    try:
        rep = network_cost(load_arch(path))
    except (ValueError, report.KvError) as e:
        raise CliError(str(e)) from e
    out = _emit(args, "count.txt", rep.table() + "\n" + report.format_kv(rep.kv()))
    print(f"total_macs={rep.total_macs}")
    print(f"total_params={rep.total_params}")
    print(f"one_time_generation_macs={rep.one_time_generation_macs}")
    if args.verbose:
        print(rep.table())
    print(f"wrote {out}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    seed = _get(cfg, "seed", 0)
    tol = _get(cfg, "tol", 1e-5)
    eps = _get(cfg, "eps", 1e-6)
    instances = _get(cfg, "instances", 100)
    results = run_suite(seed=seed, tol=tol, eps=eps, instances=instances)
    failed = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        failed += not r.passed
        print(f"{status} {r.op}: {r.instances} instances, "
              f"max rel err {r.max_rel_err:.3e} (tol {tol:g})")
    if failed:
        raise CliError(f"{failed} op(s) failed the gradient check")
    return 0


def cmd_export_affinity(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    if "checkpoint" not in cfg:
        raise CliError("export-affinity needs a checkpoint (--checkpoint DIR)")
    ckpt = Path(cfg["checkpoint"])
    if not ckpt.is_dir():
        raise CliError(f"checkpoint directory not found: {ckpt}")
    model = models.load_model(ckpt)
    if not model.tv_layers:
        raise CliError("checkpoint has no per-position stages to export")
    args.out.mkdir(parents=True, exist_ok=True)
    for name, layer in model.tv_layers.items():
        written = export_affinity(layer.affinity, args.out,
                                  basename=name.replace(".", "_"))
        for p in written:
            print(f"wrote {p}")
    return 0


_ABLATIONS = ("init", "generator", "stage", "affine")


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    name = cfg.get("name", "")
    if name not in _ABLATIONS:
        raise CliError(f"unknown ablation '{name}' "
                       f"(known: {', '.join(_ABLATIONS)})")
    ds = _load_or_gen_dataset(cfg)
    mspec = _model_spec(cfg, ds)
    tcfg = _train_config(cfg)
    seeds = _get(cfg, "seeds", ablations.DEFAULT_SEEDS)
    if name == "init":
        res = ablations.run_ablation_init(ds, tcfg, seeds=seeds, spec=mspec)
    elif name == "generator":
        grid = _get(cfg, "grid", ablations.DEFAULT_GENERATOR_GRID)
        res = ablations.run_ablation_generator(ds, tcfg, grid=grid,
                                               seeds=seeds, spec=mspec)
    elif name == "stage":
        res = ablations.run_ablation_stage(ds, tcfg, seeds=seeds, spec=mspec)
    else:
        mags = _get(cfg, "magnitudes", ablations.DEFAULT_MAGNITUDES)
        res = ablations.run_ablation_affine(ds, tcfg, magnitudes=mags,
                                            seeds=seeds, spec=mspec)
    text = res.table() + "\n\n" + report.format_kv(res.kv())
    out = _emit(args, f"ablation_{name}.txt", text)
    print(res.table())
    print(f"wrote {out}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "count": cmd_count,
    "gradcheck": cmd_gradcheck,
    "export-affinity": cmd_export_affinity,
    "ablate": cmd_ablate,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, default=None,
                     help="key=value config file")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a config key")
    sub.add_argument("--out", type=Path, default=Path("."),
                     help="output directory (default: current directory)")
    sub.add_argument("--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvconv", description="Layout-specific convolution workbench")
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("synth", help="generate a layout dataset"))
    _add_common(subs.add_parser("train", help="train a small classifier"))

    p = subs.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--data", type=Path, default=None, dest="data.path")
    _add_common(p)

    p = subs.add_parser("count", help="analytic MACs/params for an arch file")
    p.add_argument("arch", type=Path)
    _add_common(p)

    p = subs.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--instances", type=int, default=None)
    _add_common(p)

    p = subs.add_parser("export-affinity",
                        help="write affinity maps as PGM plus raw tensor")
    p.add_argument("--checkpoint", type=Path, default=None)
    _add_common(p)

    p = subs.add_parser("ablate", help="run a named ablation")
    p.add_argument("name", choices=_ABLATIONS)
    _add_common(p)
    return parser


def _flag_overrides(args: argparse.Namespace) -> list[str]:
    """Command-specific flags become overrides, so flags beat --set; each
    flag's dest is the key it sets."""
    return [f"{key}={value}" for key, value in vars(args).items()
            if key in KNOWN_KEYS[args.command] and value is not None]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CliError, ValueError, OSError, training.TrainingError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
