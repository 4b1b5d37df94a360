"""Ablation runners over the desk-scale training harness.

Every runner is one seeded sweep: it lists its variants, each a (label,
model spec, training config) triple, and `_sweep` trains one fresh model
per variant and seed, in variant order and then seed order. One seed value
drives init, shuffle order, noise draw, and augmentation together, so the
reported spread covers both initialization and data-order variation. A
repeated seed or sweep point is refused before any training. Final test
error (or accuracy, for the sensitivity curves) is aggregated as mean +-
std over the seeds into an AblationResult, whose rows render to an aligned
text table and to key=value lines; both forms are byte-deterministic for a
fixed (dataset, config, seeds) triple.

The sensitivity runner sweeps translation magnitudes. Translation is the
perturbation a per-position operator is most exposed to by construction
(its filters are tied to absolute positions). Two different magnitudes
that round to one pixel count would train the same runs twice, so they are
refused before any training.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import models, report, training

DEFAULT_SEEDS = (0, 1, 2, 3, 4)

# (hidden stages, generator width, affinity channels) per grid point.
DEFAULT_GENERATOR_GRID = ((1, 8, 2), (3, 8, 2), (4, 8, 2))

DEFAULT_MAGNITUDES = (0.0, 0.1, 0.2, 0.4)


@dataclass(frozen=True)
class AblationResult:
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    # one (row label, seed, final metric) triple per training run
    runs: tuple[tuple, ...]

    def table(self) -> str:
        return report.format_table(list(self.headers),
                                   [list(r) for r in self.rows])

    def kv(self) -> dict[str, str]:
        """Flatten aggregated rows to `label.column` -> formatted value."""
        return {f"{row[0]}.{name}": f"{v:.6f}" if isinstance(v, float) else str(v)
                for row in self.rows for name, v in zip(self.headers[1:], row[1:])}


def _sweep(dataset, seeds, variants) -> tuple[tuple, ...]:
    """One (label, seed, final test error) run per seed of each (label,
    spec, cfg) variant, in variant order and then seed order. A repeated
    label would share one key=value entry, so it is refused, as is a seed."""
    if len(seeds) == 0:
        raise ValueError("an ablation needs at least one seed")
    for what, values in (("seed", tuple(seeds)),
                         ("sweep point", tuple(v[0] for v in variants))):
        for i, v in enumerate(values):
            if v in values[:i]:
                raise ValueError(f"{what} '{v}' is repeated")
    return tuple(
        (label, s, 1.0 - training.train(
            models.LayoutModel.create(spec, seed=s, stats_images=dataset.train_x),
            dataset, replace(vcfg, seed=s)).history[-1][2])
        for label, spec, vcfg in variants for s in seeds)


def _mean_std(runs) -> dict[str, tuple[float, float]]:
    """Mean and std of the runs' metric per label, in label order."""
    per_label: dict[str, list[float]] = {}
    for label, _, metric in runs:
        per_label.setdefault(label, []).append(metric)
    return {label: (float(np.mean(v)), float(np.std(v)))
            for label, v in per_label.items()}


def _error_result(header: str, dataset, seeds, variants) -> AblationResult:
    runs = _sweep(dataset, seeds, variants)
    return AblationResult((header, "err_mean", "err_std"),
                          tuple((label, *ms) for label, ms in _mean_std(runs).items()),
                          runs)


def run_ablation_init(dataset, cfg: training.TrainConfig,
                      seeds=DEFAULT_SEEDS, *,
                      spec: models.ModelSpec) -> AblationResult:
    """Constant-1 vs data-statistics affinity init, all else identical."""
    return _error_result("init", dataset, seeds, [
        (init, replace(spec, affinity_init=init), cfg)
        for init in ("constant", "stats")])


def run_ablation_generator(dataset, cfg: training.TrainConfig,
                           grid=DEFAULT_GENERATOR_GRID,
                           seeds=DEFAULT_SEEDS, *,
                           spec: models.ModelSpec) -> AblationResult:
    """Sweep generator shape: (hidden stages, width, affinity channels)."""
    return _error_result("point", dataset, seeds, [
        (f"L{depth}.cB{width}.cA{c_a}",
         replace(spec, gen_depth=depth, gen_width=width, affinity_channels=c_a), cfg)
        for depth, width, c_a in grid])


def stage_subsets(n_stages: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """All subsets of stage indices, labeled `none`, `s0`, `s0+s1`, ..."""
    out = []
    for mask in range(1 << n_stages):
        chosen = tuple(i for i in range(n_stages) if mask >> i & 1)
        label = "+".join(f"s{i}" for i in chosen) or "none"
        out.append((label, chosen))
    return tuple(out)


def run_ablation_stage(dataset, cfg: training.TrainConfig,
                       seeds=DEFAULT_SEEDS, *,
                       spec: models.ModelSpec) -> AblationResult:
    """Sweep which stages use the per-position operator.

    The empty subset is the plain depthwise baseline; the full subset is
    the all-stages default placement.
    """
    return _error_result("stages", dataset, seeds, [
        (label, replace(spec, stages=tuple(
            replace(st, operator="tvconv" if i in chosen else "depthwise")
            for i, st in enumerate(spec.stages))), cfg)
        for label, chosen in stage_subsets(len(spec.stages))])


def translation_pixels(magnitude: float, h: int, w: int) -> int:
    """Magnitude as a fraction of the larger image side, in whole pixels."""
    if not (np.isfinite(magnitude) and magnitude >= 0):
        raise ValueError(
            f"translation magnitude must be finite and >= 0, got {magnitude}")
    return int(round(magnitude * max(h, w)))


def run_ablation_affine(dataset, cfg: training.TrainConfig,
                        magnitudes=DEFAULT_MAGNITUDES,
                        seeds=DEFAULT_SEEDS, *,
                        spec: models.ModelSpec) -> AblationResult:
    """Accuracy of both operators vs translation-augmentation magnitude."""
    points = [(f"{mag}", translation_pixels(mag, spec.h, spec.w))
              for mag in magnitudes]
    first = {}   # px -> first magnitude; an exact repeat is left to _sweep
    for mag, px in points:
        if first.setdefault(px, mag) != mag:
            raise ValueError(f"magnitudes {first[px]} and {mag} both round to "
                             f"{px} px at {spec.h}x{spec.w}")
    runs = tuple((label, s, 1.0 - err) for label, s, err in _sweep(
        dataset, seeds, [(f"{mag}.{op}", models.to_operator(spec, op),
                          replace(cfg, augment_translate=px))
                         for mag, px in points for op in ("tvconv", "depthwise")]))
    acc = _mean_std(runs)
    rows = []
    for mag, px in points:
        tv, dw = acc[f"{mag}.tvconv"], acc[f"{mag}.depthwise"]
        rows.append((mag, px, *tv, *dw, tv[0] - dw[0]))
    return AblationResult(
        ("magnitude", "px", "tvconv_acc_mean", "tvconv_acc_std",
         "depthwise_acc_mean", "depthwise_acc_std", "gap_mean"),
        tuple(rows), runs)
