"""SGD with momentum and the desk-scale training loop.

Update rule, per parameter: v <- momentum*v + grad + wd*param, then
param <- param - lr*v, in place so the arrays shared with layer objects and
tape leaves stay consistent. Affinity maps (names ending ".aff") are layout
state rather than filter weights, so weight decay skips them unless
decay_affinity is set.

Everything reported is a pure function of (seed, config, dataset): batch
order comes from the "shuffle" stream, augmentation offsets from "augment"
(train) and "augment-test" (test), all derived from the single config seed.
lr=0 is permitted as a deliberate no-op probe of the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autograd as ag
from . import data as data_mod
from .models import LayoutModel, check_finite, non_finite_param
from .seeding import rng_for


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss or parameter, or inconsistent shapes)."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    decay_affinity: bool = False
    epochs: int = 30
    batch_size: int = 32
    lr_drops: tuple[tuple[int, float], ...] = ((20, 10.0), (26, 10.0))
    seed: int = 0
    augment_translate: int = 0   # max |pixel shift| applied per presentation

    def __post_init__(self):
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # false for nan too
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        for ep, div in self.lr_drops:
            if not 0 < div < math.inf:
                raise ValueError(f"lr_drops divisor at epoch {ep} must be finite and > 0, "
                                 f"got {div}")
        if self.augment_translate < 0:
            raise ValueError("augment_translate must be >= 0")


def effective_lr(cfg: TrainConfig, epoch: int) -> float:
    lr = cfg.lr
    for ep, div in cfg.lr_drops:
        if epoch >= ep:
            lr /= div
    return lr


def sgd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             state: dict[str, np.ndarray], cfg: TrainConfig) -> None:
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(
                f"grad shape {g.shape} does not match param shape {p.shape} "
                f"for '{name}'")
        v = state.get(name)
        if v is None:
            v = state[name] = np.zeros_like(p)
        v *= cfg.momentum
        v += g
        if cfg.weight_decay and (cfg.decay_affinity or not name.endswith(".aff")):
            v += cfg.weight_decay * p
        p -= cfg.lr * v


@dataclass
class TrainResult:
    history: list[tuple[int, float, float]] = field(default_factory=list)


def check_split(x: np.ndarray, y: np.ndarray, split: str) -> None:
    """Refuse a split whose images and labels differ in number, naming both."""
    if len(x) != len(y):
        raise ValueError(f"{split} split has {len(x)} images but {len(y)} labels")


def evaluate(model: LayoutModel, x: np.ndarray, y: np.ndarray) -> float:
    """Accuracy of one `predict` over the whole split; `predict` names a
    non-finite image by its index in `x`."""
    check_split(x, y, "evaluation")
    if len(y) == 0:
        raise ValueError("cannot evaluate on an empty split")
    # a forward pass that overflows is reported below, naming the image
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        logits = model.predict(x)
    if not np.isfinite(logits).all():
        bad = int(np.argmax(~np.isfinite(logits).all(axis=1)))
        raise ValueError(f"image {bad} has non-finite logits (the model overflows)")
    return int((logits.argmax(axis=1) == y).sum()) / len(y)


def train(model: LayoutModel, dataset, cfg: TrainConfig) -> TrainResult:
    x_tr, y_tr = dataset.train_x, dataset.train_y
    x_te, y_te = dataset.test_x, dataset.test_y
    check_split(x_tr, y_tr, "training")
    check_split(x_te, y_te, "test")
    if len(y_tr) == 0:
        raise TrainingError("training split is empty")
    check_finite(x_tr)
    if cfg.augment_translate > 0:
        # the held-out split sees one fixed draw of the same perturbation
        x_te, _ = data_mod.random_translations(
            x_te, cfg.augment_translate, rng_for(cfg.seed, "augment-test"))
    shuffle = rng_for(cfg.seed, "shuffle")
    aug = rng_for(cfg.seed, "augment") if cfg.augment_translate > 0 else None
    state: dict[str, np.ndarray] = {}
    result = TrainResult()
    n = len(y_tr)
    for epoch in range(cfg.epochs):
        step_cfg = replace(cfg, lr=effective_lr(cfg, epoch))
        order = shuffle.permutation(n)
        total = 0.0
        # a diverging step overflows silently; the finite-loss check reports it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for b, start in enumerate(range(0, n, cfg.batch_size)):
                idx = order[start:start + cfg.batch_size]
                xb, yb = x_tr[idx], y_tr[idx]
                if aug is not None:
                    xb, _ = data_mod.random_translations(
                        xb, cfg.augment_translate, aug)
                loss_node = model.loss(xb, yb)
                loss = float(loss_node.value)
                if not np.isfinite(loss):
                    raise TrainingError(
                        f"loss is not finite ({loss}) at epoch {epoch}, batch {b}")
                grads = {node.name: g for node, g in ag.backward(loss_node).items()}
                sgd_step(model.params, grads, state, step_cfg)
                total += loss * len(idx)
        # the last step of an epoch can overflow with no loss left to show it
        bad = non_finite_param(model.params)
        if bad is not None:
            raise TrainingError(f"parameter {bad} is not finite after the last step "
                                f"of epoch {epoch}")
        acc = evaluate(model, x_te, y_te)
        result.history.append((epoch, total / n, acc))
    return result
