"""Synthetic layout-specific classification data.

Every image shares one fixed spatial layout: a g x g grid of cells with
base intensities drawn once per dataset. Border cells get independent
random levels; interior cells all share the mid level. Class identity is
a small oriented stripe pattern added inside a class-specific cell. The
placement is fixed: `default_assignments` puts classes in the interior
first, where the flat shared pedestal leaves position as the only class
cue: if interior cells had distinct levels, "stripe on level 0.7" would
identify the class through intensity alone, which a translation-equivariant
model can exploit, and the task would no longer test position sensitivity.
Per-image i.i.d. Gaussian noise goes on top. This construction makes the
spatial variance within an image large (the border pedestals differ)
while the variance of any fixed pixel across images stays small (only
noise and the occasional pattern) - the regime the operator under test
is built for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import report
from .seeding import rng_for
from .tensor import Tensor, load_tensor, save_tensor

ORIENTATIONS = ("h", "v", "d1", "d2")

# Stripe height above/below the cell pedestal. Strong enough against the
# default noise_std=0.05 that the desk recipe (30 epochs on 200 images)
# converges, yet small next to the border pedestal spread, which keeps the
# intra/cross variance ratio of the default spec comfortably > 3 (the
# default bg_amplitude of 1.3 balances the same trade from the other side).
PATTERN_AMPLITUDE = 0.7


@dataclass(frozen=True)
class LayoutDatasetSpec:
    channels: int = 1
    h: int = 32
    w: int = 32
    grid: int = 4
    classes: int = 8
    bg_amplitude: float = 1.3
    noise_std: float = 0.05
    n_train: int = 200
    n_test: int = 200
    seed: int = 0


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    spec: LayoutDatasetSpec


def default_assignments(grid: int, classes: int) -> tuple:
    """Class -> (cell, orientation), interior cells first and orientation
    varying slowest, so small class counts force position to matter."""
    capacity = grid * grid * len(ORIENTATIONS)
    if classes > capacity:
        raise ValueError(
            f"{classes} classes exceed the assignment capacity {capacity} "
            f"of a {grid}x{grid} grid")
    interior = [(r, c) for r in range(1, grid - 1) for c in range(1, grid - 1)]
    border = [(r, c) for r in range(grid) for c in range(grid)
              if (r, c) not in interior]
    pairs = [(cell, o) for o in ORIENTATIONS for cell in interior]
    pairs += [(cell, o) for o in ORIENTATIONS for cell in border]
    return tuple(pairs[:classes])


def stripe_pattern(orient: str, h: int, w: int) -> np.ndarray:
    """Full-image +/-1 sign grid for one stripe orientation."""
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    if orient == "h":
        pos = rr % 2 == 0
    elif orient == "v":
        pos = cc % 2 == 0
    elif orient == "d1":
        pos = (rr + cc) % 4 < 2
    elif orient == "d2":
        pos = (rr - cc) % 4 < 2
    else:
        raise ValueError(f"unknown stripe orientation '{orient}'")
    return np.where(pos, 1.0, -1.0)


def _validate(spec: LayoutDatasetSpec) -> tuple:
    """Refuse a spec that cannot be drawn; return its class placement."""
    for name in ("channels", "h", "w", "grid", "classes", "n_train", "n_test"):
        if getattr(spec, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {getattr(spec, name)}")
    if spec.h % spec.grid or spec.w % spec.grid:
        raise ValueError(
            f"image size {spec.h}x{spec.w} must be divisible by grid {spec.grid}")
    for name in ("noise_std", "bg_amplitude"):
        value = getattr(spec, name)
        if not 0 <= value < math.inf:  # false for nan too
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return default_assignments(spec.grid, spec.classes)


def gen_layout_dataset(spec: LayoutDatasetSpec) -> Dataset:
    assignments = _validate(spec)
    ch, cw = spec.h // spec.grid, spec.w // spec.grid
    layout = rng_for(spec.seed, "layout")
    base = layout.uniform(0.0, spec.bg_amplitude, size=(spec.grid, spec.grid))
    # Interior cells share the mid level so intensity never identifies the
    # class cell; only the varied border carries the layout's level texture.
    if spec.grid > 2:
        base[1:-1, 1:-1] = 0.5 * spec.bg_amplitude
    bg = np.kron(base, np.ones((ch, cw)))
    stripes = {o: stripe_pattern(o, spec.h, spec.w) for o in ORIENTATIONS}

    # one full image template per class: pedestal plus the class stripe
    templates = np.empty((spec.classes, spec.h, spec.w))
    for k, ((gr, gc), orient) in enumerate(assignments):
        img = bg.copy()
        cell = np.s_[gr * ch:(gr + 1) * ch, gc * cw:(gc + 1) * cw]
        img[cell] += PATTERN_AMPLITUDE * stripes[orient][cell]
        templates[k] = img

    def split(name: str, n: int):
        rng = rng_for(spec.seed, name)
        labels = rng.permutation(np.arange(n) % spec.classes).astype(np.int64)
        x = np.repeat(templates[labels][:, None, :, :], spec.channels, axis=1)
        x += rng.normal(0.0, spec.noise_std,
                        size=(n, spec.channels, spec.h, spec.w))
        return x, labels

    train_x, train_y = split("train", spec.n_train)
    test_x, test_y = split("test", spec.n_test)
    return Dataset(train_x, train_y, test_x, test_y, spec)


def variance_stats(images) -> dict[str, float]:
    """Spatial variance within images vs per-position variance across them.

    intra = mean over images of the population variance of that image's
    pixels; cross = mean over pixel positions of the population variance of
    that position across images. Accepts an [n,c,h,w] array or a Dataset
    (both splits pooled).
    """
    if isinstance(images, Dataset):
        imgs = np.concatenate([images.train_x, images.test_x])
    else:
        imgs = np.asarray(images, dtype=np.float64)
    n = imgs.shape[0]
    if n < 2:
        raise ValueError(f"variance statistic needs at least 2 images, got {n}")
    intra = float(np.var(imgs.reshape(n, -1), axis=1).mean())
    cross = float(np.var(imgs, axis=0).mean())
    return {"intra_image_var": intra, "cross_image_var": cross}


# --- augmentation ------------------------------------------------------------

def random_translations(x: np.ndarray, max_px: int,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Shift each image of an [n,c,h,w] batch by an integer offset drawn
    uniformly from [-max_px, max_px]^2, zero-filling. Returns (batch, offsets)."""
    n = x.shape[0]
    h, w = x.shape[-2:]
    offsets = rng.integers(-max_px, max_px + 1, size=(n, 2))
    out = np.zeros_like(x)
    for i, (dy, dx) in enumerate(offsets):
        ys, ye = max(dy, 0), h + min(dy, 0)
        xs, xe = max(dx, 0), w + min(dx, 0)
        if ys < ye and xs < xe:
            out[i, :, ys:ye, xs:xe] = x[i, :, ys - dy:ye - dy, xs - dx:xe - dx]
    return out, offsets


# --- persistence -------------------------------------------------------------

def save_dataset(ds: Dataset, path) -> None:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    meta = report.spec_kv(ds.spec)
    (out / "meta.txt").write_text(report.format_kv(meta))
    stacked = np.concatenate([ds.train_x, ds.test_x])
    save_tensor(Tensor(stacked), out / "images.tvt")
    labels = np.concatenate([ds.train_y, ds.test_y])
    (out / "labels.txt").write_text("".join(f"{v}\n" for v in labels))


def load_dataset(path) -> Dataset:
    src = Path(path)
    source = str(src / "meta.txt")
    spec = report.spec_from_kv(
        LayoutDatasetSpec, report.parse_kv((src / "meta.txt").read_text(), source), source)
    try:
        _validate(spec)
    except ValueError as e:
        raise ValueError(f"{source}: {e}") from None
    n = spec.n_train + spec.n_test
    images = load_tensor(src / "images.tvt").data
    want = (n, spec.channels, spec.h, spec.w)
    if images.shape != want:
        raise ValueError(f"{src / 'images.tvt'}: shape {images.shape} does not "
                         f"match the meta.txt shape {want}")
    labels = []
    for lineno, line in enumerate((src / "labels.txt").read_text().splitlines(), 1):
        try:
            label = int(line)
        except ValueError:
            raise ValueError(f"{src / 'labels.txt'}:{lineno}: expected an "
                             f"integer label, got {line!r}") from None
        if not 0 <= label < spec.classes:   # also keeps it inside int64
            raise ValueError(f"{src / 'labels.txt'}: label {label} is outside "
                             f"[0, {spec.classes})")
        labels.append(label)
    if len(labels) != n:
        raise ValueError(f"{src / 'labels.txt'}: {len(labels)} labels for "
                         f"{n} images")
    labels = np.array(labels, dtype=np.int64)
    nt = spec.n_train
    return Dataset(images[:nt], labels[:nt], images[nt:], labels[nt:], spec)
