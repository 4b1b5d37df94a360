"""The benchmark's workloads: desk training with either operator, and frozen
serving.

Every workload is a closed loop with one client: the next step or request
starts only after the previous one returned, because callers of this library
wait for each reply. All inputs come from the `--seed` argument; the package
only ever sees the generated arrays.

- train-tvconv / train-depthwise: `training.train` on the default desk
  `tvconv` spec, or on its matched depthwise twin (width multiplier 1.0),
  with the default `TrainConfig` recipe. Training repeats until the run's
  seconds are used. The first two repeats always run to the end, so the
  history of one seed can be compared across repeats; a later repeat stops
  at the first step that ends after the seconds.
- serve-frozen: one loop that interleaves `b1` and `b128` requests
  (`LayoutModel.predict` on 1 or 128 images of a frozen, freshly seeded desk
  `tvconv` model) with `layer56` requests (`TVConvLayer.infer_cached` on a
  frozen `TVConvLayer.create(32, 56, 56)` with library defaults). Freezing a
  fresh copy of that layer is part of every set-up.

Each workload returns the same five end-to-end figures, which mean the
following (see README.md for the table). Latencies are means and throughput
is work over summed time, both over the whole run: when the host's speed
changes part-way through a run, a percentile can jump between the slow and
the fast stretch, while a mean moves in proportion.

    req_mean_ms                SGD step (batch 32)        | b1 request
    side_mean_ms               held-out evaluation pass   | layer56 request
    bulk_img_per_s             training images per second | b128 images per
                               over all whole epochs of   | second over all
                               the run, evaluation        | b128 requests
                               included
    setup_s                    median of repeated set-ups
    peak_rss_mb                peak resident set size of the run
"""

from __future__ import annotations

import resource
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import spans as sp

perf = time.perf_counter


LAYER = (32, 56, 56)            # the paper-scale layer: channels, height, width
BIG_BATCH = 128


@dataclass(frozen=True)
class Scale:
    """Sizes of one run. FULL is the benchmark; TOY only feeds the smoke test."""

    n_train: int = 200          # LayoutDatasetSpec defaults
    n_test: int = 200
    epochs: int = 30            # the TrainConfig default: the full desk recipe
    setups: int = 15            # serving set-ups, about 0.13 s each
    train_setups: int = 90      # training set-ups take about 10 ms each, so a
                                # steady median needs more of them
    check_every: int = 16       # output check on every 16th request of a kind


FULL = Scale()
TOY = Scale(n_train=16, n_test=8, epochs=2, setups=2, train_setups=2, check_every=2)

# 8 b1, 4 layer56 and 1 b128 request per cycle: about 15, 20 and 85 ms.
# Requests of a kind run back to back. A b1 request right after a layer56 or
# b128 one first refetches its model from memory, and how long that takes
# depends on what else the host runs; grouped, most b1 requests find the
# model in cache and measure the per-call cost.
CYCLE = ("b1",) * 8 + ("layer",) * 4 + ("big",)


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)      # end-to-end, by JSON name
    report: list = field(default_factory=list)       # (name, value, unit) lines
    per_layer: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        self.notes.append(f"FAILED: {what}")


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# --- training -----------------------------------------------------------------

class TimeUp(Exception):
    """Raised from inside `training.train` once the run's seconds are used."""


class TrainClock:
    """Timestamps SGD steps and held-out evaluations inside `training.train`
    by wrapping the two public names the loop calls. Installed on every run,
    traced or not; in a traced run it also sets the tracer's step id. With a
    `deadline` set, the first step that ends after it raises `TimeUp`."""

    def __init__(self, training, tracer: sp.Tracer | None):
        self.training = training
        self.tracer = tracer
        self.orig = (training.sgd_step, training.evaluate)
        self.steps: list[float] = []
        self.evals: list[float] = []
        self.epochs: list[float] = []
        self.deadline: float | None = None

    def start(self) -> None:
        self.last = self.epoch_start = perf()
        if self.tracer:
            self.tracer.unit = len(self.steps)

    def install(self) -> "TrainClock":
        sgd, evaluate = self.orig
        tracer = self.tracer

        def timed_sgd_step(*args, **kwargs):
            out = sgd(*args, **kwargs)
            now = perf()
            self.steps.append(now - self.last)
            self.last = now
            if tracer:
                tracer.unit = len(self.steps)
            if self.deadline is not None and now >= self.deadline:
                raise TimeUp
            return out

        def timed_evaluate(*args, **kwargs):
            t0 = perf()
            if tracer:
                tracer.unit = f"eval{len(self.evals)}"
            acc = evaluate(*args, **kwargs)
            now = perf()
            if tracer:
                tracer.unit = len(self.steps)
            self.evals.append(now - t0)
            self.epochs.append(now - self.epoch_start)
            self.last = self.epoch_start = now
            return acc

        self.training.sgd_step = timed_sgd_step
        self.training.evaluate = timed_evaluate
        return self

    def restore(self) -> None:
        self.training.sgd_step, self.training.evaluate = self.orig


def train_workload(pkg, operator: str, seed: int, seconds: float, scale: Scale,
                   tracer: sp.Tracer | None = None) -> Result:
    models, data, training = pkg.models, pkg.data, pkg.training
    res = Result()
    tv_spec = models.default_model_spec("tvconv")
    ds_spec = data.LayoutDatasetSpec(seed=seed, n_train=scale.n_train,
                                     n_test=scale.n_test)
    setups = []
    for i in range(scale.train_setups):
        if tracer:
            tracer.unit = f"setup{i}"
        t0 = perf()
        spec = tv_spec
        if operator == "depthwise":
            spec, mult = models.matched_depthwise_twin(tv_spec)
            if mult != 1.0:
                raise RuntimeError(f"matched depthwise twin needs width x{mult}, not x1.0")
        ds = data.gen_layout_dataset(ds_spec)
        models.LayoutModel.create(spec, seed=seed)
        setups.append(perf() - t0)
    if tracer:
        tracer.unit = None

    cfg = training.TrainConfig(seed=seed, epochs=scale.epochs)
    clock = TrainClock(training, tracer).install()
    histories = []
    bounds = []             # (steps, epochs) counts before and after each repeat
    begin = perf()

    def another_repeat() -> bool:
        if tracer is not None:      # one untraced, then one traced repeat
            return len(histories) < 2
        return len(histories) < 2 or perf() - begin < seconds

    try:
        while another_repeat():
            if tracer:
                tracer.on = len(histories) == 1
            model = models.LayoutModel.create(spec, seed=seed)
            mark = (len(clock.steps), len(clock.epochs))
            # The first two repeats always finish, so every run compares two
            # whole histories; a later one is cut when the seconds are used.
            clock.deadline = None if len(histories) < 2 else begin + seconds
            clock.start()
            try:
                hist = training.train(model, ds, cfg).history
            except TimeUp:          # its steps and epochs count, its history is partial
                break
            except Exception:       # counted as a failed repeat; the loop goes on
                traceback.print_exc(file=sys.stderr)
                res.fail(f"training repeat {len(histories)} raised", cfg.epochs)
                hist = None
            finally:
                if tracer:
                    tracer.unit = None
                    tracer.on = True
            res.attempted += cfg.epochs
            bounds.append((mark, (len(clock.steps), len(clock.epochs))))
            histories.append(hist)
    finally:
        clock.restore()

    good = [h for h in histories if h is not None]
    for r, hist in enumerate(histories):
        if hist is None:
            continue
        bad = {e for e, loss, _ in hist if not np.isfinite(loss)}
        if len(hist) != len(good[0]):
            bad = set(range(cfg.epochs))
        bad |= {e for e, (a, b) in enumerate(zip(hist, good[0])) if a != b}
        if bad:
            res.fail(f"repeat {r}: epochs {sorted(bad)} non-finite or unlike the "
                     "first repeat", len(bad))

    if not clock.epochs:
        raise RuntimeError("no training epoch completed")
    epoch_s = float(np.median(clock.epochs))
    res.metrics = {
        "setup_s": float(np.median(setups)),
        "req_mean_ms": float(np.mean(clock.steps)) * 1e3,
        "side_mean_ms": float(np.mean(clock.evals)) * 1e3,
        "bulk_img_per_s": scale.n_train * len(clock.epochs) / sum(clock.epochs),
        "peak_rss_mb": peak_rss_mb(),
    }
    acc = good[0][-1][2] if good else float("nan")
    res.report = [
        ("setup_s", res.metrics["setup_s"], "s"),
        ("epoch_s", epoch_s, "s"),
        ("test_acc", acc, "fraction"),
        ("step_mean_ms", res.metrics["req_mean_ms"], "ms"),
        ("step_p50_ms", pct(clock.steps, 50) * 1e3, "ms"),
        ("step_p90_ms", pct(clock.steps, 90) * 1e3, "ms"),
        ("eval_mean_ms", res.metrics["side_mean_ms"], "ms"),
        ("eval_p50_ms", pct(clock.evals, 50) * 1e3, "ms"),
        ("eval_p90_ms", pct(clock.evals, 90) * 1e3, "ms"),
        ("peak_rss_mb", res.metrics["peak_rss_mb"], "MB"),
        ("fail_ratio", res.failed / max(res.attempted, 1), "ratio"),
    ]
    res.notes.append(f"samples: {len(histories)} whole repeats of {cfg.epochs} epochs, "
                     f"{len(clock.epochs)} epochs, {len(clock.steps)} steps, "
                     f"{len(clock.evals)} evaluations, {len(setups)} set-ups")

    if tracer is not None:
        (_, e0), (_, e1) = bounds[0]
        (s2, e2), (s3, e3) = bounds[1]
        plain = float(np.median(clock.epochs[e0:e1]))
        traced = float(np.median(clock.epochs[e2:e3]))
        steps_per_epoch = (s3 - s2) / max(e3 - e2, 1)
        res.per_layer = sp.per_layer(tracer.spans, s3 - s2, scale.train_setups,
                                     tracer.tape_nodes)
        res.per_layer.update({
            "kernels.tvconv_over_dwconv": 0.0,
            "trace.overhead_ms": (traced - plain) * 1e3 / steps_per_epoch,
            "trace.overhead_pct": (traced / plain - 1.0) * 100.0,
            "trace.mac_mismatch": 0,
        })
        res.notes.append(f"trace: median epoch {plain * 1e3:.1f} ms untraced, "
                         f"{traced * 1e3:.1f} ms traced; per-layer figures are per "
                         f"SGD step ({s3 - s2} steps)")
        res.spans = tracer.spans
    return res


# --- serving ------------------------------------------------------------------

def serve_workload(pkg, seed: int, seconds: float, scale: Scale,
                   tracer: sp.Tracer | None = None) -> Result:
    models, operator, data, costmodel = pkg.models, pkg.operator, pkg.data, pkg.costmodel
    Tensor = pkg.tensor.Tensor
    res = Result()
    spec = models.default_model_spec("tvconv")
    rng = np.random.default_rng(seed)

    # inputs, generated before set-up and outside every timed region
    def pause():
        return tracer.paused() if tracer else nullcontext()

    with pause():
        images = data.gen_layout_dataset(data.LayoutDatasetSpec(
            seed=seed, n_train=scale.n_train, n_test=scale.n_test)).test_x
    layer_tensors = [Tensor(rng.standard_normal(LAYER)) for _ in range(8)]

    setups, freezes = [], []
    for i in range(scale.setups):
        if tracer:
            tracer.unit = f"setup{i}"
        t0 = perf()
        model = models.LayoutModel.create(spec, seed=seed).freeze()
        layer = operator.TVConvLayer.create(*LAYER, seed=seed)
        t1 = perf()
        if i == scale.setups - 1:
            with pause():
                reference = layer.weights()     # before freeze, for the output check
        if tracer:
            tracer.unit = f"freeze{i}"
        t2 = perf()
        layer.freeze()
        t3 = perf()
        setups.append((t1 - t0) + (t3 - t2))
        freezes.append(t3 - t2)
    if tracer:
        tracer.unit = None

    def run_loop(duration: float, traced: bool):
        lat = {"b1": [], "layer": [], "big": []}
        ids = {"b1": [], "layer": [], "big": []}
        dw_s = 0.0
        dw_w = rng.standard_normal((LAYER[0], 3, 3))
        dwconv = getattr(pkg.kernels.dwconv, "__wrapped__", pkg.kernels.dwconv)
        if tracer:
            tracer.on = traced
        end = perf() + duration
        while perf() < end:
            for kind in CYCLE:
                if kind == "layer":
                    x = layer_tensors[int(rng.integers(len(layer_tensors)))]
                elif kind == "b1":
                    i = int(rng.integers(len(images)))
                    x = images[i:i + 1]
                else:
                    x = images[rng.choice(len(images), BIG_BATCH,
                                          replace=len(images) < BIG_BATCH)]
                req = res.attempted
                res.attempted += 1
                if tracer:
                    tracer.unit = req
                try:
                    t0 = perf()
                    out = layer.infer_cached(x) if kind == "layer" else model.predict(x)
                    dt = perf() - t0
                except Exception:       # a failed request; the loop goes on
                    traceback.print_exc(file=sys.stderr)
                    res.fail(f"{kind} request {req} raised")
                    continue
                finally:
                    if tracer:
                        tracer.unit = None
                lat[kind].append(dt)
                ids[kind].append(req)
                if len(lat[kind]) % scale.check_every == 1 or scale.check_every == 1:
                    with pause():
                        if kind == "layer":
                            want = operator.tvconv_apply(x, reference).data
                            ok = same_bits(out.data, want)
                        else:
                            ok = same_bits(out, model.logits_array(x))
                    if not ok:
                        res.fail(f"{kind} request {req}: output differs from the "
                                 "unfrozen reference")
                if traced and kind == "layer":
                    t0 = perf()
                    dwconv(x.data[None], dw_w)
                    dw_s += perf() - t0
        if tracer:
            tracer.on = True
        return lat, ids, dw_s

    if tracer is None:
        lat, ids, _ = run_loop(seconds, False)
    else:
        plain, _, _ = run_loop(seconds / 2, False)
        lat, ids, dw_s = run_loop(seconds / 2, True)
    for kind in lat:
        if not lat[kind]:
            raise RuntimeError(f"no {kind} request completed")

    res.metrics = {
        "setup_s": float(np.median(setups)),
        "req_mean_ms": float(np.mean(lat["b1"])) * 1e3,
        "side_mean_ms": float(np.mean(lat["layer"])) * 1e3,
        "bulk_img_per_s": BIG_BATCH * len(lat["big"]) / sum(lat["big"]),
        "peak_rss_mb": peak_rss_mb(),
    }
    c, h, w = LAYER
    res.report = [
        ("setup_s", res.metrics["setup_s"], "s"),
        ("b1_mean_ms", res.metrics["req_mean_ms"], "ms"),
        ("b1_p50_ms", pct(lat["b1"], 50) * 1e3, "ms"),
        ("b1_p90_ms", pct(lat["b1"], 90) * 1e3, "ms"),
        ("b128_img_per_s", res.metrics["bulk_img_per_s"], "1/s"),
        ("layer56_mean_ms", res.metrics["side_mean_ms"], "ms"),
        ("layer56_p50_ms", pct(lat["layer"], 50) * 1e3, "ms"),
        ("layer56_p90_ms", pct(lat["layer"], 90) * 1e3, "ms"),
        ("freeze_ms", float(np.median(freezes)) * 1e3, "ms"),
        ("peak_rss_mb", res.metrics["peak_rss_mb"], "MB"),
        ("fail_ratio", res.failed / max(res.attempted, 1), "ratio"),
    ]
    res.notes.append(f"samples: {len(lat['b1'])} b1, {len(lat['layer'])} layer56, "
                     f"{len(lat['big'])} b128 requests, {len(setups)} set-ups")

    if tracer is not None:
        spans = tracer.spans
        n_req = sum(len(v) for v in ids.values())
        res.per_layer = sp.per_layer(spans, n_req, scale.setups, tracer.tape_nodes)
        macs = sp.kernel_macs_by_unit(spans)
        mismatch = []
        want_img = models.model_macs(spec)[0] - spec.stages[-1].channels * spec.classes
        for kind, n in (("b1", 1), ("big", BIG_BATCH)):
            for req in ids[kind]:
                if macs.get(req, 0) != want_img * n:
                    mismatch.append(f"{kind} request {req}: {macs.get(req, 0)} kernel "
                                    f"MACs, model_macs minus head gives {want_img * n}")
        gen = layer.gen
        want_gen = costmodel.generator_macs(
            c, gen.k, h, w, gen.affinity_channels, gen.depth,
            gen.hidden[0].w.shape[0] if gen.hidden else 0, gen.k_gen)
        for i in range(scale.setups):
            got = macs.get(f"freeze{i}", 0)
            if got != want_gen:
                mismatch.append(f"freeze {i}: {got} kernel MACs, generator_macs "
                                f"gives {want_gen}")
        layer_reqs = set(ids["layer"])
        tv_s = sum(s[2] - s[1] for s in sp.outermost_kernels(spans)
                   if s[0] == "kernels.tvconv" and s[4] in layer_reqs)
        plain_req = np.mean([t for v in plain.values() for t in v])
        traced_req = np.mean([t for v in lat.values() for t in v])
        res.per_layer.update({
            "kernels.tvconv_over_dwconv": tv_s / dw_s if dw_s else 0.0,
            "trace.overhead_ms": (traced_req - plain_req) * 1e3,
            "trace.overhead_pct": (traced_req / plain_req - 1.0) * 100.0,
            "trace.mac_mismatch": len(mismatch),
        })
        res.notes.extend(f"MAC cross-check mismatch: {m}" for m in mismatch[:10])
        res.notes.append(
            f"MAC cross-checks: {'exact' if not mismatch else f'{len(mismatch)} mismatches'}"
            f" ({want_img} MACs per predict image over {len(ids['b1']) + len(ids['big'])}"
            f" requests, {want_gen} MACs per freeze over {scale.setups} freezes)")
        res.notes.append(f"trace: mean request {plain_req * 1e3:.2f} ms untraced, "
                         f"{traced_req * 1e3:.2f} ms traced; per-layer figures are per "
                         f"request ({n_req} requests)")
        res.spans = spans
    return res
