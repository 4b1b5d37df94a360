"""Translation-variant depthwise convolution on a plain numpy stack.

A compact set of affinity maps is pushed through a small convolutional
generator to produce one k x k filter per channel per spatial position; the
result is applied like a depthwise convolution whose weights vary with
location. After training, the generator runs once more and inference serves
the cached weight field, so the steady-state cost equals an ordinary
depthwise pass.

The package splits into layers that can be used independently:

- `tensor` / `kernels` / `autograd`: float64 arrays, the numeric primitives,
  and a reverse-mode tape over them.
- `operator`: the weight generator, whose field is one plain [c, k, k, h, w]
  array from generation to kernel, the per-position convolution with its
  loop-nest oracle, parameter-count arithmetic, and the freeze/cache
  lifecycle, whose guard compares every parameter's raw bytes with a
  snapshot taken at freeze.
- `costmodel`: analytic MACs and parameter counts for whole block chains,
  including a mobilenet-style reference builder and a reader for the arch
  text format.
- `data`: a synthetic layout-classification task where position carries the
  label, plus variance statistics and random-translation augmentation.
- `models` / `training`: a small residual backbone that can mount either
  operator, and a seeded SGD harness.
- `gradsuite` / `ablations` / `report` / `cli`: finite-difference checks,
  sweep runners, text artifacts, and the command line entry point.
"""

from .ablations import (
    run_ablation_affine,
    run_ablation_generator,
    run_ablation_init,
    run_ablation_stage,
    translation_pixels,
)
from .costmodel import (
    ArchSpec,
    BlockSpec,
    CostReport,
    OpSpec,
    load_arch,
    mobilenet_v2,
    network_cost,
    op_macs,
    parse_arch,
)
from .data import (
    Dataset,
    LayoutDatasetSpec,
    gen_layout_dataset,
    load_dataset,
    save_dataset,
    variance_stats,
)
from .gradsuite import run_suite
from .models import (
    LayoutModel,
    ModelSpec,
    StageSpec,
    default_model_spec,
    load_model,
    matched_depthwise_twin,
    model_macs,
    save_model,
)
from .operator import (
    GeneratorParams,
    StaleCacheError,
    TVConvLayer,
    export_affinity,
    generate_weights,
    param_count_factorized,
    param_count_naive,
    reduction_ratio,
    tvconv_apply,
    tvconv_naive_oracle,
)
from .tensor import Tensor, load_tensor, save_tensor
from .training import TrainConfig, TrainResult, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "ArchSpec",
    "BlockSpec",
    "CostReport",
    "Dataset",
    "GeneratorParams",
    "LayoutDatasetSpec",
    "LayoutModel",
    "ModelSpec",
    "OpSpec",
    "StageSpec",
    "StaleCacheError",
    "TVConvLayer",
    "Tensor",
    "TrainConfig",
    "TrainResult",
    "default_model_spec",
    "evaluate",
    "export_affinity",
    "gen_layout_dataset",
    "generate_weights",
    "load_arch",
    "load_dataset",
    "load_model",
    "load_tensor",
    "matched_depthwise_twin",
    "mobilenet_v2",
    "model_macs",
    "network_cost",
    "op_macs",
    "param_count_factorized",
    "param_count_naive",
    "parse_arch",
    "reduction_ratio",
    "run_ablation_affine",
    "run_ablation_generator",
    "run_ablation_init",
    "run_ablation_stage",
    "run_suite",
    "save_dataset",
    "save_model",
    "save_tensor",
    "train",
    "translation_pixels",
    "tvconv_apply",
    "tvconv_naive_oracle",
    "variance_stats",
]
