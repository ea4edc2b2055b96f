"""Paths, input sizes and the desk recipe shared by the benchmark files."""

from __future__ import annotations

import functools
import importlib
import os
import sys
import types

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Pinned before numpy loads (run.py sets it for itself and its children):
# the program's matrices are at most a few hundred wide, and on a shared
# two-core machine a second BLAS thread adds more spread than speed.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout has no src/retinassl to benchmark."""


def import_program() -> types.SimpleNamespace:
    """Import the retinassl modules from this checkout's src/ directory."""
    if not os.path.isfile(os.path.join(SRC, "retinassl", "__init__.py")):
        raise MissingProgram(f"no retinassl package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    names = ("autodiff", "checkpoint", "crops", "data", "distill",
             "evaluation", "imagecodec", "vit")
    return types.SimpleNamespace(
        **{n: importlib.import_module(f"retinassl.{n}") for n in names})


@functools.cache
def desk_configs() -> tuple:
    """The acceptance suite's desk recipe (criteria 5 and 8): 48 px, depth 2,
    embed 32, batch 16, 2 global + 4 local crops, K = 256.

    Returns (vit, head, crop, distill) configs."""
    rs = import_program()
    vit = rs.vit.ViTConfig(image_size=48, patch_size=8, depth=2, embed_dim=32,
                           n_heads=4, drop_path_rate=0.1)
    head = rs.vit.ProjectionHeadConfig(hidden_dim=64, bottleneck_dim=16,
                                       output_dim=256)
    crop = rs.crops.MultiCropConfig(global_out_size=48, local_out_size=24,
                                    global_scale_range=(0.5, 1.0),
                                    local_scale_range=(0.2, 0.5), n_local=4,
                                    jitter_strength=(0.3, 0.3, 0.2, 0.05),
                                    grayscale_p=0.1, blur_sigma=(0.1, 0.5),
                                    solarize_p=0.1)
    distill = rs.distill.DistillConfig(batch_size=16, total_epochs=130,
                                       warmup_epochs=4, base_lr=0.01,
                                       tau_t=0.05, center_momentum=0.7,
                                       wd_start=0.0001, wd_end=0.0001,
                                       freeze_last_steps=10 ** 9)
    return vit, head, crop, distill


DESK_INIT_STD = 0.05


# Input sizes per workload. "full" is what BENCHMARK.json runs; "small" is
# the smoke-test scale used by the benchmark's own tests.
SIZES = {
    "full": {
        "train-desk": {"n_per_class": 100},
        "eval-frozen": {"train_per_class": 160, "test_per_class": 240,
                        "ckpt_steps": 3},
        "knn-scale": {"index": 20000, "queries": 2000, "dim": 32},
        "ingest-png": {"n_per_class": 40, "image_size": 48},
    },
    "small": {
        "train-desk": {"n_per_class": 4},
        "eval-frozen": {"train_per_class": 4, "test_per_class": 6,
                        "ckpt_steps": 1},
        "knn-scale": {"index": 600, "queries": 40, "dim": 16},
        "ingest-png": {"n_per_class": 2, "image_size": 48},
    },
}
