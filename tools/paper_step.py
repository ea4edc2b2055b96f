"""Training steps, or frozen feature extraction, at the paper's scale, timed.

    python3 tools/paper_step.py --steps 4
    python3 tools/paper_step.py --steps 2 --set vit.depth=1 --set head.output_dim=64
    OPENBLAS_NUM_THREADS=1 python3 tools/paper_step.py --extract 6

Runs N `distill.train_step`s at the library defaults with a ViT-S/16
backbone: 224 px, 2 x 224 px global and 6 x 96 px local crops, head
2048/256/65536, batch 2 of random sources 8/7 the global crop's size
(256 px), seed 0. `--set section.key=value` overrides one config value, as
`retinassl train --set` does.

Prints one JSON line: the seconds of each step and of each stage of it
(multi-crop, teacher forward, student forward, backward, update), the
process's peak RSS (`ru_maxrss`) and the git commit. Stages are timed by
perfbench's tracer, which rebinds the names a step calls.

With `--extract N` it times one `evaluation.extract_features` call over N
random images at the model's size (224 px) through a backbone initialized
from seed 0 instead, and prints one JSON line with the seconds, images/s,
peak RSS and git commit. Uses the standard library and numpy only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.common import import_program  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

rs = import_program()
from retinassl import configio  # noqa: E402
from retinassl.errors import RetinaSSLError  # noqa: E402

PAPER = {"vit.image_size": 224, "vit.patch_size": 16, "distill.batch_size": 2}
# tracer span -> stage
STAGES = {"crops.build_multicrop": "multicrop",
          "vit.teacher_forward": "teacher_forward",
          "vit.student_forward": "student_forward",
          "autodiff.backward": "backward",
          "distill.update/clip": "update", "distill.update/adamw": "update",
          "distill.update/ema": "update", "distill.update/center": "update"}


def commit() -> str | None:
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=4)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    parser.add_argument("--extract", type=int, metavar="N",
                        help="time feature extraction over N images instead")
    args = parser.parse_args(argv)

    try:
        overrides = dict(PAPER, **configio.parse_assignments(args.set, source="--set"))
        cfg = configio.apply_assignments(overrides)
        if args.extract is None:
            cfg.check_training_bytes()
    except RetinaSSLError as exc:
        parser.error(str(exc))
    env = {"commit": commit(), "numpy": np.__version__,
           "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    if args.extract is not None:
        return extract(args.extract, cfg.vit, env)
    b = cfg.distill.batch_size
    size = round(cfg.crop.global_out_size * 8 / 7)
    images = np.random.default_rng(0).random((b, 3, size, size))

    start = time.perf_counter()
    state = rs.distill.init_train_state(cfg.vit, cfg.head, seed=0)
    setup_s = time.perf_counter() - start

    tracer = Tracer()
    step_s = []
    with tracer.patched(rs):
        for i in range(args.steps):
            tracer.round = i
            start = time.perf_counter()
            rs.distill.train_step(images, state, cfg.vit, cfg.head, cfg.crop,
                                  cfg.distill, steps_per_epoch=1)
            step_s.append(round(time.perf_counter() - start, 6))
    stage_s = {stage: [0.0] * args.steps for stage in dict.fromkeys(STAGES.values())}
    for _, _, name, i, begin, end in tracer.spans:
        if name in STAGES:
            stage_s[STAGES[name]][i] += end - begin
    stage_s = {stage: [round(s, 6) for s in seconds] for stage, seconds in stage_s.items()}

    print(json.dumps({
        **env, "batch": b, "params": sum(p.size for p in state.student.values()),
        "setup_s": round(setup_s, 6), "step_s": step_s, "stage_s": stage_s,
        "ru_maxrss_mb": maxrss_mb(),
    }))
    return 0


def maxrss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def extract(n: int, vit, env: dict) -> int:
    """Time one extract_features call over n random images at the model's
    size through a backbone initialized from seed 0."""
    backbone = rs.vit.init_backbone_params(vit, np.random.default_rng(0))
    images = np.random.default_rng(1).random((n, 3, vit.image_size, vit.image_size))
    start = time.perf_counter()
    rs.evaluation.extract_features(backbone, images, vit)
    seconds = time.perf_counter() - start
    print(json.dumps({**env, "images": n, "extract_s": round(seconds, 6),
                      "images_per_s": round(n / seconds, 3), "ru_maxrss_mb": maxrss_mb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
