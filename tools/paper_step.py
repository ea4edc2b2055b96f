"""Training steps at the paper's scale, timed by stage.

    python3 tools/paper_step.py --steps 4
    python3 tools/paper_step.py --steps 2 --set vit.depth=1 --set head.output_dim=64

Runs N `distill.train_step`s at the library defaults with a ViT-S/16
backbone: 224 px, 2 x 224 px global and 6 x 96 px local crops, head
2048/256/65536, batch 2 of random sources 8/7 the global crop's size
(256 px), seed 0. `--set section.key=value` overrides one config value, as
`retinassl train --set` does.

Prints one JSON line: the seconds of each step and of each stage of it
(multi-crop, teacher forward, student forward, backward, update), the
process's peak RSS (`ru_maxrss`) and the git commit. Stages are timed by
perfbench's tracer, which rebinds the names a step calls. Uses the standard
library and numpy only.
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
    args = parser.parse_args(argv)

    try:
        overrides = dict(PAPER, **configio.parse_assignments(args.set, source="--set"))
        cfg = configio.load_config(overrides=overrides)
    except RetinaSSLError as exc:
        parser.error(str(exc))
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
        "commit": commit(), "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "batch": b, "params": sum(p.size for p in state.student.values()),
        "setup_s": round(setup_s, 6), "step_s": step_s, "stage_s": stage_s,
        "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
