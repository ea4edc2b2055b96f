"""The benchmark's tracer rebinds program attributes by name; a rename in the
library would break `perfbench/run.py --trace 1` without failing any test
under tests/, so every name it patches is resolved here, and the calling
convention it relies on is checked."""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from retinassl import distill
from retinassl.crops import MultiCropConfig
from retinassl.vit import EVAL, TRAIN, ProjectionHeadConfig, ViTConfig

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def test_every_trace_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for owner_path, attr, _ in tracing.PATCHES:
        module, *rest = owner_path.split(".")
        owner = importlib.import_module(f"retinassl.{module}")
        for part in rest:
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{owner_path}.{attr}")
    assert not missing, f"trace points missing from retinassl: {missing}"


@pytest.mark.parametrize("n_global, n_local", [(2, 3), (3, 0)])
def test_forward_calls_name_their_mode(monkeypatch, n_global, n_local):
    # the tracer files a backbone call under the student or the teacher by
    # its `mode` keyword; a positional mode would file the student's time
    # under the teacher's. The teacher runs once over every global crop and
    # the student once per crop size.
    vit = ViTConfig(image_size=16, patch_size=8, depth=1, embed_dim=8, n_heads=2)
    head = ProjectionHeadConfig(hidden_dim=16, bottleneck_dim=8, output_dim=24)
    crop = MultiCropConfig(n_global=n_global, n_local=n_local,
                           global_out_size=16, local_out_size=8)
    state = distill.init_train_state(vit, head, seed=0)
    modes = []
    original = distill.backbone_forward

    def spy(*args, **kwargs):
        assert "mode" in kwargs, "backbone_forward called without a mode keyword"
        modes.append(kwargs["mode"])
        return original(*args, **kwargs)

    monkeypatch.setattr(distill, "backbone_forward", spy)
    images = np.random.default_rng(0).random((2, 3, 16, 16))
    distill.train_step(images, state, vit, head, crop,
                       distill.DistillConfig(total_epochs=2, batch_size=2), 1)
    student_groups = 1 + (n_local > 0)
    assert modes.count(TRAIN) == student_groups
    assert modes.count(EVAL) == 1
    assert len(modes) == student_groups + 1
