import json
import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "paper_step.py")
TINY = ["vit.image_size=16", "vit.patch_size=8", "vit.depth=1", "vit.embed_dim=8",
        "vit.n_heads=2", "head.hidden_dim=16", "head.bottleneck_dim=8",
        "head.output_dim=24", "crop.global_out_size=16", "crop.local_out_size=8"]


def run(*args):
    return subprocess.run([sys.executable, TOOL, *args], capture_output=True, text=True,
                          timeout=120)


def test_tiny_config_prints_one_json_line():
    sets = [arg for value in TINY for arg in ("--set", value)]
    proc = run("--steps", "3", *sets)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    out = json.loads(line)
    assert out["batch"] == 2 and out["params"] > 0 and out["ru_maxrss_mb"] > 0
    assert len(out["step_s"]) == 3
    assert set(out["stage_s"]) == {"multicrop", "teacher_forward", "student_forward",
                                   "backward", "update"}
    for stage, seconds in out["stage_s"].items():
        assert len(seconds) == 3 and all(s > 0 for s in seconds), stage
    # the stages are inside the step
    for i, step in enumerate(out["step_s"]):
        assert sum(s[i] for s in out["stage_s"].values()) <= step + 1e-3
    assert out["commit"] is None or len(out["commit"]) == 40


def test_bad_config_value_exits_2():
    proc = run("--steps", "1", "--set", "vit.n_heads=0")
    assert proc.returncode == 2
    assert "n_heads" in proc.stderr


def test_extract_prints_one_json_line():
    sets = [arg for value in TINY for arg in ("--set", value)]
    proc = run("--extract", "3", *sets)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    out = json.loads(line)
    assert out["images"] == 3 and out["extract_s"] > 0 and out["ru_maxrss_mb"] > 0
    assert out["images_per_s"] > 0 and "step_s" not in out
