"""Modules of the library reach each other through public names only, so a
private name can change with its own module and nowhere else."""

import argparse
import ast
import inspect
import sys
from pathlib import Path

import numpy as np

import retinassl
from retinassl import autodiff as ad
from retinassl.cli import _build_parser
from retinassl.configio import _valid_keys
from retinassl.crops import MultiCropConfig
from retinassl.distill import DistillConfig, init_train_state, train_step
from retinassl.vit import ProjectionHeadConfig, ViTConfig

PACKAGE = Path(retinassl.__file__).parent


def test_no_module_imports_a_private_name_of_a_sibling():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").split(".")[0] == "retinassl":
                found += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not found, found


def test_only_the_chunk_runner_imports_parallelism():
    # crops.map_chunks is the one place where work leaves the caller's thread
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} imports {name}" for name in names
                      if name.split(".")[0] in ("threading", "concurrent", "multiprocessing")]
    assert found and all(line.startswith("crops.py:") for line in found), found


def test_the_library_raises_only_its_own_errors():
    # a stray ValueError or KeyError would escape the CLI's exit codes
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    library = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        allowed = library | ({"SystemExit"} if path.name == "cli.py" else set())
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(target, ast.Name) and target.id not in allowed:
                found.append(f"{path.name}:{node.lineno} raises {target.id}")
    assert not found, found


def _cli_flags() -> int:
    """The options of every subcommand, --help aside."""
    commands = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return sum(1 for p in commands.values() for a in p._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction))


def test_settable_values_do_not_grow():
    # a ratchet: each count is at most its value when it was last lowered,
    # so a new knob or flag changes this test, where a review sees it
    fields = defaults = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(d).split("(")[0] in ("dataclass", "dataclasses.dataclass")
                    for d in node.decorator_list):
                fields += sum(isinstance(s, ast.AnnAssign) for s in node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults += len(node.args.defaults)
                defaults += sum(d is not None for d in node.args.kw_defaults)
    counts = {"config keys": len(_valid_keys()), "dataclass fields": fields,
              "parameters with defaults": defaults, "CLI flags": _cli_flags()}
    limits = {"config keys": 38, "dataclass fields": 83, "parameters with defaults": 18,
              "CLI flags": 40}
    assert all(counts[k] <= limits[k] for k in limits), (counts, limits)


def test_autodiff_has_only_the_ops_a_training_step_records(monkeypatch):
    # a census of one unfrozen desk step (48 px, depth 2, batch 16, 2 global
    # and 4 local crops): every public op of autodiff is recorded on its
    # tape, so an op that only other code or tests call has no place there
    recorded = set()
    record = ad._record

    def spy(*args):
        out = record(*args)
        if out._slot is not None:
            recorded.add(sys._getframe(1).f_code.co_name)
        return out

    monkeypatch.setattr(ad, "_record", spy)
    vit = ViTConfig(image_size=48, patch_size=8, depth=2, embed_dim=32, n_heads=4,
                    drop_path_rate=0.1)
    head = ProjectionHeadConfig(hidden_dim=64, bottleneck_dim=16, output_dim=256)
    crop = MultiCropConfig(global_out_size=48, local_out_size=24, n_local=4)
    distill = DistillConfig(batch_size=16, freeze_last_steps=0)
    images = np.random.default_rng(0).random((16, 3, 48, 48))
    train_step(images, init_train_state(vit, head, seed=0), vit, head, crop, distill,
               steps_per_epoch=1)
    public = {name for name, fn in vars(ad).items()
              if inspect.isfunction(fn) and fn.__module__ == ad.__name__
              and not name.startswith("_")}
    assert recorded == public - {"backward", "finite_difference"}
