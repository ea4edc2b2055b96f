import contextlib
import json
import os
import shutil
import signal
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from retinassl import cli, configio, errors, evaluation
from retinassl.checkpoint import load_checkpoint
from retinassl.cli import main
from retinassl.configio import RunConfig, _valid_keys
from retinassl.data import (DatasetManifest, generate_synthetic_dataset,
                            write_synthetic_dataset)
from retinassl.distill import METRICS_HEADER
from retinassl.errors import CheckpointError


def run(args):
    return main(args)


@contextlib.contextmanager
def _child_holding_output_lock(out):
    """A child process that holds `out`'s lock as a running command does,
    from entering the block until it is left, when the child is killed."""
    script = ("import sys, time\n"
              "from retinassl.cli import _output_dir\n"
              "with _output_dir(sys.argv[1]):\n"
              "    print('locked', flush=True)\n"
              "    time.sleep(600)\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    with subprocess.Popen([sys.executable, "-c", script, str(out)],
                          stdout=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": src}) as child:
        try:
            assert child.stdout.readline() == "locked\n", "the child took no lock"
            yield child
        finally:
            child.kill()


def tree_bytes(directory):
    """Map of relative path -> file bytes, for whole-directory comparisons."""
    out = {}
    for root, _, files in os.walk(directory):
        for name in files:
            if name.endswith(".lock"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, directory)
            with open(path, "rb") as fh:
                out[rel] = fh.read()
    return out


TINY_CFG = "\n".join([
    "vit.image_size = 16",
    "vit.patch_size = 8",
    "vit.depth = 1",
    "vit.embed_dim = 8",
    "vit.n_heads = 2",
    "head.hidden_dim = 16",
    "head.bottleneck_dim = 8",
    "head.output_dim = 24",
    "crop.global_out_size = 16",
    "crop.local_out_size = 8",
    "crop.n_local = 2",
    "distill.batch_size = 2",
    "distill.total_epochs = 10",
    "distill.warmup_epochs = 1",
    "probe.epochs = 3",
]) + "\n"


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


@pytest.fixture
def synth_dir(tmp_path, tiny_config):
    out = tmp_path / "data"
    assert run(["make-synth", "--out", str(out), "--per-class", "3",
                "--size", "16", "--config", tiny_config]) == 0
    return str(out)


# boundary values of the config contract, as --set text; 10**30 is written out
CONTRACT_ATOMS = ["0", "-1", "1", "2", "0.5", "1e999", "-1e999", "1" + "0" * 30]


def contract_values(key):
    """Each atom; for a tuple key, the default with each element replaced by
    each atom, the empty tuple and one element too many."""
    section, name = key.split(".")
    default = getattr(getattr(RunConfig(), section), name)
    if not isinstance(default, tuple):
        return CONTRACT_ATOMS
    text = [repr(v) for v in default]
    values = [f"({', '.join(text[:i] + [atom] + text[i + 1:])})"
              for i in range(len(text)) for atom in CONTRACT_ATOMS]
    return values + ["()", f"({', '.join(text + text[-1:])})"]


class TestConfigContract:
    """Every key at every boundary value: make-synth and a 1-step train
    exit 0, or exit 2 before --out is made; never 1 (an escaped exception,
    a traceback from the command line) or 3."""

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("contract")
        (root / "tiny.cfg").write_text(TINY_CFG)
        assert run(["make-synth", "--out", str(root / "data"), "--per-class", "1",
                    "--size", "16", "--config", str(root / "tiny.cfg")]) == 0
        return root

    @pytest.mark.parametrize("key", sorted(_valid_keys()))
    def test_every_boundary_value_exits_0_or_2(self, tmp_path, base, capsys, key):
        data = base / "data"
        commands = {"make-synth": ["--per-class", "1", "--size", "16"],
                    "train": ["--manifest", str(data / "manifest.csv"),
                              "--images", str(data), "--steps", "1"]}
        wrong = []
        for value in contract_values(key):
            for cmd, extra in commands.items():
                out = tmp_path / "out"
                try:
                    code = run([cmd, "--out", str(out), "--config", str(base / "tiny.cfg"),
                                *extra, "--set", f"{key}={value}"])
                except Exception as exc:
                    code = f"1 ({type(exc).__name__}: {exc})"
                if code not in (0, 2) or (code == 2 and out.exists()):
                    wrong.append(f"{cmd} --set {key}={value}: exit {code}"
                                 + (" after --out was made" if code == 2 else ""))
                shutil.rmtree(out, ignore_errors=True)
        capsys.readouterr()
        assert not wrong, wrong


# file lines that the tiny config cannot run with, each with the --set that
# repairs it and the refusal without it: a fixed size past memory, and 8 px
# local crops of 16 px patches
FILE_FAULTS = {
    "head.output_dim": ("head.output_dim = 2000000000", "head.output_dim=24",
                        "the config fixes 576000152320 bytes"),
    "vit.patch_size": ("vit.patch_size = 16", "crop.local_out_size=16",
                       "crop.local_out_size = 8 is not divisible by vit.patch_size = 16")}


class TestOnePassResolution:
    """The config file and --set merge into one dict, from which the RunConfig
    is built and checked once: a value that --set replaces is never checked."""

    def _train(self, tmp_path, synth_dir, line, sets):
        config = tmp_path / "fault.cfg"
        config.write_text(TINY_CFG + line + "\n")
        out = tmp_path / "o"
        code = run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(out), "--config", str(config),
                    "--steps", "1", *sets])
        return code, out

    @pytest.mark.parametrize("key", sorted(FILE_FAULTS))
    def test_set_repairs_a_file_value(self, tmp_path, synth_dir, key):
        line, repair, _ = FILE_FAULTS[key]
        assert self._train(tmp_path, synth_dir, line, ["--set", repair])[0] == 0

    @pytest.mark.parametrize("key", sorted(FILE_FAULTS))
    def test_unrepaired_file_value_exit_2_before_out(self, tmp_path, synth_dir,
                                                     capsys, key):
        line, _, message = FILE_FAULTS[key]
        code, out = self._train(tmp_path, synth_dir, line, [])
        assert code == 2 and not out.exists()
        assert message in capsys.readouterr().err

    def test_defaults_are_not_checked_before_the_file(self, tmp_path, tiny_config,
                                                      monkeypatch):
        # the paper-scale defaults need 1448431616 bytes, the tiny config far less
        monkeypatch.setattr(configio, "_PHYSICAL_BYTES", 1 << 30)
        data = tmp_path / "data"
        assert run(["make-synth", "--out", str(data), "--per-class", "1",
                    "--size", "16", "--config", tiny_config]) == 0
        assert run(["train", "--manifest", str(data / "manifest.csv"),
                    "--images", str(data), "--out", str(tmp_path / "o"),
                    "--config", tiny_config, "--steps", "1"]) == 0


class TestMakeSynth:
    def test_counts(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run(["make-synth", "--out", str(out), "--per-class", "10",
                    "--size", "16"]) == 0
        pngs = [f for f in os.listdir(out) if f.endswith(".png")]
        assert len(pngs) == 50
        manifest = (out / "manifest.csv").read_text().strip().split("\n")
        assert len(manifest) == 51  # header + 50 rows
        assert "50 images" in capsys.readouterr().out

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run(["make-synth", "--out", str(d), "--per-class", "2",
                        "--size", "16", "--seed", "7"]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_size_below_one_exit_2(self, tmp_path, capsys, size):
        out = tmp_path / "d"
        assert run(["make-synth", "--out", str(out), "--per-class", "1",
                    "--size", size]) == 2
        assert f"image_size must be >= 1, got {size}" in capsys.readouterr().err
        assert not out.exists()

    def test_per_class_zero(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run(["make-synth", "--out", str(out), "--per-class", "0",
                    "--size", "16"]) == 0
        assert (out / "manifest.csv").read_text().strip() == "image,level"


class TestUsageErrors:
    def test_no_subcommand(self):
        assert run([]) == 1

    def test_unknown_flag(self):
        assert run(["make-synth", "--out", "x", "--bogus"]) == 1

    def test_missing_required(self):
        assert run(["train", "--out", "x"]) == 1


# every class in retinassl.errors, with the exit code it gets
ERROR_EXITS = {
    errors.InputError: 2, errors.ParameterError: 2, errors.DataFormatError: 2,
    errors.DecodeError: 2, errors.ManifestError: 2, errors.CheckpointError: 2,
    errors.ConfigError: 2, errors.ContractError: 3, errors.TrainingError: 3,
    errors.RetinaSSLError: 3,
}

# the arguments each subcommand requires besides --out; the paths need not exist
_EVAL_ARGS = ["--checkpoint", "c.ckpt", "--train-manifest", "m.csv", "--train-images",
              "imgs", "--test-manifest", "m.csv", "--test-images", "imgs"]
REQUIRED_ARGS = {
    "make-synth": [],
    "train": ["--manifest", "m.csv", "--images", "imgs"],
    "probe": _EVAL_ARGS,
    "knn": _EVAL_ARGS,
    "attn-map": ["--checkpoint", "c.ckpt", "--image", "a.png"],
}


class TestExitCodes:
    def test_every_error_class_has_an_exit_code(self):
        classes = {v for v in vars(errors).values()
                   if isinstance(v, type) and issubclass(v, BaseException)}
        assert classes == set(ERROR_EXITS)

    @pytest.mark.parametrize("exc_type, code", [
        pytest.param(t, code, id=t.__name__) for t, code in
        [*ERROR_EXITS.items(), (OSError, 2), (MemoryError, 3)]])
    def test_exit_code_follows_the_class(self, tmp_path, capsys, monkeypatch,
                                         exc_type, code):
        def fail(args):
            raise exc_type("boom")
        monkeypatch.setitem(cli._COMMANDS, "make-synth", fail)
        assert run(["make-synth", "--out", str(tmp_path / "o")]) == code
        prefix = "error: " if code == 2 else "runtime error: "
        assert capsys.readouterr().err == f"{prefix}boom\n"

    @pytest.mark.parametrize("command", sorted(REQUIRED_ARGS))
    def test_negative_seed_exit_2(self, tmp_path, capsys, command):
        # numpy's SeedSequence refused it with a ValueError (exit 1) in
        # make-synth, train and probe; knn and attn-map never read the seed
        out = tmp_path / "o"
        assert run([command, *REQUIRED_ARGS[command], "--out", str(out),
                    "--seed", "-1"]) == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_probe_seed_is_not_a_config_key(self, tmp_path, capsys):
        # it was accepted, then overwritten by --seed
        out = tmp_path / "o"
        assert run(["make-synth", "--out", str(out), "--set", "probe.seed=7"]) == 2
        assert "set it with --seed" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_log_line_count(self, tmp_path, tiny_config, synth_dir):
        out = tmp_path / "run"
        assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(out),
                    "--config", tiny_config, "--steps", "5"]) == 0
        lines = (out / "metrics.log").read_text().strip().split("\n")
        assert len(lines) == 6  # header + 5 steps
        assert lines[0].startswith("step\t")
        assert os.path.exists(out / "final.ckpt")

    def test_failed_run_leaves_the_log_of_its_steps(self, tmp_path, tiny_config,
                                                    synth_dir, monkeypatch):
        real_save = cli.save_checkpoint

        def save_failing_at_step_2(state, path, *configs):
            if state.step == 2:
                raise OSError("disk full")
            real_save(state, path, *configs)

        args = ["train", "--manifest", f"{synth_dir}/manifest.csv",
                "--images", synth_dir, "--config", tiny_config]
        done = tmp_path / "done"
        assert run(args + ["--out", str(done), "--steps", "2"]) == 0
        monkeypatch.setattr(cli, "save_checkpoint", save_failing_at_step_2)
        out = tmp_path / "run"
        assert run(args + ["--out", str(out), "--steps", "5",
                           "--checkpoint-every", "1"]) == 2
        text = (out / "metrics.log").read_text()
        lines = text.split("\n")
        assert lines[0] == METRICS_HEADER
        assert [line.split("\t")[0] for line in lines[1:-1]] == ["1", "2"]
        assert text == (done / "metrics.log").read_text()
        assert not os.path.exists(out / "final.ckpt")

    def test_corrupted_labels_still_train(self, tmp_path, tiny_config, synth_dir):
        # SSL is label-blind: garbage in the level column must not matter
        manifest = tmp_path / "bad.csv"
        rows = open(f"{synth_dir}/manifest.csv").read().strip().split("\n")
        manifest.write_text(rows[0] + "\n"
                            + "\n".join(r.split(",")[0] + ",banana"
                                        for r in rows[1:]) + "\n")
        out = tmp_path / "run"
        assert run(["train", "--manifest", str(manifest), "--images", synth_dir,
                    "--out", str(out), "--config", tiny_config,
                    "--steps", "2"]) == 0

    def test_resume_twin_run(self, tmp_path, tiny_config, synth_dir):
        full = tmp_path / "full"
        assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(full),
                    "--config", tiny_config, "--steps", "10", "--seed", "5"]) == 0

        part = tmp_path / "part"
        assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(part),
                    "--config", tiny_config, "--steps", "6", "--seed", "5"]) == 0
        rest = tmp_path / "rest"
        assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(rest),
                    "--config", tiny_config, "--steps", "4",
                    "--resume", str(part / "final.ckpt")]) == 0

        full_lines = (full / "metrics.log").read_text().strip().split("\n")[1:]
        part_lines = (part / "metrics.log").read_text().strip().split("\n")[1:]
        rest_lines = (rest / "metrics.log").read_text().strip().split("\n")[1:]
        assert part_lines + rest_lines == full_lines

    def test_byte_reproducible(self, tmp_path, tiny_config, synth_dir):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                        "--images", synth_dir, "--out", str(d),
                        "--config", tiny_config, "--steps", "3",
                        "--seed", "11"]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_config_error_exit_2(self, tmp_path, synth_dir):
        bad = tmp_path / "bad.cfg"
        bad.write_text("distill.tau_t = -1\n")
        assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(tmp_path / "o"),
                    "--config", str(bad), "--steps", "1"]) == 2

    @pytest.mark.parametrize("value", [
        "vit.n_heads=0", "vit.embed_dim=0", "vit.depth=0", "vit.mlp_ratio=0",
        "distill.base_lr=-1", "distill.lr_floor=1e999", "distill.tau_s=1e999",
        "crop.blur_sigma=(0.1, 1e999)", "crop.jitter_strength=(1e999, 0.1, 0.1, 0.1)",
        pytest.param("distill.base_lr=1" + "0" * 400, id="distill.base_lr=10**400"),
        "probe.lr=1e999", "distill.clip_threshold=1e999", "crop.solarize_threshold=1e999",
        "crop.solarize_p=2", "crop.flip_p=-1", "crop.aspect_range=(2.0, 1.0)",
        "crop.aspect_range=(0.0, 1.0)", "crop.grayscale_p=-1",
        "crop.global_scale_range=(1.0, 0.5)", "crop.global_scale_range=(0.0, 1.0)",
        pytest.param("crop.blur_sigma=(1, 1" + "0" * 30 + ")",
                     id="crop.blur_sigma=(1, 10**30)"),
        pytest.param("crop.jitter_strength=(1" + "0" * 30 + ", 0, 0, 0)",
                     id="crop.jitter_strength=(10**30, 0, 0, 0)"),
        "crop.blur_sigma=(0.1, 2.5)", "probe.epochs=-1", "probe.lr=-1",
        "vit.image_size=0", "distill.wd_start=-1", "distill.wd_end=-1",
        "distill.freeze_last_steps=-5", "crop.solarize_threshold=5",
        "crop.jitter_strength=(0.4, 0.4, 0.4, 3.0)", "crop.global_out_size=20",
        "crop.local_out_size=12", "crop.global_out_size=100000",
        "head.output_dim=2000000000", "vit.image_size=8000000", "vit.depth=1000000000000",
        pytest.param("vit.embed_dim=1" + "0" * 400, id="vit.embed_dim=10**400"),
        pytest.param("crop.global_out_size=1" + "0" * 4000,
                     id="crop.global_out_size=10**4000")])
    def test_out_of_range_set_exit_2(self, tmp_path, tiny_config, synth_dir, capsys,
                                     value):
        # refused where the config is built, before a step runs and before
        # --out is made; n_heads=0 used to divide by zero in ViTConfig and
        # exit 1 with a traceback, an infinite blur sigma ended in a numpy
        # ValueError (exit 1), a probability of 2, a negative probe epoch
        # count or a negative wd_end ran (exit 0), image_size=0 was refused
        # only by the first resample, and a crop size that is not a whole
        # number of patches only by the first student forward; tau_s,
        # solarize_threshold, flip_p and aspect_range are no longer keys; a
        # size whose parameters or crops need terabytes ended in a
        # MemoryError (exit 3), a depth of 10**12 is sized without listing
        # its blocks, and a byte count too long to print in decimal is only
        # bounded in the message; an int past int64 was stored as an int,
        # from which numpy built object arrays (exit 1), and a blur radius
        # int(4 sigma + 0.5) above the 8 px local side is refused
        assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(tmp_path / "o"),
                    "--config", tiny_config, "--steps", "1", "--set", value]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_zero_heads_refused_by_make_synth(self, tmp_path, tiny_config):
        assert run(["make-synth", "--out", str(tmp_path / "d"), "--per-class", "1",
                    "--config", tiny_config, "--set", "vit.n_heads=0"]) == 2

    @pytest.mark.parametrize("value", ["{[]: 1}", '"x"'], ids=["unhashable", "string"])
    def test_bad_set_value_exit_2(self, tmp_path, tiny_config, synth_dir, value):
        assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(tmp_path / "o"),
                    "--config", tiny_config, "--steps", "1",
                    "--set", f"vit.depth={value}"]) == 2

    @pytest.mark.parametrize("value", ["crop.blur_sigma=()", "crop.blur_sigma=(0.5,)",
                                       "crop.global_scale_range=(0.5, 1.0, 2.0)"],
                             ids=["empty", "short", "long"])
    def test_tuple_of_another_length_exit_2(self, tmp_path, tiny_config, synth_dir,
                                            capsys, value):
        assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(tmp_path / "o"),
                    "--config", tiny_config, "--steps", "1", "--set", value]) == 2
        assert "the default is" in capsys.readouterr().err

    def test_non_utf8_config_names_its_line(self, tmp_path, synth_dir, capsys):
        config = tmp_path / "latin1.cfg"
        config.write_bytes(TINY_CFG.encode() + "# café\n".encode("latin-1"))
        line = TINY_CFG.count("\n") + 1
        assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(tmp_path / "o"),
                    "--config", str(config), "--steps", "1"]) == 2
        assert (f"latin1.cfg:{line}: config file is not UTF-8 text"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("counts", [["--steps", "-3"],
                                        ["--steps", "2", "--checkpoint-every", "-1"]],
                             ids=["steps", "checkpoint_every"])
    def test_negative_count_exit_2(self, tmp_path, tiny_config, synth_dir, counts):
        out = tmp_path / "o"
        assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(out),
                    "--config", tiny_config, *counts]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("counts", [["crop.n_global=1", "crop.n_local=0"],
                                        ["crop.n_global=0"]],
                             ids=["one_view", "no_global"])
    def test_crop_counts_without_a_pair_exit_2(self, tmp_path, tiny_config, synth_dir,
                                               counts):
        sets = [arg for assignment in counts for arg in ("--set", assignment)]
        assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(tmp_path / "o"),
                    "--config", tiny_config, "--steps", "1", *sets]) == 2

    def test_unknown_config_key_exit_2(self, tmp_path):
        # a deleted key must fail loudly rather than be silently ignored
        assert run(["make-synth", "--out", str(tmp_path / "o"),
                    "--set", "data.image_size=64"]) == 2
        assert run(["make-synth", "--out", str(tmp_path / "o"),
                    "--set", "distill.center_sign=-1"]) == 2

    @pytest.mark.parametrize("name, error", [
        ("1_left.ppm", "1 image file(s) not found"),
        ("1_left.png", "1_left.png: not a PNG stream")], ids=["ppm", "png"])
    def test_pixmap_exit_2(self, tmp_path, tiny_config, capsys, name, error):
        # images are PNG only: a manifest entry is <id>.png, and a pixmap
        # under that name is refused, naming the file
        (tmp_path / "m.csv").write_text("image,level\n1_left,0\n")
        (tmp_path / name).write_bytes(b"P6\n16 16\n255\n" + bytes(768))
        out = tmp_path / "o"
        assert run(["train", "--manifest", str(tmp_path / "m.csv"),
                    "--images", str(tmp_path), "--out", str(out),
                    "--config", tiny_config, "--steps", "1"]) == 2
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_mixed_size_manifest_exit_2(self, tmp_path, tiny_config, capsys):
        from retinassl.imagecodec import encode_image
        (tmp_path / "m.csv").write_text("image,level\na,0\nb,0\n")
        encode_image(tmp_path / "a.png", np.zeros((3, 16, 16)))
        encode_image(tmp_path / "b.png", np.zeros((3, 8, 8)))
        assert run(["train", "--manifest", str(tmp_path / "m.csv"),
                    "--images", str(tmp_path), "--out", str(tmp_path / "o"),
                    "--config", tiny_config, "--steps", "1"]) == 2
        assert "b.png" in capsys.readouterr().err

    @pytest.mark.parametrize("position", ["inside", "across"])
    def test_size_change_in_a_block_exit_2(self, tmp_path, tiny_config, capsys,
                                           monkeypatch, position):
        # blocks of two 16 px files: the 8 px file is the second of the first
        # block, or the first of the second
        from retinassl.imagecodec import encode_image
        monkeypatch.setattr("retinassl.imagecodec._BLOCK_VALUES", 2 * 16 * (16 * 3 + 1))
        sizes = [16, 8, 16] if position == "inside" else [16, 16, 8]
        names = ["a", "b", "c"]
        (tmp_path / "m.csv").write_text("image,level\n" + "".join(f"{n},0\n" for n in names))
        for name, size in zip(names, sizes):
            encode_image(tmp_path / f"{name}.png", np.zeros((3, size, size)))
        assert run(["train", "--manifest", str(tmp_path / "m.csv"),
                    "--images", str(tmp_path), "--out", str(tmp_path / "o"),
                    "--config", tiny_config, "--steps", "1"]) == 2
        bad = names[sizes.index(8)]
        assert f"{bad}.png is 8x8" in capsys.readouterr().err

    @pytest.mark.parametrize("ftype", [5, 255])
    def test_unknown_png_filter_type_exit_2(self, tmp_path, tiny_config, capsys, ftype):
        from retinassl.imagecodec import encode_image
        (tmp_path / "m.csv").write_text("image,level\na,0\nb,0\n")
        encode_image(tmp_path / "a.png", np.zeros((3, 2, 2)))
        stream = bytes(7) + bytes([ftype]) + bytes(6)
        ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)
        chunks = [(b"IHDR", ihdr), (b"IDAT", zlib.compress(stream)), (b"IEND", b"")]
        (tmp_path / "b.png").write_bytes(b"\x89PNG\r\n\x1a\n" + b"".join(
            struct.pack(">I", len(p)) + t + p + struct.pack(">I", zlib.crc32(t + p))
            for t, p in chunks))
        assert run(["train", "--manifest", str(tmp_path / "m.csv"),
                    "--images", str(tmp_path), "--out", str(tmp_path / "o"),
                    "--config", tiny_config, "--steps", "1"]) == 2
        assert f"b.png: unknown PNG filter type {ftype}" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, line", [
        (["a" * 140_000 + ",1"], 2),
        (["a,0", "b,1", "c"], 4),
        (["a,0", "a,1"], 3),
    ])
    def test_manifest_error_names_its_line(self, tmp_path, tiny_config, capsys, rows, line):
        (tmp_path / "m.csv").write_text("image,level\n" + "".join(r + "\n" for r in rows))
        assert run(["train", "--manifest", str(tmp_path / "m.csv"),
                    "--images", str(tmp_path), "--out", str(tmp_path / "o"),
                    "--config", tiny_config, "--steps", "1"]) == 2
        assert f"error: line {line}: " in capsys.readouterr().err

    def test_missing_manifest_exit_2(self, tmp_path, tiny_config):
        assert run(["train", "--manifest", "/nonexistent.csv",
                    "--images", str(tmp_path), "--out", str(tmp_path / "o"),
                    "--config", tiny_config, "--steps", "1"]) == 2

    def test_non_utf8_manifest_exit_2(self, tmp_path, tiny_config, capsys):
        (tmp_path / "m.csv").write_bytes(b"image,level\n\xff\xfe,1\n")
        assert run(["train", "--manifest", str(tmp_path / "m.csv"),
                    "--images", str(tmp_path), "--out", str(tmp_path / "o"),
                    "--config", tiny_config, "--steps", "1"]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_non_utf8_manifest_names_its_line(self, tmp_path, tiny_config, capsys):
        (tmp_path / "m.csv").write_bytes(b"image,level\na,0\nb,1\n\xff\xfe,1\n")
        assert run(["train", "--manifest", str(tmp_path / "m.csv"),
                    "--images", str(tmp_path), "--out", str(tmp_path / "o"),
                    "--config", tiny_config, "--steps", "1"]) == 2
        assert "error: line 4: manifest is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("with_bom", ["manifest", "config"])
    def test_byte_order_mark_is_accepted(self, tmp_path, tiny_config, synth_dir, with_bom):
        # spreadsheet programs write "CSV UTF-8" with a leading byte-order mark
        files = {"manifest": f"{synth_dir}/manifest.csv", "config": tiny_config}
        with open(files[with_bom], "rb") as fh:
            (tmp_path / "bom").write_bytes(b"\xef\xbb\xbf" + fh.read())
        args = ["train", "--images", synth_dir, "--steps", "1"]
        plain = args + ["--manifest", files["manifest"], "--config", tiny_config]
        files[with_bom] = str(tmp_path / "bom")
        bom = args + ["--manifest", files["manifest"], "--config", files["config"]]
        assert run(plain + ["--out", str(tmp_path / "plain")]) == 0
        assert run(bom + ["--out", str(tmp_path / "o")]) == 0
        assert ((tmp_path / "o" / "metrics.log").read_bytes()
                == (tmp_path / "plain" / "metrics.log").read_bytes())

    def test_non_utf8_manifest_after_a_bom_names_its_line(self, tmp_path, tiny_config,
                                                          capsys):
        (tmp_path / "m.csv").write_bytes(b"\xef\xbb\xbfimage,level\na,0\n\xff\xfe,1\n")
        assert run(["train", "--manifest", str(tmp_path / "m.csv"),
                    "--images", str(tmp_path), "--out", str(tmp_path / "o"),
                    "--config", tiny_config, "--steps", "1"]) == 2
        assert ("error: line 3: manifest is not UTF-8 text: invalid start byte "
                "(byte 0xff)" in capsys.readouterr().err)

    def test_non_utf8_config_after_a_bom_names_its_line(self, tmp_path, synth_dir, capsys):
        config = tmp_path / "bom.cfg"
        config.write_bytes(b"\xef\xbb\xbf" + TINY_CFG.encode() + "# café\n".encode("latin-1"))
        line = TINY_CFG.count("\n") + 1
        assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(tmp_path / "o"),
                    "--config", str(config), "--steps", "1"]) == 2
        assert (f"bom.cfg:{line}: config file is not UTF-8 text: invalid continuation "
                "byte (byte 0xe9)" in capsys.readouterr().err)

    def test_overlong_manifest_field_exit_2(self, tmp_path, tiny_config, capsys):
        # past the csv module's default field limit of 131072 characters
        (tmp_path / "m.csv").write_text("image,level\n" + "a" * 140_000 + ",1\n")
        assert run(["train", "--manifest", str(tmp_path / "m.csv"),
                    "--images", str(tmp_path), "--out", str(tmp_path / "o"),
                    "--config", tiny_config, "--steps", "1"]) == 2
        assert "field limit" in capsys.readouterr().err

    def test_env_var_config(self, tmp_path, tiny_config, synth_dir, monkeypatch):
        monkeypatch.setenv("RETINASSL_CONFIG", tiny_config)
        out = tmp_path / "run"
        assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(out),
                    "--steps", "1"]) == 0

    def test_output_lock(self, tmp_path, tiny_config, synth_dir):
        out = tmp_path / "run"
        with _child_holding_output_lock(out):
            assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                        "--images", synth_dir, "--out", str(out),
                        "--config", tiny_config, "--steps", "1"]) == 2
        assert not (out / "metrics.log").exists()

    def test_a_killed_runs_lock_does_not_block_the_next(self, tmp_path, tiny_config,
                                                        synth_dir):
        out = tmp_path / "run"
        with _child_holding_output_lock(out) as child:
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(out),
                    "--config", tiny_config, "--steps", "1"]) == 0
        # the lock file stays, so every run locks the same file
        assert (out / ".retinassl.lock").exists()

    @pytest.mark.parametrize("extra", [
        ["--checkpoint-every", "-1"], ["--steps", "999"],
        ["--resume", "missing.ckpt"]], ids=["checkpoint-every", "steps", "resume"])
    def test_bad_flags_refused_before_images_are_read(self, tmp_path, tiny_config,
                                                      synth_dir, monkeypatch, extra):
        loads = []
        monkeypatch.setattr(DatasetManifest, "load_images",
                            lambda manifest: loads.append(manifest))
        out = tmp_path / "o"
        extra = [str(tmp_path / a) if a.endswith(".ckpt") else a for a in extra]
        assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(out),
                    "--config", tiny_config, *extra]) == 2
        assert loads == [] and not out.exists()

    def test_images_too_small_to_crop_refused_before_out(self, tmp_path, tiny_config,
                                                         capsys):
        data, out = tmp_path / "data", tmp_path / "o"
        assert run(["make-synth", "--out", str(data), "--per-class", "1",
                    "--size", "1", "--config", tiny_config]) == 0
        assert run(["train", "--manifest", f"{data}/manifest.csv",
                    "--images", str(data), "--out", str(out),
                    "--config", tiny_config, "--steps", "1"]) == 2
        assert "image too small to crop: 1x1" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture
def trained(tmp_path, tiny_config, synth_dir):
    out = tmp_path / "run"
    assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                "--images", synth_dir, "--out", str(out),
                "--config", tiny_config, "--steps", "3"]) == 0
    return str(out / "final.ckpt")


def _rewrite_checkpoint(path, edit):
    """Rewrite a checkpoint file through `edit`, a map from its list of
    (name, payload) byte pairs to a new list; the container is parsed and
    re-packed here, apart from the library, with valid checksums."""
    with open(path, "rb") as fh:
        blob = fh.read()
    sections, pos = [], 12  # magic + version
    while pos < len(blob):
        (nlen,) = struct.unpack_from("<H", blob, pos)
        (plen,) = struct.unpack_from("<Q", blob, pos + 2 + nlen)
        start = pos + 14 + nlen
        sections.append((blob[pos + 2:pos + 2 + nlen], blob[start:start + plen]))
        pos = start + plen
    with open(path, "wb") as fh:
        fh.write(blob[:12] + b"".join(
            struct.pack("<H", len(n)) + n
            + struct.pack("<QI", len(p), zlib.crc32(p) & 0xFFFFFFFF) + p
            for n, p in edit(sections)))


def _without_key(payload, key):
    return json.dumps({k: v for k, v in json.loads(payload).items()
                       if k != key}).encode()


def _with_rng_state(payload, value):
    meta = json.loads(payload)
    meta["rng_state"]["state"]["state"] = value
    return json.dumps(meta).encode()


def _with_step(payload, step):
    meta = json.loads(payload)
    meta["step"] = step
    return json.dumps(meta).encode()


def _with_section(payload, section, value):
    configs = json.loads(payload)
    configs[section] = value
    return json.dumps(configs).encode()


def _with_config(payload, section, key, value):
    configs = json.loads(payload)
    configs[section][key] = value
    return json.dumps(configs).encode()


def _with_first_value(payload, value):
    """An array section's payload with its first stored value replaced."""
    head = 1 + 8 * payload[0]  # ndim, then one u64 per dimension
    return payload[:head] + struct.pack("<d", value) + payload[head + 8:]


def _with_value_in(section, value):
    return lambda secs: [(n, _with_first_value(p, value) if n == section else p)
                         for n, p in secs]


MALFORMED_CHECKPOINTS = {
    "non_utf8_section_name": lambda secs: [
        (b"teacher/\xff\xfe" if n == b"teacher/cls" else n, p) for n, p in secs],
    "unparsable_configs": lambda secs: [
        (n, b"{not json" if n == b"configs" else p) for n, p in secs],
    "configs_without_head": lambda secs: [
        (n, _without_key(p, "head") if n == b"configs" else p) for n, p in secs],
    "meta_without_rng_state": lambda secs: [
        (n, _without_key(p, "rng_state") if n == b"meta" else p) for n, p in secs],
    "missing_teacher_cls": lambda secs: [
        (n, p) for n, p in secs if n != b"teacher/cls"],
    "every_group_without_cls": lambda secs: [
        (n, p) for n, p in secs if not n.endswith(b"/cls")],
    "rng_state_out_of_range": lambda secs: [
        (n, _with_rng_state(p, 2 ** 200) if n == b"meta" else p) for n, p in secs],
    "negative_step": lambda secs: [
        (n, _with_step(p, -5) if n == b"meta" else p) for n, p in secs],
    "step_a_float": lambda secs: [
        (n, _with_step(p, 2.5) if n == b"meta" else p) for n, p in secs],
    "step_a_bool": lambda secs: [
        (n, _with_step(p, True) if n == b"meta" else p) for n, p in secs],
    "step_a_string": lambda secs: [
        (n, _with_step(p, "3") if n == b"meta" else p) for n, p in secs],
    "vit_depth_true": lambda secs: [
        (n, _with_config(p, "vit", "depth", True) if n == b"configs" else p)
        for n, p in secs],
    "vit_depth_a_float": lambda secs: [
        (n, _with_config(p, "vit", "depth", 1.0) if n == b"configs" else p)
        for n, p in secs],
    "blur_sigma_of_nested_lists": lambda secs: [
        (n, _with_config(p, "crop", "blur_sigma", [[0.1], [2.0]]) if n == b"configs"
         else p) for n, p in secs],
    "vit_section_a_list": lambda secs: [
        (n, _with_section(p, "vit", [2, 8]) if n == b"configs" else p) for n, p in secs],
    "vit_depth_a_string": lambda secs: [
        (n, _with_config(p, "vit", "depth", "x") if n == b"configs" else p)
        for n, p in secs],
    "blur_sigma_infinite": lambda secs: [
        (n, _with_config(p, "crop", "blur_sigma", [0.1, float("inf")]) if n == b"configs"
         else p) for n, p in secs],
    "global_scale_range_of_one_element": lambda secs: [
        (n, _with_config(p, "crop", "global_scale_range", [0.75]) if n == b"configs"
         else p) for n, p in secs],
    "blur_sigma_of_a_30_digit_int": lambda secs: [
        (n, _with_config(p, "crop", "blur_sigma", [0.1, 10 ** 30]) if n == b"configs"
         else p) for n, p in secs],
    "center_shape_product_wraps": lambda secs: [
        (n, struct.pack("<BQQ", 2, 2 ** 32, 2 ** 32) if n == b"center" else p)
        for n, p in secs],
    "center_rank_above_64": lambda secs: [
        (n, struct.pack("<B65Qd", 65, *[1] * 65, 0.0) if n == b"center" else p)
        for n, p in secs],
    "center_of_wrong_shape": lambda secs: [
        (n, dict(secs)[b"student/cls"] if n == b"center" else p) for n, p in secs],
    "teacher_weight_nan": _with_value_in(b"teacher/blocks.0.mlp.fc1.w", float("nan")),
    "opt_v_infinite": _with_value_in(b"opt_v/cls", float("inf")),
    "center_nan": _with_value_in(b"center", float("nan")),
    # JSON nested past the interpreter's recursion limit
    "meta_nested_deeply": lambda secs: [
        (n, b"[" * 200_000 + b"]" * 200_000 if n == b"meta" else p) for n, p in secs],
    "configs_nested_deeply": lambda secs: [
        (n, b"[" * 200_000 + b"]" * 200_000 if n == b"configs" else p) for n, p in secs],
}


class TestProbeKnn:
    def _eval_args(self, cmd, trained, synth_dir, out, tiny_config, extra=()):
        return [cmd, "--checkpoint", trained,
                "--train-manifest", f"{synth_dir}/manifest.csv",
                "--train-images", synth_dir,
                "--test-manifest", f"{synth_dir}/manifest.csv",
                "--test-images", synth_dir,
                "--out", str(out), "--config", tiny_config, *extra]

    def test_probe_writes_reports(self, tmp_path, tiny_config, synth_dir,
                                  trained, capsys):
        out = tmp_path / "probe"
        assert run(self._eval_args("probe", trained, synth_dir, out,
                                   tiny_config)) == 0
        assert os.path.exists(out / "report.txt")
        assert os.path.exists(out / "confusion.csv")
        assert "probe accuracy" in capsys.readouterr().out

    def test_knn_writes_reports(self, tmp_path, tiny_config, synth_dir,
                                trained, capsys):
        out = tmp_path / "knn"
        assert run(self._eval_args("knn", trained, synth_dir, out, tiny_config,
                                   ["--k", "3"])) == 0
        assert os.path.exists(out / "report.txt")
        assert "knn (k=3)" in capsys.readouterr().out

    def test_knn_k_too_large(self, tmp_path, tiny_config, synth_dir, trained,
                             monkeypatch, capsys):
        # refused from the manifest's length, before an image is decoded
        loads, extractions = [], []
        monkeypatch.setattr(DatasetManifest, "load_images",
                            lambda manifest: loads.append(manifest))
        monkeypatch.setattr(evaluation, "extract_features",
                            lambda *args, **kwargs: extractions.append(args))
        out = tmp_path / "knn"
        assert run(self._eval_args("knn", trained, synth_dir, out, tiny_config,
                                   ["--k", "999"])) == 2
        assert "k=999 outside 1..15" in capsys.readouterr().err
        assert loads == [] and extractions == [] and not out.exists()

    def test_reports_byte_reproducible(self, tmp_path, tiny_config, synth_dir,
                                       trained):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(self._eval_args("probe", trained, synth_dir, out,
                                       tiny_config, ["--seed", "3"])) == 0
        assert tree_bytes(a) == tree_bytes(b)

    @pytest.mark.parametrize("cmd, extra", [
        ("probe", ["--set", "probe.batch_size=0"]),
        ("knn", ["--k", "3", "--set", "knn.temperature=0"]),
        ("probe", ["--set", "probe.epochs=-1"]),
        ("probe", ["--set", "probe.lr=-1"]),
    ], ids=["probe.batch_size=0", "knn.temperature=0", "probe.epochs=-1", "probe.lr=-1"])
    def test_bad_eval_config_exit_2(self, tmp_path, tiny_config, synth_dir,
                                    trained, cmd, extra):
        assert run(self._eval_args(cmd, trained, synth_dir, tmp_path / "o",
                                   tiny_config, extra)) == 2

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_checkpoint_exit_2(self, tmp_path, tiny_config, synth_dir,
                                         trained, case):
        _rewrite_checkpoint(trained, MALFORMED_CHECKPOINTS[case])
        assert run(self._eval_args("probe", trained, synth_dir, tmp_path / "o",
                                   tiny_config)) == 2

    @pytest.mark.parametrize("cmd", ["probe", "knn"])
    def test_empty_manifest_exit_2(self, tmp_path, tiny_config, synth_dir,
                                   trained, cmd, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("image,level\n")
        args = self._eval_args(cmd, trained, synth_dir, tmp_path / "o", tiny_config)
        args[args.index("--train-manifest") + 1] = str(empty)
        assert run(args) == 2
        assert f"manifest {empty} lists zero images" in capsys.readouterr().err

    def test_resume_from_negative_step_exit_2(self, tmp_path, tiny_config, synth_dir,
                                              trained, capsys):
        _rewrite_checkpoint(trained, MALFORMED_CHECKPOINTS["negative_step"])
        assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(tmp_path / "o"),
                    "--config", tiny_config, "--steps", "1",
                    "--resume", trained]) == 2
        assert "step -5 is negative" in capsys.readouterr().err

    def test_checkpoint_with_a_removed_key_resumes_as_before(self, tmp_path, tiny_config,
                                                            synth_dir, trained):
        # checkpoints written while the configs had since removed fields
        # store them, at any value; loading ignores names that are not fields
        old = tmp_path / "old.ckpt"
        shutil.copyfile(trained, old)

        def with_removed_fields(configs):
            for section, key, value in [("distill", "center_sign", -1.0),
                                        ("distill", "tau_s", 0.2),
                                        ("crop", "solarize_threshold", 0.3),
                                        ("crop", "flip_p", 0.1),
                                        ("crop", "jitter_p", 0.2),
                                        ("crop", "blur_p", {"first_global": 0.3,
                                                            "second_global": 0.4,
                                                            "local": 0.6}),
                                        ("crop", "aspect_range", [0.5, 2.0]),
                                        ("distill", "ema_end", 0.995),
                                        ("distill", "lr_floor", 0.5)]:
                configs = _with_config(configs, section, key, value)
            return configs

        _rewrite_checkpoint(old, lambda secs: [
            (n, with_removed_fields(p) if n == b"configs" else p) for n, p in secs])
        assert b'"center_sign": -1.0' in old.read_bytes()
        assert b'"solarize_threshold": 0.3' in old.read_bytes()
        assert b'"ema_end": 0.995' in old.read_bytes()
        assert b'"lr_floor": 0.5' in old.read_bytes()
        assert load_checkpoint(old)[1:] == load_checkpoint(trained)[1:]
        logs = []
        for name, ckpt in (("new", trained), ("old", old)):
            out = tmp_path / name
            assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                        "--images", synth_dir, "--out", str(out),
                        "--config", tiny_config, "--steps", "2",
                        "--resume", str(ckpt)]) == 0
            logs.append((out / "metrics.log").read_bytes())
        assert logs[0] == logs[1] and logs[0].count(b"\n") == 3

    @pytest.mark.parametrize("key, value, saved", [
        ("distill.total_epochs", "50", "10"), ("vit.depth", "4", "1")])
    def test_resume_refuses_a_config_value_other_than_the_checkpoints(
            self, tmp_path, tiny_config, synth_dir, trained, capsys, key, value, saved):
        out = tmp_path / "o"
        assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(out),
                    "--config", tiny_config, "--steps", "1",
                    "--resume", trained, "--set", f"{key}={value}"]) == 2
        assert f"{key} = {value} differs from the resumed checkpoint's {saved}" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_resume_checks_the_checkpoints_sections_together(
            self, tmp_path, synth_dir, trained, capsys):
        # each section is valid alone, but 12 px local crops are not whole 8 px patches
        _rewrite_checkpoint(trained, lambda secs: [
            (n, _with_config(p, "crop", "local_out_size", 12) if n == b"configs" else p)
            for n, p in secs])
        out = tmp_path / "o"
        assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(out),
                    "--steps", "1", "--resume", trained]) == 2
        err = capsys.readouterr().err
        assert "crop.local_out_size = 12" in err and "vit.patch_size = 8" in err
        assert not out.exists()

    @pytest.mark.parametrize("cmd, key, value, saved", [
        ("probe", "vit.depth", "4", "1"), ("knn", "vit.embed_dim", "16", "8"),
        ("attn-map", "vit.n_heads", "4", "2")])
    def test_eval_refuses_a_vit_value_other_than_the_checkpoints(
            self, tmp_path, tiny_config, synth_dir, trained, capsys, monkeypatch,
            cmd, key, value, saved):
        reads = []
        monkeypatch.setattr(DatasetManifest, "load_images",
                            lambda manifest: reads.append(manifest))
        monkeypatch.setattr(cli, "decode_image", reads.append)
        out = tmp_path / "o"
        if cmd == "attn-map":
            args = ["attn-map", "--checkpoint", trained, "--image",
                    os.path.join(synth_dir, "synth_0_0000.png"), "--out", str(out),
                    "--config", tiny_config]
        else:
            args = self._eval_args(cmd, trained, synth_dir, out, tiny_config)
        assert run([*args, "--set", f"{key}={value}"]) == 2
        assert f"{key} = {value} differs from the checkpoint's {saved}" in (
            capsys.readouterr().err)
        assert reads == [] and not out.exists()

    def test_resume_without_a_config_runs(self, tmp_path, synth_dir, trained):
        # keys left at their defaults are not compared with the checkpoint's
        assert run(["train", "--manifest", f"{synth_dir}/manifest.csv",
                    "--images", synth_dir, "--out", str(tmp_path / "o"),
                    "--steps", "1", "--resume", trained]) == 0

    @pytest.mark.parametrize("cmd", ["probe", "knn", "attn-map"])
    def test_eval_without_a_config_is_not_refused_for_training_memory(
            self, tmp_path, synth_dir, trained, monkeypatch, cmd):
        # the paper-scale defaults would train in 1448431616 bytes, but an
        # evaluation builds its model from the 16 px checkpoint
        monkeypatch.setattr(configio, "_PHYSICAL_BYTES", 1 << 30)
        out = tmp_path / "o"
        if cmd == "attn-map":
            args = ["attn-map", "--checkpoint", trained, "--image",
                    os.path.join(synth_dir, "synth_0_0000.png"), "--out", str(out)]
        else:
            args = [cmd, "--checkpoint", trained,
                    "--train-manifest", f"{synth_dir}/manifest.csv",
                    "--train-images", synth_dir,
                    "--test-manifest", f"{synth_dir}/manifest.csv",
                    "--test-images", synth_dir, "--out", str(out)]
            args += ["--k", "3"] if cmd == "knn" else []
        assert run(args) == 0

    @pytest.mark.parametrize("cmd", ["probe", "knn"])
    def test_blocks_above_the_checkpoint_depth_refused_before_images_are_read(
            self, tmp_path, tiny_config, synth_dir, trained, cmd, capsys, monkeypatch):
        loads = []
        monkeypatch.setattr(DatasetManifest, "load_images",
                            lambda manifest: loads.append(manifest))
        out = tmp_path / "o"
        assert run(self._eval_args(cmd, trained, synth_dir, out, tiny_config,
                                   ["--set", "data.n_last_blocks=2"])) == 2
        assert "vit.depth = 1" in capsys.readouterr().err
        assert loads == [] and not out.exists()

    @pytest.mark.parametrize("case, section", [
        ("teacher_weight_nan", "teacher/blocks.0.mlp.fc1.w"),
        ("opt_v_infinite", "opt_v/cls"), ("center_nan", "center")])
    def test_a_non_finite_value_names_its_section(self, trained, case, section):
        _rewrite_checkpoint(trained, MALFORMED_CHECKPOINTS[case])
        with pytest.raises(CheckpointError, match=f"section '{section}' holds NaN"):
            load_checkpoint(trained)

    def test_config_of_another_kind_is_a_checkpoint_error(self, trained):
        _rewrite_checkpoint(trained, MALFORMED_CHECKPOINTS["vit_depth_a_string"])
        with pytest.raises(CheckpointError, match="depth"):
            load_checkpoint(trained)

    def test_bad_checkpoint_exit_2(self, tmp_path, tiny_config, synth_dir):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        out = tmp_path / "o"
        assert run(self._eval_args("probe", str(bad), synth_dir, out,
                                   tiny_config)) == 2


class TestAttnMap:
    def test_file_count_and_range(self, tmp_path, tiny_config, synth_dir, trained):
        image = next(os.path.join(synth_dir, f) for f in sorted(os.listdir(synth_dir))
                     if f.endswith(".png"))
        out = tmp_path / "maps"
        assert run(["attn-map", "--checkpoint", trained, "--image", image,
                    "--out", str(out), "--config", tiny_config]) == 0
        files = sorted(os.listdir(out))
        pngs = [f for f in files if f.endswith(".png")]
        # tiny config: 2 heads x 1 CLS token + montage
        assert len(pngs) == 3
        assert any("montage" in f for f in pngs)
        from retinassl.imagecodec import decode_image
        for f in pngs:
            img = decode_image(out / f)
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_wrong_size_exit_2(self, tmp_path, tiny_config, trained):
        from retinassl.imagecodec import encode_image
        image = tmp_path / "big.png"
        encode_image(image, np.zeros((3, 20, 20)))
        assert run(["attn-map", "--checkpoint", trained, "--image", str(image),
                    "--out", str(tmp_path / "maps"),
                    "--config", tiny_config]) == 2

    def test_byte_reproducible(self, tmp_path, tiny_config, synth_dir, trained):
        image = next(os.path.join(synth_dir, f) for f in sorted(os.listdir(synth_dir))
                     if f.endswith(".png"))
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["attn-map", "--checkpoint", trained, "--image", image,
                        "--out", str(out), "--config", tiny_config]) == 0
        assert tree_bytes(a) == tree_bytes(b)
