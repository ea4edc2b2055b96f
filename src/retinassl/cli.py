"""Command-line surface: make-synth, train, probe, knn, attn-map.

Exit codes are a stable contract: 0 success, 1 usage error, 2 bad input
(an ``InputError`` or an ``OSError``), 3 runtime failure (any other
``RetinaSSLError``, or a ``MemoryError``). Every subcommand takes --seed
(default 42) and is byte-reproducible for a fixed seed. The default config
file can also be supplied through the RETINASSL_CONFIG environment
variable; explicit --config wins.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fcntl
import os
import sys

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .configio import apply_assignments, parse_assignments, read_config_file
from .crops import check_crop_source
from .data import (N_GRADES, generate_synthetic_dataset, load_manifest,
                   write_synthetic_dataset)
from .distill import METRICS_HEADER, batch_schedule, init_train_state, train_loop
from .errors import ConfigError, InputError, RetinaSSLError
from .evaluation import (attention_heatmaps, build_index, check_knn_k,
                         compute_metrics, extract_features, knn_classify,
                         probe_eval_transform, probe_predict,
                         probe_train_transform, train_linear_probe)
from .imagecodec import decode_image, encode_image

CONFIG_ENV_VAR = "RETINASSL_CONFIG"
DEFAULT_SEED = 42

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract says 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@contextlib.contextmanager
def _output_dir(path):
    """Make the output directory and hold an exclusive lock on its
    `.retinassl.lock` for the block, so that a second live run into it exits
    2. The kernel releases the lock when its process ends, killed or not. The
    file stays: deleting it would let a later run lock a new file while
    another run holds the old one."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, ".retinassl.lock"), "a") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise InputError(f"output directory {path} is locked by a "
                             "running process") from None
        yield


def _build_parser() -> _Parser:
    parser = _Parser(prog="retinassl",
                     description="Self-distilled ViT pretraining and "
                                 "evaluation for retinal grading.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--config", default=None,
                       help=f"config file (default: ${CONFIG_ENV_VAR})")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="config override, e.g. --set distill.tau_t=0.04")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("make-synth", help="generate the synthetic dataset")
    common(p)
    p.add_argument("--per-class", type=int, default=50)
    p.add_argument("--size", type=int, default=32)

    p = sub.add_parser("train", help="self-supervised training (label-blind)")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--images", required=True, help="image directory")
    p.add_argument("--steps", type=int, default=None,
                   help="step count (default: full schedule)")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="also checkpoint every N steps (0 = only at the end)")

    for name in ("probe", "knn"):
        p = sub.add_parser(name, help=f"{name} evaluation of a checkpoint")
        common(p)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--train-manifest", required=True)
        p.add_argument("--train-images", required=True)
        p.add_argument("--test-manifest", required=True)
        p.add_argument("--test-images", required=True)
        if name == "knn":
            p.add_argument("--k", type=int, default=None,
                           help="neighbor count (default from config)")

    p = sub.add_parser("attn-map", help="CLS attention heatmaps for one image")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    return parser


def _resolve_config(args):
    """The run's config, and the keys that its config file or --set give."""
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    path = args.config or os.environ.get(CONFIG_ENV_VAR) or None
    given = {**(read_config_file(path) if path else {}),
             **parse_assignments(args.set, source="--set")}
    return apply_assignments(given), given.keys()


def cmd_make_synth(args) -> int:
    _resolve_config(args)
    dataset = generate_synthetic_dataset(args.seed, args.per_class, args.size)
    with _output_dir(args.out):
        write_synthetic_dataset(dataset, args.out)
    counts = {g: int((dataset.grades == g).sum()) for g in range(N_GRADES)}
    print(f"wrote {len(dataset.grades)} images to {args.out}")
    print("per-grade counts: " + ", ".join(f"{g}:{c}" for g, c in counts.items()))
    return EXIT_OK


def cmd_train(args) -> int:
    config, given = _resolve_config(args)
    # label-blind on purpose: grades never reach the SSL loop
    manifest = load_manifest(args.manifest, args.images, label_blind=True)
    if len(manifest) == 0:
        raise InputError("manifest resolves to zero images")

    if args.resume:
        state, vit, head, crop, distill = load_checkpoint(args.resume)
        saved = {"vit": vit, "head": head, "crop": crop, "distill": distill}
        _check_saved_config(config, given, saved, "resumed checkpoint")
        try:  # the cross-section rules, which the sections pass one by one on load
            config = dataclasses.replace(config, **saved)
            config.check_training_bytes()
        except ConfigError as exc:
            raise ConfigError(f"resumed checkpoint: {exc}") from None
    else:
        config.check_training_bytes()
        state = init_train_state(config.vit, config.head, seed=args.seed)
    vit, head, crop, distill = config.vit, config.head, config.crop, config.distill

    _, steps_per_epoch = batch_schedule(len(manifest), distill)
    total = distill.total_epochs * steps_per_epoch
    n_steps = total - state.step if args.steps is None else args.steps
    if n_steps < 0:
        raise InputError(f"step count must be >= 0, got {n_steps}")
    if args.checkpoint_every < 0:
        raise InputError(f"--checkpoint-every must be >= 0, got {args.checkpoint_every}")
    if state.step + n_steps > total:
        raise InputError(f"{n_steps} steps from step {state.step} exceeds the "
                         f"{total}-step schedule")

    images = manifest.load_images()
    check_crop_source(*images.shape[-2:])
    with _output_dir(args.out), \
            open(os.path.join(args.out, "metrics.log"), "w") as log:
        log.write(METRICS_HEADER + "\n")
        log.flush()

        # each step's line is flushed before its checkpoint is written, so
        # a run that fails leaves the log of every step it finished
        def step_hook(metrics, st):
            log.write(metrics.format_line() + "\n")
            log.flush()
            if args.checkpoint_every and st.step % args.checkpoint_every == 0:
                save_checkpoint(st, os.path.join(args.out, f"step{st.step:06d}.ckpt"),
                                vit, head, crop, distill)

        train_loop(images, state, vit, head, crop, distill, n_steps=n_steps,
                   step_callback=step_hook)
        save_checkpoint(state, os.path.join(args.out, "final.ckpt"),
                        vit, head, crop, distill)
    print(f"trained {n_steps} steps, final step {state.step}")
    return EXIT_OK


def _check_saved_config(config, given, saved, source):
    """Refuse a key that the config file or --set gives another value than
    `saved`, a map from section names to the configs that `source` stores;
    keys of other sections are not compared."""
    for key in sorted(given):
        section, name = key.split(".", 1)
        if section in saved:
            ours = getattr(getattr(config, section), name)
            theirs = getattr(saved[section], name)
            if ours != theirs:
                raise InputError(f"{key} = {ours!r} differs from the {source}'s {theirs!r}")


def _load_eval_data(args):
    train_m = load_manifest(args.train_manifest, args.train_images, split="train")
    test_m = load_manifest(args.test_manifest, args.test_images, split="test")
    for path, manifest in ((args.train_manifest, train_m), (args.test_manifest, test_m)):
        if len(manifest) == 0:
            raise InputError(f"manifest {path} lists zero images")
    return train_m, test_m


def _write_metrics(out_dir, metrics):
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(metrics.report_text())
    with open(os.path.join(out_dir, "confusion.csv"), "w") as fh:
        fh.write(metrics.confusion_csv())


def _load_eval_checkpoint(args, config, given):
    """The checkpoint's state and ViT config, refused before any image is
    read if the config gives a vit key another value than the checkpoint's,
    or asks for more blocks than the checkpoint's ViT has."""
    state, vit, *_ = load_checkpoint(args.checkpoint)
    _check_saved_config(config, given, {"vit": vit}, "checkpoint")
    if config.data.n_last_blocks > vit.depth:
        raise InputError(f"data.n_last_blocks = {config.data.n_last_blocks} is above "
                         f"the checkpoint's vit.depth = {vit.depth}")
    return state, vit


def cmd_probe(args) -> int:
    config, given = _resolve_config(args)
    state, vit = _load_eval_checkpoint(args, config, given)
    train_m, test_m = _load_eval_data(args)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0xF11C]))

    train_imgs = probe_train_transform(train_m.load_images(), vit.image_size, rng)
    feats = extract_features(state.teacher, train_imgs, vit,
                             config.data.n_last_blocks)
    probe = train_linear_probe(feats, train_m.grades(),
                               dataclasses.replace(config.probe, seed=args.seed))

    test_imgs = probe_eval_transform(test_m.load_images(), vit.image_size)
    test_feats = extract_features(state.teacher, test_imgs, vit,
                                  config.data.n_last_blocks)
    metrics = compute_metrics(probe_predict(probe, test_feats), test_m.grades())
    with _output_dir(args.out):
        _write_metrics(args.out, metrics)
    print(f"probe accuracy = {metrics.accuracy:.4f}")
    return EXIT_OK


def cmd_knn(args) -> int:
    config, given = _resolve_config(args)
    state, vit = _load_eval_checkpoint(args, config, given)
    train_m, test_m = _load_eval_data(args)
    knn_cfg = config.knn if args.k is None else dataclasses.replace(config.knn, k=args.k)
    check_knn_k(knn_cfg.k, len(train_m))  # the index holds every train image
    index = build_index(state.teacher, probe_eval_transform(
        train_m.load_images(), vit.image_size), train_m.grades(), vit,
        config.data.n_last_blocks)
    queries = build_index(state.teacher, probe_eval_transform(
        test_m.load_images(), vit.image_size), test_m.grades(), vit,
        config.data.n_last_blocks)
    preds = knn_classify(index, queries.features, knn_cfg)
    metrics = compute_metrics(preds, test_m.grades())
    with _output_dir(args.out):
        _write_metrics(args.out, metrics)
    print(f"knn (k={knn_cfg.k}) accuracy = {metrics.accuracy:.4f}")
    return EXIT_OK


def cmd_attn_map(args) -> int:
    config, given = _resolve_config(args)
    state, vit, *_ = load_checkpoint(args.checkpoint)
    _check_saved_config(config, given, {"vit": vit}, "checkpoint")
    image = decode_image(args.image)
    h, w = image.shape[-2:]
    if h != w or h != vit.image_size:
        raise InputError(
            f"image is {h}x{w} but the model wants "
            f"{vit.image_size}x{vit.image_size}; resize it first")
    maps = attention_heatmaps(state.teacher, image, vit)
    stem = os.path.splitext(os.path.basename(args.image))[0]
    with _output_dir(args.out):
        for hi in range(vit.n_heads):
            for ci in range(vit.n_cls_tokens):
                encode_image(os.path.join(args.out, f"{stem}_h{hi}_c{ci}.png"),
                             maps[hi, ci])
        montage = np.vstack([np.hstack(list(maps[hi]))
                             for hi in range(vit.n_heads)])
        encode_image(os.path.join(args.out, f"{stem}_montage.png"), montage)
    n = vit.n_heads * vit.n_cls_tokens
    print(f"wrote {n} heatmaps + montage to {args.out}")
    return EXIT_OK


_COMMANDS = {"make-synth": cmd_make_synth, "train": cmd_train,
             "probe": cmd_probe, "knn": cmd_knn, "attn-map": cmd_attn_map}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (RetinaSSLError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
