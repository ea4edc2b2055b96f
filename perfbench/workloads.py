"""The four workloads. Each drives the public library calls that the
matching ``retinassl`` subcommand makes, on inputs generated beforehand."""

from __future__ import annotations

import os

import numpy as np

import checks
from common import DESK_INIT_STD, desk_configs


class Workload:
    """setup() is the program's work before the steady phase and may run
    several times; run_round() does `ops_per_round` operations. Both are
    timed. prepare_round(), check_round() and final_check() are not.
    `images_per_op` turns operations into images for images_per_s, and
    `setup_repeats` set-ups are spread over each run."""

    images_per_op = 1

    def prepare_round(self):
        pass

    def final_check(self):
        pass


class TrainDesk(Workload):
    """The acceptance desk recipe through distill.train_loop, on images
    decoded from PNG in set-up. One operation is one training step."""

    setup_repeats = 5
    ops_per_round = 1
    twin_steps = 4

    def __init__(self, rs, inputs: str, seed: int):
        self.rs, self.seed = rs, seed
        self.vit, self.head, self.crop, self.distill = desk_configs()
        self.dir = os.path.join(inputs, "images")
        self.images_per_op = self.distill.batch_size
        self.n_views = self.crop.n_global + self.crop.n_local
        self.lines: list[str] = []
        self.ref_lines: list[str] = []

    def _new_state(self):
        return self.rs.distill.init_train_state(self.vit, self.head, seed=self.seed,
                                                init_std=DESK_INIT_STD)

    def _steps(self, state, n, lines, callback=None):
        self.rs.distill.train_loop(self.images, state, self.vit, self.head,
                                   self.crop, self.distill, n_steps=n,
                                   log_lines=lines, step_callback=callback)

    def _on_step(self, metrics, state):
        self.last = metrics

    def setup(self):
        # keep the longest run of steps for the twin check, and drop the
        # previous set-up's arrays first, so that repeated set-ups do not
        # raise the peak memory
        if len(self.lines) > len(self.ref_lines):
            self.ref_lines = self.lines
        self.images = self.state = None
        manifest = self.rs.data.load_manifest(
            os.path.join(self.dir, "manifest.csv"), self.dir, label_blind=True)
        self.images = manifest.load_images()
        self.state = self._new_state()
        self.lines = []
        self.prepare_round()
        self.run_round()  # warm-up step, checked like every other
        self.check_round()

    def prepare_round(self):
        self.before = {k: t.data.copy() for k, t in self.state.teacher.items()}

    def run_round(self):
        self._steps(self.state, 1, self.lines, self._on_step)

    def check_round(self):
        checks.check_step(self.last, self.n_views, self.crop.n_global)
        checks.check_ema(self.before, self.state.teacher, self.state.student,
                         self.last.ema_lambda)

    def final_check(self):
        ref = max(self.lines, self.ref_lines, key=len)
        n = min(self.twin_steps, len(ref))
        twin: list[str] = []
        self._steps(self._new_state(), n, twin)
        checks.check_same_lines(ref[:n], twin)


class EvalFrozen(Workload):
    """The probe and knn subcommands' protocol from a saved desk checkpoint,
    over filter-0 PNGs with a test split 1.5x the train split. One
    operation is one image; a round takes every image through both."""

    setup_repeats = 30
    sample = 8

    def __init__(self, rs, inputs: str, seed: int):
        self.rs, self.seed = rs, seed
        self.ckpt = os.path.join(inputs, "desk.ckpt")
        self.dirs = {s: os.path.join(inputs, s) for s in ("train", "test")}
        self.first = None

    def setup(self):
        rs = self.rs
        state, self.vit, _, _, _ = rs.checkpoint.load_checkpoint(self.ckpt)
        self.teacher = state.teacher
        self.manifests = {s: rs.data.load_manifest(os.path.join(d, "manifest.csv"),
                                                   d, split=s)
                          for s, d in self.dirs.items()}
        s = self.vit.image_size
        rs.evaluation.extract_features(self.teacher, np.zeros((2, 3, s, s)), self.vit)
        self.ops_per_round = sum(len(m) for m in self.manifests.values())

    def run_round(self):
        ev, vit, teacher = self.rs.evaluation, self.vit, self.teacher
        train_m, test_m = self.manifests["train"], self.manifests["test"]
        train, test = train_m.load_images(), test_m.load_images()
        # probe: cmd_probe's calls
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xF11C]))
        probe_feats = ev.extract_features(
            teacher, ev.probe_train_transform(train, vit.image_size, rng), vit)
        probe = ev.train_linear_probe(probe_feats, train_m.grades(),
                                      ev.ProbeConfig(seed=self.seed))
        test_views = ev.probe_eval_transform(test, vit.image_size)
        test_feats = ev.extract_features(teacher, test_views, vit)
        probe_pred = ev.probe_predict(probe, test_feats)
        # knn: cmd_knn's calls
        index = ev.build_index(teacher, ev.probe_eval_transform(train, vit.image_size),
                               train_m.grades(), vit)
        queries = ev.build_index(teacher, ev.probe_eval_transform(test, vit.image_size),
                                 test_m.grades(), vit)
        knn_pred = ev.knn_classify(index, queries.features, ev.KnnConfig(k=20))
        self.out = {"probe_feats": probe_feats, "probe": probe,
                    "probe_pred": probe_pred, "test_feats": test_feats,
                    "test_sample": test_views[:self.sample], "index": index,
                    "queries": queries.features, "knn_pred": knn_pred}

    def check_round(self):
        out = self.out
        if self.first is None:
            checks.check_features(out["test_feats"][:self.sample], self.teacher,
                                  out["test_sample"], self.vit)
            cfg = self.rs.evaluation.KnnConfig(k=20)
            checks.check_knn(out["knn_pred"], checks.knn_oracle(
                out["index"].features, out["index"].labels, out["queries"],
                cfg.k, cfg.temperature))
            checks.check_probe(out["probe"], out["probe_feats"],
                               self.manifests["train"].grades())
            self.first = out
        else:
            for key in ("probe_feats", "test_feats", "probe_pred", "knn_pred"):
                checks.check_unchanged(key, self.first[key], out[key])
            checks.check_unchanged("probe", self.first["probe"].weight,
                                   out["probe"].weight)
        self.out = None


class KnnScale(Workload):
    """knn_classify over a large index of unit-norm features generated by
    the benchmark. One operation is one query."""

    setup_repeats = 9
    warmup_queries = 50

    def __init__(self, rs, inputs: str, seed: int):
        self.rs = rs
        with np.load(os.path.join(inputs, "knn.npz")) as z:
            self.data = {k: z[k] for k in z.files}
        self.cfg = rs.evaluation.KnnConfig(k=20)
        self.ops_per_round = len(self.data["queries"])
        self.first = None

    def setup(self):
        ev = self.rs.evaluation
        self.index = ev.EmbeddingIndex(self.data["features"], self.data["labels"])
        ev.knn_classify(self.index, self.data["queries"][:self.warmup_queries],
                        self.cfg)

    def run_round(self):
        self.pred = self.rs.evaluation.knn_classify(self.index, self.data["queries"],
                                                    self.cfg)

    def check_round(self):
        if self.first is None:
            checks.check_knn(self.pred, checks.knn_oracle(
                self.data["features"], self.data["labels"], self.data["queries"],
                self.cfg.k, self.cfg.temperature))
            self.first = self.pred
        else:
            checks.check_unchanged("k-NN predictions", self.first, self.pred)


class IngestPng(Workload):
    """load_manifest + load_images over adaptive-filter PNGs written by the
    benchmark's own encoder. The model is bypassed. One operation is one
    file. Set-up is the manifest parse alone: a warm-up decode of a few
    files would make setup_s depend on which filters the seed's first files
    happen to use."""

    setup_repeats = 30

    def __init__(self, rs, inputs: str, seed: int):
        self.rs = rs
        self.dir = os.path.join(inputs, "images")
        with np.load(os.path.join(inputs, "expected.npz")) as z:
            self.pixels, self.filter_counts = z["pixels"], z["filter_counts"]
        checks.check_filter_mix(self.filter_counts)
        self.ops_per_round = len(self.pixels)

    def setup(self):
        self.manifest = self.rs.data.load_manifest(
            os.path.join(self.dir, "manifest.csv"), self.dir)

    def run_round(self):
        self.decoded = self.manifest.load_images()

    def check_round(self):
        checks.check_decoded(self.decoded, self.pixels)
        self.decoded = None


WORKLOADS = {"train-desk": TrainDesk, "eval-frozen": EvalFrozen,
             "knn-scale": KnnScale, "ingest-png": IngestPng}
