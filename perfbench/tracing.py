"""Layer tracing from outside the program.

The tracer rebinds the public functions that one layer calls in another
(module attributes such as ``retinassl.distill.backward``) to wrappers that
record a span, and restores them afterwards. The program's files are not
changed, and with the patches removed the untraced code path is exactly the
program's. Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

# (module, attribute, span name). The module is the one whose global the
# caller looks up at call time, so a rebinding there is what the caller sees.
PATCHES = (
    ("distill", "train_step", "distill.train_step"),
    ("distill", "build_multicrop", "crops.build_multicrop"),
    ("crops", "sample_crop", "crops.sample_crop"),
    ("crops", "augment_view", "crops.augment_view"),
    ("distill", "backbone_forward", None),             # teacher or student
    ("distill", "projection_head_forward", None),      # by the backbone call
    ("distill", "backward", "autodiff.backward"),
    ("distill", "clip_gradients", "distill.update/clip"),
    ("distill", "optimizer_step", "distill.update/adamw"),
    ("distill", "ema_update", "distill.update/ema"),
    ("distill", "center_update", "distill.update/center"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("data", "load_manifest", "data.load_manifest"),
    ("data.DatasetManifest", "load_images", "data.load_images"),
    ("data", "decode_image", "imagecodec.decode_image"),
    ("imagecodec", "decode_png", "imagecodec.decode_png"),
    ("evaluation", "probe_train_transform", "evaluation.transform"),
    ("evaluation", "probe_eval_transform", "evaluation.transform"),
    ("evaluation", "extract_features", "evaluation.extract_features"),
    ("evaluation", "build_index", "evaluation.build_index"),
    ("evaluation", "EmbeddingIndex", "evaluation.index_build"),
    ("evaluation", "train_linear_probe", "evaluation.train_linear_probe"),
    ("evaluation", "knn_classify", "evaluation.knn_classify"),
)

# Per-layer metrics of the steady phase, reported per operation of the
# workload (a step, an image, a query or a file): metric -> span names.
PER_OP = {
    "crops.build_multicrop_ms": ("crops.build_multicrop",),
    "crops.sample_crop_ms": ("crops.sample_crop",),
    "crops.augment_view_ms": ("crops.augment_view",),
    "vit.teacher_forward_ms": ("vit.teacher_forward",),
    "vit.student_forward_ms": ("vit.student_forward",),
    "autodiff.backward_ms": ("autodiff.backward",),
    "distill.update_ms": ("distill.update/clip", "distill.update/adamw",
                          "distill.update/ema", "distill.update/center"),
    "data.load_images_ms": ("data.load_images",),
    "evaluation.transform_ms": ("evaluation.transform",),
    "evaluation.extract_features_ms": ("evaluation.extract_features",),
    "evaluation.train_linear_probe_ms": ("evaluation.train_linear_probe",),
    "evaluation.knn_classify_ms": ("evaluation.knn_classify",),
    "imagecodec.decode_png_ms": ("imagecodec.decode_png",),
    "imagecodec.decode_image_ms": ("imagecodec.decode_image",),
}
# Self time (span minus its children) per operation.
SELF_PER_OP = {"distill.step_self_ms": "distill.train_step"}
# Counters per operation.
COUNT_PER_OP = {"autodiff.tape_nodes": "autodiff.tape_nodes"}
# Set-up layers, reported as the median duration of one call.
PER_CALL = {
    "checkpoint.load_ms": "checkpoint.load",
    "data.load_manifest_ms": "data.load_manifest",
    "evaluation.index_build_ms": "evaluation.index_build",
}
OVERHEAD = "trace.overhead_images_per_s"
METRICS = (tuple(PER_OP) + tuple(SELF_PER_OP) + tuple(COUNT_PER_OP)
           + tuple(PER_CALL) + (OVERHEAD,))
UNITS = dict({m: "ms" for m in METRICS}, **{"autodiff.tape_nodes": "count",
                                            OVERHEAD: "1/s"})


class Tracer:
    """Named spans with parents, grouped by round, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []   # [id, parent, name, round, start, end]
        self.counts: list[tuple] = []  # (round, name, value)
        self.round = None
        self._stack: list[int] = []
        self._forward = "vit.teacher_forward"

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               name, self.round, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value) -> None:
        self.counts.append((self.round, name, value))

    def _wrap(self, fn, name):
        if name is None:
            return self._wrap_forward(fn)

        def traced(*args, **kwargs):
            if name == "autodiff.backward":
                self.count("autodiff.tape_nodes", len(args[1].nodes))
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _wrap_forward(self, fn):
        # distill runs backbone then head for one path; the backbone's mode
        # says which path, and the head call that follows inherits it
        def traced(*args, **kwargs):
            if "mode" in kwargs:
                self._forward = ("vit.student_forward" if kwargs["mode"] == "train"
                                 else "vit.teacher_forward")
            with self.span(self._forward):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self, rs):
        """Rebind every PATCHES target of the program namespace `rs`."""
        saved = []
        try:
            for owner_path, attr, name in PATCHES:
                owner = rs
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def _by_round(self, names, rounds, scale, self_time=False) -> dict:
        totals = {r: 0.0 for r in rounds}
        child = {}
        if self_time:
            for s in self.spans:
                if s[1] is not None:
                    child[s[1]] = child.get(s[1], 0.0) + s[5] - s[4]
        for s in self.spans:
            if s[2] in names and s[3] in totals:
                totals[s[3]] += (s[5] - s[4] - child.get(s[0], 0.0)) * scale[s[3]]
        return totals

    def metrics(self, ops_per_round: dict, scale: dict, overhead: float) -> dict:
        """Per-layer metrics. ops_per_round maps each traced steady round to
        its operation count; scale maps every round and set-up to the factor
        that rescales its times to the reference machine speed."""
        rounds = list(ops_per_round)

        def per_op(totals, unit):
            return statistics.median(unit * totals[r] / ops_per_round[r]
                                     for r in rounds)

        out = {}
        for metric, names in PER_OP.items():
            out[metric] = per_op(self._by_round(set(names), rounds, scale), 1e3)
        for metric, name in SELF_PER_OP.items():
            out[metric] = per_op(self._by_round({name}, rounds, scale, True), 1e3)
        for metric, name in COUNT_PER_OP.items():
            totals = {r: 0 for r in rounds}
            for r, n, v in self.counts:
                if n == name and r in totals:
                    totals[r] += v
            out[metric] = per_op(totals, 1)
        for metric, name in PER_CALL.items():
            durs = [(s[5] - s[4]) * scale.get(s[3], 1.0)
                    for s in self.spans if s[2] == name]
            out[metric] = 1e3 * statistics.median(durs) if durs else 0.0
        out[OVERHEAD] = overhead
        return out

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "spans": [dict(zip(("id", "parent", "name", "round",
                                           "start", "end"), s))
                                 for s in self.spans],
                       "counts": self.counts}, fh)
