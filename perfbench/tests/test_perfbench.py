"""The benchmark's own tests: every output check rejects a deliberately
wrong output, the tracer attributes time correctly, and all four workloads
run end to end at smoke-test scale.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import inputs  # noqa: E402
from common import ROOT, SIZES, desk_configs, import_program  # noqa: E402
from tracing import METRICS, Tracer  # noqa: E402

rs = import_program()
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _images(n_per_class=2, size=48, seed=0):
    return rs.data.generate_synthetic_dataset(seed, n_per_class, size)


# ---------------------------------------------------------------------------
# ingest-png: encoder and decode check
# ---------------------------------------------------------------------------

def test_adaptive_png_round_trips_through_the_program_decoder():
    pixels = inputs.quantize(_images().images)
    types = np.concatenate([inputs.encode_png_adaptive(px)[1] for px in pixels])
    assert set(types.tolist()) == {0, 1, 2, 3, 4}
    for px in pixels:
        blob, _ = inputs.encode_png_adaptive(px)
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(rs.imagecodec.decode_png(blob), px)


def test_filter_choice_is_the_minimum_signed_sum():
    raw = np.random.default_rng(0).integers(0, 256, size=(6, 12), dtype=np.uint8)
    types, rows = inputs.choose_filters(raw, 3)
    cand = inputs.filter_candidates(raw, 3).astype(np.int64)
    cost = np.where(cand < 128, cand, 256 - cand).sum(axis=2)
    for y, t in enumerate(types):
        assert cost[t, y] == cost[:, y].min()
        assert cost[:t, y].min(initial=10 ** 9) > cost[t, y]
        np.testing.assert_array_equal(rows[y], cand[t, y])


def test_check_decoded_rejects_a_flipped_pixel():
    pixels = inputs.quantize(_images(1).images)
    decoded = pixels.astype(np.float64).transpose(0, 3, 1, 2) / 255.0
    checks.check_decoded(decoded, pixels)
    decoded[2, 1, 7, 9] = (pixels[2, 7, 9, 1] ^ 1) / 255.0
    with pytest.raises(checks.CheckFailure, match="image 2: 1 decoded samples differ"):
        checks.check_decoded(decoded, pixels)


def test_check_filter_mix_rejects_a_missing_filter():
    checks.check_filter_mix(np.array([1, 2, 3, 4, 5]))
    with pytest.raises(checks.CheckFailure):
        checks.check_filter_mix(np.array([1, 2, 0, 4, 5]))


# ---------------------------------------------------------------------------
# k-NN oracle
# ---------------------------------------------------------------------------

def _knn_case(seed=0, n=300, m=40, d=8):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, d))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    feats[n // 2:n // 2 + 10] = feats[:10]          # exact ties
    labels = rng.integers(0, 5, size=n)
    queries = np.concatenate([feats[:5], rng.normal(size=(m - 5, d))])
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    return feats, labels, queries


def test_knn_oracle_matches_the_program_and_rejects_a_swapped_label():
    feats, labels, queries = _knn_case()
    cfg = rs.evaluation.KnnConfig(k=7)
    got = rs.evaluation.knn_classify(rs.evaluation.EmbeddingIndex(feats, labels),
                                     queries, cfg)
    want = checks.knn_oracle(feats, labels, queries, cfg.k, cfg.temperature)
    checks.check_knn(got, want)
    swapped = got.copy()
    swapped[3] = (swapped[3] + 1) % 5
    with pytest.raises(checks.CheckFailure, match="1 k-NN predictions differ"):
        checks.check_knn(swapped, want)


def test_knn_oracle_breaks_similarity_ties_toward_the_lower_index():
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    # rows 0 and 2 tie; k=1 must pick row 0 and its label
    assert checks.knn_oracle(feats, np.array([3, 1, 4]), feats[:1], 1, 0.07)[0] == 3


# ---------------------------------------------------------------------------
# train-desk: Gibbs bound, EMA, twin lines
# ---------------------------------------------------------------------------

def _step_metrics(loss, entropy):
    return rs.distill.StepMetrics(step=1, epoch=0, loss=loss, lr=0.0, wd=0.0,
                                  ema_lambda=0.99, teacher_entropy=entropy)


def test_check_step_rejects_a_loss_below_the_gibbs_bound_or_not_finite():
    checks.check_step(_step_metrics(10.0, 1.0), n_views=6, n_global=2)
    with pytest.raises(checks.CheckFailure, match="Gibbs"):
        checks.check_step(_step_metrics(9.9, 1.0), n_views=6, n_global=2)
    with pytest.raises(checks.CheckFailure):
        checks.check_step(_step_metrics(math.nan, 1.0), n_views=6, n_global=2)


def test_real_step_satisfies_the_checks_and_a_perturbed_teacher_fails():
    vit, head, crop, distill = desk_configs()
    state = rs.distill.init_train_state(vit, head, seed=0, init_std=0.05)
    before = {k: t.data.copy() for k, t in state.teacher.items()}
    seen = []
    rs.distill.train_loop(_images(4).images, state, vit, head, crop, distill,
                          n_steps=1, step_callback=lambda m, s: seen.append(m))
    checks.check_step(seen[0], crop.n_global + crop.n_local, crop.n_global)
    checks.check_ema(before, state.teacher, state.student, seen[0].ema_lambda)
    state.teacher["blocks.0.attn.qkv.w"].data[0, 0] += 1e-9
    with pytest.raises(checks.CheckFailure, match="blocks.0.attn.qkv.w"):
        checks.check_ema(before, state.teacher, state.student, seen[0].ema_lambda)


def test_check_unchanged_rejects_a_round_that_differs():
    checks.check_unchanged("preds", np.array([1, 2, 3]), np.array([1, 2, 3]))
    with pytest.raises(checks.CheckFailure, match="preds changed"):
        checks.check_unchanged("preds", np.array([1, 2, 3]), np.array([1, 4, 3]))


def test_check_same_lines_rejects_a_changed_line():
    checks.check_same_lines(["1\ta", "2\tb"], ["1\ta", "2\tb"])
    with pytest.raises(checks.CheckFailure, match="line 1"):
        checks.check_same_lines(["1\ta", "2\tb"], ["1\ta", "2\tc"])


# ---------------------------------------------------------------------------
# eval-frozen: numpy forward and probe
# ---------------------------------------------------------------------------

def test_reference_forward_matches_the_program_and_rejects_a_perturbed_feature():
    vit, head, _, _ = desk_configs()
    state = rs.distill.init_train_state(vit, head, seed=2, init_std=0.05)
    imgs = _images(1).images[:3]
    feats = rs.evaluation.extract_features(state.teacher, imgs, vit)
    checks.check_features(feats, state.teacher, imgs, vit)
    feats[1, 5] += 1e-6
    with pytest.raises(checks.CheckFailure, match="numpy forward"):
        checks.check_features(feats, state.teacher, imgs, vit)


def test_check_probe_rejects_an_untrained_probe():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 5, size=60)
    feats = np.eye(5)[labels] + 0.1 * rng.normal(size=(60, 5))
    trained = rs.evaluation.train_linear_probe(feats, labels,
                                               rs.evaluation.ProbeConfig(epochs=20))
    checks.check_probe(trained, feats, labels)
    zero = rs.evaluation.LinearProbe(np.zeros((5, 5)), np.zeros(5))
    assert checks.probe_train_loss(zero, feats, labels) == pytest.approx(math.log(5))
    with pytest.raises(checks.CheckFailure, match="ln 5"):
        checks.check_probe(zero, feats, labels)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_self_time_is_the_span_minus_its_children():
    tr = Tracer()
    tr.round = 0
    with tr.span("distill.train_step"):
        with tr.span("crops.build_multicrop"):
            pass
        with tr.span("autodiff.backward"):
            pass
    step, crop_span, back = tr.spans
    assert crop_span[1] == back[1] == step[0] and step[1] is None
    total = tr._by_round({"distill.train_step"}, [0], {0: 1.0})[0]
    self_t = tr._by_round({"distill.train_step"}, [0], {0: 1.0}, self_time=True)[0]
    children = sum(s[5] - s[4] for s in (crop_span, back))
    assert self_t == pytest.approx(total - children, abs=1e-12)


def test_patches_are_restored_and_do_not_change_results():
    original = rs.distill.backward
    vit, head, crop, distill = desk_configs()
    imgs = _images(4).images
    lines = {}
    for traced in (False, True):
        state = rs.distill.init_train_state(vit, head, seed=0, init_std=0.05)
        out: list[str] = []
        tr = Tracer()
        tr.round = 0
        if traced:
            with tr.patched(rs):
                assert rs.distill.backward is not original
                rs.distill.train_loop(imgs, state, vit, head, crop, distill,
                                      n_steps=1, log_lines=out)
        else:
            rs.distill.train_loop(imgs, state, vit, head, crop, distill,
                                  n_steps=1, log_lines=out)
        lines[traced] = out
    assert rs.distill.backward is original
    assert lines[False] == lines[True]
    m = tr.metrics({0: 1}, {0: 1.0}, overhead=0.0)
    assert m["autodiff.tape_nodes"] > 0
    assert m["crops.build_multicrop_ms"] >= m["crops.sample_crop_ms"] > 0
    assert m["distill.step_self_ms"] > 0


# ---------------------------------------------------------------------------
# BENCHMARK.json and smoke runs
# ---------------------------------------------------------------------------

def test_benchmark_json_names_the_traced_metrics():
    assert [m["name"] for m in SPEC["per_layer"]] == list(METRICS)
    assert [w["name"] for w in SPEC["workloads"]] == list(SIZES["small"])


def _run(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "0.5", "--trace", str(trace), "--scale", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", list(SIZES["small"]))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("train-desk", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
