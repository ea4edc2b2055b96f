import colorsys
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter1d

from retinassl import crops
from retinassl.crops import (
    BLUR_P,
    FIRST_GLOBAL,
    FLIP_P,
    JITTER_P,
    LOCAL,
    PLAN_WIDTH,
    SECOND_GLOBAL,
    MultiCropConfig,
    _DECISIONS,
    _blur_matrices,
    _gaussian_blur,
    _hue_rotate,
    _read_plans,
    apply_plans,
    augment_view,
    bicubic_resize,
    build_multicrop,
    draw_plan,
    resample_matrix,
    sample_crop,
)
from retinassl.errors import ContractError, InputError, ParameterError


def tiny_config(**kw) -> MultiCropConfig:
    defaults = dict(global_out_size=16, local_out_size=8)
    defaults.update(kw)
    return MultiCropConfig(**defaults)


def random_image(seed=0, size=32):
    rng = np.random.default_rng(seed)
    return rng.random((3, size, size))


class TestBicubicResize:
    def test_identity_at_same_size(self):
        img = random_image(1, 16)
        out = bicubic_resize(img, 16)
        np.testing.assert_allclose(out, img, atol=1e-6)

    def test_same_size_is_an_unaliased_exact_copy(self):
        img = random_image(2, 16)
        kept = img.copy()
        out = bicubic_resize(img, 16)
        assert np.array_equal(out, img)
        assert not np.shares_memory(out, img)
        out[:] = -1.0  # writing to the result leaves the input as it was
        assert np.array_equal(img, kept)

    @pytest.mark.parametrize("in_hw, out_hw", [((48, 40), (48, 32)), ((40, 48), (32, 48))])
    def test_one_same_size_axis_equals_the_two_products(self, in_hw, out_hw):
        (h, w), (oh, ow) = in_hw, out_hw
        images = np.random.default_rng(h).random((2, 3, h, w))
        oracle = resample_matrix(h, oh) @ images @ resample_matrix(w, ow).T
        assert np.array_equal(bicubic_resize(images, out_hw), oracle)

    def test_a_same_size_axis_keeps_a_nan_in_place(self):
        img = np.zeros((1, 6, 6))
        img[0, 2, 3] = np.nan
        out = bicubic_resize(img, (6, 9))  # rows are copied, columns resampled
        assert np.isnan(out[0, 2]).any() and not np.isnan(np.delete(out[0], 2, 0)).any()
        assert np.array_equal(np.isnan(bicubic_resize(img, 6)), np.isnan(img))

    def test_constant_preserved(self):
        img = np.full((3, 8, 8), 0.37)
        for size in (4, 8, 11, 16):
            np.testing.assert_allclose(bicubic_resize(img, size), 0.37, atol=1e-9)

    def test_linear_ramp_reproduced_interior(self):
        # Bicubic reproduces degree-1 polynomials exactly away from clamped edges.
        w = 16
        ramp = np.broadcast_to(np.linspace(0.0, 1.0, w), (1, w, w)).copy()
        out = bicubic_resize(ramp, 2 * w)
        xs = (np.arange(2 * w) + 0.5) * 0.5 - 0.5
        expected = xs / (w - 1)
        interior = slice(4, 2 * w - 4)
        np.testing.assert_allclose(out[0, w, interior], expected[interior], atol=1e-9)

    @pytest.mark.parametrize("in_hw, out_hw", [
        ((4, 4), (8, 8)),
        ((8, 8), (4, 4)),
        ((7, 5), (3, 11)),
        ((5, 9), (12, 2)),
        ((6, 6), (6, 6)),
        ((1, 3), (4, 3)),
    ], ids=lambda hw: "x".join(map(str, hw)))
    def test_separable_reference(self, in_hw, out_hw):
        # Independent per-pixel double-loop reference of the same kernel spec.
        def kernel(t, a=-0.5):
            t = abs(t)
            if t <= 1:
                return (a + 2) * t**3 - (a + 3) * t**2 + 1
            if t < 2:
                return a * t**3 - 5 * a * t**2 + 8 * a * t - 4 * a
            return 0.0

        def ref_resize_1d(row, out_size):
            n = len(row)
            out = np.zeros(out_size)
            for i in range(out_size):
                src = (i + 0.5) * n / out_size - 0.5
                base = int(np.floor(src))
                acc = wsum = 0.0
                for tap in (-1, 0, 1, 2):
                    idx = min(max(base + tap, 0), n - 1)
                    wgt = kernel(src - base - tap)
                    acc += wgt * row[idx]
                    wsum += wgt
                out[i] = acc / wsum
            return out

        (h, w), (oh, ow) = in_hw, out_hw
        rng = np.random.default_rng(5)
        grid = rng.random((1, h, w))
        out = bicubic_resize(grid, (oh, ow))
        ref_rows = np.stack([ref_resize_1d(grid[0, r], ow) for r in range(h)])
        ref = np.stack([ref_resize_1d(ref_rows[:, c], oh) for c in range(ow)], axis=1)
        np.testing.assert_allclose(out[0], ref, atol=1e-12)

    def test_batched_is_bit_equal_to_per_image(self):
        images = np.random.default_rng(6).random((4, 3, 13, 17))
        out = bicubic_resize(images, (9, 21))
        for img, got in zip(images, out):
            assert np.array_equal(got, bicubic_resize(img, (9, 21)))

    def test_resample_matrix_is_cached_and_read_only(self):
        m = resample_matrix(7, 3)
        assert m.shape == (3, 7)
        assert resample_matrix(7, 3) is m
        assert not m.flags.writeable
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-15)
        assert np.array_equal(resample_matrix(5, 5), np.eye(5))

    def test_bad_out_size(self):
        with pytest.raises(ParameterError):
            bicubic_resize(random_image(), 0)


class TestSampleCrop:
    def test_full_cover_crop_is_resized_whole_image(self):
        img = random_image(2, 16)
        rng = np.random.default_rng(0)
        view, geom = sample_crop(img, (1.0, 1.0), 16, rng)
        assert geom == (0, 0, 16, 16)
        np.testing.assert_allclose(view, img, atol=1e-6)

    def test_area_fractions_stay_in_range(self):
        img = random_image(3, 32)
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            _, (_, _, h, w) = sample_crop(img, (0.40, 1.00), 8, rng)
            frac = h * w / (32 * 32)
            assert 0.40 <= frac <= 1.00

    def test_local_range_fractions(self):
        img = random_image(4, 32)
        rng = np.random.default_rng(7)
        for _ in range(2_000):
            _, (_, _, h, w) = sample_crop(img, (0.05, 0.40), 8, rng)
            frac = h * w / (32 * 32)
            assert 0.05 <= frac <= 0.40

    def test_deterministic_given_seed(self):
        img = random_image(5, 32)
        v1, g1 = sample_crop(img, (0.4, 1.0), 16, np.random.default_rng(9))
        v2, g2 = sample_crop(img, (0.4, 1.0), 16, np.random.default_rng(9))
        assert g1 == g2
        assert np.array_equal(v1, v2)

    def test_degenerate_image_rejected(self):
        with pytest.raises(InputError):
            sample_crop(np.zeros((3, 1, 1)), (0.4, 1.0), 8, np.random.default_rng(0))


STAGES = ("flip", "jitter", "grayscale", "blur", "solarize")  # _DECISIONS' order


def plan_row(*stages):
    """A plan row that selects exactly `stages`: a decision column of 1.0
    never fires, and 0.0 fires whenever its probability is above 0. Every
    factor sits at the middle of its range."""
    row = np.full(PLAN_WIDTH, 0.5)
    row[_DECISIONS] = [0.0 if stage in stages else 1.0 for stage in STAGES]
    return row


def apply_row(view, row, recipe, cfg):
    return apply_plans(view[None], row[None], [recipe], cfg)[0]


class TestAugmentView:
    def test_no_op_recipe(self):
        view = random_image(6, 16)
        for recipe in (FIRST_GLOBAL, SECOND_GLOBAL, LOCAL):
            out = apply_row(view, plan_row(), recipe, tiny_config())
            np.testing.assert_array_equal(out, view)

    def test_solarization_rule(self):
        view = np.full((3, 4, 4), 0.8)
        out = apply_row(view, plan_row("solarize"), SECOND_GLOBAL, tiny_config())
        np.testing.assert_allclose(out, 0.2, atol=1e-12)

    def test_solarize_only_on_second_global(self):
        cfg = tiny_config(solarize_p=1.0)
        view = np.full((3, 4, 4), 0.8)
        for recipe in (FIRST_GLOBAL, LOCAL):
            out = apply_row(view, plan_row("solarize"), recipe, cfg)
            np.testing.assert_allclose(out, 0.8)

    def test_grayscale_equal_channels(self):
        out = apply_row(random_image(7, 8), plan_row("grayscale"), FIRST_GLOBAL,
                        tiny_config())
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(out[1], out[2])

    def test_output_in_unit_interval(self):
        # every stage on every view, with random factors
        rng = np.random.default_rng(2)
        plans = rng.random((60, PLAN_WIDTH))
        plans[:, _DECISIONS] = 0.0
        recipes = [(FIRST_GLOBAL, SECOND_GLOBAL, LOCAL)[i % 3] for i in range(60)]
        out = apply_plans(rng.random((60, 3, 8, 8)), plans, recipes, tiny_config())
        assert out.min() >= 0.0 and out.max() <= 1.0
        for recipe in (FIRST_GLOBAL, SECOND_GLOBAL, LOCAL):
            out = augment_view(random_image(8, 8), recipe, rng, tiny_config())
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_unknown_recipe(self):
        with pytest.raises(ParameterError):
            augment_view(random_image(), "vertical", np.random.default_rng(0), tiny_config())


class TestHueRotate:
    def test_matches_colorsys_reference(self):
        special = [(0.5, 0.5, 0.5), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0),  # gray
                   (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),  # primaries
                   (1.0, 1.0, 0.0), (0.0, 1.0, 1.0), (1.0, 0.0, 1.0),  # tied maxima
                   (0.7, 0.7, 0.2), (0.2, 0.7, 0.7), (0.7, 0.2, 0.7), (0.9, 0.3, 0.9)]
        rgb = np.concatenate([np.array(special).T,
                              np.random.default_rng(21).random((3, 60))], axis=1)
        # +-0.97 carries almost every hue past 1 or below 0
        shifts = np.array([0.0, 0.04, -0.04, 0.5, -0.5, 0.97, -0.97])
        views = np.broadcast_to(rgb[None, :, None, :], (len(shifts),) + rgb[:, None].shape)
        out = _hue_rotate(views, shifts)
        for v, shift in enumerate(shifts):
            for j in range(rgb.shape[1]):
                h, sat, val = colorsys.rgb_to_hsv(*rgb[:, j])
                ref = colorsys.hsv_to_rgb((h + shift) % 1.0, sat, val)
                np.testing.assert_allclose(out[v, :, 0, j], ref, rtol=0, atol=1e-12)


class TestGaussianBlur:
    # 0.15 and 0.9 are where scipy's radius int(4 sigma + 0.5) differs from int(4 sigma)
    SIGMAS = np.array([0.1, 0.15, 0.27, 0.5, 0.9, 1.3, 2.0])

    @pytest.mark.parametrize("size", [8, 24, 48])
    def test_matches_scipy_gaussian_filter1d(self, size):
        rng = np.random.default_rng(size)
        columns = rng.random((size, 7))
        for g, sigma in zip(_blur_matrices(self.SIGMAS, size), self.SIGMAS):
            ref = gaussian_filter1d(columns, sigma, axis=0, mode="nearest", truncate=4.0)
            np.testing.assert_allclose(g @ columns, ref, rtol=0, atol=1e-12)
        views = rng.random((len(self.SIGMAS), 3, size, size))
        out = _gaussian_blur(views, self.SIGMAS)
        for view, got, sigma in zip(views, out, self.SIGMAS):
            ref = gaussian_filter1d(view, sigma, axis=-2, mode="nearest")
            ref = gaussian_filter1d(ref, sigma, axis=-1, mode="nearest")
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


class TestPlanRows:
    @pytest.mark.parametrize("solarize_p", [0.2, 1.0])
    def test_decisions_and_factors_match_scalar_draws(self, solarize_p):
        # the oracle: the scalar Generator calls each row column stands for,
        # replayed on a twin generator, must give the same decisions and bits
        cfg = tiny_config(jitter_strength=(0.4, 0.3, 0.2, 0.1), blur_sigma=(0.1, 2.0),
                          solarize_p=solarize_p)
        recipes = [(FIRST_GLOBAL, SECOND_GLOBAL, LOCAL)[i % 3] for i in range(300)]
        rng, twin = np.random.default_rng(50), np.random.default_rng(50)
        plans = np.stack([draw_plan(recipe, rng) for recipe in recipes])
        assert plans.shape == (300, PLAN_WIDTH)
        chosen, factors = _read_plans(plans, recipes, cfg)
        b, c, s, hue = cfg.jitter_strength
        for recipe, got_chosen, got_factors in zip(recipes, chosen, factors):
            flip = twin.random() < FLIP_P
            jitter = twin.random() < JITTER_P
            brightness = twin.uniform(1 - b, 1 + b)
            contrast = twin.uniform(1 - c, 1 + c)
            saturation = twin.uniform(1 - s, 1 + s)
            hue_shift = twin.uniform(-hue, hue)
            gray = twin.random() < cfg.grayscale_p
            blur = twin.random() < BLUR_P[recipe]
            sigma = twin.uniform(*cfg.blur_sigma)
            solarize = recipe == SECOND_GLOBAL and twin.random() < cfg.solarize_p
            assert got_chosen.tolist() == [flip, jitter, gray, blur, solarize]
            assert got_factors.tolist() == [brightness, contrast, saturation, hue_shift,
                                            sigma]
        assert rng.bit_generator.state == twin.bit_generator.state
        if solarize_p == 1.0:
            assert chosen[:, 4].tolist() == [r == SECOND_GLOBAL for r in recipes]

    def test_one_random_call_per_view(self):
        for recipe, width in ((FIRST_GLOBAL, 9), (SECOND_GLOBAL, 10), (LOCAL, 9)):
            rng, twin = np.random.default_rng(3), np.random.default_rng(3)
            plan = draw_plan(recipe, rng)
            np.testing.assert_array_equal(plan[:width], twin.random(width))
            assert np.all(plan[width:] == 1.0)
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_unknown_recipe(self):
        with pytest.raises(ParameterError):
            draw_plan("vertical", np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [dict(jitter_strength=(-0.4, 0.4, 0.4, 0.1)),
                                     dict(blur_sigma=(2.0, 0.1)),
                                     dict(blur_sigma=(0.0, 1.0))])
    def test_reversed_or_empty_ranges_rejected(self, bad):
        with pytest.raises(ParameterError):
            tiny_config(**bad)

    @pytest.mark.parametrize("n_local, sigma, ok", [
        (2, 1.875, True), (2, 2.0, True), (2, 2.125, False), (0, 3.875, True),
        (0, 4.125, False)])
    def test_blur_radius_is_at_most_the_crop_side(self, n_local, sigma, ok):
        # radius int(4 sigma + 0.5) against the 8 px local side, or the 16 px
        # global side without locals
        if ok:
            tiny_config(n_local=n_local, blur_sigma=(0.1, sigma))
        else:
            with pytest.raises(ParameterError, match="radius"):
                tiny_config(n_local=n_local, blur_sigma=(0.1, sigma))


class TestApplyPlans:
    def test_batch_across_chunks_equals_views_one_by_one(self):
        # 64 px views are 12288 values each, so 12 of them span three chunks
        cfg = tiny_config(solarize_p=0.5)
        rng = np.random.default_rng(12)
        views = rng.random((12, 3, 64, 64))
        recipes = [(FIRST_GLOBAL, SECOND_GLOBAL, LOCAL)[i % 3] for i in range(12)]
        plans = np.stack([draw_plan(recipe, rng) for recipe in recipes])
        out = apply_plans(views, plans, recipes, cfg)
        for view, plan, recipe, got in zip(views, plans, recipes, out):
            np.testing.assert_allclose(got, apply_plans(view[None], plan[None], [recipe],
                                                        cfg)[0],
                                       rtol=0, atol=1e-12)

    def test_empty_batch(self):
        out = apply_plans(np.zeros((0, 3, 8, 8)), np.zeros((0, PLAN_WIDTH)), [],
                          tiny_config())
        assert out.shape == (0, 3, 8, 8)


def views_of(batch):
    """Every view of a batch, in order: student globals, student locals,
    teacher globals."""
    return [*batch.student_global, *batch.student_local, *batch.teacher_global]


class TestBuildMulticrop:
    def test_default_counts(self):
        batch = build_multicrop(random_image(9), tiny_config(), np.random.default_rng(0))
        assert len(batch.student_global) + len(batch.student_local) == 8
        assert len(batch.teacher_global) == 2

    def test_degenerate_no_locals(self):
        batch = build_multicrop(random_image(10), tiny_config(n_local=0),
                                np.random.default_rng(0))
        assert len(batch.student_global) + len(batch.student_local) == 2
        assert len(batch.teacher_global) == 2

    def test_bit_identical_on_repeat(self):
        img = random_image(13)
        cfg = tiny_config()
        b1 = build_multicrop(img, cfg, np.random.default_rng(77))
        b2 = build_multicrop(img, cfg, np.random.default_rng(77))
        for v1, v2 in zip(views_of(b1), views_of(b2)):
            assert np.array_equal(v1, v2)

    def test_view_shapes(self):
        batch = build_multicrop(random_image(14), tiny_config(), np.random.default_rng(5))
        assert batch.student_global.shape == (2, 3, 16, 16)
        assert batch.student_local.shape == (6, 3, 8, 8)
        assert batch.teacher_global.shape == (2, 3, 16, 16)
        # the student forward takes each stack through a free reshape
        assert batch.student_global.flags.c_contiguous
        assert batch.student_local.flags.c_contiguous

    def test_batch_equals_sequential_single_images(self):
        images = np.random.default_rng(16).random((4, 3, 32, 32))
        cfg = tiny_config()
        rng_batch, rng_seq = np.random.default_rng(31), np.random.default_rng(31)
        batch = build_multicrop(images, cfg, rng_batch)
        singles = [build_multicrop(img, cfg, rng_seq) for img in images]
        assert rng_batch.bit_generator.state == rng_seq.bit_generator.state
        for group in ("student_global", "student_local", "teacher_global"):
            stack = getattr(batch, group)
            ref = np.stack([getattr(s, group) for s in singles], axis=1)
            assert stack.shape == ref.shape
            np.testing.assert_allclose(stack, ref, rtol=0, atol=1e-12)

    def test_matches_per_view_composition(self):
        # the reference: sample_crop and augment_view called view by view in
        # the documented order (global crop, its student and teacher views,
        # ..., then each local crop and its view)
        img = random_image(17)
        cfg = tiny_config(n_local=3)
        rng, ref_rng = np.random.default_rng(43), np.random.default_rng(43)
        batch = build_multicrop(img, cfg, rng)
        student, teacher = [], []
        for i, recipe in enumerate((FIRST_GLOBAL, SECOND_GLOBAL)):
            raw, _ = sample_crop(img, cfg.global_scale_range, cfg.global_out_size,
                                 ref_rng)
            student.append(augment_view(raw, recipe, ref_rng, cfg))
            teacher.append(augment_view(raw, recipe, ref_rng, cfg))
        for _ in range(cfg.n_local):
            raw, _ = sample_crop(img, cfg.local_scale_range, cfg.local_out_size,
                                 ref_rng)
            student.append(augment_view(raw, LOCAL, ref_rng, cfg))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert len(views_of(batch)) == len(student + teacher)
        for view, ref in zip(views_of(batch), student + teacher):
            np.testing.assert_allclose(view, ref, rtol=0, atol=1e-12)

    def test_documented_draw_sequence(self):
        images = np.random.default_rng(18).random((3, 3, 32, 32))
        cfg = tiny_config(n_local=3)
        rng = np.random.default_rng(41)
        build_multicrop(images, cfg, rng)

        replay = np.random.default_rng(41)

        def plan_draws(second_global):
            replay.random()                 # flip
            replay.random()                 # jitter
            for _ in range(4):              # brightness, contrast, saturation, hue
                replay.uniform()
            replay.random()                 # grayscale
            replay.random()                 # blur
            replay.uniform()                # sigma
            if second_global:
                replay.random()             # solarize

        for img in images:
            for i in range(cfg.n_global):
                # 4 geometry draws: area, aspect, top, left
                sample_crop(img, cfg.global_scale_range, cfg.global_out_size,
                            replay)
                plan_draws(i == 1)          # student
                plan_draws(i == 1)          # teacher
            for _ in range(cfg.n_local):
                sample_crop(img, cfg.local_scale_range, cfg.local_out_size,
                            replay)
                plan_draws(False)
        assert replay.bit_generator.state == rng.bit_generator.state


class TestCropAt:
    def test_matches_sample_crop_geometry(self):
        img = random_image(15)
        rng = np.random.default_rng(8)
        view, (t, l, h, w) = sample_crop(img, (0.4, 1.0), 16, rng)
        np.testing.assert_array_equal(bicubic_resize(img[..., t:t + h, l:l + w], 16), view)


class TestMapChunks:
    """The chunk runner behind `resample` and `extract_features`, at a
    monkeypatched worker count."""

    @pytest.mark.parametrize("cpus, env, want", [
        (8, {}, 1),  # BLAS at its default takes every CPU
        (8, {"OPENBLAS_NUM_THREADS": "1"}, 8),
        (8, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4),  # the first wins
        (8, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "0",
             "MKL_NUM_THREADS": "2"}, 4),  # the first positive int
        (8, {"OMP_NUM_THREADS": "3"}, 2),
        (2, {"MKL_NUM_THREADS": "16"}, 1),
    ])
    def test_workers_are_the_cpus_over_the_blas_threads(self, monkeypatch, cpus, env,
                                                        want):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(crops.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert crops._cpu_workers() == want

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_an_error_in_a_later_piece_reaches_the_caller(self, monkeypatch, workers):
        monkeypatch.setattr(crops, "_WORKERS", workers)

        def fn(lo, hi):
            if lo >= 30:
                raise ContractError(f"piece at {lo}")

        with pytest.raises(ContractError, match="piece at"):
            crops.map_chunks(fn, 40, 4)
        seen = []
        crops.map_chunks(lambda lo, hi: seen.append((lo, hi)), 40, 4)  # still runs
        piece = max(1, 4 // workers)
        assert sorted(seen) == [(lo, lo + piece) for lo in range(0, 40, piece)]

    def test_pieces_cover_every_row_once_with_more_workers_than_cpus(self, monkeypatch):
        monkeypatch.setattr(crops, "_WORKERS", 2 * len(os.sched_getaffinity(0)) + 1)
        pieces = []

        def fn(lo, hi):
            np.sort(np.random.default_rng(lo).random(2000))  # let the threads switch
            pieces.append((lo, hi))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                pieces.clear()
                runner = threading.Thread(target=crops.map_chunks, args=(fn, 1001, 40))
                runner.start()
                runner.join(timeout=60)
                assert not runner.is_alive()
                # a piece taken twice, or lost, breaks the tiling of [0, 1001)
                bounds = sorted(pieces)
                assert bounds[0][0] == 0 and bounds[-1][1] == 1001
                assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        finally:
            sys.setswitchinterval(interval)

    def test_a_forked_child_resamples_with_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(crops, "_WORKERS", 2)
        monkeypatch.setattr(crops, "_CHUNK_VALUES", 3 * 20 * 26)
        images = np.random.default_rng(0).random((64, 3, 20, 26))
        rows, cols = resample_matrix(20, 14), resample_matrix(26, 11)
        want = crops.resample(images, rows, cols)  # the parent's pool now exists
        threads = set()

        def nap(lo, hi):  # sleeps without the GIL, so a pool thread takes pieces
            threads.add(threading.get_ident())
            time.sleep(0.01)

        pid = os.fork()
        if pid == 0:  # the child exits 0 with the parent's bits and two threads
            code = 1
            try:
                signal.alarm(60)  # a hung child dies, and the test fails
                same = np.array_equal(crops.resample(images, rows, cols), want)
                crops.map_chunks(nap, 20, 2)
                code = 0 if same and len(threads) == 2 else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status
