import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retinassl import autodiff as ad
from retinassl import distill as distill_module
from retinassl.checkpoint import load_checkpoint, save_checkpoint
from retinassl.autodiff import Tape, Tensor, backward
from retinassl.crops import MultiCropConfig
from retinassl.crops import build_multicrop
from retinassl.distill import (
    DistillConfig,
    batch_schedule,
    center_update,
    clip_gradients,
    distillation_loss,
    ema_update,
    init_train_state,
    mean_entropy,
    optimizer_step,
    schedule_value,
    teacher_probs,
    train_loop,
    train_step,
)
from retinassl.errors import ContractError, ParameterError
from retinassl.vit import EVAL, ProjectionHeadConfig, ViTConfig, backbone_forward, \
    projection_head_forward


def tiny_setup(seed=0, **distill_kw):
    vit = ViTConfig(image_size=16, patch_size=8, depth=1, embed_dim=8, n_heads=2,
                    drop_path_rate=0.1, mlp_ratio=2.0)
    head = ProjectionHeadConfig(hidden_dim=16, bottleneck_dim=8, output_dim=24)
    crops = MultiCropConfig(global_out_size=16, local_out_size=8)
    kw = dict(total_epochs=4, warmup_epochs=1, batch_size=2)
    kw.update(distill_kw)
    distill = DistillConfig(**kw)
    state = init_train_state(vit, head, seed=seed, init_std=0.2)
    return vit, head, crops, distill, state


def random_images(n=4, size=16, seed=1):
    return np.random.default_rng(seed).random((n, 3, size, size))


class TestEmaUpdate:
    def _pair(self):
        t = {"w": Tensor(np.array([[2.0]]))}
        s = {"w": Tensor(np.array([[1.0]]), requires_grad=True)}
        return t, s

    def test_lambda_one_identity(self):
        t, s = self._pair()
        ema_update(t, s, 1.0)
        assert t["w"].data[0, 0] == 2.0

    def test_lambda_zero_copies_student(self):
        t, s = self._pair()
        ema_update(t, s, 0.0)
        assert t["w"].data[0, 0] == 1.0

    def test_direct_substitution(self):
        t, s = self._pair()
        ema_update(t, s, 0.99)
        np.testing.assert_allclose(t["w"].data[0, 0], 1.99, atol=1e-12)

    def test_shape_mismatch(self):
        t = {"w": Tensor(np.zeros((2, 2)))}
        s = {"w": Tensor(np.zeros((2, 3)))}
        with pytest.raises(ContractError):
            ema_update(t, s, 0.99)

    def test_bad_lambda(self):
        t, s = self._pair()
        with pytest.raises(ParameterError):
            ema_update(t, s, 1.5)


class TestCenterUpdate:
    def test_from_zero(self):
        logits = np.array([[1.0, 3.0], [3.0, 5.0]])
        mu = logits.mean(axis=0)
        out = center_update(np.zeros(2), logits, 0.9)
        np.testing.assert_allclose(out, 0.1 * mu, atol=1e-12)

    def test_fixed_point(self):
        c = np.array([2.0, -1.0])
        logits = np.tile(c, (5, 1))
        np.testing.assert_allclose(center_update(c, logits, 0.9), c, atol=1e-12)

    def test_geometric_convergence(self):
        v = np.array([4.0, -2.0, 1.0])
        logits = np.tile(v, (3, 1))
        c = np.zeros(3)
        for _ in range(50):
            c = center_update(c, logits, 0.9)
        assert np.linalg.norm(c - v) <= 0.9 ** 50 * np.linalg.norm(v) + 1e-12

    def test_empty_batch(self):
        with pytest.raises(ContractError):
            center_update(np.zeros(2), np.zeros((0, 2)), 0.9)


class TestTeacherProbs:
    def test_logits_equal_center_gives_uniform(self):
        c = np.array([3.0, -1.0, 0.5, 2.0])
        p = teacher_probs(np.tile(c, (2, 1)), c, 0.04)
        np.testing.assert_allclose(p, 0.25, atol=1e-12)

    def test_zero_center_reduces_to_softmax(self):
        logits = np.array([[1.0, 0.0, -1.0]])
        p = teacher_probs(logits, np.zeros(3), 0.5)
        z = logits / 0.5
        expected = np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_sharpening_at_default_temperature(self):
        k = 2 ** 16
        c = np.random.default_rng(0).normal(size=k)
        logits = c.copy()
        logits[0] += 1.0
        p = teacher_probs(logits[None], c, 0.04)
        # 1 / (1 + (K-1) e^{-25})
        assert p[0, 0] > 0.999999

    def test_bad_temperature(self):
        with pytest.raises(ParameterError):
            teacher_probs(np.zeros((1, 2)), np.zeros(2), 0.0)

    def test_two_entry_row(self):
        p = teacher_probs(np.array([[3.0, 2.0]]), np.array([2.0, 2.0]), 1.0)
        e = np.e
        np.testing.assert_allclose(p[0], [e / (e + 1), 1 / (e + 1)], atol=1e-10)
        np.testing.assert_allclose(p[0], [0.7311, 0.2689], atol=1e-4)

    def test_stable_for_large_logits(self):
        p = teacher_probs(np.array([[1e4, 0.0, -1e4]]), np.zeros(3), 0.04)
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.floats(-50, 50), min_size=4, max_size=4),
            min_size=1, max_size=4),
        center=st.lists(st.floats(-50, 50), min_size=4, max_size=4),
        tau=st.floats(1e-3, 10.0),
        shift=st.floats(-20, 20),
    )
    def test_rows_sum_to_one_and_shift_invariance(self, rows, center, tau, shift):
        logits, c = np.array(rows), np.array(center)
        p = teacher_probs(logits, c, tau)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(p, teacher_probs(logits + shift, c, tau), atol=1e-6)
        np.testing.assert_allclose(p, teacher_probs(logits, c - shift, tau), atol=1e-6)


class TestStudentLogProbs:
    def test_uniform_logits(self):
        out = ad.log_softmax_rows(Tensor(np.zeros((2, 5))), 0.1)
        np.testing.assert_allclose(out.data, -np.log(5), atol=1e-12)

    def test_exp_sums_to_one(self):
        x = Tensor(np.random.default_rng(1).normal(size=(3, 8)) * 10)
        out = ad.log_softmax_rows(x, 0.1)
        np.testing.assert_allclose(np.exp(out.data).sum(axis=-1), 1.0, atol=1e-6)

    def test_softmax_ce_gradient_identity(self):
        # d CE(p_t, log_softmax(o/tau)) / d o == (p_s - p_t) / tau
        rng = np.random.default_rng(2)
        tau = 0.1
        o = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        raw = rng.random((2, 6))
        p_t = raw / raw.sum(axis=-1, keepdims=True)
        with Tape() as tape:
            loss = ad.tensor_sum(ad.mul(Tensor(-p_t), ad.log_softmax_rows(o, tau)))
        backward(loss, tape)
        z = o.data / tau
        p_s = np.exp(z - z.max(-1, keepdims=True))
        p_s /= p_s.sum(-1, keepdims=True)
        np.testing.assert_allclose(o.grad, (p_s - p_t) / tau, atol=1e-5)


class TestDistillationLoss:
    def _uniform_views(self, n_teacher, n_student, k=16, batch=1):
        p = np.full((batch, k), 1.0 / k)
        teacher = np.stack([p] * n_teacher)
        student = Tensor(np.log(np.tile(p, (n_student, 1))))
        return teacher, student

    def test_fourteen_terms_uniform(self):
        k = 16
        teacher, student = self._uniform_views(2, 8, k=k)
        loss = distillation_loss(teacher, student)
        np.testing.assert_allclose(loss.item(), 14 * np.log(k), atol=1e-9)

    def test_pair_count_by_construction(self):
        # Enumeration oracle: pairs (x, x') with x teacher-global, x' != x.
        n_teacher, n_student = 2, 8
        expected_pairs = sum(1 for x in range(n_teacher)
                             for xp in range(n_student) if xp != x)
        assert expected_pairs == 14
        k = 4
        teacher, student = self._uniform_views(n_teacher, n_student, k=k)
        loss = distillation_loss(teacher, student)
        np.testing.assert_allclose(loss.item(), expected_pairs * np.log(k), atol=1e-9)

    def test_no_locals_two_terms(self):
        k = 8
        teacher, student = self._uniform_views(2, 2, k=k)
        loss = distillation_loss(teacher, student)
        np.testing.assert_allclose(loss.item(), 2 * np.log(k), atol=1e-9)

    def test_loss_nonnegative_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw = rng.random((1, 6))
            p_t = raw / raw.sum(-1, keepdims=True)
            log_p = ad.log_softmax_rows(Tensor(rng.normal(size=(1, 6))), 0.3)
            loss = distillation_loss(np.stack([p_t, p_t]),
                                     ad.concat([log_p] * 4, axis=0))
            assert loss.item() >= 0.0

    def test_missing_views_rejected(self):
        p = np.full((1, 4), 0.25)
        with pytest.raises(ContractError):
            distillation_loss(np.stack([p, p]), Tensor(np.log(p)))
        with pytest.raises(ContractError):
            distillation_loss(np.zeros((0, 1, 4)), Tensor(np.zeros((0, 4))))

    @pytest.mark.parametrize("teacher_shape, student_shape", [
        ((1, 2, 4), (2, 4)), ((2, 2, 4), (3, 4)), ((2, 2, 4), (4, 5)),
        ((2, 4), (4, 4)), ((2, 2, 4), (2, 2, 4))],
        ids=["no_pair", "partial_view", "other_k", "teacher_2d", "student_3d"])
    def test_bad_shapes_rejected(self, teacher_shape, student_shape):
        teacher = np.full(teacher_shape, 1.0 / teacher_shape[-1])
        with pytest.raises(ContractError):
            distillation_loss(teacher, Tensor(np.zeros(student_shape)))

    def test_teacher_rows_must_sum_to_one(self):
        with pytest.raises(ContractError):
            distillation_loss(np.full((2, 1, 4), 0.3), Tensor(np.zeros((3, 4))))

    @pytest.mark.parametrize("n_teacher, n_student", [(1, 2), (1, 5), (2, 2),
                                                      (2, 8), (3, 3), (3, 7)])
    def test_matches_pairwise_cross_entropy(self, n_teacher, n_student):
        # the oracle: one cross-entropy per (teacher crop t, student view s != t)
        rng = np.random.default_rng(10 * n_teacher + n_student)
        batch, k = 3, 5
        raw = rng.random((n_teacher, batch, k)) ** 3
        p_t = raw / raw.sum(-1, keepdims=True)
        x = Tensor(rng.normal(size=(n_student * batch, k)), requires_grad=True)

        def pairwise():
            log_p = ad.log_softmax_rows(x, 0.3)
            total = None
            for t in range(n_teacher):
                for s in range(n_student):
                    if s != t:
                        ce = ad.tensor_sum(ad.mul(Tensor(-p_t[t]),
                                                  log_p[s * batch:(s + 1) * batch]))
                        term = ce * (1.0 / batch)
                        total = term if total is None else total + term
            return total.item()

        with Tape() as tape:
            loss = distillation_loss(p_t, ad.log_softmax_rows(x, 0.3))
        np.testing.assert_allclose(loss.item(), pairwise(), rtol=0, atol=1e-12)
        backward(loss, tape, leaves=[x])
        (numeric,) = ad.finite_difference(pairwise, [x])
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-6, atol=1e-8)

    def test_tape_entries_independent_of_view_count(self):
        def entries(n_student):
            p_t = np.full((2, 2, 4), 0.25)
            log_p = Tensor(np.full((n_student * 2, 4), np.log(0.25)), requires_grad=True)
            with Tape() as tape:
                distillation_loss(p_t, log_p)
            return len(tape.nodes)

        assert entries(3) == entries(8)


class TestClipGradients:
    def test_below_threshold_unchanged(self):
        g = {"a": np.array([1.0, 0.0])}
        out, norm = clip_gradients(g, 3.0)
        assert norm == 1.0
        np.testing.assert_array_equal(out["a"], [1.0, 0.0])

    def test_exact_scaling(self):
        g = {"a": np.array([6.0, 0.0])}
        out, norm = clip_gradients(g, 3.0)
        np.testing.assert_allclose(out["a"], [3.0, 0.0], atol=1e-12)

    def test_post_clip_norm_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = {k: rng.normal(size=(5, 5)) * 10 for k in "abc"}
            out, _ = clip_gradients(g, 3.0)
            total = np.sqrt(sum((x ** 2).sum() for x in out.values()))
            assert total <= 3.0 + 1e-9


class TestSchedules:
    def _config(self, batch=256):
        return DistillConfig(total_epochs=20, warmup_epochs=10, batch_size=batch)

    def test_lr_peak_at_warmup_end(self):
        cfg = self._config(batch=256)
        spe = 10
        assert schedule_value("lr", 10 * spe, spe, cfg) == pytest.approx(0.0005, abs=0)

    def test_lr_peak_scales_with_batch(self):
        cfg = self._config(batch=512)
        assert cfg.peak_lr == pytest.approx(0.001)

    def test_wd_endpoints(self):
        cfg = self._config()
        spe = 10
        assert schedule_value("weight_decay", 0, spe, cfg) == pytest.approx(0.04, abs=1e-12)
        assert schedule_value("weight_decay", 200, spe, cfg) == pytest.approx(0.4, abs=1e-12)

    def test_ema_lambda_midpoint(self):
        cfg = self._config()
        spe = 10
        assert schedule_value("ema_lambda", 100, spe, cfg) == pytest.approx(
            (0.99 + 1.0) / 2.0, abs=1e-12)

    def test_monotone_and_in_range(self):
        cfg = self._config()
        spe = 10
        lams = [schedule_value("ema_lambda", s, spe, cfg) for s in range(201)]
        wds = [schedule_value("weight_decay", s, spe, cfg) for s in range(201)]
        lrs = [schedule_value("lr", s, spe, cfg) for s in range(201)]
        assert all(0.99 <= l <= 1.0 for l in lams)
        assert all(a <= b + 1e-15 for a, b in zip(lams, lams[1:]))
        assert all(0.04 <= w <= 0.4 for w in wds)
        assert all(a <= b + 1e-15 for a, b in zip(wds, wds[1:]))
        assert all(0.0 <= l <= cfg.peak_lr for l in lrs)

    def test_out_of_range_step(self):
        with pytest.raises(ContractError):
            schedule_value("lr", 1000, 10, self._config())
        with pytest.raises(ContractError):
            schedule_value("lr", -1, 10, self._config())


class TestOptimizerStep:
    def test_zero_gradient_no_decay_is_identity(self):
        p = {"w": Tensor(np.array([[1.5]]))}
        m = {"w": np.zeros((1, 1))}
        v = {"w": np.zeros((1, 1))}
        optimizer_step(p, {"w": np.zeros((1, 1))}, m, v, t=1, lr=0.1, weight_decay=0.0)
        assert p["w"].data[0, 0] == 1.5

    def test_constant_gradient_limit_step_size(self):
        # With a constant gradient the bias-corrected ratio tends to 1,
        # so the per-step move tends to lr.
        p = {"w": Tensor(np.array([[0.0]]))}
        m = {"w": np.zeros((1, 1))}
        v = {"w": np.zeros((1, 1))}
        lr = 1e-3
        prev = 0.0
        for t in range(1, 1001):
            optimizer_step(p, {"w": np.full((1, 1), 0.37)}, m, v, t=t,
                           lr=lr, weight_decay=0.0)
            delta = prev - p["w"].data[0, 0]
            prev = p["w"].data[0, 0]
        np.testing.assert_allclose(delta, lr, rtol=1e-3)

    def test_pure_decay_shrink(self):
        p = {"w": Tensor(np.array([[2.0]]))}
        m = {"w": np.zeros((1, 1))}
        v = {"w": np.zeros((1, 1))}
        optimizer_step(p, {"w": np.zeros((1, 1))}, m, v, t=1, lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(p["w"].data[0, 0], 2.0 * (1 - 0.1 * 0.5), atol=1e-12)

    def test_no_decay_on_vectors(self):
        p = {"b": Tensor(np.array([2.0]))}
        m = {"b": np.zeros(1)}
        v = {"b": np.zeros(1)}
        optimizer_step(p, {"b": np.zeros(1)}, m, v, t=1, lr=0.1, weight_decay=0.5)
        assert p["b"].data[0] == 2.0


class TestTrainStep:
    def test_initialization_identity(self):
        vit, head, crops, distill, state = tiny_setup()
        img = random_images(1)[0:1]
        s_out = backbone_forward(img, vit, state.student, mode=EVAL)
        t_out = backbone_forward(img, vit, state.teacher, mode=EVAL)
        s_logits = projection_head_forward(s_out.cls_features, head, state.student)
        t_logits = projection_head_forward(t_out.cls_features, head, state.teacher)
        assert np.array_equal(s_logits.data, t_logits.data)

    def test_teacher_never_gets_gradients(self):
        vit, head, crops, distill, state = tiny_setup()
        for _ in range(3):
            train_step(random_images(2), state, vit, head, crops, distill,
                       steps_per_epoch=2)
            for t in state.teacher.values():
                assert t.grad is None
                assert t.requires_grad is False

    def test_lambda_one_teacher_unchanged(self):
        vit, head, crops, distill, state = tiny_setup(ema_start=1.0)
        before = {k: t.data.copy() for k, t in state.teacher.items()}
        train_step(random_images(2), state, vit, head, crops, distill,
                   steps_per_epoch=2)
        for k, t in state.teacher.items():
            assert np.array_equal(t.data, before[k])

    def test_ema_moves_teacher_toward_student(self):
        # lambda is ema_start exactly at step 0
        vit, head, crops, distill, state = tiny_setup(base_lr=0.0, ema_start=0.99)
        # Separate teacher from the (frozen, lr=0) student.
        rng = np.random.default_rng(5)
        for t in state.teacher.values():
            t.data = t.data + rng.normal(size=t.shape) * 0.1

        def distance():
            return np.sqrt(sum(((t.data - state.student[k].data) ** 2).sum()
                               for k, t in state.teacher.items()))

        d0 = distance()
        train_step(random_images(2), state, vit, head, crops, distill,
                   steps_per_epoch=2)
        np.testing.assert_allclose(distance(), 0.99 * d0, rtol=1e-10)

    def test_frozen_student_geometric_convergence(self):
        vit, head, crops, distill, state = tiny_setup(
            base_lr=0.0, ema_start=0.99, total_epochs=100)
        rng = np.random.default_rng(6)
        for t in state.teacher.values():
            t.data = t.data + rng.normal(size=t.shape) * 0.1
        d0 = np.sqrt(sum(((t.data - state.student[k].data) ** 2).sum()
                         for k, t in state.teacher.items()))
        imgs = random_images(2)
        for _ in range(30):
            train_step(imgs, state, vit, head, crops, distill, steps_per_epoch=1)
        d30 = np.sqrt(sum(((t.data - state.student[k].data) ** 2).sum()
                          for k, t in state.teacher.items()))
        # each step shrinks the distance by that step's scheduled lambda
        lams = [schedule_value("ema_lambda", s, 1, distill) for s in range(30)]
        np.testing.assert_allclose(d30, np.prod(lams) * d0, rtol=1e-5)

    def test_loss_finite_and_metrics_shape(self):
        vit, head, crops, distill, state = tiny_setup()
        metrics = train_step(random_images(2), state, vit, head, crops, distill,
                             steps_per_epoch=2)
        assert np.isfinite(metrics.loss)
        assert metrics.loss >= 0.0
        assert 0.99 <= metrics.ema_lambda <= 1.0
        assert 0.04 <= metrics.wd <= 0.4
        line = metrics.format_line()
        assert len(line.split("\t")) == 7

    def test_train_loop_deterministic(self):
        def run():
            vit, head, crops, distill, state = tiny_setup(seed=3)
            imgs = random_images(4)
            lines: list = []
            train_loop(imgs, state, vit, head, crops, distill, n_steps=5,
                       log_lines=lines)
            return lines

        assert run() == run()

    def test_frozen_prototype_layer_is_a_constant_of_the_step(self, monkeypatch):
        # steps 0 and 1 hold the layer fixed, step 2 trains it
        vit, head, crops, distill, state = tiny_setup(freeze_last_steps=2)
        last = [state.student[k] for k in ("head.last.dir", "head.last.mag")]
        seen = []

        def spy(loss, tape, leaves=()):
            inputs = {id(s) for _, slots, _ in tape.nodes for s in slots}
            entries = len(tape.nodes)
            backward(loss, tape, leaves=leaves)
            seen.append((entries, [id(p) in inputs for p in last],
                         [p.grad.copy() for p in last]))

        monkeypatch.setattr(distill_module, "backward", spy)
        for _ in range(3):
            train_step(random_images(2), state, vit, head, crops, distill,
                       steps_per_epoch=2)
        (n0, read0, g0), (n1, read1, g1), (n2, read2, g2) = seen
        assert read0 == read1 == [False, False] and read2 == [True, True]
        assert all(g.shape == p.shape and not g.any() for g, p in zip(g0 + g1, last))
        assert all(g.any() for g in g2)
        # l2_normalize_rows, reshape, mul and transpose of the layer
        assert n0 == n1 == n2 - 4

    @pytest.mark.parametrize("n, expected", [(10, (4, 3)), (8, (4, 2)), (3, (3, 1))])
    def test_batch_schedule(self, n, expected):
        assert batch_schedule(n, DistillConfig(batch_size=4)) == expected


class TestMeanEntropy:
    def test_uniform_max_entropy(self):
        k = 32
        p = np.full((4, k), 1.0 / k)
        np.testing.assert_allclose(mean_entropy(p), np.log(k), atol=1e-12)

    def test_one_hot_zero_entropy(self):
        p = np.zeros((2, 8))
        p[:, 3] = 1.0
        assert mean_entropy(p) <= 1e-6


# ---------------------------------------------------------------------------
# the update rules work in place
# ---------------------------------------------------------------------------

def _out_of_place_clip(grads, threshold):
    """clip_gradients as one dict comprehension, the reference for its bits."""
    norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if norm > threshold:
        grads = {k: g * (threshold / norm) for k, g in grads.items()}
    return grads, norm


def _out_of_place_adamw(params, grads, opt_m, opt_v, t, lr, weight_decay,
                        beta1=0.9, beta2=0.999, eps=1e-8):
    """optimizer_step as it was before it updated in place."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        m = opt_m[name] = beta1 * opt_m[name] + (1.0 - beta1) * g
        v = opt_v[name] = beta2 * opt_v[name] + (1.0 - beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        wd = weight_decay if p.data.ndim >= 2 else 0.0
        p.data = p.data - lr * (update + wd * p.data)


def _out_of_place_ema(teacher, student, lam):
    for name, wt in teacher.items():
        wt.data = lam * wt.data + (1.0 - lam) * student[name].data


def _state_arrays(state):
    return ([t.data for t in state.student.values()]
            + [t.data for t in state.teacher.values()]
            + list(state.opt_m.values()) + list(state.opt_v.values()))


class TestInPlaceUpdates:
    # (300, 130) and (40000,) span several blocks of optimizer_step
    SHAPES = {"w": (300, 130), "b": (40000,), "s": (3, 5), "g": (7,)}

    def _copies(self, seed):
        rng = np.random.default_rng(seed)
        params = {k: rng.normal(size=shape) for k, shape in self.SHAPES.items()}
        moments = {k: np.zeros(shape) for k, shape in self.SHAPES.items()}
        return [({k: Tensor(p.copy(), requires_grad=True) for k, p in params.items()},
                 {k: Tensor(p + 0.5) for k, p in params.items()},
                 {k: m.copy() for k, m in moments.items()},
                 {k: m.copy() for k, m in moments.items()}) for _ in range(2)]

    def test_rules_have_the_out_of_place_bits(self):
        (ps, pt, pm, pv), (qs, qt, qm, qv) = self._copies(0)
        rng = np.random.default_rng(1)
        # unclipped, clipped and clipped again: the norm of these draws is
        # about 280, so a threshold of 1e3 leaves step 1 alone
        for t, threshold in enumerate((1e3, 3.0, 0.5), start=1):
            grads = {k: rng.normal(size=shape) for k, shape in self.SHAPES.items()}
            got, norm = clip_gradients({k: g.copy() for k, g in grads.items()}, threshold)
            want, want_norm = _out_of_place_clip(grads, threshold)
            assert norm == want_norm and (norm > threshold) == (t > 1)
            optimizer_step(ps, got, pm, pv, t=t, lr=0.01, weight_decay=0.3)
            _out_of_place_adamw(qs, want, qm, qv, t=t, lr=0.01, weight_decay=0.3)
            ema_update(pt, ps, 0.9 + 0.03 * t)
            _out_of_place_ema(qt, qs, 0.9 + 0.03 * t)
            for k in self.SHAPES:
                for a, b in ((got[k], want[k]), (ps[k].data, qs[k].data),
                             (pt[k].data, qt[k].data), (pm[k], qm[k]), (pv[k], qv[k])):
                    assert np.array_equal(a, b), k

    def test_clipping_scales_shared_memory_once(self):
        # `add` hands one gradient array to both of its parents
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with Tape() as tape:
            loss = ((a + b) * Tensor(rng.normal(size=(3, 4)) * 10.0)).sum()
        backward(loss, tape)
        assert a.grad is b.grad
        want, want_norm = _out_of_place_clip({"a": a.grad, "b": b.grad}, 1.0)
        got, norm = clip_gradients({"a": a.grad, "b": b.grad}, 1.0)
        assert norm == want_norm > 1.0
        for k in "ab":
            assert np.array_equal(got[k], want[k])

    def test_clipping_copies_a_read_only_gradient(self):
        # a summed leaf's gradient is tensor_sum's broadcast view, and `add`
        # hands that one view to both leaves
        a = Tensor(np.full((3, 4), 2.0), requires_grad=True)
        b = Tensor(np.zeros((3, 4)), requires_grad=True)
        with Tape() as tape:
            loss = (a + b).sum()
        backward(loss, tape)
        assert a.grad is b.grad and not a.grad.flags.writeable
        got, norm = clip_gradients({"a": a.grad, "b": b.grad}, 1.0)
        assert norm == np.sqrt(24.0)
        for k in "ab":
            assert np.array_equal(got[k], np.full((3, 4), 1.0 / np.sqrt(24.0)))
        assert np.array_equal(a.grad, np.ones((3, 4)))

    def test_clipping_scales_an_overlapping_view_once(self):
        whole = np.arange(1.0, 13.0).reshape(3, 4)
        grads = {"whole": whole, "rows": whole[1:], "col": whole[:, 2]}
        want, _ = _out_of_place_clip({k: g.copy() for k, g in grads.items()}, 1.0)
        got, _ = clip_gradients(grads, 1.0)
        for k in grads:
            assert np.array_equal(got[k], want[k]), k

    def test_clipping_writes_no_input(self):
        # a clip replaces each entry by a new array: aliased, broadcast and
        # plain inputs keep their bytes
        rng = np.random.default_rng(3)
        whole = rng.normal(size=(30, 40))
        grads = {"whole": whole, "rows": whole[5:], "plain": rng.normal(size=(7,)),
                 "broadcast": np.broadcast_to(np.float64(2.0), (3, 4))}
        before = {k: g.tobytes() for k, g in grads.items()}
        want, want_norm = _out_of_place_clip(dict(grads), 3.0)
        got, norm = clip_gradients(dict(grads), 3.0)
        assert norm == want_norm > 3.0
        for k, g in grads.items():
            assert g.tobytes() == before[k], k
            assert np.array_equal(got[k], want[k]), k

    def test_no_state_arrays_share_memory(self, tmp_path):
        vit, head, crops, distill, state = tiny_setup()
        train_step(random_images(2), state, vit, head, crops, distill, steps_per_epoch=2)
        save_checkpoint(state, tmp_path / "c.ckpt", vit, head, crops, distill)
        loaded = load_checkpoint(tmp_path / "c.ckpt")[0]
        for st in (init_train_state(vit, head, seed=0), state, loaded):
            arrays = _state_arrays(st)
            assert len(arrays) == 4 * len(st.student)
            for x, y in itertools.combinations(arrays, 2):
                assert not np.shares_memory(x, y)


# ---------------------------------------------------------------------------
# one teacher call and one student head call per step
# ---------------------------------------------------------------------------

class TestOneCallPaths:
    @pytest.mark.parametrize("batch", [2, 3])
    def test_teacher_logits_are_the_per_crop_calls_bits(self, monkeypatch, batch):
        # with a batch of one, the per-crop head product is numpy's
        # matrix-vector path, which rounds differently from the matrix
        # product over G rows, so B = 1 is not compared bit for bit
        vit, head, crops, distill, state = tiny_setup(batch_size=batch)
        teacher = {k: Tensor(t.data.copy()) for k, t in state.teacher.items()}
        seen = {}

        def build(*args):
            seen["batch"] = build_multicrop(*args)
            return seen["batch"]

        def probs(logits, *args):
            seen["logits"] = logits.copy()
            return teacher_probs(logits, *args)

        monkeypatch.setattr(distill_module, "build_multicrop", build)
        monkeypatch.setattr(distill_module, "teacher_probs", probs)
        train_step(random_images(batch), state, vit, head, crops, distill,
                   steps_per_epoch=2)
        per_crop = np.stack([
            projection_head_forward(backbone_forward(c, vit, teacher, mode=EVAL)
                                    .cls_features, head, teacher).data
            for c in seen["batch"].teacher_global])
        assert seen["logits"].shape == (2, batch, head.output_dim)
        assert np.array_equal(seen["logits"], per_crop)

    def test_student_head_runs_once_over_every_view(self, monkeypatch):
        vit, head, crops, distill, state = tiny_setup()
        rows = []

        def spy(cls_features, *args):
            rows.append(cls_features.shape[0])
            return projection_head_forward(cls_features, *args)

        monkeypatch.setattr(distill_module, "projection_head_forward", spy)
        train_step(random_images(2), state, vit, head, crops, distill, steps_per_epoch=2)
        # the teacher's two globals, then every student view of both images
        assert rows == [2 * 2, (crops.n_global + crops.n_local) * 2]


# ---------------------------------------------------------------------------
# a step's memory follows what it still needs
# ---------------------------------------------------------------------------

class TestStepMemory:
    SLACK = 64 * 1024  # Python objects: dicts, tuples, Tensor shells

    def test_crops_are_dead_when_the_loss_is_formed(self, monkeypatch):
        # 16 px globals make a grid of patches; 8 px locals at patch 8 are
        # one patch each, whose patch matrix would be a view of the stack
        vit, head, crops, distill, state = tiny_setup()
        assert crops.local_out_size == vit.patch_size < crops.global_out_size
        stacks, alive = [], []

        def owner(arr):
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            return arr

        def build(*args):
            batch = build_multicrop(*args)
            stacks.extend(weakref.ref(owner(a)) for a in (
                batch.student_global, batch.student_local, batch.teacher_global))
            return batch

        def loss(*args):
            alive.append([ref() is not None for ref in stacks])
            return distillation_loss(*args)

        monkeypatch.setattr(distill_module, "build_multicrop", build)
        monkeypatch.setattr(distill_module, "distillation_loss", loss)
        train_step(random_images(2), state, vit, head, crops, distill, steps_per_epoch=2)
        assert len(stacks) == 3 and alive == [[False] * 3]

    def test_backward_and_update_peaks(self, monkeypatch):
        vit = ViTConfig(image_size=32, patch_size=8, depth=2, embed_dim=32, n_heads=4)
        head = ProjectionHeadConfig(hidden_dim=64, bottleneck_dim=32, output_dim=4096)
        crop = MultiCropConfig(global_out_size=32, local_out_size=16, n_local=4)
        # a tiny threshold, so that every step clips
        cfg = DistillConfig(batch_size=4, total_epochs=2, clip_threshold=1e-3)
        state = init_train_state(vit, head, seed=0)
        images = np.random.default_rng(0).random((4, 3, 40, 40))
        marks = {}

        def around(name, before=None, after=None):
            original = getattr(distill_module, name)

            def wrapper(*args, **kwargs):
                if before:
                    before(*args)
                out = original(*args, **kwargs)
                if after:
                    after()
                return out
            monkeypatch.setattr(distill_module, name, wrapper)

        def mark(key, reset=False):
            marks[key] = tracemalloc.get_traced_memory()[1 if key.endswith("peak") else 0]
            if reset:
                tracemalloc.reset_peak()

        def backward_starts(loss, tape, *_):
            # an entry holds its output's slot, whose shape gives the bytes
            marks["activation"] = max(math.prod(out.shape) * np.dtype(ad.DTYPE).itemsize
                                      for out, _, _ in tape.nodes)
            mark("forward_end", reset=True)

        around("backward", backward_starts, lambda: mark("backward_peak"))
        around("clip_gradients", lambda *_: mark("update_start", reset=True))
        around("center_update", lambda *_: mark("update_peak"))

        train_step(images, state, vit, head, crop, cfg, 1)  # warm caches
        tracemalloc.start()
        try:
            train_step(images, state, vit, head, crop, cfg, 1)
        finally:
            tracemalloc.stop()
        param = max(p.data.nbytes for p in state.student.values())
        # the sweep frees what it has passed, so it adds at most one buffer
        # of the largest activation; keeping every interior gradient and the
        # whole tape added about 11 of them
        assert (marks["backward_peak"] - marks["forward_end"]
                <= marks["activation"] + self.SLACK)
        # one temporary of the largest parameter: EMA's (1 - lam) * w_s
        assert marks["update_peak"] - marks["update_start"] <= param + self.SLACK
        assert all(p.grad is None for p in state.student.values())
