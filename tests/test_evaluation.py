import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retinassl import autodiff as ad
from retinassl import crops, evaluation
from retinassl.crops import bicubic_resize, resample_matrix
from retinassl.errors import ContractError, InputError, ParameterError
from retinassl.evaluation import (EmbeddingIndex, KnnConfig, ProbeConfig,
                                  attention_heatmaps, build_index,
                                  compute_metrics, extract_features,
                                  knn_classify, probe_eval_transform,
                                  probe_lr_at, probe_predict,
                                  probe_train_transform, train_linear_probe)
from retinassl.vit import ViTConfig, init_backbone_params


def tiny_backbone(n_cls=1, depth=2, dim=8, seed=0):
    cfg = ViTConfig(image_size=16, patch_size=8, depth=depth, embed_dim=dim,
                    n_heads=2, n_cls_tokens=n_cls, drop_path_rate=0.0)
    params = init_backbone_params(cfg, np.random.default_rng(seed))
    return cfg, params


def knn_oracle(index, query, k, temperature=0.07):
    """Independent exhaustive scan with the documented tie rules."""
    preds = []
    for q in np.atleast_2d(query):
        sims = index.features @ q
        order = sorted(range(len(sims)), key=lambda j: (-sims[j], j))[:k]
        votes = np.zeros(5)
        for j in order:
            votes[index.labels[j]] += np.exp(sims[j] / temperature)
        best = max(range(5), key=lambda c: (votes[c], -c))
        preds.append(best)
    return np.array(preds)


def random_index(n, d, seed):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, d))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    labels = rng.integers(0, 5, size=n)
    return EmbeddingIndex(feats, labels)


def index_with_duplicates(n, d, seed):
    """A random index where about a third of the rows repeat an earlier
    row, so equal similarities cross the k-th neighbour."""
    index = random_index(n, d, seed)
    rng = np.random.default_rng(seed + 1)
    dst = rng.choice(n, size=n // 3, replace=False)
    index.features[dst] = index.features[rng.integers(0, n, size=n // 3)]
    return index


class TestEmbeddingIndex:
    def test_rejects_unnormalized(self):
        with pytest.raises(ContractError):
            EmbeddingIndex(np.ones((2, 3)), np.zeros(2, dtype=int))

    def test_rejects_bad_labels(self):
        f = np.eye(3)
        with pytest.raises(ContractError):
            EmbeddingIndex(f, np.array([0, 1, 9]))


class TestExtractFeatures:
    def test_feature_width(self):
        cfg, params = tiny_backbone(n_cls=4, dim=32)
        imgs = np.random.default_rng(1).random((2, 3, 16, 16))
        feats = extract_features(params, imgs, cfg, n_last_blocks=1)
        assert feats.shape == (2, 128)

    def test_two_blocks_double_width(self):
        cfg, params = tiny_backbone(n_cls=2, dim=8)
        imgs = np.random.default_rng(1).random((1, 3, 16, 16))
        one = extract_features(params, imgs, cfg, n_last_blocks=1)
        two = extract_features(params, imgs, cfg, n_last_blocks=2)
        assert two.shape[1] == 2 * one.shape[1]
        # last block of the pair equals the single-block extraction
        np.testing.assert_allclose(two[:, one.shape[1]:], one, atol=1e-12)

    def test_deterministic(self):
        cfg, params = tiny_backbone()
        img = np.random.default_rng(2).random((1, 3, 16, 16))
        np.testing.assert_array_equal(extract_features(params, img, cfg),
                                      extract_features(params, img, cfg))

    def test_bad_n_last_blocks(self):
        cfg, params = tiny_backbone(depth=2)
        with pytest.raises(ParameterError):
            extract_features(params, np.zeros((1, 3, 16, 16)), cfg, n_last_blocks=3)

    def test_single_unbatched_image_is_one_row(self):
        cfg, params = tiny_backbone(n_cls=3, dim=8)
        img = np.random.default_rng(3).random((3, 16, 16))
        np.testing.assert_array_equal(extract_features(params, img, cfg),
                                      extract_features(params, img[None], cfg))

    @pytest.mark.parametrize("n_last_blocks", [1, 2])
    def test_zero_images(self, n_last_blocks):
        cfg, params = tiny_backbone(n_cls=2, dim=8)
        feats = extract_features(params, np.zeros((0, 3, 16, 16)), cfg, n_last_blocks)
        assert feats.shape == (0, n_last_blocks * 2 * 8)


def rows_per_chunk_budget(cfg, rows):
    """A `_CHUNK_VALUES` that makes extract_features take `rows` images a chunk."""
    t = cfg.n_tokens
    return rows * max(cfg.n_heads * t * t, t * int(cfg.embed_dim * cfg.mlp_ratio))


class TestChunkedExtraction:
    @pytest.mark.parametrize("n_last_blocks", [1, 2])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_chunking_changes_no_bit(self, monkeypatch, rows, n_last_blocks):
        cfg, params = tiny_backbone(n_cls=2, dim=8)
        imgs = np.random.default_rng(5).random((23, 3, 16, 16))
        monkeypatch.setattr(evaluation, "_CHUNK_VALUES", 1 << 40)
        whole = extract_features(params, imgs, cfg, n_last_blocks)
        single = np.concatenate([extract_features(params, im[None], cfg, n_last_blocks)
                                 for im in imgs])
        monkeypatch.setattr(evaluation, "_CHUNK_VALUES", rows_per_chunk_budget(cfg, rows))
        for workers in (1, 2, 3):  # threads take pieces of rows // workers images
            monkeypatch.setattr(crops, "_WORKERS", workers)
            chunked = extract_features(params, imgs, cfg, n_last_blocks)
            np.testing.assert_array_equal(chunked, whole)
            np.testing.assert_array_equal(chunked, single)

    def test_memory_follows_the_chunk_not_the_batch(self, monkeypatch):
        cfg, params = tiny_backbone(dim=16)
        monkeypatch.setattr(evaluation, "_CHUNK_VALUES", rows_per_chunk_budget(cfg, 8))
        imgs = np.random.default_rng(6).random((256, 3, 16, 16))

        def peak(batch):
            tracemalloc.start()  # traces every thread's allocations
            try:
                extract_features(params, batch, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for workers in (1, 3):
            monkeypatch.setattr(crops, "_WORKERS", workers)
            assert peak(imgs) < 1.5 * peak(imgs[:64])

    def test_a_taped_forward_runs_its_chunks_in_order(self, monkeypatch):
        # 5 images at 2 a chunk: in order, the entries come in batches of
        # 2, 2 and 1 images; threads would take 1-image pieces
        cfg, params = tiny_backbone(n_cls=2, dim=8)
        for p in params.values():
            p.requires_grad = True
        imgs = np.random.default_rng(11).random((5, 3, 16, 16))
        monkeypatch.setattr(evaluation, "_CHUNK_VALUES", rows_per_chunk_budget(cfg, 2))

        def taped(workers):
            monkeypatch.setattr(crops, "_WORKERS", workers)
            with ad.Tape() as tape:
                feats = extract_features(params, imgs, cfg, n_last_blocks=2)
            return feats, [(out.shape, tuple(getattr(s, "shape", None) for s in inputs),
                            tuple(fn and fn.__qualname__ for fn in fns))
                           for out, inputs, fns in tape.nodes]

        feats, entries = taped(1)
        assert entries and entries[0][0][0] == 2
        for workers in (2, 3):
            got_feats, got_entries = taped(workers)
            assert np.array_equal(got_feats, feats)
            assert got_entries == entries


class TestLinearProbe:
    def test_separable_blobs_perfect_train_accuracy(self):
        rng = np.random.default_rng(3)
        centers = np.array([[4.0, 0.0], [0.0, 4.0], [-4.0, 0.0],
                            [0.0, -4.0], [3.0, 3.0]])
        feats, labels = [], []
        for c in range(5):
            feats.append(centers[c] + rng.normal(scale=0.3, size=(20, 2)))
            labels.extend([c] * 20)
        feats = np.vstack(feats)
        labels = np.array(labels)
        probe = train_linear_probe(feats, labels, ProbeConfig(epochs=200, lr=0.05))
        assert (probe_predict(probe, feats) == labels).mean() == 1.0

    def test_single_class_predicts_that_class(self):
        feats = np.random.default_rng(4).normal(size=(10, 3))
        probe = train_linear_probe(feats, np.full(10, 3), ProbeConfig(epochs=20))
        assert np.all(probe_predict(probe, feats) == 3)

    def test_empty_set_rejected(self):
        with pytest.raises(InputError):
            train_linear_probe(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_lr_schedule_final_zero(self):
        assert abs(probe_lr_at(99, 100, 0.001)) <= 1e-9
        assert probe_lr_at(0, 100, 0.001) == pytest.approx(0.001)

    def test_deterministic(self):
        feats = np.random.default_rng(5).normal(size=(20, 4))
        labels = np.random.default_rng(6).integers(0, 5, 20)
        a = train_linear_probe(feats, labels, ProbeConfig(epochs=10))
        b = train_linear_probe(feats, labels, ProbeConfig(epochs=10))
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bias, b.bias)


def taped_probe(features, labels, config):
    """The probe's momentum-SGD loop run through the tape: linear,
    log_softmax_rows, the cross entropy -rowsum(onehot * log p) and its
    batch mean, then backward. The oracle for the closed-form step of
    train_linear_probe."""
    n, d = features.shape
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x9806E]))
    w = ad.Tensor(np.zeros((d, 5)), requires_grad=True)
    b = ad.Tensor(np.zeros(5), requires_grad=True)
    vel = {id(w): np.zeros_like(w.data), id(b): np.zeros_like(b.data)}
    onehot = np.eye(5)[labels]
    bs = min(config.batch_size, n)
    steps_per_epoch = max(1, n // bs)
    total = config.epochs * steps_per_epoch
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for s in range(steps_per_epoch):
            idx = order[s * bs:(s + 1) * bs]
            with ad.Tape() as tape:
                logits = ad.linear(ad.Tensor(features[idx]), w, b)
                logp = ad.log_softmax_rows(logits, 1.0)
                ce = ad.tensor_sum(ad.mul(ad.Tensor(-onehot[idx]), logp), axis=-1)
                loss = ad.mul(ad.tensor_sum(ce), ad.Tensor(1.0 / len(idx)))
            w.grad = b.grad = None
            ad.backward(loss, tape, leaves=(w, b))
            lr = probe_lr_at(step, total, config.lr)
            for p in (w, b):
                v = vel[id(p)]
                v *= evaluation.PROBE_MOMENTUM
                v += p.grad
                p.data = p.data - lr * v
            step += 1
    return w.data, b.data


class TestProbeStep:
    @pytest.mark.parametrize("n, batch", [
        (24, 1), (45, 7), (96, 32),  # 45 is not a multiple of 7
        (40, 40), (20, 50), (50, 32),  # a batch equal to n, larger than n
    ])
    def test_bit_equal_to_the_taped_loop(self, n, batch):
        rng = np.random.default_rng(n * batch)
        feats = rng.normal(scale=3.0, size=(n, 6))
        labels = rng.integers(0, 5, n)
        cfg = ProbeConfig(lr=0.05, epochs=4, batch_size=batch, seed=batch)
        probe = train_linear_probe(feats, labels, cfg)
        want_w, want_b = taped_probe(feats, labels, cfg)
        assert np.array_equal(probe.weight, want_w)
        assert np.array_equal(probe.bias, want_b)
        assert np.abs(probe.weight).max() > 0.01  # the steps moved the weights

    def test_never_enters_a_tape(self, monkeypatch):
        entered = []
        enter = ad.Tape.__enter__

        def spy(tape):
            entered.append(tape)
            return enter(tape)

        monkeypatch.setattr(ad.Tape, "__enter__", spy)
        feats = np.random.default_rng(1).normal(size=(12, 3))
        labels = np.arange(12) % 5
        cfg = ProbeConfig(epochs=2, batch_size=4)
        train_linear_probe(feats, labels, cfg)
        assert entered == []
        taped_probe(feats, labels, cfg)  # the spy sees a taped loop
        assert len(entered) == 6

    @pytest.mark.parametrize("labels", [
        np.array([0, 1, 2, -1]), np.array([0, 1, 2, 5]),
        np.array([0.0, 1.0, 2.0, 3.0]), np.array([0, 1, 2]),
        np.array([0, 1, 2, 3, 4]), np.array([[0, 1], [2, 3]]),
    ], ids=["negative", "above_4", "float", "short", "long", "2d"])
    def test_bad_labels_rejected(self, labels):
        with pytest.raises(InputError, match="probe labels"):
            train_linear_probe(np.ones((4, 3)), labels)

    def test_predict_on_features_of_another_width(self):
        probe = train_linear_probe(np.ones((4, 3)), np.arange(4), ProbeConfig(epochs=1))
        for feats in (np.ones((2, 4)), np.ones(3)):
            with pytest.raises(InputError, match="probe's width 3"):
                probe_predict(probe, feats)


class TestChunkedTransforms:
    """Both transforms against whole-array products M @ X @ N.T, with the
    resampling chunk set to 4 images."""

    @pytest.fixture(autouse=True)
    def four_images_per_chunk(self, monkeypatch):
        monkeypatch.setattr(crops, "_CHUNK_VALUES", 4 * 3 * 20 * 26)

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 5])
    def test_eval_transform(self, monkeypatch, n):
        imgs = np.random.default_rng(n).random((n, 3, 20, 26))
        keep = slice(1, 15)  # 14 of the 16 rows of the ceil(8/7 * 14) resize
        oracle = resample_matrix(20, 16)[keep] @ imgs @ resample_matrix(26, 16)[keep].T
        for workers in (1, 2, 3):
            monkeypatch.setattr(crops, "_WORKERS", workers)
            assert np.array_equal(probe_eval_transform(imgs, 14), oracle)

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 5])
    def test_train_transform(self, monkeypatch, n):
        imgs = np.random.default_rng(n).random((n, 3, 20, 26))
        oracle = resample_matrix(20, 14) @ imgs @ resample_matrix(26, 14).T
        flip = np.random.default_rng(7).random(n) < 0.5
        oracle[flip] = oracle[flip][..., ::-1]
        for workers in (1, 2, 3):
            monkeypatch.setattr(crops, "_WORKERS", workers)
            got = probe_train_transform(imgs, 14, np.random.default_rng(7))
            assert np.array_equal(got, oracle)

    def test_memory_is_the_output_and_a_chunk(self, monkeypatch):
        imgs = np.random.default_rng(10).random((64, 3, 20, 26))
        for workers in (1, 3):
            monkeypatch.setattr(crops, "_WORKERS", workers)
            for transform in (lambda: probe_eval_transform(imgs, 14),
                              lambda: probe_train_transform(imgs, 14,
                                                            np.random.default_rng(0))):
                tracemalloc.start()  # traces every thread's allocations
                try:
                    out = transform()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < out.nbytes + imgs[:8].nbytes

    def test_same_size_train_transform_is_a_flipped_copy(self):
        imgs = np.random.default_rng(8).random((9, 3, 16, 16))
        flip = np.random.default_rng(9).random(9) < 0.5
        got = probe_train_transform(imgs, 16, np.random.default_rng(9))
        assert np.array_equal(got[~flip], imgs[~flip])
        assert np.array_equal(got[flip], imgs[flip][..., ::-1])


class TestEvalTransform:
    def test_output_size(self):
        imgs = np.random.default_rng(7).random((2, 3, 20, 20))
        out = probe_eval_transform(imgs, 14)
        assert out.shape == (2, 3, 14, 14)

    def test_ratio_matches_256_224(self):
        # for s=224 the resize target must be 256
        assert int(np.ceil(224 * 8.0 / 7.0)) == 256

    @pytest.mark.parametrize("h, w, s", [
        (16, 16, 16),  # s equal to the input size, margin 19 - 16 = 3
        (40, 56, 32),  # non-square, margin 37 - 32 = 5
        (20, 20, 14),  # even margin 16 - 14 = 2
        (9, 13, 7),    # margin 8 - 7 = 1
    ])
    def test_matches_resize_then_center_crop(self, h, w, s):
        imgs = np.random.default_rng(h * w + s).random((3, 3, h, w))
        big = int(np.ceil(s * 8.0 / 7.0))
        off = (big - s) // 2
        oracle = bicubic_resize(imgs, big)[..., off:off + s, off:off + s]
        out = probe_eval_transform(imgs, s)
        assert out.flags.c_contiguous
        np.testing.assert_allclose(out, oracle, rtol=0, atol=1e-12)


class TestKnn:
    def test_self_match_k1(self):
        index = random_index(10, 4, seed=8)
        pred = knn_classify(index, index.features[3], KnnConfig(k=1))
        assert pred[0] == index.labels[3]

    def test_majority_vote_2_2_0(self):
        # three neighbors with equal similarity and labels [2, 2, 0]
        f = np.eye(4)[:3]
        q = np.array([1.0, 1.0, 1.0, 0.0])
        q /= np.linalg.norm(q)
        index = EmbeddingIndex(f, np.array([2, 2, 0]))
        assert knn_classify(index, q, KnnConfig(k=3))[0] == 2

    def test_tie_breaks_to_lowest_grade(self):
        f = np.eye(2)
        q = np.array([1.0, 1.0]) / np.sqrt(2)
        index = EmbeddingIndex(f, np.array([4, 1]))
        assert knn_classify(index, q, KnnConfig(k=2))[0] == 1

    def test_oracle_equivalence_small(self):
        index = random_index(100, 8, seed=9)
        queries = np.random.default_rng(10).normal(size=(25, 8))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        for k in (1, 5, 20):
            got = knn_classify(index, queries, KnnConfig(k=k))
            np.testing.assert_array_equal(got, knn_oracle(index, queries, k))

    def test_bad_k(self):
        index = random_index(5, 3, seed=13)
        with pytest.raises(InputError):
            knn_classify(index, index.features[0], KnnConfig(k=6))

    def test_empty_index(self):
        idx = EmbeddingIndex(np.zeros((0, 3)), np.zeros(0, dtype=int))
        with pytest.raises(InputError):
            knn_classify(idx, np.zeros(3), KnnConfig(k=1))

    def test_query_width_differs_from_index(self):
        index = random_index(6, 4, seed=14)
        with pytest.raises(InputError):
            knn_classify(index, np.ones((2, 3)) / np.sqrt(3), KnnConfig(k=2))

    def test_nan_query(self):
        index = random_index(6, 4, seed=15)
        query = np.array([np.nan, 0.0, 0.0, 1.0])
        with pytest.raises(InputError):
            knn_classify(index, query, KnnConfig(k=2))

    @pytest.mark.parametrize("rows", [1, 7])
    def test_blocking_changes_no_vote_bit(self, monkeypatch, rows):
        index = index_with_duplicates(120, 6, seed=16)
        rng = np.random.default_rng(17)
        queries = rng.normal(size=(15, 6))  # blocks of 7 leave one row over
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        queries[:4] = index.features[:4]  # equal to a duplicated row: ties
        votes = []  # each block's votes, in call order
        votes_of_block = evaluation._knn_votes

        def recording_votes(*args):
            votes.append(votes_of_block(*args))
            return votes[-1]

        monkeypatch.setattr(evaluation, "_knn_votes", recording_votes)
        for k in (1, 3, 20):
            monkeypatch.setattr(evaluation, "_KNN_BLOCK_VALUES", 1 << 40)
            whole = knn_classify(index, queries, KnnConfig(k=k))
            whole_votes = np.concatenate(votes)
            votes.clear()
            monkeypatch.setattr(evaluation, "_KNN_BLOCK_VALUES", 120 * rows)
            blocked = knn_classify(index, queries, KnnConfig(k=k))
            assert len(votes) == (7 if rows == 1 else 2)
            np.testing.assert_array_equal(np.concatenate(votes), whole_votes)
            votes.clear()
            np.testing.assert_array_equal(blocked, whole)
            np.testing.assert_array_equal(blocked, knn_oracle(index, queries, k))

    def test_ties_across_the_kth_neighbour(self):
        # one row just above five copies of another (one similarity, three
        # grades, at scattered indices), then the rest far below
        rng = np.random.default_rng(18)
        q = np.array([1.0, 0.0, 0.0])
        feats = rng.normal(size=(60, 3)) - [3.0, 0.0, 0.0]
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        labels = rng.integers(0, 5, size=60)
        feats[31] = [0.82, np.sqrt(1 - 0.82 ** 2), 0.0]
        labels[31] = 2
        at = [44, 9, 57, 20, 13]
        feats[at] = [0.8, 0.6, 0.0]
        labels[at] = [0, 3, 0, 1, 3]
        index = EmbeddingIndex(feats, labels)
        for k in range(1, 8):  # the cut before, inside and after the tie
            np.testing.assert_array_equal(knn_classify(index, q, KnnConfig(k=k)),
                                          knn_oracle(index, q, k))

    def test_low_temperature_does_not_overflow(self):
        # exp(sim / 1e-3) overflows from a similarity of 0.71; each query is
        # an index row, its own first neighbour, and every other weight is
        # below exp(-50), so the first neighbour's label wins
        index = random_index(200, 8, seed=21)
        with np.errstate(over="raise"):
            got = knn_classify(index, index.features[:40],
                               KnnConfig(k=20, temperature=1e-3))
        np.testing.assert_array_equal(got, index.labels[:40])

    def test_k_equals_n(self):
        index = index_with_duplicates(30, 4, seed=19)
        queries = index.features[::3]
        got = knn_classify(index, queries, KnnConfig(k=30))
        np.testing.assert_array_equal(got, knn_oracle(index, queries, 30))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(2, 5),
           st.integers(1, 9))
    def test_matches_oracle_property(self, seed, n, d, rows):
        index = index_with_duplicates(n, d, seed)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, n + 1))
        queries = rng.normal(size=(int(rng.integers(1, 12)), d))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        queries[::2] = index.features[rng.integers(0, n, size=len(queries[::2]))]
        with mock.patch.object(evaluation, "_KNN_BLOCK_VALUES", n * rows):
            got = knn_classify(index, queries, KnnConfig(k=k))
        np.testing.assert_array_equal(got, knn_oracle(index, queries, k))


class TestAttentionHeatmaps:
    def test_counts_and_range(self):
        cfg, params = tiny_backbone(n_cls=3)
        img = np.random.default_rng(14).random((3, 16, 16))
        maps = attention_heatmaps(params, img, cfg)
        assert maps.shape == (2, 3, 16, 16)
        assert maps.min() >= 0.0
        assert maps.max() <= 1.0

    def test_minmax_normalization(self):
        cfg, params = tiny_backbone()
        img = np.random.default_rng(15).random((3, 16, 16))
        maps = attention_heatmaps(params, img, cfg)
        for m in maps.reshape(-1, 16, 16):
            if m.max() > 0:
                assert m.min() == pytest.approx(0.0)
                assert m.max() == pytest.approx(1.0)

    def test_ordering_preserved(self):
        # largest attention patch maps to the largest upsampled region value
        from retinassl.vit import last_layer_attention
        cfg, params = tiny_backbone(seed=16)
        img = np.random.default_rng(16).random((3, 16, 16))
        rows = last_layer_attention(img, cfg, params)
        maps = attention_heatmaps(params, img, cfg)
        g = cfg.grid
        scale = 16 // g
        for hi in range(cfg.n_heads):
            best_patch = int(np.argmax(rows[hi, 0]))
            py, px = divmod(best_patch, g)
            m = maps[hi, 0]
            by, bx = np.unravel_index(np.argmax(m), m.shape)
            assert py == by // scale
            assert px == bx // scale


class TestComputeMetrics:
    def test_perfect(self):
        labels = np.array([0, 1, 2, 3, 4])
        m = compute_metrics(labels, labels)
        assert m.accuracy == 1.0
        np.testing.assert_array_equal(m.precision, np.ones(5))
        np.testing.assert_array_equal(m.recall, np.ones(5))

    def test_hand_count(self):
        m = compute_metrics(np.array([0, 0]), np.array([0, 1]))
        assert m.accuracy == 0.5
        assert m.precision[0] == 0.5
        assert m.recall[1] == 0.0

    def test_absent_class_convention(self):
        m = compute_metrics(np.array([0, 0]), np.array([0, 0]))
        assert m.precision[3] == 0.0
        assert m.recall[3] == 0.0

    def test_all_zero_on_balanced(self):
        labels = np.repeat(np.arange(5), 2)
        m = compute_metrics(np.zeros(10, dtype=int), labels)
        assert m.accuracy == pytest.approx(0.2)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            compute_metrics(np.zeros(3, dtype=int), np.zeros(4, dtype=int))

    def test_non_integer_grades(self):
        with pytest.raises(InputError):
            compute_metrics(np.array([0.0, 1.5]), np.array([0, 1]))

    def test_no_predictions(self):
        m = compute_metrics(np.array([]), np.array([]))
        assert m.accuracy == 0.0
        np.testing.assert_array_equal(m.confusion, np.zeros((5, 5), dtype=np.int64))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 1000))
    def test_identities_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        preds = rng.integers(0, 5, n)
        labels = rng.integers(0, 5, n)
        m = compute_metrics(preds, labels)
        support = np.bincount(labels, minlength=5)
        np.testing.assert_array_equal(m.confusion.sum(axis=1), support)
        assert m.accuracy == pytest.approx(np.trace(m.confusion) / n)

    def test_report_formats(self):
        m = compute_metrics(np.array([0, 1]), np.array([0, 1]))
        text = m.report_text()
        assert text.startswith("accuracy = 1.000000")
        csv = m.confusion_csv()
        assert len(csv.strip().split("\n")) == 6


class TestBuildIndex:
    def test_unit_rows(self):
        cfg, params = tiny_backbone()
        imgs = np.random.default_rng(17).random((4, 3, 16, 16))
        index = build_index(params, imgs, np.array([0, 1, 2, 3]), cfg)
        np.testing.assert_allclose(np.linalg.norm(index.features, axis=1), 1.0,
                                   atol=1e-9)
