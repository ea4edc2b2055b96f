"""Frozen-feature evaluation: linear probe, cosine k-NN, attention maps.

All three protocols read model parameters without mutating them. The probe
is the only trained object here and it is a plain (feature_dim x 5) linear
layer optimized with momentum SGD on softmax cross-entropy, in plain numpy
with the gradient in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .crops import bicubic_resize, map_chunks, resample, resample_matrix, workers
from .data import N_GRADES
from .errors import ContractError, InputError, ParameterError
from .vit import EVAL, ViTConfig, encoder_forward, last_layer_attention, patch_embed

# the probe's SGD momentum, DINO's
PROBE_MOMENTUM = 0.9


@dataclass
class EmbeddingIndex:
    """L2-normalized feature rows with their grade labels."""
    features: np.ndarray  # (n, d), unit rows
    labels: np.ndarray    # (n,), each in 0..4

    def __post_init__(self):
        if self.labels.ndim != 1 or not np.issubdtype(self.labels.dtype, np.integer):
            raise ContractError(f"labels must be a 1-D integer array, got "
                                f"{self.labels.dtype} of shape {self.labels.shape}")
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ContractError("features and labels disagree in length")
        if len(self.features):
            norms = np.linalg.norm(self.features, axis=1)
            if not np.all(np.abs(norms - 1.0) <= 1e-6):
                raise ContractError("index rows must be unit-norm (zero rows forbidden)")
        if len(self.labels) and not np.all((self.labels >= 0) & (self.labels < N_GRADES)):
            raise ContractError("labels outside the 5-grade range")


@dataclass
class LinearProbe:
    weight: np.ndarray  # (feature_dim, 5)
    bias: np.ndarray    # (5,)


@dataclass
class Metrics:
    accuracy: float
    precision: np.ndarray       # (5,)
    recall: np.ndarray          # (5,)
    confusion: np.ndarray       # (5, 5) counts, rows = true grade

    def report_text(self) -> str:
        lines = [f"accuracy = {self.accuracy:.6f}"]
        for c in range(N_GRADES):
            lines.append(f"precision[{c}] = {self.precision[c]:.6f}")
            lines.append(f"recall[{c}] = {self.recall[c]:.6f}")
        return "\n".join(lines) + "\n"

    def confusion_csv(self) -> str:
        header = "true\\pred," + ",".join(str(c) for c in range(N_GRADES))
        rows = [header]
        for c in range(N_GRADES):
            rows.append(str(c) + "," + ",".join(str(int(v)) for v in self.confusion[c]))
        return "\n".join(rows) + "\n"


@dataclass
class ProbeConfig:
    lr: float = 0.001
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ParameterError(f"probe batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1 or not (math.isfinite(self.lr) and self.lr >= 0):
            raise ParameterError(f"probe epochs must be >= 1 and lr finite and >= 0, "
                                 f"got {self.epochs} and {self.lr}")


@dataclass
class KnnConfig:
    k: int = 20
    temperature: float = 0.07

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if not self.temperature > 0.0:
            raise ParameterError(f"knn temperature must be > 0, got {self.temperature}")


# Values that the widest activation of one chunk of the feature forward may
# hold: the attention scores (heads x T x T) or the MLP hidden layer
# (T x hidden) per image. Chosen by a sweep at the desk config, where it
# gives 23 images per chunk; features do not depend on it.
_CHUNK_VALUES = 1 << 17

# Similarities that the blocks of k-NN queries in flight may hold together:
# each of `crops.workers()` blocks holds its share. Over a 20000-row index it
# gives 26 queries per block on one worker and 13 on two. Larger budgets are
# faster, mostly in the similarity product (2^21 gave 1.56x the queries/s on
# two workers), but raise the peak memory (by 14 MB there); predictions do
# not depend on it.
_KNN_BLOCK_VALUES = 1 << 19

# Column groups whose per-row maxima bound a k-NN row's k-th similarity
# from below (at least k are used). More groups give a tighter bound and
# fewer candidates to sort; predictions do not depend on it.
_KNN_GROUPS = 512


def extract_features(backbone_params: dict[str, Tensor], images: np.ndarray,
                     config: ViTConfig, n_last_blocks: int = 1) -> np.ndarray:
    """Concatenated CLS outputs of the last n_last_blocks blocks, no pooling.

    Returns (n_images, n_last_blocks * n_cls_tokens * embed_dim). Images go
    through the forward in chunks run by `crops.map_chunks`, so memory
    follows `_CHUNK_VALUES` rather than the number of images; every eval-mode
    op treats rows independently, so the chunking does not change a bit of
    the output.
    """
    if n_last_blocks < 1 or n_last_blocks > config.depth:
        raise ParameterError(f"n_last_blocks must be in 1..{config.depth}")
    if images.ndim == 3:  # one (3, S, S) image, as patch_embed accepts
        images = images[None]
    nc = config.n_cls_tokens
    t = (images.shape[-1] // config.patch_size) ** 2 + nc
    widest = max(config.n_heads * t * t, t * int(config.embed_dim * config.mlp_ratio))
    feats = np.empty((len(images), n_last_blocks * nc, config.embed_dim))

    def chunk(lo, hi):
        tokens = patch_embed(images[lo:hi], config, backbone_params)
        feats[lo:hi] = encoder_forward(tokens, config, backbone_params, mode=EVAL,
                                       n_last_blocks=n_last_blocks).cls_features.data

    map_chunks(chunk, len(images), max(1, _CHUNK_VALUES // widest))
    return feats.reshape(len(images), n_last_blocks * nc * config.embed_dim)


def probe_eval_transform(images: np.ndarray, target_size: int) -> np.ndarray:
    """Test-time transform: resize to ceil(8/7 * s), center-crop to s.

    Only the kept rows and columns are resampled: the crop's rows of each
    axis' resample matrix give the (n, 3, s, s) result directly, a chunk of
    images at a time (`crops.resample`).
    """
    big = int(np.ceil(target_size * 8.0 / 7.0))
    off = (big - target_size) // 2
    keep = slice(off, off + target_size)
    h, w = images.shape[-2:]
    return resample(images, resample_matrix(h, big)[keep], resample_matrix(w, big)[keep])


def probe_train_transform(images: np.ndarray, target_size: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Train-time transform: resize to the model size + random horizontal flip."""
    out = bicubic_resize(images, target_size)
    # an image at a time, so no copy of the flipped half is made
    for i in np.flatnonzero(rng.random(len(out)) < 0.5):
        out[i] = out[i, ..., ::-1]
    return out


def probe_lr_at(step: int, total_steps: int, base_lr: float) -> float:
    """Half-cosine from base_lr to exactly 0 at the final step."""
    if total_steps <= 1:
        return base_lr
    t = step / (total_steps - 1)
    return base_lr * (1.0 + np.cos(np.pi * t)) / 2.0


def train_linear_probe(features: np.ndarray, labels: np.ndarray,
                       config: ProbeConfig) -> LinearProbe:
    """Momentum SGD on softmax cross-entropy over frozen features.

    Each step is plain numpy with the gradient in closed form, in the
    operations and order of the taped chain linear -> log_softmax_rows ->
    mul by -onehot -> tensor_sum -> mul by 1/bs, so the weights are those
    of the tape's backward bit for bit. With t = onehot * (-1/bs), the
    gradient of the mean cross entropy at log p, the logits' gradient is
    t - exp(log p) * rowsum(t).
    """
    n, d = features.shape if features.ndim == 2 else (0, 0)
    if n == 0:
        raise InputError("empty probe training set")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise InputError(f"{labels.size} probe labels for {n} feature rows")
    if not (np.issubdtype(labels.dtype, np.integer)
            and np.all((labels >= 0) & (labels < N_GRADES))):
        raise InputError("probe labels must be integer grades in 0..4")
    features = np.asarray(features, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x9806E]))
    w = np.zeros((d, N_GRADES))
    b = np.zeros(N_GRADES)
    vel_w, vel_b = np.zeros_like(w), np.zeros_like(b)
    bs = min(config.batch_size, n)
    target_grad = np.eye(N_GRADES)[labels] * (-1.0 / bs)
    steps_per_epoch = max(1, n // bs)
    total = config.epochs * steps_per_epoch
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for s in range(steps_per_epoch):
            idx = order[s * bs:(s + 1) * bs]
            x, t = features[idx], target_grad[idx]
            log_p = x @ w
            log_p += b
            log_p -= log_p.max(axis=-1, keepdims=True)
            log_p -= np.log(np.exp(log_p).sum(axis=-1, keepdims=True))
            g = t - np.exp(log_p) * t.sum(axis=-1, keepdims=True)
            lr = probe_lr_at(step, total, config.lr)
            for p, v, grad in ((w, vel_w, x.T @ g), (b, vel_b, g.sum(axis=0))):
                v *= PROBE_MOMENTUM
                v += grad
                p -= lr * v
            step += 1
    return LinearProbe(weight=w, bias=b)


def probe_predict(probe: LinearProbe, features: np.ndarray) -> np.ndarray:
    if features.ndim != 2 or features.shape[1] != len(probe.weight):
        raise InputError(f"probe features of shape {features.shape} do not match "
                         f"the probe's width {len(probe.weight)}")
    logits = features @ probe.weight + probe.bias
    return np.argmax(logits, axis=1)


def check_knn_k(k: int, n: int) -> None:
    """Refuse a k-NN vote of k neighbours over an index of n rows."""
    if not 1 <= k <= n:
        raise InputError(f"k={k} outside 1..{n}")


def knn_classify(index: EmbeddingIndex, query: np.ndarray,
                 config: KnnConfig) -> np.ndarray:
    """Cosine k-NN with exp(sim/T)-weighted voting, each query's weights
    divided by exp(top sim/T).

    query: (m, d) L2-normalized rows. Ties break toward the lowest grade,
    and among equal similarities toward the lowest index row, so results
    are deterministic. Queries go through in blocks, one block per piece
    of `crops.map_chunks`; each of the `crops.workers()` blocks in flight
    holds its share of `_KNN_BLOCK_VALUES` similarities, so memory follows
    that budget rather than m x n. No row's arithmetic depends on its block
    or its thread.
    """
    n, d = index.features.shape
    if n == 0:
        raise InputError("empty embedding index")
    check_knn_k(config.k, n)
    query = np.atleast_2d(query)
    if query.ndim != 2 or query.shape[1] != d:
        raise InputError(f"query rows of shape {query.shape[1:]} do not match "
                         f"the index's width {d}")
    if not np.all(np.isfinite(query)):
        raise InputError("query holds NaN or infinite values")
    m = len(query)
    # Blocks of at least two rows: numpy computes a one-row product as a
    # matrix-vector product, whose sums round differently from the matrix
    # product's, so a lone last row joins the block before it.
    step = max(2, _KNN_BLOCK_VALUES // n // workers())
    bounds = list(range(0, m, step)) + [m]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    preds = np.empty(m, dtype=np.int64)

    def block(i, _):  # chunks of one block each
        lo, hi = bounds[i], bounds[i + 1]
        votes = _knn_votes(query[lo:hi], index, config)
        preds[lo:hi] = np.argmax(votes, axis=1)  # the lowest grade wins a tie

    map_chunks(block, len(bounds) - 1, 1)
    return preds


def _knn_votes(block: np.ndarray, index: EmbeddingIndex, config: KnnConfig) -> np.ndarray:
    """(b, 5) votes of a block of b query rows.

    The k neighbours of a row are its k largest similarities, ordered by
    (-similarity, index). A row's bound is the k-th largest of its maxima
    over g >= k column groups (column j is in group j % g; a ragged tail is
    in none). k distinct columns reach it, so every neighbour, ties at the
    k-th included, lies at or above it; only these candidates are sorted.
    """
    sims = block @ index.features.T
    b, n = sims.shape
    k = config.k
    g = min(n, max(k, _KNN_GROUPS))
    maxima = sims[:, :n // g * g].reshape(b, n // g, g).max(axis=1)
    maxima.partition(g - k, axis=1)  # in place: no second (b, g) array
    bound = maxima[:, g - k]
    flat = np.flatnonzero(sims >= bound[:, None])  # ascending (row, index)
    cand_rows = flat // n
    neg_sims = -sims.ravel()[flat]
    # a stable sort by (row, -similarity) keeps equal similarities in index
    # order; each row has at least k candidates
    order = np.lexsort((neg_sims, cand_rows))
    rows = np.arange(b)
    pick = order[np.searchsorted(cand_rows, rows)[:, None] + np.arange(k)]
    top, top_sims = flat[pick] % n, -neg_sims[pick]
    # exp((s - s_top) / T): each query's weights scaled by one factor, so no
    # temperature overflows exp and the first neighbour weighs 1
    weights = np.exp((top_sims - top_sims[:, :1]) / config.temperature)
    votes = np.zeros((b, N_GRADES))
    # one neighbour rank at a time, so each row sums in rank order
    for j in range(k):
        votes[rows, index.labels[top[:, j]]] += weights[:, j]
    return votes


def attention_heatmaps(backbone_params: dict[str, Tensor], image: np.ndarray,
                       config: ViTConfig) -> np.ndarray:
    """Per-(head, CLS) last-layer attention maps upsampled to image size.

    Returns (n_heads, n_cls_tokens, H, W) with each map min-max normalized
    to [0, 1]; a constant map normalizes to all zeros.
    """
    rows = last_layer_attention(image, config, backbone_params)  # (h, c, patches)
    g = config.grid
    big = bicubic_resize(rows.reshape(rows.shape[:2] + (g, g)), image.shape[-2:])
    lo = big.min(axis=(-2, -1), keepdims=True)
    span = big.max(axis=(-2, -1), keepdims=True) - lo
    return np.where(span > 0, (big - lo) / np.where(span > 0, span, 1.0), 0.0)


def compute_metrics(predictions: np.ndarray, labels: np.ndarray) -> Metrics:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or labels.ndim != 1:
        raise InputError("predictions and labels must be 1-D and of one length")
    if len(labels) and not all(np.issubdtype(g.dtype, np.integer)
                               and np.all((g >= 0) & (g < N_GRADES))
                               for g in (predictions, labels)):
        raise InputError("grades must be integers in 0..4")
    cells = labels.astype(np.int64) * N_GRADES + predictions.astype(np.int64)
    confusion = np.bincount(cells, minlength=N_GRADES ** 2).reshape(N_GRADES, N_GRADES)
    total = confusion.sum()
    accuracy = float(np.trace(confusion) / total) if total else 0.0
    tp = np.diag(confusion).astype(np.float64)
    pred_tot = confusion.sum(axis=0).astype(np.float64)
    true_tot = confusion.sum(axis=1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pred_tot > 0, tp / pred_tot, 0.0)
        recall = np.where(true_tot > 0, tp / true_tot, 0.0)
    return Metrics(accuracy, precision, recall, confusion)


def build_index(backbone_params: dict[str, Tensor], images: np.ndarray,
                labels: np.ndarray, config: ViTConfig,
                n_last_blocks: int = 1) -> EmbeddingIndex:
    """Extract features and L2-normalize them into an EmbeddingIndex."""
    feats = extract_features(backbone_params, images, config, n_last_blocks)
    return EmbeddingIndex(ad.l2_normalize_rows(Tensor(feats)).data, np.asarray(labels))
