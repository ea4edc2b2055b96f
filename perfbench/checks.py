"""Output checks: references computed apart from the program, and
properties the method must have. Each check raises CheckFailure."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf


class CheckFailure(Exception):
    """A workload output disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# train-desk
# ---------------------------------------------------------------------------

def check_step(metrics, n_views: int, n_global: int) -> None:
    """A step's loss is finite and obeys Gibbs' inequality.

    Each of the (n_views - 1) * n_global cross-entropy terms is at least the
    entropy of its teacher rows, and teacher_entropy is the mean over all
    n_global * batch teacher rows, so the summed loss is at least
    (n_views - 1) * n_global * teacher_entropy.
    """
    require(math.isfinite(metrics.loss), f"step {metrics.step}: loss {metrics.loss}")
    bound = (n_views - 1) * n_global * metrics.teacher_entropy
    require(metrics.loss >= bound - 1e-9 * max(1.0, abs(bound)),
            f"step {metrics.step}: loss {metrics.loss!r} below the Gibbs bound "
            f"{bound!r}")


def check_ema(teacher_before: dict, teacher_after: dict, student_after: dict,
              lam: float) -> None:
    """teacher_after == lam * teacher_before + (1 - lam) * student_after."""
    require(teacher_before.keys() == teacher_after.keys() == student_after.keys(),
            "teacher and student parameter names differ")
    for name, before in teacher_before.items():
        expected = lam * before + (1.0 - lam) * student_after[name].data
        err = np.max(np.abs(teacher_after[name].data - expected))
        require(err <= 1e-12 * max(1.0, float(np.max(np.abs(expected)))),
                f"teacher {name} is off the EMA of the student by {err:.3g}")


def check_same_lines(run: list[str], twin: list[str]) -> None:
    for i, (a, b) in enumerate(zip(run, twin)):
        require(a == b, f"twin run differs at line {i}: {a!r} vs {b!r}")


# ---------------------------------------------------------------------------
# eval-frozen and knn-scale
# ---------------------------------------------------------------------------

def _layer_norm(x, scale, shift, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * scale + shift


def reference_features(params: dict, images: np.ndarray, vit) -> np.ndarray:
    """Plain-numpy eval-mode ViT forward: final-norm CLS features of the
    last block for (n, 3, S, S) images at the model's own size."""
    p = {k: v.data for k, v in params.items()}
    n, c, s, _ = images.shape
    ps, d, nh, nc = vit.patch_size, vit.embed_dim, vit.n_heads, vit.n_cls_tokens
    require(s == vit.image_size, "reference forward needs model-size images")
    g = s // ps
    patches = np.einsum("ncyhxw->nyxchw",
                        images.reshape(n, c, g, ps, g, ps)).reshape(n, g * g, -1)
    x = np.concatenate([np.repeat(p["cls"][None], n, axis=0),
                        patches @ p["patch_embed.w"] + p["patch_embed.b"]], axis=1)
    x = x + p["pos"]
    hd = d // nh
    for i in range(vit.depth):
        b = f"blocks.{i}."
        h = _layer_norm(x, p[b + "ln1.scale"], p[b + "ln1.shift"])
        qkv = (h @ p[b + "attn.qkv.w"] + p[b + "attn.qkv.b"]).reshape(n, -1, 3, nh, hd)
        q, k, v = (qkv[:, :, j] for j in range(3))          # (n, t, heads, hd)
        logits = np.einsum("nqhd,nkhd->nhqk", q, k) / np.sqrt(hd)
        att = np.exp(logits - logits.max(axis=-1, keepdims=True))
        att /= att.sum(axis=-1, keepdims=True)
        out = np.einsum("nhqk,nkhd->nqhd", att, v).reshape(n, -1, d)
        x = x + out @ p[b + "attn.proj.w"] + p[b + "attn.proj.b"]
        h = _layer_norm(x, p[b + "ln2.scale"], p[b + "ln2.shift"])
        m = h @ p[b + "mlp.fc1.w"] + p[b + "mlp.fc1.b"]
        m = m * 0.5 * (1.0 + erf(m / np.sqrt(2.0)))
        x = x + m @ p[b + "mlp.fc2.w"] + p[b + "mlp.fc2.b"]
    x = _layer_norm(x, p["ln_f.scale"], p["ln_f.shift"])
    return x[:, :nc].reshape(n, nc * d)


def check_features(got: np.ndarray, params: dict, images: np.ndarray, vit) -> None:
    want = reference_features(params, images, vit)
    err = np.max(np.abs(got - want))
    require(got.shape == want.shape and err <= 1e-9,
            f"features differ from the numpy forward by {err:.3g}")


def knn_oracle(features: np.ndarray, labels: np.ndarray, queries: np.ndarray,
               k: int, temperature: float) -> np.ndarray:
    """Brute force: stable sort of each query's similarities, descending,
    so equal similarities keep index order; exp(sim/T)-weighted votes;
    the lowest grade wins a tied vote."""
    sims = queries @ features.T
    preds = np.empty(len(queries), dtype=np.int64)
    for i, row in enumerate(sims):
        top = np.argsort(-row, kind="stable")[:k]
        votes = np.zeros(5)
        for j in top:
            votes[labels[j]] += np.exp(row[j] / temperature)
        preds[i] = int(np.argmax(votes))
    return preds


def check_knn(got: np.ndarray, want: np.ndarray) -> None:
    bad = np.flatnonzero(got != want)
    require(len(got) == len(want) and not len(bad),
            f"{len(bad)} k-NN predictions differ from the oracle "
            f"(first at query {bad[:1].tolist()})")


def probe_train_loss(probe, features: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy of the trained probe on its train set."""
    logits = features @ probe.weight + probe.bias
    logits = logits - logits.max(axis=1, keepdims=True)
    logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


def check_probe(probe, features: np.ndarray, labels: np.ndarray) -> None:
    """The probe starts at zero weights, i.e. loss ln 5; it must learn."""
    loss = probe_train_loss(probe, features, labels)
    require(loss < math.log(5), f"probe train loss {loss:.4f} is not below ln 5")


def check_unchanged(name: str, first, now) -> None:
    """Every round repeats the same operations on the same inputs."""
    require(np.array_equal(first, now), f"{name} changed between rounds")


# ---------------------------------------------------------------------------
# ingest-png
# ---------------------------------------------------------------------------

def check_decoded(decoded: np.ndarray, pixels: np.ndarray) -> None:
    """decoded (n, 3, H, W) floats must be exactly the encoded uint8
    pixels (n, H, W, 3) over 255. Compared image by image, so the check's
    temporaries stay small next to the program's own arrays."""
    n, h, w, c = pixels.shape
    require(decoded.shape == (n, c, h, w),
            f"decoded shape {decoded.shape} != {(n, c, h, w)}")
    for i in range(n):
        bad = np.argwhere(decoded[i] != pixels[i].transpose(2, 0, 1) / 255.0)
        require(not len(bad), f"image {i}: {len(bad)} decoded samples differ, "
                              f"first at {bad[:1].tolist()}")


def check_filter_mix(counts: np.ndarray) -> None:
    require(len(counts) == 5 and bool(np.all(counts > 0)),
            f"not every PNG filter type occurs: {counts.tolist()}")
