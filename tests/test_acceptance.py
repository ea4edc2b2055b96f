"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Criteria 5 and 8 share one trained model via a
module-scoped fixture; everything else is self-contained.
"""

import os
import time

import numpy as np
import pytest
from scipy.special import erf

from retinassl import autodiff as ad
from retinassl import distill as distill_module
from retinassl.autodiff import Tape, Tensor, backward, concat, log_softmax_rows
from retinassl.cli import main as cli_main
from retinassl.crops import MultiCropConfig, build_multicrop
from retinassl.data import generate_synthetic_dataset
from retinassl.distill import (DistillConfig, clip_gradients, distillation_loss,
                               init_train_state, schedule_value, teacher_probs,
                               train_loop, train_step)
from retinassl.evaluation import (EmbeddingIndex, KnnConfig, ProbeConfig,
                                  attention_heatmaps, build_index,
                                  compute_metrics, extract_features,
                                  knn_classify, probe_predict,
                                  train_linear_probe)
from retinassl.vit import (EVAL, ProjectionHeadConfig, ViTConfig, backbone_forward,
                           init_backbone_params, init_head_params,
                           interpolate_pos_embed, projection_head_forward)


def report(criterion: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion} [{status}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"criterion {criterion} failed — {name}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: full loss gradient vs central finite differences
# ---------------------------------------------------------------------------

class NumpyTwin:
    """Plain-numpy reimplementation of the student forward pass.

    Written independently of the taped ops so the finite-difference side of
    the gradient check does not share code with the gradients under test.
    Agreement with the taped loss is asserted to < 1e-10 before use.

    Every array carries a leading copy axis, so that one forward can run
    P perturbed copies of one parameter tensor: the copy axis of `logits`'
    output is P long for a perturbed parameter and 1 otherwise.
    """

    def __init__(self, vit, head, params):
        self.vit, self.head = vit, head
        self.P = {k: t.data for k, t in params.items()}

    @staticmethod
    def _ln(x, scale, shift):
        mu = x.mean(-1, keepdims=True)
        var = x.var(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-6) * scale + shift

    @staticmethod
    def _gelu(x):
        return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))

    def logits(self, px, key=None, copies=None):
        vit = self.vit

        def p(name, ndim):
            """Parameter `name`, or the (P, ...) copies if it is `key`, with
            axes of length 1 after the copy axis up to `ndim` axes."""
            w = copies if name == key else self.P[name][None]
            return w.reshape(w.shape[:1] + (1,) * (ndim - w.ndim) + w.shape[1:])

        b, c, H, W = px.shape
        ps = vit.patch_size
        g = H // ps
        nc, d = vit.n_cls_tokens, vit.embed_dim
        x = (px.reshape(b, c, g, ps, g, ps).transpose(0, 2, 4, 1, 3, 5)
             .reshape(1, b, g * g, c * ps * ps))
        x = x @ p("patch_embed.w", 4) + p("patch_embed.b", 4)
        n = max(len(x), len(p("cls", 4)))
        cls = np.broadcast_to(p("cls", 4), (n, b, nc, d))
        x = np.concatenate([cls, np.broadcast_to(x, (n, b, g * g, d))], axis=2)
        x = x + np.stack([interpolate_pos_embed(Tensor(pos), vit.grid, g, nc).data
                          for pos in p("pos", 3)])[:, None]
        nh, hd = vit.n_heads, d // vit.n_heads
        t = x.shape[2]
        for i in range(vit.depth):
            pre = f"blocks.{i}."
            h = self._ln(x, p(pre + "ln1.scale", 4), p(pre + "ln1.shift", 4))
            qkv = ((h @ p(pre + "attn.qkv.w", 4) + p(pre + "attn.qkv.b", 4))
                   .reshape(-1, b, t, 3, nh, hd).transpose(3, 0, 1, 4, 2, 5))
            q, k, v = qkv[0], qkv[1], qkv[2]
            a = q @ k.swapaxes(-1, -2) / np.sqrt(hd)
            a = a - a.max(-1, keepdims=True)
            e = np.exp(a)
            a = e / e.sum(-1, keepdims=True)
            o = (a @ v).transpose(0, 1, 3, 2, 4).reshape(-1, b, t, d)
            if i == vit.depth - 1:  # only the CLS rows are read from here on
                x, o = x[:, :, :nc], o[:, :, :nc]
            x = x + o @ p(pre + "attn.proj.w", 4) + p(pre + "attn.proj.b", 4)
            h = self._ln(x, p(pre + "ln2.scale", 4), p(pre + "ln2.shift", 4))
            m = self._gelu(h @ p(pre + "mlp.fc1.w", 4) + p(pre + "mlp.fc1.b", 4))
            x = x + m @ p(pre + "mlp.fc2.w", 4) + p(pre + "mlp.fc2.b", 4)
        x = self._ln(x, p("ln_f.scale", 4), p("ln_f.shift", 4))
        feat = x[:, :, :nc, :].reshape(len(x), b, -1)
        h = self._gelu(feat @ p("head.fc1.w", 3) + p("head.fc1.b", 3))
        h = self._gelu(h @ p("head.fc2.w", 3) + p("head.fc2.b", 3))
        h = h @ p("head.fc3.w", 3) + p("head.fc3.b", 3)
        n = np.linalg.norm(h, axis=-1, keepdims=True)
        h = np.where(n < 1e-12, h, h / np.where(n < 1e-12, 1.0, n))
        dr = p("head.last.dir", 3)
        dn = np.linalg.norm(dr, axis=-1, keepdims=True)
        w = (np.where(dn < 1e-12, dr, dr / np.where(dn < 1e-12, 1.0, dn))
             * p("head.last.mag", 2)[..., None])
        return h @ w.swapaxes(-1, -2)


# values of one parameter tensor perturbed per twin forward, each twice
FD_CHUNK = 256


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    vit = ViTConfig(image_size=32, patch_size=8, depth=2, embed_dim=32,
                    n_heads=2, drop_path_rate=0.0, mlp_ratio=2.0)
    head = ProjectionHeadConfig(hidden_dim=32, bottleneck_dim=8, output_dim=128)
    rng = np.random.default_rng(0)
    params = init_backbone_params(vit, rng, std=0.3)
    params.update(init_head_params(head, vit.n_cls_tokens * vit.embed_dim,
                                   rng, std=0.3))

    crop_cfg = MultiCropConfig(global_out_size=32, local_out_size=16)
    img = np.random.default_rng(1).random((3, 32, 32))
    batch = build_multicrop(img, crop_cfg, np.random.default_rng(2))
    groups = (batch.student_global, batch.student_local)  # view order: globals first

    center = np.zeros(head.output_dim)
    p_t = []
    for crop in batch.teacher_global:
        out = backbone_forward(crop[None], vit, params, mode=EVAL)
        logits = projection_head_forward(out.cls_features, head, params)
        p_t.append(teacher_probs(logits.data, center, 0.04))
    p_t = np.stack(p_t)  # (n_global, 1, K)

    twin = NumpyTwin(vit, head, params)

    def np_loss(key=None, copies=None):
        """The loss of each copy: shape (P,), or (1,) with no copies."""
        logps = []
        for px in groups:
            z = twin.logits(px, key, copies) / 0.1
            z = z - z.max(-1, keepdims=True)
            lp = z - np.log(np.exp(z).sum(-1, keepdims=True))
            logps.extend(lp[:, j:j + 1] for j in range(len(px)))
        total = 0.0
        for ti, pt in enumerate(p_t):
            for si, lp in enumerate(logps):
                if si != ti:
                    total = total - (pt * lp).sum(axis=(-2, -1))
        return total

    def tensor_loss():
        logps = []
        for px in groups:
            out = backbone_forward(px, vit, params, mode=EVAL)
            logits = projection_head_forward(out.cls_features, head, params)
            logps.append(log_softmax_rows(logits, 0.1))
        return distillation_loss(p_t, concat(logps, axis=0))

    with Tape() as tape:
        loss = tensor_loss()
    assert abs(np_loss()[0] - loss.item()) < 1e-10, "twin disagrees with taped loss"
    backward(loss, tape, leaves=tuple(params.values()))

    eps = 1e-6
    worst = 0.0
    n_checked = 0
    for key, t in params.items():
        flat = twin.P[key].ravel()
        gflat = t.grad.ravel()
        for lo in range(0, flat.size, FD_CHUNK):
            idx = np.arange(lo, min(lo + FD_CHUNK, flat.size))
            # copy j perturbs value idx[j]: by +eps in the first half, -eps in the second
            copies = np.tile(flat, (2 * len(idx), 1))
            rows = np.arange(len(idx))
            copies[rows, idx] = flat[idx] + eps
            copies[len(idx) + rows, idx] = flat[idx] - eps
            f = np_loss(key, copies.reshape((-1,) + t.shape))
            num = (f[:len(idx)] - f[len(idx):]) / (2 * eps)
            rel = np.abs(gflat[idx] - num) / np.maximum.reduce(
                [np.abs(gflat[idx]), np.abs(num), np.full(len(idx), 1e-3)])
            worst = max(worst, float(rel.max()))
            n_checked += len(idx)
    elapsed = time.time() - t0
    report(1, "gradient correctness", worst <= 1e-4 and elapsed < 120,
           f"worst rel err {worst:.2e} over {n_checked} params in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 2: loss-pair enumeration
# ---------------------------------------------------------------------------

def test_criterion_2_loss_pair_enumeration():
    K = 64
    uniform = np.full((1, K), 1.0 / K)
    p_t = np.stack([uniform, uniform])                   # 2 teacher globals
    log_p = Tensor(np.log(np.tile(uniform, (8, 1))))     # 8 student views
    n_pairs = sum(1 for t in range(len(p_t)) for s in range(8) if s != t)
    loss = distillation_loss(p_t, log_p).item()
    ok = n_pairs == 14 and abs(loss - 14 * np.log(K)) < 1e-6
    report(2, "loss-pair enumeration", ok,
           f"{n_pairs} pairs, uniform loss {loss:.8f} vs 14*lnK "
           f"{14 * np.log(K):.8f}")


# ---------------------------------------------------------------------------
# criterion 3: EMA / schedule invariants
# ---------------------------------------------------------------------------

def test_criterion_3_schedule_invariants():
    cfg = DistillConfig()  # defaults: the published schedule endpoints
    spe = 50
    total = cfg.total_epochs * spe
    steps = np.linspace(0, total, 400).astype(int)
    lam = [schedule_value("ema_lambda", s, spe, cfg) for s in steps]
    wd = [schedule_value("weight_decay", s, spe, cfg) for s in steps]
    lam_ok = (all(0.99 <= v <= 1.0 for v in lam)
              and all(b >= a for a, b in zip(lam, lam[1:])))
    wd_ok = (all(0.04 <= v <= 0.4 + 1e-12 for v in wd)
             and all(b >= a for a, b in zip(wd, wd[1:])))
    warmup = cfg.warmup_epochs * spe
    lr_peak = schedule_value("lr", warmup, spe, cfg)
    peak_ok = lr_peak == 0.0005 * cfg.batch_size / 256

    # teacher provably receives no gradients through a real step
    vit = ViTConfig(image_size=16, patch_size=8, depth=1, embed_dim=8, n_heads=2)
    head = ProjectionHeadConfig(hidden_dim=16, bottleneck_dim=8, output_dim=24)
    crop = MultiCropConfig(global_out_size=16, local_out_size=8, n_local=2)
    distill = DistillConfig(batch_size=2, total_epochs=10, warmup_epochs=1)
    state = init_train_state(vit, head, seed=0, init_std=0.3)
    images = generate_synthetic_dataset(0, 1, image_size=16).images[:2]
    train_step(images, state, vit, head, crop, distill, steps_per_epoch=5)
    teacher_ok = all(not t.requires_grad and t.grad is None
                     for t in state.teacher.values())

    # post-clip global norm never exceeds the threshold
    rng = np.random.default_rng(3)
    grads = {f"g{i}": rng.normal(size=(20, 20)) * 10 for i in range(5)}
    clipped, pre = clip_gradients(grads, 3.0)
    norm = np.sqrt(sum((g * g).sum() for g in clipped.values()))
    clip_ok = pre > 3.0 and norm <= 3.0 + 1e-12

    report(3, "EMA/schedule invariants",
           lam_ok and wd_ok and peak_ok and teacher_ok and clip_ok,
           f"lambda in [0.99,1] monotone={lam_ok}, wd in [0.04,0.4] "
           f"monotone={wd_ok}, lr peak {lr_peak:.6g} exact={peak_ok}, "
           f"teacher grad-free={teacher_ok}, post-clip norm {norm:.4f}")


# ---------------------------------------------------------------------------
# criterion 4: collapse sentinel (comparative)
# ---------------------------------------------------------------------------

def test_criterion_4_collapse_sentinel(monkeypatch):
    t0 = time.time()
    K = 256
    vit = ViTConfig(image_size=16, patch_size=8, depth=2, embed_dim=16,
                    n_heads=2, drop_path_rate=0.1)
    head = ProjectionHeadConfig(hidden_dim=32, bottleneck_dim=8, output_dim=K)
    crop = MultiCropConfig(global_out_size=16, local_out_size=8)
    images = generate_synthetic_dataset(0, 50, image_size=16).images  # 250

    def run(tau_t):
        distill = DistillConfig(tau_t=tau_t, batch_size=8, total_epochs=100,
                                warmup_epochs=10)
        state = init_train_state(vit, head, seed=0)
        spe = int(np.ceil(len(images) / 8))
        ents = []
        for _ in range(500):
            idx = state.rng.choice(len(images), size=8, replace=False)
            m = train_step(images[idx], state, vit, head, crop, distill, spe)
            ents.append(m.teacher_entropy)
        out = backbone_forward(images[:32], vit, state.teacher, mode=EVAL)
        logits = projection_head_forward(out.cls_features, head, state.teacher)
        return np.array(ents[-100:]), float(logits.data.var())

    lo, hi = 0.05 * np.log(K), 0.999 * np.log(K)
    ents_h, var_h = run(0.04)
    healthy_ok = bool((ents_h > lo).all() and (ents_h < hi).all())
    with monkeypatch.context() as patch:  # ablation: frozen center, tau_t=0.01
        patch.setattr(distill_module, "center_update",
                      lambda center, logits, momentum: center)
        ents_a, var_a = run(0.01)
    ablation_exits = bool(((ents_a <= lo) | (ents_a >= hi)).any())
    ablation_flat = var_a * 10 <= var_h
    elapsed = time.time() - t0
    report(4, "collapse sentinel",
           healthy_ok and (ablation_exits or ablation_flat) and elapsed < 600,
           f"healthy entropy [{ents_h.min():.3f},{ents_h.max():.3f}] in "
           f"({lo:.3f},{hi:.3f}); ablation [{ents_a.min():.3f},"
           f"{ents_a.max():.3f}] exits={ablation_exits}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criteria 5 + 8: shared desk-scale training run
# ---------------------------------------------------------------------------

S = 48
DESK_VIT = ViTConfig(image_size=S, patch_size=8, depth=2, embed_dim=32,
                     n_heads=4, drop_path_rate=0.1)
DESK_HEAD = ProjectionHeadConfig(hidden_dim=64, bottleneck_dim=16,
                                 output_dim=256)
DESK_CROP = MultiCropConfig(global_out_size=S, local_out_size=24,
                            global_scale_range=(0.5, 1.0),
                            local_scale_range=(0.2, 0.5), n_local=4,
                            jitter_strength=(0.3, 0.3, 0.2, 0.05),
                            grayscale_p=0.1, blur_sigma=(0.1, 0.5),
                            solarize_p=0.1)
# Desk-scale recipe: higher lr than the published peak (which cannot move a
# randomly initialized net off the collapsed region in 1,000 steps), gentler
# sharpening, faster center, flat small wd, prototype layer frozen.
DESK_DISTILL = DistillConfig(batch_size=16, total_epochs=130, warmup_epochs=4,
                             base_lr=0.01, tau_t=0.05, center_momentum=0.7,
                             wd_start=0.0001, wd_end=0.0001,
                             freeze_last_steps=10 ** 9)


@pytest.fixture(scope="module")
def desk_run():
    dataset = generate_synthetic_dataset(0, 120, image_size=S)
    train_mask = np.zeros(len(dataset.grades), dtype=bool)
    for g in range(5):
        train_mask[np.where(dataset.grades == g)[0][:100]] = True
    t0 = time.time()
    state = init_train_state(DESK_VIT, DESK_HEAD, seed=0, init_std=0.05)
    train_loop(dataset.images[train_mask], state, DESK_VIT, DESK_HEAD,
               DESK_CROP, DESK_DISTILL, n_steps=1000)
    return {
        "dataset": dataset,
        "train_mask": train_mask,
        "state": state,
        "train_seconds": time.time() - t0,
    }


def test_criterion_5_representation_quality(desk_run):
    t0 = time.time()
    ds, mask = desk_run["dataset"], desk_run["train_mask"]
    tr_imgs, tr_y = ds.images[mask], ds.grades[mask]
    te_imgs, te_y = ds.images[~mask], ds.grades[~mask]
    assert len(te_y) == 100

    def evaluate(params):
        index = build_index(params, tr_imgs, tr_y, DESK_VIT)
        queries = build_index(params, te_imgs, te_y, DESK_VIT)
        knn = compute_metrics(
            knn_classify(index, queries.features, KnnConfig(k=5)), te_y).accuracy
        feats_tr = extract_features(params, tr_imgs, DESK_VIT)
        feats_te = extract_features(params, te_imgs, DESK_VIT)
        probe = train_linear_probe(feats_tr, tr_y,
                                   ProbeConfig(epochs=150, lr=0.02))
        acc = compute_metrics(probe_predict(probe, feats_te), te_y).accuracy
        return knn, acc

    knn_ssl, probe_ssl = evaluate(desk_run["state"].teacher)
    rand = init_train_state(DESK_VIT, DESK_HEAD, seed=1, init_std=0.05)
    knn_rand, probe_rand = evaluate(rand.teacher)

    total = desk_run["train_seconds"] + (time.time() - t0)
    ok = (knn_ssl >= 0.50 and probe_ssl >= 0.60
          and knn_ssl - knn_rand >= 0.15 and probe_ssl - probe_rand >= 0.15
          and total < 1200)
    report(5, "end-to-end representation quality", ok,
           f"knn {knn_ssl:.3f} (rand {knn_rand:.3f}), probe {probe_ssl:.3f} "
           f"(rand {probe_rand:.3f}), {total:.0f}s")


def test_criterion_8_attention_contracts(desk_run, monkeypatch):
    ds = desk_run["dataset"]
    teacher = desk_run["state"].teacher

    # row-stochasticity of every attention matrix on a real batch: each
    # block's probabilities as its attention op returns them
    layers = []
    real = ad.attention

    def spy(*args):
        out = real(*args)
        layers.append(out[1])
        return out

    with monkeypatch.context() as patch:
        patch.setattr(ad, "attention", spy)
        backbone_forward(ds.images[:4], DESK_VIT, teacher, mode=EVAL)
    rows_ok = len(layers) == DESK_VIT.depth and all(
        np.abs(layer.sum(-1) - 1.0).max() < 1e-5 for layer in layers)

    # map count = heads x CLS tokens
    maps = attention_heatmaps(teacher, ds.images[0], DESK_VIT)
    count_ok = maps.shape[:2] == (DESK_VIT.n_heads, DESK_VIT.n_cls_tokens)

    # blob-overlap beats a circular-shift permutation baseline, 20 images
    g4 = np.where(ds.grades == 4)[0][:20]

    def top_decile_overlap(hm, m):
        top = hm >= np.quantile(hm, 0.9)
        return (top & m).sum() / max(top.sum(), 1)

    heat, masks = [], []
    for idx in g4:
        hm = attention_heatmaps(teacher, ds.images[idx], DESK_VIT).mean(
            axis=(0, 1))
        heat.append(hm)
        masks.append(ds.blob_masks[idx])
    observed = float(np.mean([top_decile_overlap(h, m)
                              for h, m in zip(heat, masks)]))
    rng = np.random.default_rng(7)
    n_perm, n_ge = 99, 0
    for _ in range(n_perm):
        vals = []
        for hm, m in zip(heat, masks):
            dy = rng.integers(0, hm.shape[0])
            dx = rng.integers(0, hm.shape[1])
            vals.append(top_decile_overlap(
                np.roll(np.roll(hm, dy, axis=0), dx, axis=1), m))
        n_ge += np.mean(vals) >= observed
    p = (1 + n_ge) / (1 + n_perm)

    report(8, "attention-map contracts",
           rows_ok and count_ok and p < 0.05,
           f"rows sum to 1={rows_ok}, {maps.shape[0]}x{maps.shape[1]} maps, "
           f"overlap {observed:.3f}, permutation p={p:.3f}")


# ---------------------------------------------------------------------------
# criterion 6: k-NN oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_6_knn_oracle_equivalence():
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(1000, 16))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    labels = rng.integers(0, 5, size=1000)
    index = EmbeddingIndex(feats, labels)
    queries = rng.normal(size=(200, 16))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)

    def oracle(query, k):
        preds = []
        for q in query:
            sims = index.features @ q
            order = sorted(range(len(sims)), key=lambda j: (-sims[j], j))[:k]
            votes = np.zeros(5)
            for j in order:
                votes[index.labels[j]] += np.exp(sims[j] / 0.07)
            preds.append(max(range(5), key=lambda c: (votes[c], -c)))
        return np.array(preds)

    mismatches = []
    for k in (1, 5, 20):
        got = knn_classify(index, queries, KnnConfig(k=k))
        if not np.array_equal(got, oracle(queries, k)):
            mismatches.append(k)
    report(6, "k-NN oracle equivalence", not mismatches,
           f"k in (1, 5, 20) on 1000 embeddings, mismatches at k={mismatches}")


# ---------------------------------------------------------------------------
# criteria 7 + 9: CLI-level resume equivalence and determinism
# ---------------------------------------------------------------------------

TINY_CFG = "\n".join([
    "vit.image_size = 16", "vit.patch_size = 8", "vit.depth = 1",
    "vit.embed_dim = 8", "vit.n_heads = 2",
    "head.hidden_dim = 16", "head.bottleneck_dim = 8", "head.output_dim = 24",
    "crop.global_out_size = 16", "crop.local_out_size = 8", "crop.n_local = 2",
    "distill.batch_size = 2", "distill.total_epochs = 10",
    "distill.warmup_epochs = 1", "probe.epochs = 3",
]) + "\n"


def tree_bytes(directory):
    out = {}
    for root, _, files in os.walk(directory):
        for name in files:
            if name.endswith(".lock"):
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = fh.read()
    return out


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance_cli")
    cfg = base / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    data = base / "data"
    assert cli_main(["make-synth", "--out", str(data), "--per-class", "3",
                     "--size", "16"]) == 0
    return {"base": base, "cfg": str(cfg), "data": str(data),
            "manifest": str(data / "manifest.csv")}


def test_criterion_7_checkpoint_resume_equivalence(cli_workspace, tmp_path):
    ws = cli_workspace
    common = ["--manifest", ws["manifest"], "--images", ws["data"],
              "--config", ws["cfg"], "--seed", "5"]
    full, part, rest = tmp_path / "full", tmp_path / "part", tmp_path / "rest"
    assert cli_main(["train", *common, "--out", str(full), "--steps", "10"]) == 0
    assert cli_main(["train", *common, "--out", str(part), "--steps", "6"]) == 0
    assert cli_main(["train", *common, "--out", str(rest), "--steps", "4",
                     "--resume", str(part / "final.ckpt")]) == 0
    full_b = (full / "metrics.log").read_bytes()
    part_l = (part / "metrics.log").read_bytes().split(b"\n")
    rest_l = (rest / "metrics.log").read_bytes().split(b"\n")
    stitched = b"\n".join(part_l[:-1] + rest_l[1:])  # drop rest's header
    ok = stitched == full_b
    report(7, "checkpoint resume-equivalence", ok,
           "twin-run metrics logs byte-identical")


def test_criterion_9_cli_determinism(cli_workspace, tmp_path):
    ws = cli_workspace
    results = {}

    def twice(name, args_fn):
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        for out in (a, b):
            assert cli_main(args_fn(str(out))) == 0, name
        results[name] = tree_bytes(a) == tree_bytes(b)

    twice("make-synth", lambda o: ["make-synth", "--out", o, "--per-class",
                                   "2", "--size", "16", "--seed", "7"])
    twice("train", lambda o: ["train", "--manifest", ws["manifest"],
                              "--images", ws["data"], "--config", ws["cfg"],
                              "--out", o, "--steps", "3", "--seed", "7"])
    ckpt = str(tmp_path / "train_a" / "final.ckpt")
    eval_common = ["--checkpoint", ckpt, "--train-manifest", ws["manifest"],
                   "--train-images", ws["data"], "--test-manifest",
                   ws["manifest"], "--test-images", ws["data"],
                   "--config", ws["cfg"], "--seed", "7"]
    twice("probe", lambda o: ["probe", *eval_common, "--out", o])
    twice("knn", lambda o: ["knn", *eval_common, "--out", o, "--k", "3"])
    image = os.path.join(ws["data"], "synth_4_0000.png")
    twice("attn-map", lambda o: ["attn-map", "--checkpoint", ckpt, "--image",
                                 image, "--config", ws["cfg"], "--out", o,
                                 "--seed", "7"])
    failed = [k for k, v in results.items() if not v]
    report(9, "CLI determinism", not failed,
           f"subcommands {sorted(results)}; non-deterministic: {failed}")
