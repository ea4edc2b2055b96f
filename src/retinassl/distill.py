"""Student/teacher self-distillation training loop.

One training step: teacher forward on the global views (tape-free), student
forward on all views, summed multi-view cross-entropy between sharpened
teacher targets and student log-probabilities, backward into the student
only, global-norm gradient clipping, a decoupled-weight-decay adaptive
update under warmup+cosine schedules, an EMA update of the teacher, and a
momentum update of the output center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .crops import MultiCropConfig, build_multicrop
from .errors import ContractError, ParameterError, TrainingError
from .vit import (
    EVAL,
    TRAIN,
    ProjectionHeadConfig,
    ViTConfig,
    backbone_forward,
    init_backbone_params,
    init_head_params,
    projection_head_forward,
)

METRICS_HEADER = "step\tepoch\tloss\tlr\twd\tlambda\tteacher_entropy"

# the largest temporary of an optimizer step, in values (see optimizer_step)
_BLOCK_VALUES = 1 << 14

# AdamW's moment decay rates and denominator offset
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8

TAU_S = 0.1  # the student's sharpening temperature, DINO's
LR_FLOOR = 1e-6  # where the lr's cosine decay ends, DINO's min_lr

# the prototype layer, held fixed for the first freeze_last_steps steps: with
# few images and an aggressive lr its prototypes otherwise align into one
# direction and the centered teacher goes uniform
_LAST_LAYER = ("head.last.dir", "head.last.mag")


@dataclass
class DistillConfig:
    tau_t: float = 0.04           # teacher sharpening temperature
    center_momentum: float = 0.9  # m in the center EMA
    ema_start: float = 0.99       # lambda at step 0; it ends at 1
    clip_threshold: float = 3.0
    wd_start: float = 0.04
    wd_end: float = 0.4
    base_lr: float = 0.0005       # peak lr = base_lr * batch_size / 256
    warmup_epochs: int = 10
    total_epochs: int = 100
    batch_size: int = 8
    freeze_last_steps: int = 0    # steps with the prototype layer held fixed

    def __post_init__(self):
        if not (math.isfinite(self.tau_t) and self.tau_t > 0):
            raise ParameterError(f"tau_t must be finite and positive, got {self.tau_t}")
        if not (math.isfinite(self.base_lr) and self.base_lr >= 0):
            raise ParameterError(f"base_lr must be finite and >= 0, got {self.base_lr}")
        if not all(math.isfinite(w) and w >= 0 for w in (self.wd_start, self.wd_end)):
            raise ParameterError(f"wd_start and wd_end must be finite and >= 0, "
                                 f"got {self.wd_start} and {self.wd_end}")
        if self.freeze_last_steps < 0:
            raise ParameterError(f"freeze_last_steps must be >= 0, got {self.freeze_last_steps}")
        if not (0.0 <= self.center_momentum < 1.0):
            raise ParameterError(f"center momentum must be in [0, 1), got {self.center_momentum}")
        if not (0.99 <= self.ema_start <= 1.0):
            raise ParameterError(f"ema_start must satisfy 0.99 <= start <= 1, "
                                 f"got {self.ema_start}")
        if self.clip_threshold <= 0:
            raise ParameterError("clip_threshold must be positive")
        if self.batch_size < 1 or self.total_epochs < 1 or self.warmup_epochs < 0:
            raise ParameterError("invalid epoch/batch configuration")

    @property
    def peak_lr(self) -> float:
        return self.base_lr * self.batch_size / 256.0


@dataclass
class TrainState:
    student: dict[str, Tensor]
    teacher: dict[str, Tensor]
    center: np.ndarray
    opt_m: dict[str, np.ndarray]
    opt_v: dict[str, np.ndarray]
    step: int = 0
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))


def init_train_state(vit_config: ViTConfig, head_config: ProjectionHeadConfig,
                     seed: int, init_std: float = 0.02) -> TrainState:
    """Fresh state: teacher starts as an exact copy of the student, center
    starts at zero, optimizer moments at zero."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xD150]))
    student = init_backbone_params(vit_config, rng, std=init_std)
    student.update(init_head_params(
        head_config, vit_config.n_cls_tokens * vit_config.embed_dim, rng, std=init_std))
    teacher = {k: Tensor(v.data.copy(), requires_grad=False) for k, v in student.items()}
    return TrainState(
        student=student,
        teacher=teacher,
        center=np.zeros(head_config.output_dim),
        opt_m={k: np.zeros_like(v.data) for k, v in student.items()},
        opt_v={k: np.zeros_like(v.data) for k, v in student.items()},
        step=0,
        rng=np.random.default_rng(np.random.SeedSequence([int(seed), 0x5EED])),
    )


# ---------------------------------------------------------------------------
# the individual update rules
# ---------------------------------------------------------------------------

def ema_update(teacher: dict[str, Tensor], student: dict[str, Tensor], lam: float) -> None:
    """w_t <- lam * w_t + (1 - lam) * w_s, elementwise, written into the
    teacher's arrays with one temporary per parameter."""
    if not (0.0 <= lam <= 1.0):
        raise ParameterError(f"lambda must be in [0, 1], got {lam}")
    if teacher.keys() != student.keys():
        raise ContractError("teacher/student parameter sets differ")
    for name, wt in teacher.items():
        ws = student[name]
        if wt.shape != ws.shape:
            raise ContractError(f"shape mismatch for {name}: {wt.shape} vs {ws.shape}")
        wt.data *= lam
        wt.data += (1.0 - lam) * ws.data


def center_update(center: np.ndarray, teacher_logits: np.ndarray, momentum: float) -> np.ndarray:
    """C <- m*C + (1-m) * batch mean of the teacher output vectors."""
    if teacher_logits.ndim != 2 or teacher_logits.shape[0] == 0:
        raise ContractError("center_update needs a nonempty (n, K) logit batch")
    if not (0.0 <= momentum < 1.0):
        raise ParameterError(f"momentum must be in [0, 1), got {momentum}")
    return momentum * center + (1.0 - momentum) * teacher_logits.mean(axis=0)


def teacher_probs(teacher_logits: np.ndarray, center: np.ndarray, tau_t: float) -> np.ndarray:
    """Centered, sharpened teacher targets: softmax((O_t - C) / tau_t).

    Returns a plain array, computed in numpy: no gradient ever flows through
    the teacher path. Max-subtraction keeps exp bounded for finite logits.
    """
    if tau_t <= 0:
        raise ParameterError(f"temperature must be > 0, got {tau_t}")
    y = (teacher_logits - center) / float(tau_t)
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y


def distillation_loss(teacher_probs: np.ndarray, log_p: Tensor) -> Tensor:
    """Summed multi-view cross entropy, with views matched by position.

    teacher_probs is (G, B, K): G teacher global crops of B images.
    log_p is the student's (V*B, K) log-probabilities, view-major with the G
    student globals first, so student view s < G is teacher crop s's
    geometry. Every (teacher crop t, student view s) pair with s != t
    contributes one cross-entropy term; terms are summed over pairs and
    averaged over the image batch. With 2 teacher globals and 8 student views
    that is 2 * 7 = 14 terms, computed as one product: view s is scored
    against targets[s] = sum_{t != s} p_t.
    """
    p = np.asarray(teacher_probs, dtype=float)
    if p.ndim != 3 or 0 in p.shape or log_p.ndim != 2:
        raise ContractError(f"distillation_loss needs (G, B, K) teacher and (V*B, K) "
                            f"student rows, got {p.shape} and {log_p.shape}")
    g, b, k = p.shape
    v, rest = divmod(log_p.shape[0], b)
    if rest or log_p.shape[1] != k or v < max(g, 2):
        raise ContractError(f"student rows {log_p.shape} are not V >= "
                            f"{max(g, 2)} views of the teacher's {b} x {k}")
    if not np.allclose(p.sum(axis=-1), 1.0, atol=1e-6):
        raise ContractError("teacher probability rows must sum to 1 within 1e-6")
    # (V, G) 0/1 mask times the teacher rows: exact sums of the chosen p_t
    targets = (1.0 - np.eye(v, g)) @ p.reshape(g, b * k)
    targets *= -1.0 / b
    return ad.tensor_sum(ad.mul(Tensor(targets.reshape(v * b, k)), log_p))


def clip_gradients(grads: dict[str, np.ndarray], threshold: float,
                   ) -> tuple[dict[str, np.ndarray], float]:
    """Global L2-norm clipping: if the joint norm exceeds the threshold, each
    entry of `grads` is replaced by a new array scaled by threshold / norm,
    one entry at a time, and no input array is written. Returns (grads,
    pre-clip norm).
    """
    if threshold <= 0:
        raise ParameterError(f"threshold must be positive, got {threshold}")
    sq = sum(float((g * g).sum()) for g in grads.values())
    norm = np.sqrt(sq)
    if norm > threshold:
        factor = threshold / norm
        for name, g in grads.items():
            grads[name] = g * factor
    return grads, norm


def schedule_value(kind: str, step: int, steps_per_epoch: int, config: DistillConfig) -> float:
    """Scheduled lr / weight_decay / ema_lambda at a global step.

    lr: linear 0 -> peak over the warmup epochs, then half-cosine to
    LR_FLOOR. weight_decay and ema_lambda: half-cosine between their endpoints
    over the whole run; lambda ends at 1, as in DINO.
    """
    total = config.total_epochs * steps_per_epoch
    if not (0 <= step <= total):
        raise ContractError(f"step {step} outside [0, {total}]")

    def half_cosine(start, end, t):
        # Written start-first so t=0 returns the start value exactly.
        return start + (end - start) * (1.0 - np.cos(np.pi * t)) / 2.0

    if kind == "lr":
        warmup = config.warmup_epochs * steps_per_epoch
        if warmup > 0 and step < warmup:
            return config.peak_lr * step / warmup
        span = max(total - warmup, 1)
        t = (step - warmup) / span
        return float(half_cosine(config.peak_lr, LR_FLOOR, t))
    if kind == "weight_decay":
        return float(half_cosine(config.wd_start, config.wd_end, step / max(total, 1)))
    if kind == "ema_lambda":
        return float(half_cosine(config.ema_start, 1.0, step / max(total, 1)))
    raise ParameterError(f"unknown schedule kind {kind!r}")


def optimizer_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
                   opt_m: dict[str, np.ndarray], opt_v: dict[str, np.ndarray],
                   t: int, lr: float, weight_decay: float) -> None:
    """Bias-corrected adaptive-moment update with decoupled weight decay.

    Decay applies to weight matrices only (ndim >= 2), not to biases,
    normalization affine parameters, or the weight-norm magnitudes.

    The parameters and both moments are updated in place. The update needs
    two temporaries at once (m / bc1 and its denominator), so each parameter
    goes a block of leading rows at a time and every temporary is at most
    `_BLOCK_VALUES` values; the arithmetic is elementwise, so blocks do not
    change the bits.
    """
    if lr < 0 or weight_decay < 0:
        raise ParameterError("lr and weight_decay must be nonnegative")
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    for name, p in params.items():
        g, m, v = grads[name], opt_m[name], opt_v[name]
        wd = weight_decay if p.data.ndim >= 2 else 0.0
        for rows in _row_blocks(p.data.shape):
            gb, mb, vb, pb = g[rows], m[rows], v[rows], p.data[rows]
            mb *= _BETA1
            mb += (1.0 - _BETA1) * gb
            vb *= _BETA2
            vb += (1.0 - _BETA2) * gb * gb
            update = (mb / bc1) / (np.sqrt(vb / bc2) + _EPS)
            update += wd * pb
            update *= lr
            pb -= update


def _row_blocks(shape: tuple[int, ...]) -> list:
    """Indices that cover an array of `shape` a block of about
    `_BLOCK_VALUES` values, whole leading rows, at a time."""
    if not shape:
        return [...]
    rows = max(1, _BLOCK_VALUES // max(1, math.prod(shape[1:])))
    return [slice(lo, lo + rows) for lo in range(0, shape[0], rows)]


def mean_entropy(probs: np.ndarray) -> float:
    """Batch-mean Shannon entropy of probability rows (natural log)."""
    p = np.clip(probs, 1e-300, 1.0)
    return float(-(p * np.log(p)).sum(axis=-1).mean())


# ---------------------------------------------------------------------------
# one full training step
# ---------------------------------------------------------------------------

@dataclass
class StepMetrics:
    step: int
    epoch: int
    loss: float
    lr: float
    wd: float
    ema_lambda: float
    teacher_entropy: float

    def format_line(self) -> str:
        return (f"{self.step}\t{self.epoch}\t{self.loss:.10g}\t{self.lr:.10g}"
                f"\t{self.wd:.10g}\t{self.ema_lambda:.10g}\t{self.teacher_entropy:.10g}")


def train_step(images: np.ndarray, state: TrainState, vit_config: ViTConfig,
               head_config: ProjectionHeadConfig, crop_config: MultiCropConfig,
               distill_config: DistillConfig, steps_per_epoch: int) -> StepMetrics:
    """Run one optimization step on a batch of source images (B, 3, H, W).

    Order of effects: teacher forward (tape-free), student forward, loss,
    backward (student only), clip, optimizer step, EMA teacher update,
    center update from this step's teacher logits.

    The step keeps only what it still needs: each student crop group is
    released when its backbone call returns, so no crop is alive at the
    head and the loss; the tape holds only what its gradients read and
    backward consumes it; the student's logits are dropped before backward,
    and AdamW and the EMA work in place. The gradients are taken off the
    student's leaves, so they are freed when the step returns.
    """
    cfg = distill_config
    rng = state.rng

    batch = build_multicrop(images, crop_config, rng)

    # Teacher path: tape-free, eval mode, current center, one call over every
    # global crop; its rows are crop-major, (G, B) flattened.
    views = batch.teacher_global
    out = backbone_forward(views.reshape((-1,) + views.shape[2:]), vit_config,
                           state.teacher, mode=EVAL)
    teacher_logits = projection_head_forward(
        out.cls_features, head_config, state.teacher).data.reshape(views.shape[:2] + (-1,))
    p_t = teacher_probs(teacher_logits, state.center, cfg.tau_t)

    # Student path: taped, train mode (stochastic depth active). The backbone
    # runs once per crop size, the head once over every view's CLS rows;
    # rows stay view-major, globals first. Each group is held only by the
    # list it is popped from; the student and teacher globals are halves of
    # one array, which dies when the student globals' backbone call returns.
    groups = [group.reshape((-1,) + group.shape[-3:])
              for group in (batch.student_global, batch.student_local) if len(group)]
    del batch, views, out
    # a frozen layer is a constant: no tape entry, and backward gives it zeros
    head_params = dict(state.student)
    if state.step < cfg.freeze_last_steps:
        head_params.update((k, Tensor(head_params[k].data)) for k in _LAST_LAYER)
    leaves = list(state.student.values())
    with Tape() as tape:
        cls = []
        while groups:
            cls.append(backbone_forward(groups.pop(0), vit_config, state.student,
                                        mode=TRAIN, rng=rng).cls_features)
        logits = projection_head_forward(ad.concat(cls, axis=0), head_config,
                                         head_params)
        loss = distillation_loss(p_t, ad.log_softmax_rows(logits, TAU_S))
    del cls, logits

    loss_val = loss.item()
    if not np.isfinite(loss_val):
        raise TrainingError(f"non-finite loss {loss_val} at step {state.step}")

    for p in leaves:
        p.zero_grad()
    backward(loss, tape, leaves=leaves)
    del tape, loss
    grads = {}
    for k, p in state.student.items():
        grads[k] = p.grad
        p.zero_grad()
    grads, _ = clip_gradients(grads, cfg.clip_threshold)

    lr = schedule_value("lr", state.step, steps_per_epoch, cfg)
    wd = schedule_value("weight_decay", state.step, steps_per_epoch, cfg)
    lam = schedule_value("ema_lambda", state.step, steps_per_epoch, cfg)

    optimizer_step(state.student, grads, state.opt_m, state.opt_v,
                   t=state.step + 1, lr=lr, weight_decay=wd)
    ema_update(state.teacher, state.student, lam)

    k = teacher_logits.shape[-1]
    state.center = center_update(state.center, teacher_logits.reshape(-1, k),
                                 cfg.center_momentum)

    entropy = mean_entropy(p_t.reshape(-1, k))
    state.step += 1
    return StepMetrics(
        step=state.step, epoch=(state.step - 1) // steps_per_epoch, loss=loss_val,
        lr=lr, wd=wd, ema_lambda=lam, teacher_entropy=entropy)


def batch_schedule(n_images: int, config: DistillConfig) -> tuple[int, int]:
    """The batch size and steps per epoch of training on n_images images."""
    b = min(config.batch_size, n_images)
    return b, max(1, int(np.ceil(n_images / b)))


def train_loop(images: np.ndarray, state: TrainState, vit_config: ViTConfig,
               head_config: ProjectionHeadConfig, crop_config: MultiCropConfig,
               distill_config: DistillConfig, n_steps: int,
               log_lines: list | None = None,
               step_callback=None) -> None:
    """Run n_steps of training over a fixed image array (N, 3, H, W).

    Batches are drawn by sampling indices from the state rng, so a resumed
    run (with the restored rng) continues the exact same batch sequence.
    """
    n = images.shape[0]
    b, steps_per_epoch = batch_schedule(n, distill_config)
    for _ in range(n_steps):
        idx = state.rng.choice(n, size=b, replace=False)
        metrics = train_step(images[idx], state, vit_config, head_config,
                             crop_config, distill_config, steps_per_epoch)
        if log_lines is not None:
            log_lines.append(metrics.format_line())
        if step_callback is not None:
            step_callback(metrics, state)
