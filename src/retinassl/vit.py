"""Vision Transformer backbone and SwAV-style projection head.

Pre-norm transformer blocks (multi-head self-attention + GELU MLP with
residuals), a configurable number of learnable CLS tokens, per-sample
stochastic depth on every residual branch, and bicubic interpolation of
patch position embeddings so views of different sizes share one parameter
set. Parameters live in a flat name -> Tensor dict; forwards are pure
functions of (params, rng).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .crops import resample_matrix
from .errors import ContractError, InputError, ParameterError

TRAIN = "train"
EVAL = "eval"


@dataclass
class ViTConfig:
    image_size: int = 32
    patch_size: int = 8
    depth: int = 12
    embed_dim: int = 384
    n_heads: int = 6
    n_cls_tokens: int = 1
    drop_path_rate: float = 0.10
    mlp_ratio: float = 4.0

    def __post_init__(self):
        if self.patch_size not in (8, 16):
            raise ParameterError(f"patch_size must be 8 or 16, got {self.patch_size}")
        if self.image_size < self.patch_size:
            raise ParameterError(f"image_size must be >= patch_size {self.patch_size}, "
                                 f"got {self.image_size}")
        if self.image_size % self.patch_size != 0:
            raise ParameterError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}")
        if self.embed_dim < 1 or self.depth < 1 or self.n_heads < 1:
            raise ParameterError(
                f"embed_dim, depth and n_heads must be >= 1, got "
                f"{self.embed_dim}, {self.depth} and {self.n_heads}")
        if not (math.isfinite(self.mlp_ratio) and self.mlp_ratio > 0):
            raise ParameterError(f"mlp_ratio must be finite and > 0, got {self.mlp_ratio}")
        if self.embed_dim % self.n_heads != 0:
            raise ParameterError(
                f"embed_dim {self.embed_dim} not divisible by n_heads {self.n_heads}")
        if self.n_cls_tokens < 1:
            raise ParameterError("n_cls_tokens must be >= 1")
        if not (0.0 <= self.drop_path_rate < 1.0):
            raise ParameterError(f"drop_path_rate must be in [0, 1), got {self.drop_path_rate}")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def n_patches(self) -> int:
        return self.grid * self.grid

    @property
    def n_tokens(self) -> int:
        return self.n_patches + self.n_cls_tokens

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.n_heads


@dataclass
class ProjectionHeadConfig:
    hidden_dim: int = 2048
    bottleneck_dim: int = 256
    output_dim: int = 65536  # K

    def __post_init__(self):
        if self.output_dim < 2:
            raise ParameterError(f"output_dim must be >= 2, got {self.output_dim}")
        if self.hidden_dim < 1 or self.bottleneck_dim < 1:
            raise ParameterError("head dims must be positive")


@dataclass
class BackboneOutput:
    # (batch, n_last_blocks * n_cls_tokens, embed_dim), block-major
    cls_features: Tensor
    # the last block's attention probabilities (batch, heads, rows, tokens):
    # its leading query rows only (see encoder_forward)
    attention: np.ndarray


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Truncated normal draw: resample anything beyond 2 * std."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def backbone_param_shapes(config: ViTConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every backbone parameter, in initialization order."""
    d = config.embed_dim
    hidden = int(d * config.mlp_ratio)
    shapes = {"patch_embed.w": (3 * config.patch_size * config.patch_size, d),
              "patch_embed.b": (d,),
              "cls": (config.n_cls_tokens, d),
              "pos": (config.n_tokens, d)}
    for i in range(config.depth):
        pre = f"blocks.{i}."
        shapes.update({
            pre + "ln1.scale": (d,), pre + "ln1.shift": (d,),
            pre + "attn.qkv.w": (d, 3 * d), pre + "attn.qkv.b": (3 * d,),
            pre + "attn.proj.w": (d, d), pre + "attn.proj.b": (d,),
            pre + "ln2.scale": (d,), pre + "ln2.shift": (d,),
            pre + "mlp.fc1.w": (d, hidden), pre + "mlp.fc1.b": (hidden,),
            pre + "mlp.fc2.w": (hidden, d), pre + "mlp.fc2.b": (d,)})
    shapes.update({"ln_f.scale": (d,), "ln_f.shift": (d,)})
    return shapes


def head_param_shapes(config: ProjectionHeadConfig,
                      in_dim: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every head parameter, in initialization order."""
    h, k = config.hidden_dim, config.output_dim
    return {"head.fc1.w": (in_dim, h), "head.fc1.b": (h,),
            "head.fc2.w": (h, h), "head.fc2.b": (h,),
            "head.fc3.w": (h, config.bottleneck_dim),
            "head.fc3.b": (config.bottleneck_dim,),
            # weight-normalized last layer: per-output-row direction and magnitude
            "head.last.dir": (k, config.bottleneck_dim), "head.last.mag": (k,)}


def param_shapes(vit_config: ViTConfig,
                 head_config: ProjectionHeadConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of the full student (backbone + head), drawing nothing."""
    return {**backbone_param_shapes(vit_config),
            **head_param_shapes(head_config,
                                vit_config.n_cls_tokens * vit_config.embed_dim)}


def _init_params(shapes: dict[str, tuple[int, ...]], rng: np.random.Generator,
                 std: float) -> dict[str, Tensor]:
    """Trainable leaves: biases and shifts start at 0, scales and magnitudes
    at 1; every other tensor is a truncated-normal draw, taken in table order."""
    def init(name, shape):
        if name.endswith((".b", ".shift")):
            return np.zeros(shape)
        if name.endswith((".scale", ".mag")):
            return np.ones(shape)
        return trunc_normal(rng, shape, std=std)

    return {name: Tensor(init(name, shape), requires_grad=True)
            for name, shape in shapes.items()}


def init_backbone_params(config: ViTConfig, rng: np.random.Generator,
                         std: float = 0.02) -> dict[str, Tensor]:
    return _init_params(backbone_param_shapes(config), rng, std)


def init_head_params(config: ProjectionHeadConfig, in_dim: int,
                     rng: np.random.Generator, std: float = 0.02) -> dict[str, Tensor]:
    """At very small widths a 0.02-scale init leaves the bottleneck with a
    near-zero norm, which makes the L2-normalize stage badly conditioned;
    toy configs should pass a larger `std`."""
    return _init_params(head_param_shapes(config, in_dim), rng, std)


# ---------------------------------------------------------------------------
# position-embedding interpolation
# ---------------------------------------------------------------------------

def interpolate_pos_embed(pos: Tensor, old_grid: int, new_grid: int,
                          n_cls_tokens: int) -> Tensor:
    """Bicubically resample the patch-position rows from an old_grid x old_grid
    layout to new_grid x new_grid; CLS rows are copied unchanged.

    Linear in the input rows, so gradients flow through to the stored
    embedding when training on resized views.
    """
    expected = old_grid * old_grid + n_cls_tokens
    if pos.shape[0] != expected:
        raise ContractError(
            f"pos has {pos.shape[0]} rows, expected {expected} "
            f"(grid {old_grid}, {n_cls_tokens} CLS)")
    if new_grid == old_grid:
        return pos
    axis = resample_matrix(old_grid, new_grid)
    m = np.kron(axis, axis)
    cls_rows = pos[:n_cls_tokens]
    patch_rows = pos[n_cls_tokens:]
    resampled = ad.matmul(Tensor(m), patch_rows)
    return ad.concat([cls_rows, resampled], axis=0)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def patch_embed(images: np.ndarray, config: ViTConfig, params: dict[str, Tensor]) -> Tensor:
    """Images (batch, 3, S, S) -> token sequence (batch, tokens, embed_dim).

    Any square side divisible by patch_size is accepted; position embeddings
    are interpolated to the view's grid.
    """
    if images.ndim == 3:
        images = images[None]
    b, c, h, w = images.shape
    if h != w:
        raise InputError(f"expected square input, got {h}x{w}")
    if h % config.patch_size != 0:
        raise InputError(f"side {h} not divisible by patch_size {config.patch_size}")
    g = h // config.patch_size
    ps = config.patch_size

    patches = images.reshape(b, c, g, ps, g, ps)
    patches = patches.transpose(0, 2, 4, 1, 3, 5).reshape(b, g * g, c * ps * ps)
    if np.may_share_memory(patches, images):
        # a one-patch side makes a view, which linear's weight gradient would
        # keep, and with it the whole crop stack, until backward
        patches = patches.copy()

    tokens = ad.linear(Tensor(patches), params["patch_embed.w"], params["patch_embed.b"])
    cls = ad.broadcast_to(
        ad.reshape(params["cls"], (1, config.n_cls_tokens, config.embed_dim)),
        (b, config.n_cls_tokens, config.embed_dim))
    tokens = ad.concat([cls, tokens], axis=1)
    pos = interpolate_pos_embed(params["pos"], config.grid, g, config.n_cls_tokens)
    return tokens + pos


def _drop_path(branch: Tensor, rate: float, mode: str,
               rng: np.random.Generator | None) -> Tensor:
    if mode != TRAIN or rate <= 0.0:
        return branch
    if rng is None:
        raise ContractError("train-mode forward with drop_path_rate > 0 needs an rng")
    b = branch.shape[0]
    keep = rng.random(b) >= rate
    factor = keep.astype(np.float64) / (1.0 - rate)
    return branch * Tensor(factor.reshape(b, 1, 1))


def encoder_forward(tokens: Tensor, config: ViTConfig, params: dict[str, Tensor], *,
                    mode: str, rng: np.random.Generator | None = None,
                    n_last_blocks: int = 1) -> BackboneOutput:
    """Run the pre-norm transformer stack over an embedded token sequence.

    Only CLS rows are read after the stack, so the last block computes only
    its leading rows = min(max(n_cls_tokens, 2), T) token rows past QKV: the
    queries, the attention output and projection, the residual, LN2 and the
    MLP (as CaiT's class-attention layers do, Touvron et al. 2021). Every
    token is still a key and a value, so the CLS outputs are unchanged. At
    least two rows are kept because a one-row batched product takes numpy's
    matrix-vector path, which rounds differently from the matrix product;
    with two or more rows each row has the bits of the full-row forward.

    The CLS features are the final-norm CLS rows of the last n_last_blocks
    blocks, block-major (feature extraction without pooling); with the
    default 1 they are the final block's alone. The attention is the last
    block's probabilities, which its attention op computes anyway.
    """
    if mode not in (TRAIN, EVAL):
        raise ParameterError(f"mode must be 'train' or 'eval', got {mode!r}")
    if not 1 <= n_last_blocks <= config.depth:
        raise ParameterError(f"n_last_blocks must be in 1..{config.depth}")
    _, t, d = tokens.shape
    if d != config.embed_dim:
        raise ContractError(f"token width {d} != embed_dim {config.embed_dim}")
    scale = 1.0 / np.sqrt(config.head_dim)

    nc = config.n_cls_tokens
    cls = []
    x = tokens
    for i in range(config.depth):
        pre = f"blocks.{i}."
        rows = min(max(nc, 2), t) if i == config.depth - 1 else t
        h = ad.layer_norm(x, params[pre + "ln1.scale"], params[pre + "ln1.shift"])
        qkv = ad.linear(h, params[pre + "attn.qkv.w"], params[pre + "attn.qkv.b"])
        out, attention = ad.attention(qkv, config.n_heads, scale, rows)
        out = ad.linear(out, params[pre + "attn.proj.w"], params[pre + "attn.proj.b"])
        if rows < t:
            x = x[:, :rows, :]
        x = x + _drop_path(out, config.drop_path_rate, mode, rng)

        h = ad.layer_norm(x, params[pre + "ln2.scale"], params[pre + "ln2.shift"])
        m = ad.gelu(ad.linear(h, params[pre + "mlp.fc1.w"], params[pre + "mlp.fc1.b"]))
        m = ad.linear(m, params[pre + "mlp.fc2.w"], params[pre + "mlp.fc2.b"])
        x = x + _drop_path(m, config.drop_path_rate, mode, rng)

        if i >= config.depth - n_last_blocks:
            # the final norm is per token, and only the CLS rows are read
            cls.append(ad.layer_norm(x[:, :nc, :], params["ln_f.scale"],
                                     params["ln_f.shift"]))

    return BackboneOutput(cls_features=cls[0] if len(cls) == 1 else ad.concat(cls, axis=1),
                          attention=attention)


def backbone_forward(images: np.ndarray, config: ViTConfig, params: dict[str, Tensor], *,
                     mode: str, rng: np.random.Generator | None = None) -> BackboneOutput:
    tokens = patch_embed(images, config, params)
    return encoder_forward(tokens, config, params, mode=mode, rng=rng)


def projection_head_forward(cls_features: Tensor, head_config: ProjectionHeadConfig,
                            params: dict[str, Tensor]) -> Tensor:
    """CLS features (batch, n_cls, d) or (batch, n_cls*d) -> logits (batch, K).

    The multi-CLS outputs are consumed as a single concatenated vector.
    Pipeline: 3-layer GELU MLP -> bottleneck -> L2 normalize -> weight-
    normalized linear. Near-zero bottleneck vectors skip normalization
    (mapping zero input through a zero-bias head to zero logits).
    """
    z = cls_features
    if z.ndim == 3:
        b, nc, d = z.shape
        z = ad.reshape(z, (b, nc * d))
    h = ad.gelu(ad.linear(z, params["head.fc1.w"], params["head.fc1.b"]))
    h = ad.gelu(ad.linear(h, params["head.fc2.w"], params["head.fc2.b"]))
    h = ad.linear(h, params["head.fc3.w"], params["head.fc3.b"])
    h = ad.l2_normalize_rows(h)
    direction = ad.l2_normalize_rows(params["head.last.dir"])
    k = params["head.last.mag"].shape[0]
    w = direction * ad.reshape(params["head.last.mag"], (k, 1))
    return ad.matmul(h, ad.transpose(w, (1, 0)))


def last_layer_attention(image: np.ndarray, config: ViTConfig,
                         params: dict[str, Tensor]) -> np.ndarray:
    """Final block's CLS-query attention restricted to patch keys.

    Returns (n_heads, n_cls_tokens, n_patches) with each row renormalized to
    sum to 1 over the patches. Eval mode, single image.
    """
    out = backbone_forward(image[None] if image.ndim == 3 else image,
                           config, params, mode=EVAL)
    att = out.attention[0]                     # (heads, rows, tokens), rows >= nc
    nc = config.n_cls_tokens
    rows = att[:, :nc, nc:]                    # CLS queries -> patch keys
    return rows / rows.sum(axis=-1, keepdims=True)
