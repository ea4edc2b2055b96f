"""Local-to-global multi-crop view generation.

Produces the student view set (two global + six local crops per image under
defaults) and the teacher view set (the same two global crop geometries,
independently augmented). All randomness flows through an explicit
numpy Generator, so (seed, config, image) fully determines a batch.

Images are float arrays of shape (3, H, W) with values in [0, 1].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter1d

from .errors import InputError, ParameterError

# Recipe names; the second global crop additionally gets solarization.
FIRST_GLOBAL = "first_global"
SECOND_GLOBAL = "second_global"
LOCAL = "local"


@dataclass
class MultiCropConfig:
    n_global: int = 2
    n_local: int = 6
    global_scale_range: tuple[float, float] = (0.40, 1.00)
    local_scale_range: tuple[float, float] = (0.05, 0.40)
    global_out_size: int = 224
    local_out_size: int = 96
    aspect_range: tuple[float, float] = (3.0 / 4.0, 4.0 / 3.0)
    flip_p: float = 0.5
    jitter_p: float = 0.8
    # brightness, contrast, saturation, hue strengths
    jitter_strength: tuple[float, float, float, float] = (0.4, 0.4, 0.4, 0.1)
    grayscale_p: float = 0.2
    # blur probability per recipe: first_global, second_global, local
    blur_p: dict = field(default_factory=lambda: {
        FIRST_GLOBAL: 1.0, SECOND_GLOBAL: 0.1, LOCAL: 0.5})
    blur_sigma: tuple[float, float] = (0.1, 2.0)
    solarize_p: float = 0.2
    solarize_threshold: float = 0.5

    def __post_init__(self):
        for name, (lo, hi) in (("global_scale_range", self.global_scale_range),
                               ("local_scale_range", self.local_scale_range)):
            if not (0.0 < lo <= hi <= 1.0):
                raise ParameterError(f"{name} must satisfy 0 < min <= max <= 1, got {(lo, hi)}")
        if self.n_global < 0 or self.n_local < 0:
            raise ParameterError("crop counts must be nonnegative")
        if self.global_out_size < 1 or self.local_out_size < 1:
            raise ParameterError("output sizes must be positive")


@dataclass
class View:
    """One augmented view plus provenance: which crop geometry produced it."""
    pixels: np.ndarray
    crop_index: int
    recipe: str

    @property
    def is_global(self) -> bool:
        return self.recipe in (FIRST_GLOBAL, SECOND_GLOBAL)


@dataclass
class MultiCropBatch:
    """Student views D1 (globals + locals) and teacher views D2 (globals only)."""
    student_views: list[View]
    teacher_views: list[View]


# ---------------------------------------------------------------------------
# bicubic resampling (Catmull-Rom, a = -0.5, edge-clamped, half-pixel centers)
# ---------------------------------------------------------------------------

_A = -0.5


def _cubic_weight(t: np.ndarray) -> np.ndarray:
    t = np.abs(t)
    t2 = t * t
    t3 = t2 * t
    return np.where(
        t <= 1.0,
        (_A + 2.0) * t3 - (_A + 3.0) * t2 + 1.0,
        np.where(t < 2.0, _A * t3 - 5.0 * _A * t2 + 8.0 * _A * t - 4.0 * _A, 0.0),
    )


@functools.lru_cache(maxsize=256)
def resample_matrix(in_size: int, out_size: int) -> np.ndarray:
    """Read-only (out_size, in_size) matrix of the library's bicubic kernel.

    Row i holds the Catmull-Rom taps of output sample i (half-pixel centers,
    edge-clamped taps), so resampling an axis is one product with it. At
    out_size == in_size the taps are (0, 1, 0, 0): exactly the identity.
    """
    if in_size < 1 or out_size < 1:
        raise ParameterError(f"sizes must be >= 1, got {in_size} -> {out_size}")
    src = (np.arange(out_size) + 0.5) * (in_size / out_size) - 0.5
    base = np.floor(src).astype(np.int64)
    frac = src - base
    rows = np.arange(out_size)
    m = np.zeros((out_size, in_size))
    wsum = np.zeros(out_size)
    for tap in (-1, 0, 1, 2):
        w = _cubic_weight(frac - tap)
        wsum += w
        # clamped edge taps land on one column and add up across taps
        m[rows, np.clip(base + tap, 0, in_size - 1)] += w
    # Catmull-Rom taps sum to 1 exactly on the uniform grid; normalize anyway
    # to stay bit-stable against rounding in the weight evaluation.
    m /= wsum[:, None]
    m.flags.writeable = False
    return m


def bicubic_resize(image: np.ndarray, out_size: int | tuple[int, int]) -> np.ndarray:
    """Separable bicubic resize of a (..., H, W) array: Mh @ image @ Mw.T
    with the matrices of `resample_matrix`.

    Catmull-Rom kernel (a = -0.5), edge-clamped taps, half-pixel sample
    centers. The kernel is pinned so outputs are portable across platforms.
    Always returns a new array; a same-size resize of finite input is a
    bit-exact copy.
    """
    out_h, out_w = (out_size, out_size) if isinstance(out_size, int) else out_size
    h, w = image.shape[-2:]
    return resample_matrix(h, out_h) @ image @ resample_matrix(w, out_w).T


# ---------------------------------------------------------------------------
# crop geometry
# ---------------------------------------------------------------------------

def sample_crop(image: np.ndarray, scale_range: tuple[float, float], out_size: int,
                rng: np.random.Generator,
                aspect_range: tuple[float, float] = (0.75, 4.0 / 3.0),
                ) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """Random resized crop: sample an area fraction and aspect ratio, cut the
    sub-rectangle, bicubically resize to (out_size, out_size).

    Returns (view, (top, left, height, width)). The realized integer area
    fraction always lies inside `scale_range`.
    """
    h_img, w_img = image.shape[-2:]
    if h_img < 2 or w_img < 2:
        raise InputError(f"image too small to crop: {h_img}x{w_img}")
    lo, hi = scale_range
    area_frac = rng.uniform(lo, hi)

    # Restrict the aspect ratio so the rectangle fits inside the image.
    ar_lo = max(aspect_range[0], area_frac * w_img / h_img)
    ar_hi = min(aspect_range[1], w_img / (area_frac * h_img))
    if ar_lo > ar_hi:
        ar_lo = ar_hi = np.sqrt((area_frac * w_img / h_img) * (w_img / (area_frac * h_img)))
    aspect = rng.uniform(ar_lo, ar_hi)

    target = area_frac * h_img * w_img
    w = int(round(np.sqrt(target * aspect)))
    h = int(round(np.sqrt(target / aspect)))
    w = min(max(w, 1), w_img)
    h = min(max(h, 1), h_img)

    # Integer rounding can push the realized fraction out of range; nudge back.
    total = h_img * w_img
    while h * w > hi * total:
        if w >= h and w > 1:
            w -= 1
        elif h > 1:
            h -= 1
        else:
            break
    while h * w < lo * total:
        if w <= h and w < w_img:
            w += 1
        elif h < h_img:
            h += 1
        else:
            break

    top = int(rng.integers(0, h_img - h + 1))
    left = int(rng.integers(0, w_img - w + 1))
    crop = image[..., top:top + h, left:left + w]
    return bicubic_resize(crop, out_size), (top, left, h, w)


# ---------------------------------------------------------------------------
# photometric augmentations
# ---------------------------------------------------------------------------

_LUMA = np.array([0.299, 0.587, 0.114])


def _to_gray(view: np.ndarray) -> np.ndarray:
    return np.tensordot(_LUMA, view, axes=([0], [0]))


def _rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    r, g, b = rgb
    maxc = rgb.max(axis=0)
    minc = rgb.min(axis=0)
    v = maxc
    delta = maxc - minc
    s = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1.0), 0.0)
    safe = np.where(delta > 0, delta, 1.0)
    rc = (maxc - r) / safe
    gc = (maxc - g) / safe
    bc = (maxc - b) / safe
    h = np.where(maxc == r, bc - gc, np.where(maxc == g, 2.0 + rc - bc, 4.0 + gc - rc))
    h = np.where(delta > 0, (h / 6.0) % 1.0, 0.0)
    return np.stack([h, s, v])


def _hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    h, s, v = hsv
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(np.int64) % 6
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b])


def _color_jitter(view: np.ndarray, rng: np.random.Generator,
                  strength: tuple[float, float, float, float]) -> np.ndarray:
    b, c, s, hue = strength
    out = view
    out = out * rng.uniform(1 - b, 1 + b)
    gray_mean = _to_gray(out).mean()
    out = (out - gray_mean) * rng.uniform(1 - c, 1 + c) + gray_mean
    gray = _to_gray(out)[None]
    out = gray + (out - gray) * rng.uniform(1 - s, 1 + s)
    shift = rng.uniform(-hue, hue)
    if hue > 0:
        hsv = _rgb_to_hsv(np.clip(out, 0.0, 1.0))
        hsv[0] = (hsv[0] + shift) % 1.0
        out = _hsv_to_rgb(hsv)
    return out


def _gaussian_blur(view: np.ndarray, sigma: float) -> np.ndarray:
    out = gaussian_filter1d(view, sigma, axis=-2, mode="nearest")
    return gaussian_filter1d(out, sigma, axis=-1, mode="nearest")


def augment_view(view: np.ndarray, recipe: str, rng: np.random.Generator,
                 config: MultiCropConfig) -> np.ndarray:
    """Photometric augmentation chain for one view.

    Order: horizontal flip, color jitter, grayscale, Gaussian blur, and for
    the second global recipe only, solarization. Output clamped to [0, 1].
    Every probability draw happens unconditionally so the rng stream shape
    does not depend on earlier outcomes.
    """
    if recipe not in (FIRST_GLOBAL, SECOND_GLOBAL, LOCAL):
        raise ParameterError(f"unknown augmentation recipe: {recipe!r}")
    out = np.array(view, dtype=np.float64, copy=True)

    if rng.random() < config.flip_p:
        out = out[..., ::-1].copy()

    do_jitter = rng.random() < config.jitter_p
    jittered = _color_jitter(out, rng, config.jitter_strength)
    if do_jitter:
        out = jittered

    if rng.random() < config.grayscale_p:
        out = np.broadcast_to(_to_gray(out)[None], out.shape).copy()

    do_blur = rng.random() < config.blur_p[recipe]
    sigma = rng.uniform(*config.blur_sigma)
    if do_blur:
        out = _gaussian_blur(out, sigma)

    if recipe == SECOND_GLOBAL and rng.random() < config.solarize_p:
        out = np.where(out > config.solarize_threshold, 1.0 - out, out)

    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# batch assembly
# ---------------------------------------------------------------------------

def build_multicrop(image: np.ndarray, config: MultiCropConfig,
                    rng: np.random.Generator) -> MultiCropBatch:
    """Generate the student and teacher view sets for one image.

    Teacher views share the student's global crop geometries but are
    independent augmentation draws of the same recipes.
    """
    student: list[View] = []
    teacher: list[View] = []

    for i in range(config.n_global):
        recipe = FIRST_GLOBAL if i % 2 == 0 else SECOND_GLOBAL
        raw, geom = sample_crop(image, config.global_scale_range,
                                config.global_out_size, rng, config.aspect_range)
        student.append(View(augment_view(raw, recipe, rng, config), i, recipe))
        teacher.append(View(augment_view(raw, recipe, rng, config), i, recipe))

    for j in range(config.n_local):
        raw, geom = sample_crop(image, config.local_scale_range,
                                config.local_out_size, rng, config.aspect_range)
        student.append(View(augment_view(raw, LOCAL, rng, config),
                            config.n_global + j, LOCAL))

    return MultiCropBatch(student_views=student, teacher_views=teacher)
