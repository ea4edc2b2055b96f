"""Local-to-global multi-crop view generation.

Produces the student views (two global + six local crops per image under
defaults) and the teacher views (the same two global crop geometries,
independently augmented) as crop stacks, in which a view's position is its
provenance. All randomness flows through an explicit numpy Generator, so
(seed, config, images) fully determines a batch.

Augmentation runs in two phases: every random choice is drawn first, in a
fixed order, as one row of uniforms per view (`draw_plan`); `apply_plans`
then makes every decision and augments all views of one output size as a
batch.

Images are float arrays of shape (3, H, W), or stacks (..., 3, H, W), with
values in [0, 1].
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape
from .errors import InputError, ParameterError

# Recipe names; the second global crop additionally gets solarization.
FIRST_GLOBAL = "first_global"
SECOND_GLOBAL = "second_global"
LOCAL = "local"

# Values of DINO's recipe that no caller varies: the solarize threshold
# (pixel values above it are inverted), the flip and color-jitter
# probabilities of every view, each recipe's blur probability, and the range
# of a crop's aspect ratio (width / height).
SOLARIZE_THRESHOLD = 0.5
FLIP_P = 0.5
JITTER_P = 0.8
BLUR_P = {FIRST_GLOBAL: 1.0, SECOND_GLOBAL: 0.1, LOCAL: 0.5}
ASPECT_RANGE = (3.0 / 4.0, 4.0 / 3.0)


@dataclass
class MultiCropConfig:
    n_global: int = 2
    n_local: int = 6
    global_scale_range: tuple[float, float] = (0.40, 1.00)
    local_scale_range: tuple[float, float] = (0.05, 0.40)
    global_out_size: int = 224
    local_out_size: int = 96
    # brightness, contrast, saturation, hue strengths
    jitter_strength: tuple[float, float, float, float] = (0.4, 0.4, 0.4, 0.1)
    grayscale_p: float = 0.2
    blur_sigma: tuple[float, float] = (0.1, 2.0)
    solarize_p: float = 0.2

    def __post_init__(self):
        for name, (lo, hi) in (("global_scale_range", self.global_scale_range),
                               ("local_scale_range", self.local_scale_range)):
            if not (0.0 < lo <= hi <= 1.0):
                raise ParameterError(f"{name} must satisfy 0 < min <= max <= 1, got {(lo, hi)}")
        # every teacher crop needs a student view other than its own to score
        if self.n_global < 1 or self.n_local < 0 or self.n_global + self.n_local < 2:
            raise ParameterError(f"crop counts need n_global >= 1, n_local >= 0 and a sum "
                                 f">= 2, got {self.n_global} and {self.n_local}")
        if self.global_out_size < 1 or self.local_out_size < 1:
            raise ParameterError("output sizes must be positive")
        probs = (self.grayscale_p, self.solarize_p)
        if not all(0.0 <= p <= 1.0 for p in probs):
            raise ParameterError(f"augmentation probabilities must lie in [0, 1], got "
                                 f"{probs}")
        # a plan maps its uniforms onto these ranges, which must not be reversed
        if min(self.jitter_strength) < 0 or not 0 < self.blur_sigma[0] <= self.blur_sigma[1]:
            raise ParameterError(f"need jitter strengths >= 0 and 0 < blur sigma min <= max, "
                                 f"got {self.jitter_strength} and {self.blur_sigma}")
        # a brightness, contrast or saturation factor 1 +- s is not negative,
        # and a hue shift is a fraction of the colour circle either way, as in
        # torchvision's ColorJitter
        if max(self.jitter_strength[:3]) > 1.0 or self.jitter_strength[3] > 0.5:
            raise ParameterError(f"jitter strengths must be <= 1, and the hue's <= 0.5, "
                                 f"got {self.jitter_strength}")
        # the widest blur's radius, int(4 sigma + 0.5), is at most the crop
        # side, which bounds its (2 radius + 1, side**2) bank of shifts
        side = self.local_out_size if self.n_local else self.global_out_size
        if not _BLUR_TRUNCATE * self.blur_sigma[1] + 0.5 < side + 1:
            raise ParameterError(f"blur sigma max {self.blur_sigma[1]} has a radius "
                                 f"int(4 * sigma + 0.5) above the crop side {side}")


@dataclass
class MultiCropBatch:
    """Student views D1 (globals, then locals) and teacher views D2 (globals).

    Position is provenance: `student_global[i]` and `teacher_global[i]` are
    global crop i of every image, one geometry augmented twice, both under
    recipe `_global_recipe(i)` (first_global for even i, second_global for
    odd i); `student_local[j]` is local crop j, under the local recipe.
    """
    student_global: np.ndarray  # (n_global, ..., 3, gs, gs)
    student_local: np.ndarray   # (n_local, ..., 3, ls, ls)
    teacher_global: np.ndarray  # (n_global, ..., 3, gs, gs)


# ---------------------------------------------------------------------------
# bicubic resampling (Catmull-Rom, a = -0.5, edge-clamped, half-pixel centers)
# ---------------------------------------------------------------------------

_A = -0.5

# Values of the input that one chunk of a batched stage may hold: slices of
# a `resample`, views of an `apply_plans` stage. Small enough that a chunk's
# temporaries stay in cache; no output bit depends on it.
_CHUNK_VALUES = 1 << 16


def _cpu_workers() -> int:
    """Threads that run the chunks of one `map_chunks` call: the CPUs this
    process may use over the threads each BLAS product may take, so the two
    never oversubscribe the cores. BLAS left at its default takes every CPU,
    which leaves one worker: the sequential loop."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    blas = cpus
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if value > 0:
            blas = value
            break
    return max(1, cpus // blas)


_WORKERS = _cpu_workers()
_pool = None  # (pid, threads, ThreadPoolExecutor), made by the first parallel call


def map_chunks(fn, n: int, step: int) -> None:
    """Call fn(lo, hi) over [0, n) in chunks of at most `step` rows; fn
    writes only rows lo:hi of an output its caller made.

    With more than one chunk and `_WORKERS` above 1, the caller and
    `_WORKERS - 1` pool threads take pieces of `step // _WORKERS` rows (at
    least 1) from one counter, so the rows in flight stay within `step`, or
    `_WORKERS` when `step` is smaller. An exception in a piece stops the
    taking and is raised here. While an autodiff tape is active the chunks
    run in order on the caller's thread: the tape is one per process, and
    ops from other threads would interleave its entries.
    """
    if _WORKERS == 1 or n <= step or Tape.active() is not None:
        for lo in range(0, n, step):
            fn(lo, min(lo + step, n))
        return
    import threading
    from concurrent.futures import wait

    piece = max(1, step // _WORKERS)
    starts = iter(range(0, n, piece))
    lock, failed = threading.Lock(), threading.Event()

    def take():
        while True:
            with lock:
                lo = None if failed.is_set() else next(starts, None)
            if lo is None:
                return
            try:
                fn(lo, min(lo + piece, n))
            except BaseException:
                failed.set()
                raise

    pool = _executor(_WORKERS - 1)
    futures = [pool.submit(take) for _ in range(_WORKERS - 1)]
    try:
        take()
    finally:
        # a taker that has not started finds nothing left to take
        wait([f for f in futures if not f.cancel()])
    for f in futures:
        if not f.cancelled():
            f.result()


def _executor(threads: int):
    """The process's pool of `threads` threads, made on first use. A forked
    child makes its own: its parent's pool threads did not survive the fork,
    so work given to that pool would never start."""
    global _pool
    from concurrent.futures import ThreadPoolExecutor

    if _pool is None or _pool[:2] != (os.getpid(), threads):
        _pool = (os.getpid(), threads, ThreadPoolExecutor(threads))
    return _pool[2]


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
    with the matrices of `resample_matrix`, computed by `resample`.

    Catmull-Rom kernel (a = -0.5), edge-clamped taps, half-pixel sample
    centers. The kernel is pinned so outputs are portable across platforms.
    Always returns a new array. An axis whose size does not change skips its
    product and is copied, so a same-size resize is a copy: the taps are
    exactly the identity there, so for finite input the bits are those of
    the product, but a NaN or an infinity now stays where it is rather than
    spreading along its row or column (and -0.0 stays -0.0).
    """
    out_h, out_w = (out_size, out_size) if isinstance(out_size, int) else out_size
    h, w = image.shape[-2:]
    if min(h, w, out_h, out_w) < 1:
        raise ParameterError(f"sizes must be >= 1, got {h}x{w} -> {out_h}x{out_w}")
    return resample(image, None if out_h == h else resample_matrix(h, out_h),
                    None if out_w == w else resample_matrix(w, out_w))


def resample(images: np.ndarray, rows: np.ndarray | None,
             cols: np.ndarray | None) -> np.ndarray:
    """rows @ images @ cols.T over the last two axes of a (..., H, W) stack,
    written into one new array; a None matrix leaves its axis as it is.

    The leading axis goes through chunks of about `_CHUNK_VALUES` input
    values, run by `map_chunks`, so no temporary outgrows a chunk. Each
    (H, W) slice meets the same 2-D products whatever the chunk, so no bit
    depends on it.
    """
    h, w = images.shape[-2:]
    out = np.empty(images.shape[:-2] + (h if rows is None else len(rows),
                                        w if cols is None else len(cols)))
    src, dst = (images[None], out[None]) if images.ndim == 2 else (images, out)

    def chunk(lo, hi):
        part = src[lo:hi]
        if rows is not None:
            part = rows @ part
        if cols is None:
            dst[lo:hi] = part
        else:  # the last product is written in place, not copied
            np.matmul(part, cols.T, out=dst[lo:hi])

    map_chunks(chunk, len(src), max(1, _CHUNK_VALUES // max(1, math.prod(src.shape[1:]))))
    return out


# ---------------------------------------------------------------------------
# crop geometry
# ---------------------------------------------------------------------------

def sample_crop(image: np.ndarray, scale_range: tuple[float, float], out_size: int,
                rng: np.random.Generator) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """Random resized crop: sample an area fraction and an aspect ratio in
    `ASPECT_RANGE`, cut the sub-rectangle, bicubically resize to
    (out_size, out_size).

    Returns (view, (top, left, height, width)). The realized integer area
    fraction always lies inside `scale_range`.
    """
    h_img, w_img = image.shape[-2:]
    if h_img < 2 or w_img < 2:
        raise InputError(f"image too small to crop: {h_img}x{w_img}")
    lo, hi = scale_range
    area_frac = rng.uniform(lo, hi)

    # Restrict the aspect ratio so the rectangle fits inside the image.
    ar_lo = max(ASPECT_RANGE[0], area_frac * w_img / h_img)
    ar_hi = min(ASPECT_RANGE[1], w_img / (area_frac * h_img))
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
# photometric augmentations: draw a plan per view, apply plans per batch
# ---------------------------------------------------------------------------

_LUMA = np.array([0.299, 0.587, 0.114])
_BLUR_TRUNCATE = 4.0


# A plan row holds one view's uniforms in draw order: 5 decisions, each
# compared with its probability, and 5 factors, each mapped onto its range.
PLAN_WIDTH = 10
_DECISIONS = [0, 1, 6, 7, 9]  # flip, jitter, grayscale, blur, solarize
_FACTORS = [2, 3, 4, 5, 8]    # brightness, contrast, saturation, hue, blur sigma


def draw_plan(recipe: str, rng: np.random.Generator) -> np.ndarray:
    """Draw one view's plan row with one `rng.random` call: 9 uniforms, plus
    a solarize draw for the second global recipe, in the order flip, jitter,
    brightness, contrast, saturation, hue, grayscale, blur, sigma[, solarize].

    Every draw is made whether or not the view uses it, so the rng stream
    shape never depends on earlier outcomes. An undrawn solarize column
    holds 1.0, which no probability <= 1 exceeds.
    """
    if recipe not in (FIRST_GLOBAL, SECOND_GLOBAL, LOCAL):
        raise ParameterError(f"unknown augmentation recipe: {recipe!r}")
    plan = np.ones(PLAN_WIDTH)
    n = PLAN_WIDTH if recipe == SECOND_GLOBAL else PLAN_WIDTH - 1
    plan[:n] = rng.random(n)
    return plan


def _read_plans(plans: np.ndarray, recipes, config: MultiCropConfig
                ) -> tuple[np.ndarray, np.ndarray]:
    """Decisions (B, 5) and factors (B, 5) of (B, PLAN_WIDTH) plan rows, in
    the column orders of `_DECISIONS` and `_FACTORS`; recipes name each
    row's recipe. A factor is `lo + (hi - lo) * u`, exactly what
    `Generator.uniform(lo, hi)` makes of the same draw."""
    b, c, s, hue = config.jitter_strength
    lo = np.array([1 - b, 1 - c, 1 - s, -hue, config.blur_sigma[0]])
    hi = np.array([1 + b, 1 + c, 1 + s, hue, config.blur_sigma[1]])
    p = np.array([(FLIP_P, JITTER_P, config.grayscale_p, BLUR_P[r],
                   config.solarize_p if r == SECOND_GLOBAL else 0.0) for r in recipes])
    p = p.reshape(-1, len(_DECISIONS))
    return plans[:, _DECISIONS] < p, lo + (hi - lo) * plans[:, _FACTORS]


def _to_gray(views: np.ndarray) -> np.ndarray:
    """Luma of a (B, 3, H, W) stack as (B, 1, H, W)."""
    b, _, h, w = views.shape
    return (_LUMA @ views.reshape(b, 3, h * w)).reshape(b, 1, h, w)


def _hue_rotate(rgb: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Rotate the HSV hue of a (B, 3, H, W) stack in [0, 1] by shift (B,)
    turns, in closed form without leaving RGB.

    With max, delta = max - min and the hue h in turns, HSV -> RGB is
    c = max - delta * clip(min(k, 4 - k), 0, 1), k = (n + 6h) mod 6, with
    n = 5, 3, 1 for R, G, B. That ramp equals clip(d - 1, 0, 1), for d the
    circular distance of 6h from the channel's primary at 0, 2 or 4, which
    needs one reduction mod 6 instead of three. The max channel is selected
    with boolean masks: np.where over unpredictable masks measured several
    times slower per element.
    """
    r, g, b = np.ascontiguousarray(rgb.transpose(1, 0, 2, 3))
    maxc = np.maximum(np.maximum(r, g), b)
    delta = maxc - np.minimum(np.minimum(r, g), b)
    r_max = maxc == r
    g_max = (maxc == g) > r_max
    b_max = ~(r_max | g_max)
    # hue in sextants, in [-1, 5): by the max channel, (g - b) / delta,
    # 2 + (b - r) / delta or 4 + (r - g) / delta; 0 for gray pixels
    h6 = r_max * (g - b)
    h6 += g_max * (b - r + 2.0 * delta)
    h6 += b_max * (r - g + 4.0 * delta)
    h6 /= delta + (delta == 0)
    h6 += 6.0 * shift[:, None, None]
    h6 -= 6.0 * np.floor(h6 * (1.0 / 6.0))
    out = np.empty((3,) + maxc.shape)
    for ch, primary in enumerate((0.0, 2.0, 4.0)):
        dist = np.abs(h6 - primary)
        ramp = np.minimum(dist - 1.0, 5.0 - dist, out=dist)
        np.clip(ramp, 0.0, 1.0, out=ramp)
        ramp *= delta
        np.subtract(maxc, ramp, out=out[ch])
    return out.transpose(1, 0, 2, 3)


def _color_jitter(views: np.ndarray, factors: np.ndarray, hue: float) -> np.ndarray:
    """Brightness, contrast, saturation and (for hue > 0) hue on (B, 3, H, W),
    with per-view factors (B, 4) in that order."""
    f = factors[:, :, None, None, None]
    out = views * f[:, 0]
    gray_mean = _to_gray(out).mean(axis=(-2, -1), keepdims=True)
    out -= gray_mean
    out *= f[:, 1]
    out += gray_mean
    gray = _to_gray(out)
    out -= gray
    out *= f[:, 2]
    out += gray
    if hue > 0:
        np.clip(out, 0.0, 1.0, out=out)
        out = _hue_rotate(out, factors[:, 3])
    return out


@functools.lru_cache(maxsize=64)
def _clamped_shifts(size: int, radius: int) -> np.ndarray:
    """Read-only (2 * radius + 1, size * size) bank: row o + radius is the
    flattened (size, size) matrix that picks sample clip(i + o) for output i."""
    rows = np.arange(size)
    bank = np.zeros((2 * radius + 1, size, size))
    for o in range(-radius, radius + 1):
        bank[o + radius, rows, np.clip(rows + o, 0, size - 1)] = 1.0
    bank = bank.reshape(2 * radius + 1, size * size)
    bank.flags.writeable = False
    return bank


def _blur_matrices(sigmas: np.ndarray, size: int) -> np.ndarray:
    """(B, size, size) matrices G with G @ x equal to scipy's
    gaussian_filter1d(x, sigma, axis=0, mode="nearest", truncate=4)."""
    radii = (_BLUR_TRUNCATE * sigmas + 0.5).astype(np.int64)
    reach = int(radii.max())
    x = np.arange(-reach, reach + 1)
    phi = np.exp(-0.5 / (sigmas * sigmas)[:, None] * x ** 2)
    phi[np.abs(x) > radii[:, None]] = 0.0
    phi /= phi.sum(axis=1, keepdims=True)
    return (phi @ _clamped_shifts(size, reach)).reshape(len(sigmas), size, size)


def _gaussian_blur(views: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Separable Gaussian blur of (B, 3, s, s) with one sigma per view."""
    g = _blur_matrices(sigmas, views.shape[-1])[:, None]
    return g @ views @ g.transpose(0, 1, 3, 2)


def apply_plans(views: np.ndarray, plans: np.ndarray, recipes,
                config: MultiCropConfig) -> np.ndarray:
    """Apply one plan row per view to a (B, 3, s, s) stack; returns a new stack.

    plans is (B, PLAN_WIDTH) and recipes names each view's recipe (B,).
    Order: horizontal flip, color jitter, grayscale, Gaussian blur,
    solarization. Output clamped to [0, 1]. Each stage runs on the views
    whose plan selects it. Views go through in chunks of about
    `_CHUNK_VALUES` values, so that a stage's temporaries stay in cache.
    """
    chosen, factors = _read_plans(plans, recipes, config)
    out = np.array(views, dtype=np.float64, copy=True)
    step = max(1, _CHUNK_VALUES // math.prod(out.shape[1:]))
    for lo in range(0, len(out), step):
        part = slice(lo, lo + step)
        _apply_in_place(out[part], chosen[part], factors[part], config)
    return np.clip(out, 0.0, 1.0, out=out)


def _apply_in_place(out: np.ndarray, chosen: np.ndarray, factors: np.ndarray,
                    config: MultiCropConfig) -> None:
    flip, jitter, gray, blur, solarize = (np.flatnonzero(c) for c in chosen.T)
    if flip.size:
        out[flip] = out[flip, ..., ::-1]
    if jitter.size:
        out[jitter] = _color_jitter(out[jitter], factors[jitter, :4],
                                    config.jitter_strength[3])
    if gray.size:
        out[gray] = _to_gray(out[gray])
    if blur.size:
        out[blur] = _gaussian_blur(out[blur], factors[blur, 4])
    if solarize.size:
        sel = out[solarize]
        out[solarize] = np.where(sel > SOLARIZE_THRESHOLD, 1.0 - sel, sel)


def augment_view(view: np.ndarray, recipe: str, rng: np.random.Generator,
                 config: MultiCropConfig) -> np.ndarray:
    """Photometric augmentation chain for one (3, s, s) view: `draw_plan`,
    then `apply_plans` on a batch of one."""
    plan = draw_plan(recipe, rng)
    return apply_plans(view[None], plan[None], [recipe], config)[0]


# ---------------------------------------------------------------------------
# batch assembly
# ---------------------------------------------------------------------------

def _global_recipe(i: int) -> str:
    return FIRST_GLOBAL if i % 2 == 0 else SECOND_GLOBAL


def build_multicrop(images: np.ndarray, config: MultiCropConfig,
                    rng: np.random.Generator) -> MultiCropBatch:
    """Generate the student and teacher crop stacks for images (..., 3, H, W).

    Teacher views share the student's global crop geometries but are
    independent augmentation draws of the same recipes. The global stacks
    are two halves of one array, so each is contiguous.

    Draw order (the invariant that keeps runs and resumes exact): image by
    image, each global crop draws its geometry (`sample_crop`) and then the
    student's and the teacher's plan; then each local crop draws its
    geometry and its plan. All draws come first; each output size is then
    augmented by one `apply_plans` call.
    """
    lead = images.shape[:-3]
    flat = images.reshape((-1,) + images.shape[-3:])
    n = flat.shape[0]
    ng, nl = config.n_global, config.n_local
    gs, ls = config.global_out_size, config.local_out_size
    # view slots: globals by (student | teacher, crop, image), locals by (crop, image)
    g_raw = np.empty((2, ng, n, 3, gs, gs))
    l_raw = np.empty((nl, n, 3, ls, ls))
    g_plans = np.empty((2, ng, n, PLAN_WIDTH))
    l_plans = np.empty((nl, n, PLAN_WIDTH))

    for k, image in enumerate(flat):
        for i in range(ng):
            raw, _ = sample_crop(image, config.global_scale_range, gs, rng)
            g_raw[:, i, k] = raw  # student and teacher share the geometry
            for role in range(2):
                g_plans[role, i, k] = draw_plan(_global_recipe(i), rng)
        for j in range(nl):
            raw, _ = sample_crop(image, config.local_scale_range, ls, rng)
            l_raw[j, k] = raw
            l_plans[j, k] = draw_plan(LOCAL, rng)

    g_recipes = [_global_recipe(i) for _ in range(2) for i in range(ng) for _ in range(n)]
    g_out = apply_plans(g_raw.reshape(-1, 3, gs, gs), g_plans.reshape(-1, PLAN_WIDTH),
                        g_recipes, config).reshape((2, ng) + lead + (3, gs, gs))
    l_out = apply_plans(l_raw.reshape(-1, 3, ls, ls), l_plans.reshape(-1, PLAN_WIDTH),
                        [LOCAL] * (nl * n), config).reshape((nl,) + lead + (3, ls, ls))
    return MultiCropBatch(student_global=g_out[0], student_local=l_out,
                          teacher_global=g_out[1])
