"""Input generation for the benchmark workloads.

Everything here runs in a child process before the workload starts, so the
workload process's peak resident memory is the program's, not the
generator's. All inputs are a pure function of (workload, seed, scale).

Run as ``python3 perfbench/inputs.py WORKLOAD SEED OUTDIR [--small]``.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib

import numpy as np

from common import DESK_INIT_STD, SIZES, desk_configs, import_program

# ---------------------------------------------------------------------------
# adaptive-filter PNG encoder
# ---------------------------------------------------------------------------

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def filter_candidates(raw: np.ndarray, bpp: int) -> np.ndarray:
    """All five PNG filters of every scanline: (5, h, stride) uint8.

    raw: (h, stride) uint8. Each filter predicts from the unfiltered left
    (a), up (b) and up-left (c) bytes, as the PNG specification defines.
    """
    x = raw.astype(np.int16)
    h, stride = x.shape
    a = np.zeros_like(x)
    a[:, bpp:] = x[:, :-bpp]
    b = np.zeros_like(x)
    b[1:] = x[:-1]
    c = np.zeros_like(x)
    c[1:, bpp:] = x[:-1, :-bpp]
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    preds = (np.zeros_like(x), a, b, (a + b) // 2, paeth)
    return np.stack([(x - pred) & 0xFF for pred in preds]).astype(np.uint8)


def choose_filters(raw: np.ndarray, bpp: int) -> tuple[np.ndarray, np.ndarray]:
    """libpng's heuristic: per row, the filter whose output has the least
    sum of absolute values, reading each byte as a signed char. Ties go to
    the lower filter type. Returns (filter types (h,), filtered rows)."""
    cand = filter_candidates(raw, bpp)
    signed = cand.astype(np.int16)
    cost = np.minimum(signed, 256 - signed).sum(axis=2)  # (5, h)
    types = np.argmin(cost, axis=0)
    return types, cand[types, np.arange(raw.shape[0])]


def encode_png_adaptive(pixels: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Encode (H, W, 3) uint8 RGB as PNG with per-row adaptive filters.

    Returns (file bytes, filter type per row)."""
    h, w, ch = pixels.shape
    types, rows = choose_filters(pixels.reshape(h, w * ch), ch)
    stream = np.concatenate([types.astype(np.uint8)[:, None], rows], axis=1)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    blob = (PNG_SIGNATURE + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(stream.tobytes()))
            + _chunk(b"IEND", b""))
    return blob, types


def quantize(images: np.ndarray) -> np.ndarray:
    """(n, 3, H, W) floats in [0, 1] -> (n, H, W, 3) uint8, rounded."""
    q = np.round(np.clip(images, 0.0, 1.0) * 255.0).astype(np.uint8)
    return np.ascontiguousarray(q.transpose(0, 2, 3, 1))


# ---------------------------------------------------------------------------
# per-workload generators
# ---------------------------------------------------------------------------

def _seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([int(seed), tag]).generate_state(1)[0])


def _write_manifest(path: str, ids, grades) -> None:
    with open(path, "w") as fh:
        fh.write("image,level\n")
        fh.writelines(f"{i},{int(g)}\n" for i, g in zip(ids, grades))


def gen_train_desk(rs, seed: int, out: str, sizes: dict) -> None:
    ds = rs.data.generate_synthetic_dataset(_seed(seed, 1), sizes["n_per_class"],
                                            image_size=desk_configs()[0].image_size)
    rs.data.write_synthetic_dataset(ds, os.path.join(out, "images"))


def gen_eval_frozen(rs, seed: int, out: str, sizes: dict) -> None:
    # a desk checkpoint a few steps past init, so the teacher is not a copy
    # of its initialization and the EMA has run
    vit, head, crop, distill = desk_configs()
    ckpt_ds = rs.data.generate_synthetic_dataset(_seed(seed, 2), 4,
                                                 image_size=vit.image_size)
    state = rs.distill.init_train_state(vit, head, seed=_seed(seed, 3),
                                        init_std=DESK_INIT_STD)
    rs.distill.train_loop(ckpt_ds.images, state, vit, head, crop, distill,
                          n_steps=sizes["ckpt_steps"])
    rs.checkpoint.save_checkpoint(state, os.path.join(out, "desk.ckpt"),
                                  vit, head, crop, distill)
    for split, tag in (("train", 4), ("test", 5)):
        ds = rs.data.generate_synthetic_dataset(
            _seed(seed, tag), sizes[f"{split}_per_class"],
            image_size=vit.image_size)
        rs.data.write_synthetic_dataset(ds, os.path.join(out, split))


def gen_knn_scale(rs, seed: int, out: str, sizes: dict) -> None:
    """Unit-norm features around five grade centroids, with exact duplicate
    index rows so that the (-similarity, index) tie-break is exercised."""
    rng = np.random.default_rng(_seed(seed, 6))
    d, n, m = sizes["dim"], sizes["index"], sizes["queries"]
    centroids = rng.normal(size=(5, d))

    def draw(count):
        labels = rng.integers(0, 5, size=count)
        x = centroids[labels] + 1.5 * rng.normal(size=(count, d))
        return x / np.linalg.norm(x, axis=1, keepdims=True), labels

    feats, labels = draw(n)
    n_dup = n // 50
    src = rng.choice(n, size=n_dup, replace=False)
    dst = rng.choice(np.setdiff1d(np.arange(n), src), size=n_dup, replace=False)
    feats[dst] = feats[src]
    queries, query_labels = draw(m)
    # a few queries equal to duplicated index rows: their top two
    # similarities tie exactly
    queries[:n_dup // 4] = feats[src[:n_dup // 4]]
    np.savez(os.path.join(out, "knn.npz"), features=feats, labels=labels,
             queries=queries, query_labels=query_labels)


def gen_ingest_png(rs, seed: int, out: str, sizes: dict) -> None:
    ds = rs.data.generate_synthetic_dataset(_seed(seed, 7), sizes["n_per_class"],
                                            image_size=sizes["image_size"])
    pixels = quantize(ds.images)
    img_dir = os.path.join(out, "images")
    os.makedirs(img_dir)
    counts = np.zeros(5, dtype=np.int64)
    for image_id, px in zip(ds.image_ids, pixels):
        blob, types = encode_png_adaptive(px)
        counts += np.bincount(types, minlength=5)
        with open(os.path.join(img_dir, image_id + ".png"), "wb") as fh:
            fh.write(blob)
    _write_manifest(os.path.join(img_dir, "manifest.csv"), ds.image_ids, ds.grades)
    np.savez(os.path.join(out, "expected.npz"), pixels=pixels, filter_counts=counts)


GENERATORS = {"train-desk": gen_train_desk, "eval-frozen": gen_eval_frozen,
              "knn-scale": gen_knn_scale, "ingest-png": gen_ingest_png}


def main(argv) -> int:
    workload, seed, out = argv[0], int(argv[1]), argv[2]
    scale = "small" if "--small" in argv[3:] else "full"
    rs = import_program()
    GENERATORS[workload](rs, seed, out, SIZES[scale][workload])
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
