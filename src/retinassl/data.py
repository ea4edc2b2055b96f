"""Dataset manifests and the synthetic desk-scale retina stand-in.

Manifests follow the EyePACS convention: a CSV with header ``image,level``
where ``image`` is a file stem (e.g. ``10_left``) and ``level`` is the
retinopathy grade 0..4. The synthetic generator produces disc-shaped
"fundus" images whose grade is encoded by the count and size of injected
bright/dark blobs, buried under heavy per-image photometric nuisance so
that raw pixel statistics are a poor grade predictor.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, DecodeError, InputError, ManifestError
from .imagecodec import (PNG_SIGNATURE, _unfilter, decode_image, encode_image,
                         inflate_png)

N_GRADES = 5
IMAGE_SUFFIXES = (".png", ".ppm", ".pgm", ".pnm")
# A lockstep block of PNGs holds at most this many filtered bytes (or one
# file, if a single image is larger): enough files for the per-pass cost of
# unfiltering to be shared, few enough that a block's working memory stays
# small beside the float64 result.
_BLOCK_VALUES = 1 << 18


@dataclass
class ManifestRecord:
    image_id: str
    path: str
    grade: int  # -1 in label-blind mode


@dataclass
class DatasetManifest:
    records: list[ManifestRecord]
    split: str = "train"

    def __len__(self):
        return len(self.records)

    def grades(self) -> np.ndarray:
        return np.array([r.grade for r in self.records], dtype=np.int64)

    def load_images(self) -> np.ndarray:
        """Decode every record into one (n, 3, H, W) array (uniform sizes).

        PNGs are checked and inflated one file at a time, then unfiltered in
        lockstep, in blocks of consecutive files that share a header and hold
        at most _BLOCK_VALUES filtered bytes; other files go through
        decode_image. Each image is written straight into its row of the
        result, so no second copy of the dataset is ever held and the working
        memory is one block. An error names the file that caused it.
        """
        if not self.records:
            return np.zeros((0, 3, 0, 0))
        out = None
        start = count = 0  # the block's first record, and its files so far

        def write_block():
            if count:
                pixels = _unfilter(block[:count], channels)
                np.divide(pixels.transpose(0, 3, 1, 2), 255.0,
                          out=out[start:start + count])

        for i, record in enumerate(self.records):
            with open(record.path, "rb") as fh:
                blob = fh.read()
            if blob.startswith(PNG_SIGNATURE):
                try:
                    rows, ch = inflate_png(blob)
                except (DataFormatError, DecodeError) as exc:
                    raise type(exc)(f"{record.path}: {exc}") from None
                size = (rows.shape[0], (rows.shape[1] - 1) // ch)
            else:
                rows, image = None, decode_image(record.path)
                size = image.shape[1:]
            if out is None:
                out = np.empty((len(self.records), 3) + size)
            elif size != out.shape[2:]:
                raise InputError(f"{record.path} is {size[0]}x{size[1]}, unlike "
                                 f"{self.records[0].path}; images must share one size")
            if count and (rows is None or count == len(block)
                          or rows.shape != block.shape[1:]):
                write_block()
                count = 0
            if rows is None:
                out[i] = image
                continue
            if not count:
                start, channels = i, ch
                files = min(len(self.records) - i, max(1, _BLOCK_VALUES // rows.size))
                block = np.empty((files,) + rows.shape, dtype=np.uint8)
            block[count] = rows
            count += 1
        write_block()
        return out


def _resolve_path(directory: str, image_id: str) -> str | None:
    for suffix in IMAGE_SUFFIXES:
        candidate = os.path.join(directory, image_id + suffix)
        if os.path.exists(candidate):
            return candidate
    return None


def _csv_rows(fh):
    """(first physical line, row) for each row of a CSV file opened in binary
    mode; text that is not UTF-8 and rows the csv module refuses (a field
    over its size limit, say) are ManifestErrors naming their line."""
    data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte's line as csv numbers lines: the line breaks before it
        # (\n, \r\n or \r), plus its own line, which the b"x" stands in for
        line = len((data[:exc.start] + b"x").splitlines())
        raise ManifestError(f"manifest is not UTF-8 text: {exc.reason} "
                            f"(byte 0x{data[exc.start]:02x})", line=line) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    start = 1  # a quoted field can span lines, so rows and lines differ
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ManifestError(f"unreadable CSV row: {exc}", line=reader.line_num) from None


def load_manifest(csv_path, image_directory, split: str = "train",
                  label_blind: bool = False) -> DatasetManifest:
    """Parse an ``image,level`` CSV and resolve image files.

    With label_blind=True the level column is never parsed and every record
    carries grade -1; the self-supervised trainer uses this mode so labels
    structurally cannot leak into training.
    """
    records: list[ManifestRecord] = []
    missing: list[str] = []
    seen: set[str] = set()
    with open(csv_path, "rb") as fh:
        reader = _csv_rows(fh)
        try:
            _, header = next(reader)
        except StopIteration:
            raise ManifestError("manifest is empty, expected an 'image,level' header")
        if [h.strip().lower() for h in header[:2]] != ["image", "level"]:
            raise ManifestError(f"unexpected header {header!r}, expected image,level",
                                line=1)
        for lineno, row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise ManifestError(f"row has {len(row)} fields, expected 2",
                                    line=lineno)
            image_id = row[0].strip()
            if not image_id:
                raise ManifestError("empty image identifier", line=lineno)
            if image_id in seen:
                raise ManifestError(f"duplicate identifier {image_id!r}", line=lineno)
            seen.add(image_id)
            if label_blind:
                grade = -1
            else:
                try:
                    grade = int(row[1])
                except ValueError:
                    raise ManifestError(f"grade {row[1]!r} is not an integer",
                                        line=lineno)
                if not 0 <= grade < N_GRADES:
                    raise ManifestError(
                        f"grade {grade} outside 0..{N_GRADES - 1}", line=lineno)
            path = _resolve_path(str(image_directory), image_id)
            if path is None:
                missing.append(image_id)
                path = ""
            records.append(ManifestRecord(image_id, path, grade))
    if missing:
        shown = ", ".join(missing[:5])
        raise ManifestError(
            f"{len(missing)} image file(s) not found under {image_directory}: {shown}")
    return DatasetManifest(records, split=split)


def save_manifest(manifest: DatasetManifest, csv_path) -> None:
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image", "level"])
        for r in manifest.records:
            writer.writerow([r.image_id, r.grade])


# ---------------------------------------------------------------------------
# Synthetic dataset
# ---------------------------------------------------------------------------

@dataclass
class SyntheticDataset:
    images: np.ndarray            # (n, 3, s, s) in [0, 1]
    grades: np.ndarray            # (n,) int
    blob_masks: np.ndarray        # (n, s, s) bool, True on injected lesions
    blob_counts: np.ndarray       # (n,) int, generator's own injection log
    image_ids: list[str] = field(default_factory=list)


def _disc_mask(size: int) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    c = (size - 1) / 2.0
    return (yy - c) ** 2 + (xx - c) ** 2 <= (0.47 * size) ** 2


def generate_synthetic_dataset(seed: int, n_per_class: int,
                               image_size: int = 32) -> SyntheticDataset:
    """Five-grade blob images on a fundus-like disc, deterministic per seed.

    Grade 0 has no lesions. Higher grades inject more and larger blobs,
    with the mix shifting from bright "exudates" toward dark "hemorrhages"
    as the grade rises. Every image also gets a
    random global brightness, a background tint and pixel noise, so the
    grade signal lives in structure rather than in first-order statistics.
    """
    if n_per_class < 0:
        raise InputError("n_per_class must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDA7A]))
    n = 5 * n_per_class
    s = image_size
    images = np.zeros((n, 3, s, s))
    grades = np.zeros(n, dtype=np.int64)
    masks = np.zeros((n, s, s), dtype=bool)
    counts = np.zeros(n, dtype=np.int64)
    ids = []
    disc = _disc_mask(s)
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)

    i = 0
    for grade in range(5):
        for j in range(n_per_class):
            # fundus background: reddish disc, randomly tinted and shaded
            base = np.array([0.72, 0.35, 0.18]) + rng.uniform(-0.08, 0.08, size=3)
            grad_dir = rng.uniform(-1.0, 1.0, size=2)
            shade = 1.0 + 0.15 * (grad_dir[0] * (yy - s / 2) +
                                  grad_dir[1] * (xx - s / 2)) / s
            img = base[:, None, None] * shade[None] * disc[None]
            img += 0.02 * (~disc)[None]

            n_blobs = 0 if grade == 0 else int(rng.integers(2 * grade, 2 * grade + 2))
            mask = np.zeros((s, s), dtype=bool)
            for _ in range(n_blobs):
                # the bright/dark lesion mix shifts with grade; unlike the raw
                # blob count, this ratio survives random-resized cropping
                bright = rng.random() < 0.85 - 0.15 * grade
                radius = rng.uniform(0.035, 0.055) * s * (1.0 + 0.25 * grade)
                # keep blob centers on the disc
                ang = rng.uniform(0, 2 * np.pi)
                rad = rng.uniform(0, 0.38 * s)
                cy = s / 2 + rad * np.sin(ang)
                cx = s / 2 + rad * np.cos(ang)
                d2 = (yy - cy) ** 2 + (xx - cx) ** 2
                blob = np.exp(-d2 / (2.0 * radius ** 2))
                hard = d2 <= radius ** 2
                mask |= hard
                if bright:
                    color = np.array([0.95, 0.92, 0.55])  # exudate
                else:
                    color = np.array([0.25, 0.05, 0.05])  # hemorrhage
                alpha = np.clip(blob, 0.0, 1.0)[None]
                img = img * (1 - alpha) + color[:, None, None] * alpha
            img *= disc[None]

            # photometric nuisance: global brightness swing plus noise
            img *= rng.uniform(0.6, 1.0)
            img += rng.normal(0.0, 0.015, size=img.shape)
            images[i] = np.clip(img, 0.0, 1.0)
            grades[i] = grade
            masks[i] = mask & disc
            counts[i] = n_blobs
            ids.append(f"synth_{grade}_{j:04d}")
            i += 1
    return SyntheticDataset(images, grades, masks, counts, ids)


def write_synthetic_dataset(dataset: SyntheticDataset, directory) -> DatasetManifest:
    """Write images as PNG plus the manifest CSV; returns the manifest."""
    os.makedirs(directory, exist_ok=True)
    records = []
    for img, grade, image_id in zip(dataset.images, dataset.grades,
                                    dataset.image_ids):
        path = os.path.join(str(directory), image_id + ".png")
        encode_image(path, img)
        records.append(ManifestRecord(image_id, path, int(grade)))
    manifest = DatasetManifest(records)
    save_manifest(manifest, os.path.join(str(directory), "manifest.csv"))
    return manifest
