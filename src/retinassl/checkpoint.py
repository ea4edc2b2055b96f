"""Versioned binary checkpoints with per-section checksums.

Container layout, all integers little-endian:

    magic   8 bytes  b"RSSLCKPT"
    version u32
    then repeated sections until EOF:
        name length  u16
        name         utf-8 bytes
        payload len  u64
        payload crc  u32 (crc32 of the payload bytes)
        payload

Array payloads carry their own shape header (u8 ndim, u64 dims) followed by
raw little-endian float64 data, so the format is self-describing and
portable. Text sections (configs, counters, RNG state) are JSON. Writes go
to a temporary file in the same directory and are renamed into place.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import tempfile
import zlib

import numpy as np

from .autodiff import Tensor
from .configio import build_section
from .crops import MultiCropConfig
from .distill import DistillConfig, TrainState
from .errors import CheckpointError
from .vit import ProjectionHeadConfig, ViTConfig, param_shapes

MAGIC = b"RSSLCKPT"
FORMAT_VERSION = 1


def _write_section(fh, name: str, *parts) -> None:
    """Write one section whose payload is `parts` (bytes or contiguous
    arrays), checksummed and written piece by piece, with no joined copy."""
    nb = name.encode()
    size = crc = 0
    for part in parts:
        size += memoryview(part).nbytes
        crc = zlib.crc32(part, crc)
    fh.write(struct.pack("<H", len(nb)) + nb + struct.pack("<QI", size, crc))
    for part in parts:
        fh.write(part)


def _write_array(fh, name: str, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    header = struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape)
    _write_section(fh, name, header, arr)


def _unpack_array(name: str, payload: memoryview) -> np.ndarray:
    if len(payload) < 1:
        raise CheckpointError("empty array payload")
    ndim = payload[0]
    if ndim > 64:
        raise CheckpointError(f"array rank {ndim} is above numpy's limit of 64")
    need = 1 + 8 * ndim
    if len(payload) < need:
        raise CheckpointError("array shape header cut short")
    shape = struct.unpack_from(f"<{ndim}Q", payload, 1)
    count = math.prod(shape)  # Python ints: a product of u64 dims cannot wrap
    if len(payload) != need + 8 * count:
        raise CheckpointError(
            f"array payload holds {len(payload) - need} bytes, expected {8 * count}")
    values = np.frombuffer(payload, dtype="<f8", count=count, offset=need)
    # a NaN or an infinity would pass every later step or fail far from its
    # cause: a probe predicts from NaN features, and a resumed run's AdamW
    # divides by an infinite moment and trains on
    if not np.isfinite(values).all():
        raise CheckpointError(f"section {name!r} holds NaN or infinite values")
    try:
        return values.reshape(shape).copy()
    except ValueError as exc:  # numpy's dimension limits, reached by empty arrays
        raise CheckpointError(f"array shape {shape} is not representable: {exc}") from exc


def save_checkpoint(state: TrainState, path, vit_config: ViTConfig,
                    head_config: ProjectionHeadConfig, crop_config: MultiCropConfig,
                    distill_config: DistillConfig) -> None:
    """Each section is written as it is packed, an array straight from its
    own buffer, so a save holds no copy of the state."""
    directory = os.path.dirname(os.path.abspath(str(path)))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt_tmp_")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC + struct.pack("<I", FORMAT_VERSION))
            meta = {"step": state.step, "rng_state": state.rng.bit_generator.state}
            _write_section(fh, "meta", json.dumps(meta).encode())
            configs = {name: dataclasses.asdict(cfg) for name, cfg in (
                ("vit", vit_config), ("head", head_config), ("crop", crop_config),
                ("distill", distill_config))}
            _write_section(fh, "configs", json.dumps(configs).encode())
            _write_array(fh, "center", state.center)
            for group, params in (("student", state.student), ("teacher", state.teacher)):
                for key in sorted(params):
                    _write_array(fh, f"{group}/{key}", params[key].data)
            for group, moments in (("opt_m", state.opt_m), ("opt_v", state.opt_v)):
                for key in sorted(moments):
                    _write_array(fh, f"{group}/{key}", moments[key])
        os.replace(tmp, str(path))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_sections(blob: bytes) -> dict[str, memoryview]:
    """The sections of a checkpoint file's bytes, each payload a view of
    `blob`, so that no payload is copied."""
    view = memoryview(blob)
    if len(blob) < len(MAGIC) + 4:
        raise CheckpointError("file shorter than the fixed header")
    if blob[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"bad magic bytes {blob[:8]!r}")
    (version,) = struct.unpack_from("<I", blob, len(MAGIC))
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"format version {version}, this build reads {FORMAT_VERSION}")
    sections: dict[str, memoryview] = {}
    pos = len(MAGIC) + 4
    while pos < len(blob):
        if pos + 2 > len(blob):
            raise CheckpointError("section name length cut short")
        (nlen,) = struct.unpack_from("<H", blob, pos)
        pos += 2
        if pos + nlen + 12 > len(blob):
            raise CheckpointError("section header cut short")
        try:
            name = bytes(view[pos:pos + nlen]).decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"section name at byte {pos} is not UTF-8") from exc
        pos += nlen
        plen, crc = struct.unpack_from("<QI", blob, pos)
        pos += 12
        payload = view[pos:pos + plen]
        if len(payload) != plen:
            raise CheckpointError(f"section {name!r} payload cut short")
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            raise CheckpointError(f"checksum mismatch in section {name!r}")
        sections[name] = payload
        pos += plen
    return sections


def _read_metadata(sections: dict[str, memoryview]):
    """Parse the JSON sections into (step, rng, vit, head, crop, distill)."""
    try:
        meta = json.loads(bytes(sections["meta"]))
        cfg_raw = json.loads(bytes(sections["configs"]))
        step = meta["step"]
        rng = np.random.default_rng()
        rng.bit_generator.state = meta["rng_state"]
        configs = [build_section(cls(), cfg_raw[name]) for name, cls in (
            ("vit", ViTConfig), ("head", ProjectionHeadConfig),
            ("crop", MultiCropConfig), ("distill", DistillConfig))]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(
            f"malformed checkpoint metadata: {type(exc).__name__}: {exc}") from exc
    if type(step) is not int:  # a bool is an int to isinstance
        raise CheckpointError(f"checkpoint step {step!r} is not an integer")
    if step < 0:
        raise CheckpointError(f"checkpoint step {step} is negative")
    return (step, rng, *configs)


def _check_shapes(group: str, got: dict, expected: dict) -> None:
    """Raise CheckpointError unless `got` has exactly the expected names and shapes."""
    if got == expected:
        return
    missing = sorted(expected.keys() - got.keys())
    extra = sorted(got.keys() - expected.keys())
    wrong = sorted(f"{k} {got[k]} != {expected[k]}"
                   for k in got.keys() & expected.keys() if got[k] != expected[k])
    problems = [f"{label} {names}" for label, names in (
        ("missing", missing), ("unexpected", extra), ("wrong shape", wrong)) if names]
    raise CheckpointError(f"{group} tensors do not match the stored configs: "
                          + "; ".join(problems))


def load_checkpoint(path):
    """Read a checkpoint; returns (TrainState, vit, head, crop, distill configs).

    The file is read whole and each array copied out of it once, so a load
    holds two copies of the file at its peak."""
    with open(path, "rb") as fh:
        blob = fh.read()
    sections = _read_sections(blob)
    for required in ("meta", "configs", "center"):
        if required not in sections:
            raise CheckpointError(f"checkpoint missing section {required!r}")
    step, rng, vit, head, crop, distill = _read_metadata(sections)

    groups: dict[str, dict[str, np.ndarray]] = {
        "student": {}, "teacher": {}, "opt_m": {}, "opt_v": {}}
    for name, payload in sections.items():
        if "/" in name:
            group, key = name.split("/", 1)
            if group in groups:
                groups[group][key] = _unpack_array(name, payload)
    expected = param_shapes(vit, head)
    for group, arrays in groups.items():
        _check_shapes(group, {k: v.shape for k, v in arrays.items()}, expected)
    center = _unpack_array("center", sections["center"])
    _check_shapes("center", {"center": center.shape}, {"center": (head.output_dim,)})
    student = {k: Tensor(v, requires_grad=True) for k, v in groups["student"].items()}
    teacher = {k: Tensor(v, requires_grad=False) for k, v in groups["teacher"].items()}
    state = TrainState(student=student, teacher=teacher, center=center,
                       opt_m=groups["opt_m"], opt_v=groups["opt_v"],
                       step=step, rng=rng)
    return state, vit, head, crop, distill
