import builtins
import dataclasses
import functools
import json
import os
import struct
import tempfile
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retinassl import checkpoint
from retinassl.checkpoint import _read_sections, load_checkpoint, save_checkpoint
from retinassl.configio import (RunConfig, apply_assignments, parse_assignments,
                               read_config_file)
from retinassl.crops import MultiCropConfig
from retinassl.data import (DatasetManifest, generate_synthetic_dataset,
                            load_manifest, save_manifest, write_synthetic_dataset)
from retinassl.distill import DistillConfig, init_train_state, train_loop
from retinassl.errors import (CheckpointError, ConfigError, DataFormatError,
                              DecodeError, InputError, ManifestError)
from retinassl.imagecodec import (_unfilter, decode_image, decode_png, encode_image,
                                  encode_png, inflate_png)
from retinassl.vit import ProjectionHeadConfig, ViTConfig


def _png(ihdr, idat):
    """Hand-built PNG of the given IHDR and IDAT payloads, with valid CRCs."""
    def chunk(tag, payload):
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", idat) + chunk(b"IEND", b""))


def _rgb_png(w, h, stream, idat=None):
    """Hand-built 8-bit RGB PNG around an already filtered pixel stream, or
    around the given compressed IDAT payload."""
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return _png(ihdr, zlib.compress(bytes(stream)) if idat is None else idat)


def _paeth(a, b, c):
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    return a if pa <= pb and pa <= pc else (b if pb <= pc else c)


def _filtered_png(pixels, types):
    """PNG of uint8 pixels, (h, w) gray or (h, w, 3) RGB, whose row y is
    written with filter type types[y]. This is the encoder side of PNG
    filtering (spec section 9) written out per byte on Python ints, the
    reference that decoding must invert."""
    ch = 1 if pixels.ndim == 2 else 3
    h, w = pixels.shape[:2]
    stream = bytearray()
    prev = [0] * (w * ch)
    for ftype, row in zip(types, pixels.reshape(h, w * ch).tolist()):
        out = []
        for x, v in enumerate(row):
            a = row[x - ch] if x >= ch else 0
            c = prev[x - ch] if x >= ch else 0
            pred = [0, a, prev[x], (a + prev[x]) // 2, _paeth(a, prev[x], c)][ftype]
            out.append((v - pred) & 0xFF)
        stream += bytes([ftype] + out)
        prev = row
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0 if ch == 1 else 2, 0, 0, 0)
    return _png(ihdr, zlib.compress(bytes(stream)))


def _adaptive_files(directory, n, h, w, seed):
    """n RGB PNGs of random pixels under `directory`, every row of a random
    filter type, with a manifest naming them; returns (manifest path, the
    (n, h, w, 3) pixels)."""
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(n, h, w, 3), dtype=np.uint8)
    names = [f"im{i:03d}" for i in range(n)]
    for name, px in zip(names, pixels):
        types = rng.integers(0, 5, size=h).tolist()
        (directory / f"{name}.png").write_bytes(_filtered_png(px, types))
    csv_path = directory / "m.csv"
    csv_path.write_text("image,level\n" + "".join(f"{n},0\n" for n in names))
    return csv_path, pixels


@functools.cache
def _zeros_idat(megabytes):
    """A zlib stream of `megabytes` MB of zeros, built without holding them."""
    comp = zlib.compressobj()
    zeros = bytes(1 << 20)
    return b"".join(comp.compress(zeros) for _ in range(megabytes)) + comp.flush()


class TestPng:
    def test_rgb_roundtrip(self):
        rng = np.random.default_rng(1)
        pix = rng.integers(0, 256, size=(9, 6, 3), dtype=np.uint8)
        np.testing.assert_array_equal(decode_png(encode_png(pix)), pix)

    def test_gray_roundtrip(self):
        pix = np.random.default_rng(2).integers(0, 256, size=(4, 4), dtype=np.uint8)
        np.testing.assert_array_equal(decode_png(encode_png(pix)), pix)

    def test_file_roundtrip_via_float(self, tmp_path):
        img = np.random.default_rng(3).random((3, 8, 8))
        path = tmp_path / "x.png"
        encode_image(path, img)
        back = decode_image(path)
        # 8-bit quantization, so agreement within half a step
        assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12

    def test_bad_magic(self):
        with pytest.raises(DataFormatError):
            decode_png(b"NOTAPNG.........")

    @pytest.mark.parametrize("name", ["x.ppm", "x.pgm", "x.jpg", "x"])
    def test_file_name_other_than_png_refused(self, tmp_path, name):
        with pytest.raises(DataFormatError, match=r"must end in \.png"):
            encode_image(tmp_path / name, np.zeros((3, 2, 2)))
        assert not (tmp_path / name).exists()

    @pytest.mark.parametrize("encode", [encode_png])
    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0, 3), (4, 0, 3)])
    def test_empty_image_refused(self, encode, shape):
        # the decoder refuses a 0-pixel side, so the encoder does too
        with pytest.raises(DataFormatError, match="cannot encode"):
            encode(np.zeros(shape, dtype=np.uint8))

    def test_corrupt_chunk_crc(self):
        blob = bytearray(encode_png(np.zeros((2, 2, 3), dtype=np.uint8)))
        blob[40] ^= 0xFF  # somewhere inside IDAT payload
        with pytest.raises(DecodeError):
            decode_png(bytes(blob))

    def test_truncated_stream(self):
        blob = encode_png(np.zeros((4, 4, 3), dtype=np.uint8))
        with pytest.raises(DecodeError):
            decode_png(blob[:-10])

    def test_filtered_scanlines_decoded(self):
        # Build a PNG by hand using Up filters to exercise the unfilter path.
        h, w = 3, 2
        rows = np.array([[10, 20, 30, 40, 50, 60]] * h, dtype=np.uint8)
        stream = bytearray()
        stream += b"\x00" + rows[0].tobytes()
        for _ in range(h - 1):
            stream += b"\x02" + bytes(6)  # Up filter, zero deltas
        out = decode_png(_rgb_png(w, h, stream))
        np.testing.assert_array_equal(out, rows.reshape(h, w, 3))

    def test_inflation_stops_at_the_header_size(self):
        # only the 48x48 image's 6960 stream bytes of the 100 MB are inflated
        blob = _rgb_png(48, 48, None, idat=_zeros_idat(100))
        tracemalloc.start()
        try:
            out = decode_png(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(out, np.zeros((48, 48, 3), dtype=np.uint8))
        assert peak < 4 << 20

    def test_header_larger_than_the_stream_can_inflate_to(self):
        # a 10000 x 10000 RGB image needs 300 MB of stream, more than the
        # ~100 KB IDAT can inflate to, so it is refused before inflating
        blob = _rgb_png(10000, 10000, None, idat=_zeros_idat(100))
        tracemalloc.start()
        try:
            with pytest.raises(DecodeError):
                decode_png(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_stream_missing_its_checksum(self):
        # the pixel bytes are all there; the zlib stream's Adler-32 is not
        stream = bytes(3 * (1 + 4 * 3))
        with pytest.raises(DecodeError):
            decode_png(_rgb_png(4, 3, None, idat=zlib.compress(stream)[:-4]))

    @pytest.mark.parametrize("length", [0, 10, 12, 14])
    def test_ihdr_of_wrong_length(self, length):
        # a 10-byte IHDR with a valid CRC used to escape as struct.error
        ihdr = (struct.pack(">IIBBBBB", 4, 3, 8, 2, 0, 0, 0) + b"\0")[:length]
        with pytest.raises(DecodeError, match="IHDR"):
            decode_png(_png(ihdr, zlib.compress(bytes(3 * 13))))

    @pytest.mark.parametrize("w, h", [(0, 4), (4, 0), (0, 0)])
    def test_zero_dimensions(self, w, h):
        with pytest.raises(DecodeError):
            decode_png(_rgb_png(w, h, bytes(h)))

    def test_all_five_filter_types_decode_without_warnings(self):
        # rows cycle through filter types 0..4 twice
        rng = np.random.default_rng(11)
        h, w, ch = 10, 7, 3
        pixels = rng.integers(0, 256, size=(h, w, ch), dtype=np.uint8)
        blob = _filtered_png(pixels, [y % 5 for y in range(h)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = decode_png(blob)
        np.testing.assert_array_equal(out, pixels)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 5), h=st.integers(1, 9), w=st.integers(1, 9),
           gray=st.booleans(), levels=st.sampled_from([2, 256, "0/255"]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_lockstep_unfilter_inverts_the_per_byte_encoder(self, n, h, w, gray,
                                                            levels, seed, data):
        # few levels make Paeth's three-way ties common; pixels of only 0 and
        # 255 take Average sums and |u + v| to 510 and make most adds wrap
        ch = 1 if gray else 3
        rng = np.random.default_rng(seed)
        if levels == "0/255":
            pixels = rng.integers(0, 2, size=(n, h, w, ch), dtype=np.uint8) * np.uint8(255)
        else:
            pixels = rng.integers(0, levels, size=(n, h, w, ch), dtype=np.uint8)
        types = data.draw(st.lists(st.lists(st.integers(0, 4), min_size=h, max_size=h),
                                   min_size=n, max_size=n))
        blobs = [_filtered_png(px[:, :, 0] if gray else px, t)
                 for px, t in zip(pixels, types)]
        streams = np.stack([inflate_png(blob)[0] for blob in blobs])
        # the wavefront buffer: the files' pixels below a zero pad row and
        # right of a zero pad column, pixel-major, files and channels innermost
        buf = np.zeros(((h + 1) * (w + 1), n, ch), dtype=np.uint8)
        grid = buf.reshape(h + 1, w + 1, n, ch)
        grid[1:, 1:] = streams[:, :, 1:].reshape(n, h, w, ch).transpose(1, 2, 0, 3)
        _unfilter(buf, streams[:, :, 0].T)
        np.testing.assert_array_equal(grid[1:, 1:].transpose(2, 0, 1, 3), pixels)
        np.testing.assert_array_equal(decode_png(blobs[-1]).reshape(h, w, ch), pixels[-1])

    @pytest.mark.parametrize("ftype", [5, 255])
    def test_unknown_filter_type(self, ftype):
        stream = bytes(7) + bytes([ftype]) + bytes(6)  # rows 0 and 1 of a 2x2 RGB image
        with pytest.raises(DecodeError, match=f"unknown PNG filter type {ftype} on row 1"):
            decode_png(_rgb_png(2, 2, stream))


class TestManifest:
    def _write(self, tmp_path, rows, images=()):
        csv_path = tmp_path / "m.csv"
        csv_path.write_text("image,level\n" + "\n".join(rows) + ("\n" if rows else ""))
        for name in images:
            encode_image(tmp_path / f"{name}.png", np.zeros((3, 4, 4)))
        return csv_path

    def test_basic_row(self, tmp_path):
        path = self._write(tmp_path, ["10_left,0"], images=["10_left"])
        m = load_manifest(path, tmp_path)
        assert len(m) == 1
        assert m.records[0].image_id == "10_left"
        assert m.records[0].grade == 0

    def test_out_of_range_grade(self, tmp_path):
        path = self._write(tmp_path, ["x,7"], images=["x"])
        with pytest.raises(ManifestError):
            load_manifest(path, tmp_path)

    def test_empty_after_header(self, tmp_path):
        path = self._write(tmp_path, [])
        m = load_manifest(path, tmp_path)
        assert len(m) == 0

    def test_missing_file_lists_ids(self, tmp_path):
        path = self._write(tmp_path, ["ghost,1"])
        with pytest.raises(ManifestError, match="ghost"):
            load_manifest(path, tmp_path)

    def test_malformed_row_carries_line(self, tmp_path):
        path = self._write(tmp_path, ["only_one_field"])
        with pytest.raises(ManifestError) as exc:
            load_manifest(path, tmp_path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_numbers_count_physical_lines(self, tmp_path, newline):
        # the quoted identifier spans lines 2 and 3, so the bad grade is on 4
        (tmp_path / "m.csv").write_bytes(
            newline.join(["image,level", '"x', 'y",1', "z,9", ""]).encode())
        with pytest.raises(ManifestError, match="^line 4: grade 9") as exc:
            load_manifest(tmp_path / "m.csv", tmp_path)
        assert exc.value.line == 4

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("bad_line", [b"\xff,1", b"d\xfe,1", b"d,1\xff"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, newline, bad_line):
        # the quoted identifier spans lines 3 and 4, so the bad byte is on 5
        nl = newline.encode()
        (tmp_path / "m.csv").write_bytes(
            nl.join([b"image,level", b"a,0", b'"b', b'c",1', bad_line, b""]))
        with pytest.raises(ManifestError, match="^line 5: manifest is not UTF-8") as exc:
            load_manifest(tmp_path / "m.csv", tmp_path)
        assert exc.value.line == 5

    def test_multiline_identifier_is_kept(self, tmp_path):
        (tmp_path / "m.csv").write_text('image,level\n"x\ny",1\nz,0\n')
        for name in ("x\ny", "z"):
            encode_image(tmp_path / f"{name}.png", np.zeros((3, 4, 4)))
        m = load_manifest(tmp_path / "m.csv", tmp_path)
        assert [(r.image_id, r.grade) for r in m.records] == [("x\ny", 1), ("z", 0)]

    def test_label_blind_ignores_bad_grades(self, tmp_path):
        path = self._write(tmp_path, ["a,garbage"], images=["a"])
        m = load_manifest(path, tmp_path, label_blind=True)
        assert m.records[0].grade == -1

    def test_order_stable(self, tmp_path):
        names = [f"img{i}" for i in (3, 1, 4, 1, 5)]
        names = ["img3", "img1", "img4", "img9", "img5"]
        path = self._write(tmp_path, [f"{n},0" for n in names], images=names)
        m = load_manifest(path, tmp_path)
        assert [r.image_id for r in m.records] == names

    def test_load_images_holds_one_copy(self, tmp_path):
        names = [f"im{i:02d}" for i in range(40)]
        path = self._write(tmp_path, [f"{n},0" for n in names])
        for i, n in enumerate(names):
            encode_image(tmp_path / f"{n}.png", np.full((3, 32, 32), i / 40))
        m = load_manifest(path, tmp_path)
        tracemalloc.start()
        try:
            images = m.load_images()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert images.shape == (40, 3, 32, 32)
        np.testing.assert_array_equal(images[7], decode_image(tmp_path / "im07.png"))
        assert peak <= 1.25 * images.nbytes

    def test_load_images_of_adaptive_files_holds_one_copy(self, tmp_path):
        # several blocks of files with all five filter types: the working
        # memory is one block, not the dataset
        path, pixels = _adaptive_files(tmp_path, 160, 32, 32, seed=5)
        m = load_manifest(path, tmp_path)
        types = {int(t) for r in m.records
                 for t in inflate_png(Path(r.path).read_bytes())[0][:, 0]}
        assert types == {0, 1, 2, 3, 4}
        tracemalloc.start()
        try:
            images = m.load_images()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(images, pixels.transpose(0, 3, 1, 2) / 255.0)
        assert peak <= 1.25 * images.nbytes

    @pytest.mark.parametrize("block_files", [1, 7, 40])
    def test_load_images_bits_do_not_depend_on_the_block(self, tmp_path, monkeypatch,
                                                         block_files):
        path, pixels = _adaptive_files(tmp_path, 40, 9, 11, seed=6)
        monkeypatch.setattr("retinassl.imagecodec._BLOCK_VALUES",
                            block_files * 9 * (11 * 3 + 1))
        m = load_manifest(path, tmp_path)
        images = m.load_images()
        assert images.shape == (40, 3, 9, 11)
        np.testing.assert_array_equal(images, pixels.transpose(0, 3, 1, 2) / 255.0)
        for i, record in enumerate(m.records):
            np.testing.assert_array_equal(images[i], decode_image(record.path))

    @pytest.mark.parametrize("block_files", [1, 2, 8])
    def test_gray_rgb_and_pnm_of_one_size_load_together(self, tmp_path, monkeypatch,
                                                        block_files):
        # an adaptive-filter PNG opens a wavefront block and closes a
        # file-major one, a filter-0 PNG (png0 and png0gray: encode_png's)
        # opens a file-major block or joins a wavefront one, and a change of
        # channel count closes either
        rng = np.random.default_rng(8)
        names, pixels = [], []
        for i, kind in enumerate(["rgb", "rgb", "gray", "png0", "png0", "gray", "rgb", "png0",
                                  "png0gray", "png0", "rgb", "png0gray", "png0", "gray"]):
            names.append(f"{kind}{i}")
            shape = (6, 5) if kind in ("gray", "png0gray") else (6, 5, 3)
            px = rng.integers(0, 256, size=shape, dtype=np.uint8)
            pixels.append(np.repeat(px[:, :, None], 3, axis=2) if px.ndim == 2 else px)
            if kind.startswith("png0"):
                (tmp_path / f"{kind}{i}.png").write_bytes(encode_png(px))
            else:
                types = rng.integers(0, 5, size=6).tolist()
                (tmp_path / f"{kind}{i}.png").write_bytes(_filtered_png(px, types))
        path = self._write(tmp_path, [f"{n},0" for n in names])
        monkeypatch.setattr("retinassl.imagecodec._BLOCK_VALUES", block_files * 6 * 16)
        m = load_manifest(path, tmp_path)
        images = m.load_images()
        np.testing.assert_array_equal(images, np.stack(pixels).transpose(0, 3, 1, 2) / 255.0)
        for i, record in enumerate(m.records):
            np.testing.assert_array_equal(images[i], decode_image(record.path))
            px = decode_png(Path(record.path).read_bytes())
            if px.ndim == 2:
                px = np.repeat(px[:, :, None], 3, axis=2)
            assert np.array_equal(images[i], px.transpose(2, 0, 1) / 255.0)

    def test_interleaved_filter_kinds_share_blocks(self, tmp_path, monkeypatch):
        # a filter-0 file joins an open wavefront block, so a manifest that
        # alternates the kinds is not unfiltered one file at a time
        from retinassl import imagecodec
        rng = np.random.default_rng(10)
        pixels = rng.integers(0, 256, size=(12, 6, 5, 3), dtype=np.uint8)
        for i, px in enumerate(pixels):
            blob = encode_png(px) if i % 2 else _filtered_png(px, [4] * 6)
            (tmp_path / f"f{i}.png").write_bytes(blob)
        path = self._write(tmp_path, [f"f{i},0" for i in range(12)])
        monkeypatch.setattr(imagecodec, "_BLOCK_VALUES", 8 * 6 * 16)
        blocks, unfilter = [], imagecodec._unfilter
        monkeypatch.setattr(imagecodec, "_unfilter",
                            lambda buf, types: blocks.append(types.shape[1]) or unfilter(buf, types))
        images = load_manifest(path, tmp_path).load_images()
        np.testing.assert_array_equal(images, pixels.transpose(0, 3, 1, 2) / 255.0)
        assert blocks == [8, 4]

    def test_every_file_is_opened_once(self, tmp_path, monkeypatch):
        names = ["a", "b", "c", "d"]
        path = self._write(tmp_path, [f"{n},0" for n in names])
        px = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
        encode_image(tmp_path / "a.png", px.transpose(2, 0, 1) / 255.0)
        (tmp_path / "b.png").write_bytes(_filtered_png(px, [1, 2, 3, 4]))
        (tmp_path / "c.png").write_bytes(encode_png(px[:, :, 0]))
        (tmp_path / "d.png").write_bytes(encode_png(px))
        m = load_manifest(path, tmp_path)
        opened, real_open = [], builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(os.path.basename(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        m.load_images()
        monkeypatch.undo()
        assert sorted(opened) == ["a.png", "b.png", "c.png", "d.png"]

    @pytest.mark.parametrize("damage", ["crc", "filter 5", "filter 255", "magic", "pixmap"])
    def test_load_images_error_names_the_file(self, tmp_path, damage):
        names = [f"im{i}" for i in range(4)]
        path = self._write(tmp_path, [f"{n},0" for n in names], images=names)
        bad = tmp_path / "im2.png"
        if damage == "crc":
            blob = bytearray(bad.read_bytes())
            blob[40] ^= 0xFF
            bad.write_bytes(bytes(blob))
        elif damage == "magic":
            bad.write_bytes(b"GIF89a" + bytes(20))
        elif damage == "pixmap":  # a valid binary P6 pixmap, which is not a PNG
            bad.write_bytes(b"P6\n4 4\n255\n" + bytes(48))
        else:
            ftype = int(damage.split()[1])
            bad.write_bytes(_rgb_png(4, 2, bytes(13) + bytes([ftype]) + bytes(12)))
        m = load_manifest(path, tmp_path)
        with pytest.raises((DecodeError, DataFormatError), match="im2.png") as exc:
            m.load_images()
        if damage in ("magic", "pixmap"):
            assert exc.type is DataFormatError

    def test_roundtrip(self, tmp_path):
        ds = generate_synthetic_dataset(0, 2, image_size=16)
        manifest = write_synthetic_dataset(ds, tmp_path / "d")
        back = load_manifest(tmp_path / "d" / "manifest.csv", tmp_path / "d")
        assert [r.image_id for r in back.records] == ds.image_ids
        np.testing.assert_array_equal(back.grades(), ds.grades)


class TestSyntheticDataset:
    def test_class_zero_has_no_blobs(self):
        ds = generate_synthetic_dataset(0, 10, image_size=16)
        assert np.all(ds.blob_counts[ds.grades == 0] == 0)
        assert not ds.blob_masks[ds.grades == 0].any()

    def test_determinism(self):
        a = generate_synthetic_dataset(7, 3, image_size=16)
        b = generate_synthetic_dataset(7, 3, image_size=16)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.blob_masks, b.blob_masks)

    def test_different_seeds_differ(self):
        a = generate_synthetic_dataset(1, 2, image_size=16)
        b = generate_synthetic_dataset(2, 2, image_size=16)
        assert not np.array_equal(a.images, b.images)

    def test_blob_count_monotone_in_grade(self):
        ds = generate_synthetic_dataset(0, 100, image_size=16)
        means = [ds.blob_counts[ds.grades == g].mean() for g in range(5)]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_pixel_range(self):
        ds = generate_synthetic_dataset(0, 4, image_size=16)
        assert ds.images.min() >= 0.0
        assert ds.images.max() <= 1.0


def _joined_save(state, path, vit, head, crop, distill):
    """The checkpoint writer that packed every section as bytes, joined them
    and wrote the file at once: the reference for a file's bytes."""
    def section(name, payload):
        nb = name.encode()
        return (struct.pack("<H", len(nb)) + nb
                + struct.pack("<QI", len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
                + payload)

    def array(arr):
        arr = np.ascontiguousarray(arr, dtype="<f8")
        return (struct.pack("<B", arr.ndim)
                + b"".join(struct.pack("<Q", d) for d in arr.shape) + arr.tobytes())

    meta = {"step": state.step, "rng_state": state.rng.bit_generator.state}
    configs = {name: dataclasses.asdict(cfg) for name, cfg in (
        ("vit", vit), ("head", head), ("crop", crop), ("distill", distill))}
    sections = [section("meta", json.dumps(meta).encode()),
                section("configs", json.dumps(configs).encode()),
                section("center", array(state.center))]
    for group, arrays in (("student", {k: t.data for k, t in state.student.items()}),
                          ("teacher", {k: t.data for k, t in state.teacher.items()}),
                          ("opt_m", state.opt_m), ("opt_v", state.opt_v)):
        sections += [section(f"{group}/{k}", array(arrays[k])) for k in sorted(arrays)]
    Path(path).write_bytes(b"RSSLCKPT" + struct.pack("<I", 1) + b"".join(sections))


def small_state():
    vit = ViTConfig(image_size=16, patch_size=8, depth=1, embed_dim=8, n_heads=2)
    head = ProjectionHeadConfig(hidden_dim=16, bottleneck_dim=8, output_dim=24)
    crop = MultiCropConfig(global_out_size=16, local_out_size=8, n_local=2)
    distill = DistillConfig(total_epochs=10, warmup_epochs=1, batch_size=2)
    state = init_train_state(vit, head, seed=0)
    return vit, head, crop, distill, state


# a 4x3 RGB image whose rows use the Sub, Average and Paeth filters
_FUZZ_IHDR = struct.pack(">IIBBBBB", 4, 3, 8, 2, 0, 0, 0)
_FUZZ_IDAT = zlib.compress(b"".join(bytes([f]) + bytes(range(12)) for f in (1, 3, 4)))
_FUZZ_KEYS = ["vit.depth", "vit.mlp_ratio", "crop.global_scale_range",
              "crop.blur_sigma", "probe.epochs"]
_FUZZ_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _pack_sections(header, sections):
    return header + b"".join(
        struct.pack("<H", len(n)) + n
        + struct.pack("<QI", len(p), zlib.crc32(p) & 0xFFFFFFFF) + p
        for n, p in sections)


def _load_or_refuse(blob):
    """load_checkpoint on `blob` returns or raises an InputError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.ckpt")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            load_checkpoint(path)
        except InputError:
            pass


_FUZZ_MANIFEST = b"image,level\n10_left,0\n10_right,4\n\"11,left\",2\n"


def _load_manifest_or_refuse(blob, label_blind):
    """load_manifest on `blob`, beside files for the valid manifest's
    images, returns a manifest or raises an InputError."""
    with tempfile.TemporaryDirectory() as tmp:
        for stem in ("10_left", "10_right", "11,left"):
            open(os.path.join(tmp, stem + ".png"), "wb").close()
        path = os.path.join(tmp, "m.csv")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            manifest = load_manifest(path, tmp, label_blind=label_blind)
        except InputError:
            return
    assert all(-1 <= g < 5 for g in manifest.grades())


@functools.cache
def _fuzz_checkpoint_sections():
    """The 12-byte header and the (name, payload) pairs of a small saved
    checkpoint, parsed here apart from the library."""
    vit, head, crop, distill, state = small_state()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.ckpt")
        save_checkpoint(state, path, vit, head, crop, distill)
        with open(path, "rb") as fh:
            blob = fh.read()
    sections, pos = [], 12  # magic + version
    while pos < len(blob):
        (nlen,) = struct.unpack_from("<H", blob, pos)
        (plen,) = struct.unpack_from("<Q", blob, pos + 2 + nlen)
        start = pos + 14 + nlen
        sections.append((blob[pos + 2:pos + 2 + nlen], blob[start:start + plen]))
        pos = start + plen
    return blob[:12], tuple(sections)


class TestParserFuzz:
    """Outside bytes and text give a value or an InputError (exit 2), nothing else."""

    @settings(max_examples=150, deadline=None)
    @given(ihdr_len=st.integers(0, 14), in_payloads=st.booleans(),
           edits=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)),
                          max_size=4))
    def test_mutated_png(self, ihdr_len, in_payloads, edits):
        # edits inside the payloads get fresh CRCs, so they reach the header
        # and pixel-stream checks; edits anywhere else mostly meet the CRC
        payloads = bytearray((_FUZZ_IHDR + b"\0")[:ihdr_len] + _FUZZ_IDAT)
        for pos, value in edits if in_payloads else ():
            payloads[pos % len(payloads)] = value
        blob = bytearray(_png(bytes(payloads[:ihdr_len]), bytes(payloads[ihdr_len:])))
        for pos, value in () if in_payloads else edits:
            blob[pos % len(blob)] = value
        try:
            pixels = decode_png(bytes(blob))
        except InputError:
            return
        assert pixels.dtype == np.uint8

    @settings(max_examples=150, deadline=None)
    @given(line=st.one_of(
        st.text(max_size=40),
        st.builds("{} = {}".format, st.sampled_from(_FUZZ_KEYS), st.text(max_size=30))))
    def test_arbitrary_config_text(self, line):
        try:
            apply_assignments(parse_assignments([line], "--set"))
        except InputError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_edited_checkpoint_metadata(self, data):
        # one value of the meta or configs JSON is replaced or deleted, and
        # the file is re-packed with fresh CRCs, so the edit reaches the parser
        header, sections = _fuzz_checkpoint_sections()
        target = data.draw(st.sampled_from([b"meta", b"configs"]))
        doc = json.loads(dict(sections)[target])
        node = doc
        while True:
            key = data.draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
                break
            node = child
        if isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(_FUZZ_JSON)
        sections = [(n, json.dumps(doc).encode() if n == target else p)
                    for n, p in sections]
        _load_or_refuse(_pack_sections(header, sections))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_edited_checkpoint_arrays(self, data):
        # one array section gets a new rank, one new dimension or a payload
        # cut or grown, re-packed with fresh CRCs
        header, sections = _fuzz_checkpoint_sections()
        arrays = [i for i, (n, _) in enumerate(sections) if n not in (b"meta", b"configs")]
        i = data.draw(st.sampled_from(arrays))
        payload = bytearray(sections[i][1])
        edit = data.draw(st.sampled_from(["rank", "dim", "length"]))
        if edit == "rank":
            payload[0] = data.draw(st.integers(0, 255))
        elif edit == "dim" and payload[0] > 0:
            at = 1 + 8 * data.draw(st.integers(0, payload[0] - 1))
            payload[at:at + 8] = struct.pack("<Q", data.draw(st.integers(0, (1 << 64) - 1)))
        else:
            cut = data.draw(st.integers(0, len(payload)))
            payload = payload[:cut] + data.draw(st.binary(max_size=24))
        sections = list(sections)
        sections[i] = (sections[i][0], bytes(payload))
        _load_or_refuse(_pack_sections(header, sections))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_arbitrary_checkpoint_container(self, data):
        # arbitrary bytes, bytes after a valid header, or a saved file with
        # byte edits and a cut end; edits that miss a section header mostly
        # meet a checksum
        header, sections = _fuzz_checkpoint_sections()
        kind = data.draw(st.sampled_from(["bytes", "after_header", "mutated"]))
        if kind == "bytes":
            blob = data.draw(st.binary(max_size=64))
        elif kind == "after_header":
            blob = header + data.draw(st.binary(max_size=64))
        else:
            blob = bytearray(_pack_sections(header, sections))
            for pos, value in data.draw(st.lists(
                    st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)),
                    max_size=4)):
                blob[pos] = value
            blob = bytes(blob[:data.draw(st.integers(0, len(blob)))])
        try:
            parsed = _read_sections(blob)
        except InputError:
            return
        assert all(isinstance(n, str) and isinstance(p, memoryview)
                   for n, p in parsed.items())

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), label_blind=st.booleans())
    def test_manifest_bytes(self, data, label_blind):
        # arbitrary bytes, or the valid manifest with byte edits and a cut end
        if data.draw(st.booleans()):
            blob = data.draw(st.binary(max_size=64))
        else:
            blob = bytearray(_FUZZ_MANIFEST)
            for pos, value in data.draw(st.lists(
                    st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)),
                    max_size=4)):
                blob[pos] = value
            blob = bytes(blob[:data.draw(st.integers(0, len(blob)))])
        _load_manifest_or_refuse(blob, label_blind)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        vit, head, crop, distill, state = small_state()
        state.center += 0.5
        state.step = 7
        path = tmp_path / "c.ckpt"
        save_checkpoint(state, path, vit, head, crop, distill)
        loaded, v2, h2, c2, d2 = load_checkpoint(path)
        assert loaded.step == 7
        assert (v2, h2, c2, d2) == (vit, head, crop, distill)
        np.testing.assert_array_equal(loaded.center, state.center)
        for k in state.student:
            np.testing.assert_array_equal(loaded.student[k].data,
                                          state.student[k].data)
            assert loaded.student[k].requires_grad
            np.testing.assert_array_equal(loaded.teacher[k].data,
                                          state.teacher[k].data)
            assert not loaded.teacher[k].requires_grad
        assert loaded.rng.bit_generator.state == state.rng.bit_generator.state

    def test_flipped_byte_checksum_error(self, tmp_path):
        vit, head, crop, distill, state = small_state()
        path = tmp_path / "c.ckpt"
        save_checkpoint(state, path, vit, head, crop, distill)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"NOTMAGIC" + bytes(16))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        vit, head, crop, distill, state = small_state()
        path = tmp_path / "c.ckpt"
        save_checkpoint(state, path, vit, head, crop, distill)
        blob = bytearray(path.read_bytes())
        blob[8] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="format version 99"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        vit, head, crop, distill, state = small_state()
        path = tmp_path / "c.ckpt"
        save_checkpoint(state, path, vit, head, crop, distill)
        path.write_bytes(path.read_bytes()[:-30])
        with pytest.raises(CheckpointError, match="cut short"):
            load_checkpoint(path)

    def test_file_bytes_are_the_joined_writers(self, tmp_path):
        vit, head, crop, distill, state = small_state()
        train_loop(np.random.default_rng(3).random((4, 3, 16, 16)), state, vit, head,
                   crop, distill, n_steps=2)
        state.opt_m["head.fc2.w"] = np.asfortranarray(state.opt_m["head.fc2.w"])
        save_checkpoint(state, tmp_path / "streamed.ckpt", vit, head, crop, distill)
        _joined_save(state, tmp_path / "joined.ckpt", vit, head, crop, distill)
        assert ((tmp_path / "streamed.ckpt").read_bytes()
                == (tmp_path / "joined.ckpt").read_bytes())

    def test_save_holds_no_copy_of_the_state(self, tmp_path):
        vit = ViTConfig(image_size=16, patch_size=8, depth=1, embed_dim=8, n_heads=2)
        head = ProjectionHeadConfig(hidden_dim=16, bottleneck_dim=64, output_dim=4096)
        state = init_train_state(vit, head, seed=0)
        configs = (vit, head, MultiCropConfig(global_out_size=16, local_out_size=8),
                   DistillConfig())
        save_checkpoint(state, tmp_path / "warm.ckpt", *configs)
        tracemalloc.start()
        try:
            save_checkpoint(state, tmp_path / "c.ckpt", *configs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest = state.student["head.last.dir"].data.nbytes  # 2 MiB of an 8.3 MiB file
        assert (tmp_path / "c.ckpt").stat().st_size > 4 * largest
        # a few sections; packing and joining every section took twice the file
        assert peak < 2 * largest

    def test_load_holds_two_copies_of_the_file(self, tmp_path):
        # the file's bytes and the arrays copied out of them; slicing each
        # section out of the bytes made a third copy
        vit = ViTConfig(image_size=16, patch_size=8, depth=1, embed_dim=8, n_heads=2)
        head = ProjectionHeadConfig(hidden_dim=16, bottleneck_dim=64, output_dim=4096)
        state = init_train_state(vit, head, seed=0)
        path = tmp_path / "c.ckpt"
        save_checkpoint(state, path, vit, head,
                        MultiCropConfig(global_out_size=16, local_out_size=8),
                        DistillConfig())
        load_checkpoint(path)
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded[0].student["head.last.dir"].data,
                                      state.student["head.last.dir"].data)
        assert peak < 2.5 * path.stat().st_size

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        vit, head, crop, distill, state = small_state()
        original, names = checkpoint._write_array, []

        def fail_on_the_third(fh, name, arr):
            names.append(name)
            if len(names) == 3:
                raise OSError("disk full")
            original(fh, name, arr)

        monkeypatch.setattr(checkpoint, "_write_array", fail_on_the_third)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(state, tmp_path / "c.ckpt", vit, head, crop, distill)
        assert os.listdir(tmp_path) == []

    def test_resume_equivalence(self, tmp_path):
        # Twin-run: an uninterrupted 10-step run vs 5 steps, save, load, 5 more.
        vit, head, crop, distill, state = small_state()
        imgs = np.random.default_rng(9).random((4, 3, 16, 16))

        full_lines: list = []
        train_loop(imgs, state, vit, head, crop, distill, n_steps=10,
                   log_lines=full_lines)

        _, _, _, _, state2 = small_state()
        first: list = []
        train_loop(imgs, state2, vit, head, crop, distill, n_steps=5,
                   log_lines=first)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(state2, path, vit, head, crop, distill)
        resumed, v2, h2, c2, d2 = load_checkpoint(path)
        second: list = []
        train_loop(imgs, resumed, v2, h2, c2, d2, n_steps=5, log_lines=second)
        assert first + second == full_lines


class TestConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# nothing here\n\n")
        cfg = apply_assignments(read_config_file(path))
        assert cfg.distill.tau_t == 0.04
        assert cfg.distill.center_momentum == 0.9
        assert cfg.distill.clip_threshold == 3.0
        assert cfg.head.output_dim == 65536
        assert cfg.crop.n_local == 6
        assert cfg.vit.drop_path_rate == 0.10

    def test_file_values_applied(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("crop.n_local = 0\ndistill.batch_size = 4  # inline\n")
        cfg = apply_assignments(read_config_file(path))
        assert cfg.crop.n_local == 0
        assert cfg.distill.batch_size == 4

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("distill.tau_t = 0.05\n")
        cfg = apply_assignments({**read_config_file(path), "distill.tau_t": 0.07})
        assert cfg.distill.tau_t == 0.07

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="distill.bogus"):
            apply_assignments({"distill.bogus": 1})

    def test_negative_temperature_rejected(self):
        with pytest.raises(ConfigError):
            apply_assignments({"distill.tau_t": -1})

    @pytest.mark.parametrize("key, value", [("crop.global_out_size", 20),
                                            ("crop.local_out_size", 12)])
    def test_crop_of_partial_patches_names_both_keys(self, key, value):
        with pytest.raises(ConfigError, match=rf"{key} = {value} .*vit\.patch_size = 8"):
            apply_assignments({key: value, "vit.patch_size": 8})

    def test_crop_sizes_checked_against_the_resolved_patch_size(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("vit.patch_size = 16\n")
        cfg = apply_assignments({**read_config_file(path), "crop.local_out_size": 32})
        assert cfg.crop.local_out_size == 32
        with pytest.raises(ConfigError, match="vit.patch_size = 16"):
            apply_assignments({**read_config_file(path), "crop.local_out_size": 40})
        # no local crop is made, so its size is not embedded
        cfg = apply_assignments({"crop.n_local": 0, "crop.local_out_size": 12})
        assert cfg.crop.local_out_size == 12
        with pytest.raises(ConfigError, match="crop.global_out_size"):
            RunConfig(vit=ViTConfig(patch_size=16), crop=MultiCropConfig(global_out_size=40))

    def test_tuple_values(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("crop.global_scale_range = (0.5, 1.0)\n")
        cfg = apply_assignments(read_config_file(path))
        assert cfg.crop.global_scale_range == (0.5, 1.0)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("distill.tau_t 0.04\n")
        with pytest.raises(ConfigError, match=":1"):
            apply_assignments(read_config_file(path))

    @pytest.mark.parametrize("key, value", [
        ("vit.depth", "x"), ("vit.depth", True), ("vit.depth", 2.0),
        ("distill.tau_t", False), ("distill.tau_t", "0.1"),
        ("crop.global_scale_range", (0.5, True)),
        ("crop.blur_sigma", (0.1, "a"))])
    def test_value_of_another_kind_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key.split(".")[1]):
            apply_assignments({key: value})

    def test_int_for_float_and_list_for_tuple(self):
        # an int is stored as the float it stands for: one past int64 stored
        # as an int made numpy build object arrays
        cfg = apply_assignments({"distill.tau_t": 1,
                                 "crop.blur_sigma": [0.2, 1],
                                 "knn.temperature": 10 ** 30})
        assert cfg.distill.tau_t == 1
        assert cfg.crop.blur_sigma == (0.2, 1)
        assert cfg.knn.temperature == 1e30
        assert all(type(v) is float for v in (cfg.distill.tau_t, *cfg.crop.blur_sigma,
                                              cfg.knn.temperature))

    @pytest.mark.parametrize("value", ["{[]: 1}", "+" * 5000 + "1", "-" * 100000 + "1"],
                             ids=["unhashable_key", "deep", "deeper"])
    def test_unparsable_value_is_a_config_error(self, value):
        # literal_eval raises TypeError, RecursionError and MemoryError here
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_assignments([f"vit.depth = {value}"], "--set")

    def test_parse_assignments_plain(self):
        out = parse_assignments(["a.b = 1", "c.d = 'x'"], "--set")
        assert out == {"a.b": 1, "c.d": "x"}
