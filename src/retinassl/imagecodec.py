"""Minimal image file support: 8-bit PNG and binary portable pixmaps.

PNG handling covers exactly what the rest of the library needs: 8-bit
grayscale or RGB, no interlacing, no palette, no alpha. The encoder writes
filter type 0 on every scanline. Pixmaps (P6) and graymaps (P5) exist so
byte-level test fixtures do not need a compression codec.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import DataFormatError, DecodeError

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
# deflate expands at most 258 bytes from every 2 bits: 1032 to 1
_MAX_INFLATE_RATIO = 1032


def _chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def encode_png(pixels: np.ndarray) -> bytes:
    """Encode an 8-bit image as PNG.

    pixels: (H, W) uint8 for grayscale, or (H, W, 3) uint8 for RGB.
    """
    if pixels.dtype != np.uint8:
        raise DataFormatError(f"encode_png needs uint8 pixels, got {pixels.dtype}")
    if pixels.ndim == 2:
        color_type = 0
        raw = pixels[:, :, None]
    elif pixels.ndim == 3 and pixels.shape[2] == 3:
        color_type = 2
        raw = pixels
    else:
        raise DataFormatError(f"unsupported pixel shape {pixels.shape}")
    h, w = raw.shape[:2]
    scanlines = bytearray()
    for row in raw:
        scanlines.append(0)  # filter type 0 (None)
        scanlines.extend(row.tobytes())
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return (PNG_SIGNATURE
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(bytes(scanlines)))
            + _chunk(b"IEND", b""))


def _unfilter(data: bytes, h: int, w: int, channels: int) -> np.ndarray:
    stride = w * channels
    if len(data) < h * (stride + 1):
        raise DecodeError("PNG pixel stream shorter than the header promises")
    # The per-byte loops run on Python ints (bytes and lists both index to
    # int): numpy uint8 scalars would warn on every modulo-256 wrap. Whole
    # uint8 arrays wrap silently, so Up stays vectorized.
    out = bytearray()
    prev = bytes(stride)
    pos = 0
    for _ in range(h):
        ftype = data[pos]
        line = data[pos + 1:pos + 1 + stride]
        pos += stride + 1
        if ftype == 0:
            pass
        elif ftype == 1:  # Sub
            line = list(line)
            for x in range(channels, stride):
                line[x] = (line[x] + line[x - channels]) & 0xFF
        elif ftype == 2:  # Up
            line = (np.frombuffer(line, dtype=np.uint8)
                    + np.frombuffer(bytes(prev), dtype=np.uint8)).tobytes()
        elif ftype == 3:  # Average
            line = list(line)
            for x in range(stride):
                left = line[x - channels] if x >= channels else 0
                line[x] = (line[x] + (left + prev[x]) // 2) & 0xFF
        elif ftype == 4:  # Paeth
            line = list(line)
            for x in range(stride):
                a = line[x - channels] if x >= channels else 0
                b = prev[x]
                c = prev[x - channels] if x >= channels else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                if pa <= pb and pa <= pc:
                    pred = a
                elif pb <= pc:
                    pred = b
                else:
                    pred = c
                line[x] = (line[x] + pred) & 0xFF
        else:
            raise DecodeError(f"unknown PNG filter type {ftype}")
        out.extend(line)
        prev = line
    return np.frombuffer(out, dtype=np.uint8).reshape(h, w, channels)


def decode_png(blob: bytes) -> np.ndarray:
    """Decode an 8-bit non-interlaced grayscale or RGB PNG to uint8 pixels."""
    if not blob.startswith(PNG_SIGNATURE):
        raise DataFormatError("not a PNG stream (bad signature)")
    pos = len(PNG_SIGNATURE)
    ihdr = None
    idat = bytearray()
    while pos < len(blob):
        if pos + 8 > len(blob):
            raise DecodeError("truncated PNG chunk header")
        (length,) = struct.unpack_from(">I", blob, pos)
        tag = blob[pos + 4:pos + 8]
        payload = blob[pos + 8:pos + 8 + length]
        if len(payload) != length or pos + 12 + length > len(blob):
            raise DecodeError(f"truncated {tag!r} chunk")
        (crc,) = struct.unpack_from(">I", blob, pos + 8 + length)
        if crc != (zlib.crc32(tag + payload) & 0xFFFFFFFF):
            raise DecodeError(f"bad CRC in {tag!r} chunk")
        pos += 12 + length
        if tag == b"IHDR":
            ihdr = payload
        elif tag == b"IDAT":
            idat.extend(payload)
        elif tag == b"IEND":
            break
    if ihdr is None:
        raise DecodeError("PNG missing IHDR")
    if len(ihdr) != 13:
        raise DecodeError(f"PNG IHDR holds {len(ihdr)} bytes, not 13")
    w, h, depth, color_type, comp, filt, interlace = struct.unpack(">IIBBBBB", ihdr)
    if depth != 8:
        raise DataFormatError(f"only 8-bit PNG supported, got depth {depth}")
    if color_type not in (0, 2):
        raise DataFormatError(f"only grayscale/RGB PNG supported, got type {color_type}")
    if interlace != 0:
        raise DataFormatError("interlaced PNG not supported")
    if comp != 0 or filt != 0:
        raise DecodeError("nonstandard compression/filter method")
    if w == 0 or h == 0:
        raise DecodeError(f"PNG header gives a {w}x{h} image")
    channels = 1 if color_type == 0 else 3
    need = h * (w * channels + 1)
    if need > _MAX_INFLATE_RATIO * len(idat):
        raise DecodeError(f"a {w}x{h} image needs {need} pixel-stream bytes, more than "
                          f"{len(idat)} compressed bytes can hold")
    # keep no more than the header's pixel stream; the rest of the stream is
    # still inflated, in bounded pieces, so that its checksum is verified
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(idat, need)
        while not inflater.eof and inflater.decompress(inflater.unconsumed_tail, 1 << 16):
            pass
    except zlib.error as exc:
        raise DecodeError(f"corrupt PNG pixel stream: {exc}") from exc
    if not inflater.eof:
        raise DecodeError("corrupt PNG pixel stream: incomplete or truncated stream")
    pixels = _unfilter(raw, h, w, channels)
    return pixels[:, :, 0] if channels == 1 else pixels


def encode_pnm(pixels: np.ndarray) -> bytes:
    """Encode uint8 pixels as P6 (RGB) or P5 (grayscale)."""
    if pixels.dtype != np.uint8:
        raise DataFormatError(f"encode_pnm needs uint8 pixels, got {pixels.dtype}")
    if pixels.ndim == 2:
        magic = b"P5"
        h, w = pixels.shape
    elif pixels.ndim == 3 and pixels.shape[2] == 3:
        magic = b"P6"
        h, w = pixels.shape[:2]
    else:
        raise DataFormatError(f"unsupported pixel shape {pixels.shape}")
    return magic + f"\n{w} {h}\n255\n".encode() + pixels.tobytes()


def decode_pnm(blob: bytes) -> np.ndarray:
    """Decode binary P5/P6 with maxval 255."""
    if blob[:2] not in (b"P5", b"P6"):
        raise DataFormatError("not a binary portable pixmap/graymap")
    channels = 3 if blob[:2] == b"P6" else 1
    # Header: magic, width, height, maxval as whitespace-separated tokens,
    # with # comments allowed, then a single whitespace byte before pixels.
    tokens = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(blob):
            raise DecodeError("truncated pixmap header")
        c = blob[pos:pos + 1]
        if c == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(blob) and not blob[pos:pos + 1].isspace():
                pos += 1
            tokens.append(blob[start:pos])
    pos += 1  # the single whitespace after maxval
    if any(len(t) > 9 for t in tokens):
        raise DecodeError("pixmap width, height and maxval must have at most 9 digits")
    w, h, maxval = (int(t) if t.isdigit() else 0 for t in tokens)
    if min(w, h, maxval) < 1:
        raise DecodeError("pixmap width, height and maxval must be positive "
                          f"integers, got {b' '.join(tokens).decode(errors='replace')!r}")
    if maxval != 255:
        raise DataFormatError(f"only maxval 255 supported, got {maxval}")
    need = w * h * channels
    data = blob[pos:pos + need]
    if len(data) != need:
        raise DecodeError(f"pixmap needs {need} pixel bytes, found {len(data)}")
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(h, w, channels)
    return pixels[:, :, 0] if channels == 1 else pixels


def _to_float_chw(pixels: np.ndarray) -> np.ndarray:
    if pixels.ndim == 2:
        pixels = np.repeat(pixels[:, :, None], 3, axis=2)
    return pixels.astype(np.float64).transpose(2, 0, 1) / 255.0


def decode_image(path) -> np.ndarray:
    """Read a PNG or binary pixmap file into a (3, H, W) array in [0, 1].

    Grayscale inputs are replicated across the three channels.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob.startswith(PNG_SIGNATURE):
        return _to_float_chw(decode_png(blob))
    if blob[:2] in (b"P5", b"P6"):
        return _to_float_chw(decode_pnm(blob))
    raise DataFormatError(f"unknown image magic bytes in {path}")


def encode_image(path, pixels01: np.ndarray) -> None:
    """Write a [0, 1] float image to PNG or pixmap, chosen by file suffix.

    pixels01: (3, H, W) or (H, W). Values are clipped then rounded to 8 bits.
    """
    arr = np.clip(np.asarray(pixels01, dtype=np.float64), 0.0, 1.0)
    quant = np.round(arr * 255.0).astype(np.uint8)
    if quant.ndim == 3:
        quant = quant.transpose(1, 2, 0)
    name = str(path)
    if name.endswith(".png"):
        blob = encode_png(quant)
    elif name.endswith((".ppm", ".pgm", ".pnm")):
        blob = encode_pnm(quant)
    else:
        raise DataFormatError(f"cannot infer image format from suffix of {path}")
    with open(path, "wb") as fh:
        fh.write(blob)
