"""Minimal image file support: 8-bit PNG, the one image format.

PNG handling covers exactly what the rest of the library needs: 8-bit
grayscale or RGB, no interlacing, no palette, no alpha. The encoder writes
filter type 0 on every scanline; the decoder undoes all five filter types,
for a block of same-header files at once.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import DataFormatError, DecodeError, InputError

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
# A block of files holds at most this many filtered bytes (or one file, if a
# single image is larger): enough files for the per-pass cost of unfiltering
# to be shared (301 files of 48 px RGB), few enough that a block's
# working memory stays small beside the float64 result.
_BLOCK_VALUES = 1 << 21
# deflate expands at most 258 bytes from every 2 bits: 1032 to 1
_MAX_INFLATE_RATIO = 1032


def _chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def encode_png(pixels: np.ndarray) -> bytes:
    """Encode an 8-bit image as PNG, every scanline of filter type 0.

    pixels: (H, W) uint8 for grayscale, or (H, W, 3) uint8 for RGB, with no
    side of 0, as the decoder requires.
    """
    if pixels.dtype != np.uint8:
        raise DataFormatError(f"encode_png needs uint8 pixels, got {pixels.dtype}")
    if not (pixels.ndim == 2 or pixels.ndim == 3 and pixels.shape[2] == 3):
        raise DataFormatError(f"unsupported pixel shape {pixels.shape}")
    if 0 in pixels.shape:
        raise DataFormatError(f"cannot encode a {pixels.shape[1]}x{len(pixels)} image")
    color_type = 0 if pixels.ndim == 2 else 2
    ihdr = struct.pack(">IIBBBBB", pixels.shape[1], len(pixels), 8, color_type, 0, 0, 0)
    rows = np.pad(pixels.reshape(len(pixels), -1), ((0, 0), (1, 0)))
    return (PNG_SIGNATURE
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(rows.tobytes()))
            + _chunk(b"IEND", b""))


# Per filter type 0..4 (None, Sub, Up, Average, Paeth): the offsets added to
# Paeth's distances pa and pb, and the weights of the Average term and of c
# in the predictor (see _add_predictors). -_FAR makes a distance the smallest and
# +_FAR makes it lose to every other, so Sub and Up rows are Paeth rows whose
# choice is fixed (a, or b), and None and Average rows choose neither a nor
# b. _FAR exceeds every distance, the largest being pc = |a + b - 2c| <= 510.
_FAR = 1024
_ROW_COEFFICIENTS = np.array([[_FAR, -_FAR, _FAR, _FAR, 0],   # added to pa
                              [_FAR, _FAR, -_FAR, _FAR, 0],   # added to pb
                              [0, 0, 0, 1, 0],                # Average term
                              [0, 1, 1, 1, 1]],               # c
                             dtype=np.int16)


def _unfilter(buf: np.ndarray, types: np.ndarray) -> None:
    """Undo the PNG scanline filters of N pixel streams of one header, in place.

    buf: ((h + 1) * (w + 1), N, channels) uint8, the images pixel-major with
    the files and channels innermost, below a zero pad row and right of a
    zero pad column: pixel (y, x) of file i is buf[(y + 1) * (w + 1) + x + 1, i],
    holding its filtered byte. types: (h, N), the filter type of every row,
    already checked to be 0..4.

    Under every filter type pixel (y, x) depends only on its left (a), upper
    (b) and upper-left (c) neighbours, so the pixels of one anti-diagonal
    y + x = d are independent of each other: h + w - 1 passes, each over
    diagonal d of every file, decode the block. Pixel (y, x) is entry
    y * w + d + w + 2, so diagonal d is every w-th entry from its first row
    to its last, and a, b and c are that slice moved back by 1, w + 1 and
    w + 2 entries. b and a are consecutive entries of diagonal d - 1, read
    once a pass, and c is the previous pass's read of diagonal d - 2.
    """
    h, n = types.shape
    w = len(buf) // (h + 1) - 1
    # the row coefficients spelled out over the channels too, so that no
    # operand of a pass broadcasts along its innermost axis; int16 like the
    # pass's arrays, because on a small image a bool x int16 product costs
    # about a microsecond more per call
    off_a, off_b, is_avg, keep_c = _ROW_COEFFICIENTS[:, np.broadcast_to(
        types[:, :, None], types.shape + buf.shape[2:])]
    prev, prev_lo = np.zeros((1,) + buf.shape[1:], dtype=np.int16), 0
    for d in range(h + w - 1):
        lo, hi = max(0, d - w + 1), min(h, d + 1)  # the rows diagonal d crosses
        start, stop = lo * w + d + w + 2, (hi - 1) * w + d + w + 3
        cur = buf[start:stop:w]
        # diagonal d - 1 over rows lo - 1 .. hi - 1: b of each pixel, then its a
        ab = buf[start - w - 1:stop - 1:w].astype(np.int16)
        c = prev[lo - prev_lo:hi - prev_lo]  # diagonal d - 2 over rows lo - 1 .. hi - 2
        prev, prev_lo = ab, lo
        _add_predictors(cur, ab[1:], ab[:-1], c, off_a[lo:hi], off_b[lo:hi],
                        is_avg[lo:hi], keep_c[lo:hi])


def _add_predictors(cur, a, b, c, off_a, off_b, is_avg, keep_c) -> None:
    """Add the PNG predictor of each pixel of one diagonal into its filtered
    byte, modulo 256. cur: the filtered bytes, uint8; a, b, c: the pixels'
    left, upper and upper-left neighbours, int16 (c is overwritten); the rest:
    their rows' coefficients from _ROW_COEFFICIENTS.

    The predictor is c [not None] + (s >> 1) [Average] + u [a wins]
    + v [b wins], with u = a - c, v = b - c and s = u + v: Sub is c + u, Up
    is c + v, Average's (a + b) >> 1 is c + (s >> 1), and Paeth, which
    predicts whichever of a, b, c is nearest a + b - c with ties going to a,
    then b, is c + u [a wins] + v [b wins], from its distances pa = |v|,
    pb = |u| and pc = |u + v|. Temporaries are reused, and the last sums go
    to spent arrays rather than in place, which numpy serves faster on a
    diagonal of a few pixels; the temporaries die with the call.
    """
    u = a - c
    v = b - c
    s = u + v
    pc = np.abs(s)
    s >>= 1
    s *= is_avg
    c *= keep_c
    c += s
    pb = np.abs(u, out=s)
    pb += off_b
    b_wins = pb <= pc
    m = np.minimum(pb, pc, out=pc)
    pa = np.abs(v, out=pb)  # pb is spent
    pa += off_a
    a_wins = pa <= m
    np.greater(b_wins, a_wins, out=b_wins)
    # pa and m are spent
    paeth = np.add(np.multiply(u, a_wins, out=pa), np.multiply(v, b_wins, out=m), out=u)
    np.add(cur, np.add(c, paeth, out=v), out=cur, casting="unsafe")


def inflate_png(blob: bytes) -> tuple[np.ndarray, int]:
    """Check and inflate an 8-bit non-interlaced grayscale or RGB PNG.

    Returns its filtered scanlines, (h, w * channels + 1) uint8 with each row
    led by a filter type of 0..4, and its channel count (1 or 3).
    """
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
    rows = np.frombuffer(raw, dtype=np.uint8)
    if len(rows) < need:
        raise DecodeError("PNG pixel stream shorter than the header promises")
    rows = rows.reshape(h, need // h)
    bad = np.flatnonzero(rows[:, 0] > 4)
    if len(bad):
        raise DecodeError(f"unknown PNG filter type {rows[bad[0], 0]} on row {bad[0]}")
    return rows, channels


class _Block:
    """Files of one channel count, read in order straight into the array
    that decodes them. A block that a file with a filtered row opens is the
    zero-padded wavefront buffer of _unfilter, with the filter type of every
    row beside it. A block that a file whose rows all use filter 0 opens
    needs no decoding: the scanlines go to a file-major array whole."""

    def __init__(self, files: int, shape: tuple[int, int], kind: tuple[int, bool]):
        self.kind, self.files, self.count = kind, files, 0
        channels, filtered = kind
        h, w = shape[0], (shape[1] - 1) // channels
        self.size = h, w, channels
        if filtered:
            self.buf = np.zeros(((h + 1) * (w + 1), files, channels), dtype=np.uint8)
            self.types = np.empty((h, files), dtype=np.uint8)
            grid = self.buf.reshape(h + 1, w + 1, files, channels)
            self.pixels = grid[1:, 1:].transpose(2, 0, 1, 3)
        else:
            self.rows = np.empty((files,) + shape, dtype=np.uint8)

    def takes(self, kind: tuple[int, bool]) -> bool:
        """Whether the block has room for a file of this kind: of its channel
        count, and filtered only if the block is a wavefront buffer (a
        filter-0 file costs that nothing, and interleaved files of both
        kinds keep sharing one block)."""
        return (self.count < self.files and kind[0] == self.kind[0]
                and kind[1] <= self.kind[1])

    def add(self, rows: np.ndarray) -> None:
        """Read one file's scanlines, of the block's size, into the block."""
        if self.kind[1]:
            self.pixels[self.count] = rows[:, 1:].reshape(self.size)
            self.types[:, self.count] = rows[:, 0]
        else:
            self.rows[self.count] = rows
        self.count += 1

    def decode(self) -> np.ndarray:
        """The block's files decoded, (count, h, w, channels) uint8."""
        n = self.count
        if not self.kind[1]:
            return self.rows[:n, :, 1:].reshape((n,) + self.size)
        _unfilter(self.buf[:, :n], self.types[:, :n])
        return self.pixels[:n]


def _kind(rows: np.ndarray, channels: int) -> tuple[int, bool]:
    """The channel count of a file's scanlines, and whether any row is filtered."""
    return channels, bool(np.count_nonzero(rows[:, 0]))


def decode_png(blob: bytes) -> np.ndarray:
    """Decode an 8-bit non-interlaced grayscale or RGB PNG to uint8 pixels."""
    rows, channels = inflate_png(blob)
    block = _Block(1, rows.shape, _kind(rows, channels))
    block.add(rows)
    pixels = block.decode()[0]
    return pixels[:, :, 0] if channels == 1 else pixels


def _read_rows(path) -> tuple[np.ndarray, int]:
    """Read a PNG file as inflate_png's (rows, channels). An error names the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return inflate_png(blob)
    except (DataFormatError, DecodeError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def decode_images(paths) -> np.ndarray:
    """Read a list of PNG files of one size into one (n, 3, H, W) array in
    [0, 1], gray replicated across the channels. Files are read one at a
    time into blocks (see _Block) of at most _BLOCK_VALUES filtered bytes;
    each block is decoded at once and written straight into the result, so
    the working memory is one block. An error names the file."""
    if not paths:
        return np.zeros((0, 3, 0, 0))
    out = block = None
    start = 0  # the block's first file

    def write_block():
        np.divide(block.decode().transpose(0, 3, 1, 2), 255.0,
                  out=out[start:start + block.count])

    for i, path in enumerate(paths):
        rows, ch = _read_rows(path)
        size = (rows.shape[0], (rows.shape[1] - 1) // ch)
        if out is None:
            out = np.empty((len(paths), 3) + size)
        elif size != out.shape[2:]:
            raise InputError(f"{path} is {size[0]}x{size[1]}, unlike "
                             f"{paths[0]}; images must share one size")
        kind = _kind(rows, ch)
        if block is not None and not block.takes(kind):
            write_block()
            block = None
        if block is None:
            start = i
            files = min(len(paths) - i, max(1, _BLOCK_VALUES // rows.size))
            block = _Block(files, rows.shape, kind)
        block.add(rows)
    write_block()
    return out


def decode_image(path) -> np.ndarray:
    """Read a PNG file into a (3, H, W) array in [0, 1]."""
    return decode_images([path])[0]


def encode_image(path, pixels01: np.ndarray) -> None:
    """Write a [0, 1] float image to a PNG file, whose name must end in .png.

    pixels01: (3, H, W) or (H, W). Values are clipped then rounded to 8 bits.
    """
    if not str(path).endswith(".png"):
        raise DataFormatError(f"{path}: an image file name must end in .png")
    arr = np.clip(np.asarray(pixels01, dtype=np.float64), 0.0, 1.0)
    quant = np.round(arr * 255.0).astype(np.uint8)
    if quant.ndim == 3:
        quant = quant.transpose(1, 2, 0)
    blob = encode_png(quant)
    with open(path, "wb") as fh:
        fh.write(blob)
