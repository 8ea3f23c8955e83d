"""On-disk formats: SDT1 tensors, SDCK checkpoints, PGM/PPM images.

SDT1 layout: magic b"SDT1", u8 dtype code (0=float32, 1=float64, 2=uint8),
u8 ndim, two reserved zero bytes, ndim little-endian u32 dims, then the raw
little-endian row-major payload.

SDCK layout: magic b"SDCK", little-endian u32 tensor count, then per tensor
a u16 name length, the UTF-8 name, and an SDT1 blob.  Entry order is
preserved so checkpoints are byte-stable for a fixed parameter registry.
"""

from __future__ import annotations

import math
import os
import struct
from functools import lru_cache
from pathlib import Path

import numpy as np

SDT1_MAGIC = b"SDT1"
SDCK_MAGIC = b"SDCK"

_CODE_OF_DTYPE = {np.dtype("<f4"): 0, np.dtype("<f8"): 1, np.dtype("u1"): 2}
_DTYPE_OF_CODE = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}


class FormatError(ValueError):
    """Malformed or unsupported file contents."""


# the fields after each magic, compiled once: SDT1's dtype code and ndim,
# SDCK's tensor count, and an SDCK entry's name length
_SDT1_HEAD = struct.Struct("<BBxx")
_SDCK_COUNT = struct.Struct("<I")
_NAME_LEN = struct.Struct("<H")


@lru_cache(maxsize=None)
def _dims(ndim: int) -> struct.Struct:
    """SDT1's `ndim` u32 dims, compiled once per rank."""
    return struct.Struct(f"<{ndim}I")


def sdt1_bytes(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr)
    dt = arr.dtype.newbyteorder("<")
    if dt not in _CODE_OF_DTYPE:
        raise FormatError(f"SDT1 cannot store dtype {arr.dtype}")
    if arr.ndim > 255:
        raise FormatError("SDT1 supports at most 255 dims")
    head = (SDT1_MAGIC + _SDT1_HEAD.pack(_CODE_OF_DTYPE[dt], arr.ndim)
            + _dims(arr.ndim).pack(*arr.shape))
    return head + arr.astype(dt, copy=False).tobytes()


def _sdt1_view(buf, offset: int) -> tuple[np.ndarray, int]:
    """One SDT1 blob as a view into `buf` (writable when `buf` is) and the
    offset past it; magic, dtype code and every bound are checked first."""
    size = len(buf)
    if not buf.startswith(SDT1_MAGIC, offset):
        raise FormatError("bad SDT1 magic")
    if offset + 8 > size:
        raise FormatError("SDT1 header truncated")
    code, ndim = _SDT1_HEAD.unpack_from(buf, offset + 4)
    if code not in _DTYPE_OF_CODE:
        raise FormatError(f"unknown SDT1 dtype code {code}")
    pos = offset + 8 + 4 * ndim
    if pos > size:
        raise FormatError("SDT1 dims truncated")
    dims = _dims(ndim).unpack_from(buf, offset + 8)
    dtype = _DTYPE_OF_CODE[code]
    count = math.prod(dims)
    end = pos + count * dtype.itemsize
    if end > size:
        raise FormatError("SDT1 payload truncated")
    return np.frombuffer(buf, dtype, count, pos).reshape(dims), end


def _read(path) -> bytearray:
    """The whole file, read straight into one new bytearray of its size."""
    with open(path, "rb") as f:
        buf = bytearray(os.fstat(f.fileno()).st_size)
        if (n := f.readinto(buf)) != len(buf):
            raise FormatError(f"short read: {n} of {len(buf)} bytes")
    return buf


def save_sdt1(path, arr: np.ndarray) -> None:
    Path(path).write_bytes(sdt1_bytes(arr))


def load_sdt1(path) -> np.ndarray:
    """The file's array, a writable view into one buffer holding the file."""
    buf = _read(path)
    arr, end = _sdt1_view(buf, 0)
    if end != len(buf):
        raise FormatError("trailing bytes after SDT1 payload")
    return arr


def load_image(path) -> np.ndarray:
    """A float32 (C, H, W) image from an SDT1 file; a 2-D file gets one channel."""
    image = load_sdt1(path)
    image = image[None] if image.ndim == 2 else image
    if image.ndim != 3 or 0 in image.shape:
        raise FormatError(f"{path}: need a non-empty 2-D or (C, H, W) image, got {image.shape}")
    return image.astype(np.float32)


def checkpoint_bytes(named: dict[str, np.ndarray]) -> bytes:
    parts = [SDCK_MAGIC, _SDCK_COUNT.pack(len(named))]
    for name, arr in named.items():
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise FormatError(f"tensor name too long: {name!r}")
        parts.append(_NAME_LEN.pack(len(nb)))
        parts.append(nb)
        parts.append(sdt1_bytes(arr))
    return b"".join(parts)


def save_checkpoint(path, named: dict[str, np.ndarray]) -> None:
    Path(path).write_bytes(checkpoint_bytes(named))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """The named arrays in entry order, each a writable view into one buffer
    holding the file: no array is copied, and no two overlap."""
    buf = _read(path)
    size = len(buf)
    if not buf.startswith(SDCK_MAGIC):
        raise FormatError("bad SDCK magic")
    if size < 8:
        raise FormatError("SDCK tensor count truncated")
    (count,) = _SDCK_COUNT.unpack_from(buf, 4)
    pos = 8
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        if pos + 2 > size:
            raise FormatError("SDCK name length truncated")
        (nlen,) = _NAME_LEN.unpack_from(buf, pos)
        pos += 2 + nlen
        if pos > size:
            raise FormatError("SDCK tensor name truncated")
        name = buf[pos - nlen:pos].decode("utf-8")
        arr, pos = _sdt1_view(buf, pos)
        if name in out:
            raise FormatError(f"duplicate tensor name {name!r}")
        out[name] = arr
    if pos != size:
        raise FormatError("trailing bytes after last checkpoint entry")
    return out


# -- portable pixmaps ---------------------------------------------------------

def write_pgm(path, img: np.ndarray) -> None:
    """Binary PGM (P5) from a (H, W) u8 array."""
    img = np.ascontiguousarray(img)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise FormatError("PGM wants a 2-D uint8 array")
    h, w = img.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode() + img.tobytes())


def write_ppm(path, img: np.ndarray) -> None:
    """Binary PPM (P6) from a (H, W, 3) u8 array."""
    img = np.ascontiguousarray(img)
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise FormatError("PPM wants a (H, W, 3) uint8 array")
    h, w, _ = img.shape
    Path(path).write_bytes(f"P6\n{w} {h}\n255\n".encode() + img.tobytes())


def to_u8(arr: np.ndarray) -> np.ndarray:
    """Min-max scale to [0, 255]; constant arrays map to 0."""
    arr = np.asarray(arr, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        return np.zeros(arr.shape, dtype=np.uint8)
    return np.clip((arr - lo) / (hi - lo) * 255.0 + 0.5, 0, 255).astype(np.uint8)
