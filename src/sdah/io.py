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
import struct
from pathlib import Path

import numpy as np

SDT1_MAGIC = b"SDT1"
SDCK_MAGIC = b"SDCK"

_CODE_OF_DTYPE = {np.dtype("<f4"): 0, np.dtype("<f8"): 1, np.dtype("u1"): 2}
_DTYPE_OF_CODE = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}


class FormatError(ValueError):
    """Malformed or unsupported file contents."""


def _unpack(fmt: str, buf: bytes, pos: int, what: str) -> tuple:
    """struct.unpack_from that reports a short buffer as a FormatError."""
    if pos + struct.calcsize(fmt) > len(buf):
        raise FormatError(f"{what} truncated")
    return struct.unpack_from(fmt, buf, pos)


def sdt1_bytes(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr)
    dt = arr.dtype.newbyteorder("<")
    if dt not in _CODE_OF_DTYPE:
        raise FormatError(f"SDT1 cannot store dtype {arr.dtype}")
    if arr.ndim > 255:
        raise FormatError("SDT1 supports at most 255 dims")
    head = SDT1_MAGIC + struct.pack(
        "<BBxx", _CODE_OF_DTYPE[dt], arr.ndim
    ) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + arr.astype(dt, copy=False).tobytes()


def _sdt1_view(buf, offset: int) -> tuple[np.ndarray, int]:
    """One SDT1 blob as a view into `buf` (writable when `buf` is) and the
    offset past it; magic, dtype code and every bound are checked first."""
    if buf[offset:offset + 4] != SDT1_MAGIC:
        raise FormatError("bad SDT1 magic")
    code, ndim = _unpack("<BBxx", buf, offset + 4, "SDT1 header")
    if code not in _DTYPE_OF_CODE:
        raise FormatError(f"unknown SDT1 dtype code {code}")
    pos = offset + 8
    dims = _unpack(f"<{ndim}I", buf, pos, "SDT1 dims")
    pos += 4 * ndim
    dtype = _DTYPE_OF_CODE[code]
    count = math.prod(dims)
    end = pos + count * dtype.itemsize
    if end > len(buf):
        raise FormatError("SDT1 payload truncated")
    return np.frombuffer(buf, dtype, count, pos).reshape(dims), end


def save_sdt1(path, arr: np.ndarray) -> None:
    Path(path).write_bytes(sdt1_bytes(arr))


def load_sdt1(path) -> np.ndarray:
    """The file's array, a writable view into one buffer holding the file."""
    buf = bytearray(Path(path).read_bytes())
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
    parts = [SDCK_MAGIC, struct.pack("<I", len(named))]
    for name, arr in named.items():
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise FormatError(f"tensor name too long: {name!r}")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(sdt1_bytes(arr))
    return b"".join(parts)


def save_checkpoint(path, named: dict[str, np.ndarray]) -> None:
    Path(path).write_bytes(checkpoint_bytes(named))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """The named arrays in entry order, each a writable view into one buffer
    holding the file: no array is copied, and no two overlap."""
    buf = bytearray(Path(path).read_bytes())
    if buf[:4] != SDCK_MAGIC:
        raise FormatError("bad SDCK magic")
    (count,) = _unpack("<I", buf, 4, "SDCK tensor count")
    pos = 8
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = _unpack("<H", buf, pos, "SDCK name length")
        pos += 2
        name = _unpack(f"<{nlen}s", buf, pos, "SDCK tensor name")[0].decode("utf-8")
        arr, pos = _sdt1_view(buf, pos + nlen)
        if name in out:
            raise FormatError(f"duplicate tensor name {name!r}")
        out[name] = arr
    if pos != len(buf):
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
