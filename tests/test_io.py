from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sdah.io
from sdah.io import (
    FormatError,
    checkpoint_bytes,
    load_checkpoint,
    load_image,
    load_sdt1,
    save_checkpoint,
    save_sdt1,
    _sdt1_view,
    sdt1_bytes,
    to_u8,
    write_pgm,
    write_ppm,
)


def test_sdt1_frozen_byte_layout():
    arr = np.array([[1.0, 2.0]], dtype=np.float32)
    want = (
        b"SDT1"
        + bytes([0, 2, 0, 0])             # code f32, ndim 2, reserved
        + (1).to_bytes(4, "little")
        + (2).to_bytes(4, "little")
        + np.float32(1.0).tobytes()
        + np.float32(2.0).tobytes()
    )
    assert sdt1_bytes(arr) == want


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
@pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 4), (1, 2, 3, 4)])
def test_sdt1_round_trip(tmp_path, dtype, shape):
    rng = np.random.default_rng(0)
    if dtype is np.uint8:
        arr = rng.integers(0, 255, size=shape).astype(dtype)
    else:
        arr = rng.normal(size=shape).astype(dtype)
    p = tmp_path / "a.sdt"
    save_sdt1(p, arr)
    back = load_sdt1(p)
    assert back.dtype == arr.dtype and back.shape == arr.shape
    np.testing.assert_array_equal(back, arr)


def test_sdt1_rejects_unknown_dtype():
    with pytest.raises(FormatError):
        sdt1_bytes(np.zeros(3, dtype=np.int32))


def test_sdt1_bad_magic(tmp_path):
    p = tmp_path / "bad.sdt"
    p.write_bytes(b"XXXX" + bytes(16))
    with pytest.raises(FormatError):
        load_sdt1(p)


def test_sdt1_truncated_payload():
    good = sdt1_bytes(np.ones((4, 4), dtype=np.float32))
    with pytest.raises(FormatError):
        _sdt1_view(good[:-8], 0)


def test_checkpoint_every_truncation_raises_format_error(tmp_path):
    """A cut inside the magic, the count, a name length, a name, an SDT1
    magic, header, dims or payload reports FormatError naming that field,
    never struct.error."""
    blob = checkpoint_bytes({"a": np.arange(3, dtype=np.float32),
                             "bb": np.zeros((2, 2), dtype=np.uint8)})
    fields = [("bad SDCK magic", 4), ("SDCK tensor count truncated", 4)]
    for name, ndim, payload in (("a", 1, 12), ("bb", 2, 4)):
        fields += [("SDCK name length truncated", 2), ("SDCK tensor name truncated", len(name)),
                   ("bad SDT1 magic", 4), ("SDT1 header truncated", 4),
                   ("SDT1 dims truncated", 4 * ndim), ("SDT1 payload truncated", payload)]
    assert sum(size for _, size in fields) == len(blob)
    p, start = tmp_path / "c.sdck", 0
    for message, size in fields:
        for n in range(start, start + size):
            p.write_bytes(blob[:n])
            with pytest.raises(FormatError, match=f"^{message}$"):
                load_checkpoint(p)
        start += size


def test_sdt1_trailing_bytes(tmp_path):
    p = tmp_path / "t.sdt"
    p.write_bytes(sdt1_bytes(np.ones(2, dtype=np.float32)) + b"junk")
    with pytest.raises(FormatError):
        load_sdt1(p)


def test_load_image_gives_float32_chw(tmp_path):
    px = np.arange(12, dtype=np.uint8).reshape(3, 4)
    save_sdt1(tmp_path / "flat.sdt", px)
    got = load_image(tmp_path / "flat.sdt")
    assert got.dtype == np.float32 and got.shape == (1, 3, 4)
    np.testing.assert_array_equal(got[0], px)
    for shape in ((12,), (1, 1, 3, 4)):
        save_sdt1(tmp_path / "bad.sdt", px.reshape(shape))
        with pytest.raises(FormatError, match="2-D or"):
            load_image(tmp_path / "bad.sdt")


def test_checkpoint_round_trip_preserves_order(tmp_path):
    named = {
        "z.weight": np.random.default_rng(1).normal(size=(3, 3)).astype(np.float32),
        "a.bias": np.arange(4, dtype=np.float64),
        "mask": np.array([0, 1, 1], dtype=np.uint8),
    }
    p = tmp_path / "m.sdck"
    save_checkpoint(p, named)
    back = load_checkpoint(p)
    assert list(back) == list(named)  # insertion order survives
    for k in named:
        np.testing.assert_array_equal(back[k], named[k])
        assert back[k].dtype == named[k].dtype


def test_checkpoint_is_byte_stable():
    named = {"w": np.ones((2, 2), dtype=np.float32)}
    assert checkpoint_bytes(named) == checkpoint_bytes(named)


def test_checkpoint_duplicate_name_rejected(tmp_path):
    blob = checkpoint_bytes({"w": np.ones(1, dtype=np.float32)})
    # splice the single entry in twice and fix the count
    entry = blob[8:]
    forged = b"SDCK" + (2).to_bytes(4, "little") + entry + entry
    p = tmp_path / "dup.sdck"
    p.write_bytes(forged)
    with pytest.raises(FormatError):
        load_checkpoint(p)


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "x.sdck"
    p.write_bytes(b"NOPE")
    with pytest.raises(FormatError):
        load_checkpoint(p)


def test_checkpoint_trailing_bytes(tmp_path):
    p = tmp_path / "t.sdck"
    p.write_bytes(checkpoint_bytes({"w": np.ones(1, dtype=np.float32)}) + b"\x00")
    with pytest.raises(FormatError):
        load_checkpoint(p)


def test_loaded_arrays_are_writable_and_disjoint(tmp_path):
    """Each loaded array is a writable view of its own bytes: writing one
    changes no other, and the file on disk stays as it was."""
    rng = np.random.default_rng(3)
    named = {"a": rng.normal(size=(3, 5)).astype(np.float32),
             "b": np.arange(7, dtype=np.float64),
             "c": np.array([1, 2, 3], dtype=np.uint8),
             "d": np.float64(2.5) * np.ones(()),
             "e": rng.normal(size=(2, 2, 2)).astype(np.float32)}
    p = tmp_path / "m.sdck"
    save_checkpoint(p, named)
    back = load_checkpoint(p)
    arrays = list(back.values())
    for i, a in enumerate(arrays):
        assert a.flags.writeable
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    for name, arr in back.items():
        arr[...] = 0
        for other, want in named.items():
            if other != name:
                np.testing.assert_array_equal(back[other], want, err_msg=other)
        arr[...] = named[name]
    assert p.read_bytes() == checkpoint_bytes(named)


@pytest.mark.parametrize("load,blob", [
    (load_checkpoint, checkpoint_bytes({"w": np.ones(3, dtype=np.float32)})),
    (load_sdt1, sdt1_bytes(np.ones(3, dtype=np.float32))),
])
def test_a_short_read_is_a_format_error(load, blob, tmp_path, monkeypatch):
    """A file that yields fewer bytes than its size said (it shrank while
    being read) is rejected, not parsed from a zero-padded buffer."""
    p = tmp_path / "f.bin"
    p.write_bytes(blob)
    monkeypatch.setattr(sdah.io, "os", SimpleNamespace(
        fstat=lambda fd: SimpleNamespace(st_size=len(blob) + 4)))
    with pytest.raises(FormatError, match=f"^short read: {len(blob)} of {len(blob) + 4} bytes$"):
        load(p)


def test_pgm_header_and_payload(tmp_path):
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    p = tmp_path / "i.pgm"
    write_pgm(p, img)
    data = p.read_bytes()
    assert data.startswith(b"P5\n3 2\n255\n")
    assert data[len(b"P5\n3 2\n255\n"):] == img.tobytes()


def test_ppm_header_and_payload(tmp_path):
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    img[0, 0] = (255, 0, 0)
    p = tmp_path / "i.ppm"
    write_ppm(p, img)
    data = p.read_bytes()
    assert data.startswith(b"P6\n2 2\n255\n")
    assert len(data) == len(b"P6\n2 2\n255\n") + 12


def test_pgm_rejects_bad_input(tmp_path):
    with pytest.raises(FormatError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(FormatError):
        write_ppm(tmp_path / "x.ppm", np.zeros((2, 2, 4), dtype=np.uint8))


def test_to_u8_scaling():
    out = to_u8(np.array([0.0, 0.5, 1.0]))
    np.testing.assert_array_equal(out, [0, 128, 255])
    np.testing.assert_array_equal(to_u8(np.full(4, 3.3)), np.zeros(4, np.uint8))


@given(hnp.arrays(st.sampled_from([np.float32, np.float64]),
                  hnp.array_shapes(min_dims=1, max_dims=4, max_side=5),
                  elements=st.floats(-1e6, 1e6, width=32)))
def test_sdt1_bytes_round_trip_property(arr):
    back, end = _sdt1_view(sdt1_bytes(arr), 0)
    assert end == len(sdt1_bytes(arr))
    np.testing.assert_array_equal(back, arr)
    assert back.dtype == arr.dtype
