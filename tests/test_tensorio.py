"""Tensor container: float32 payloads behind a validated binary header."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from headlab.tensorio import MAGIC, TensorWriter, read_tensor

from oracles import tensor_bytes


def _read(tmp_path, blob: bytes) -> np.ndarray:
    """``read_tensor`` of a file holding ``blob``."""
    path = tmp_path / "t.bin"
    path.write_bytes(blob)
    return read_tensor(path)


def test_roundtrip_preserves_float32_exactly(tmp_path):
    arr = np.linspace(-3, 3, 24, dtype=np.float64).reshape(2, 3, 4)
    blob = tensor_bytes(arr)
    back = _read(tmp_path, blob)
    assert back.dtype == np.float32
    assert back.shape == (2, 3, 4)
    assert np.array_equal(back, arr.astype(np.float32))


def test_roundtrip_is_byte_stable(tmp_path):
    arr = np.float32([[1.5, -2.25], [0.0, 3e-9]])
    blob = tensor_bytes(arr)
    assert tensor_bytes(_read(tmp_path, blob)) == blob


def test_file_roundtrip(tmp_path):
    arr = np.arange(16, dtype=np.float32).reshape(4, 4)
    assert np.array_equal(_read(tmp_path, tensor_bytes(arr)), arr)


def test_file_read_is_writable(tmp_path):
    back = _read(tmp_path, tensor_bytes(np.ones((2, 3))))
    back[0, 0] = 5.0
    assert back.sum() == 10.0


def test_streamed_rows_equal_one_write(tmp_path):
    arr = np.linspace(-1, 1, 7 * 3 * 2).reshape(7, 3, 2)
    path = tmp_path / "t.bin"
    with TensorWriter(path, arr.shape) as writer:
        for start in range(0, 7, 3):
            writer.append(arr[start:start + 3])
    assert path.read_bytes() == tensor_bytes(arr)


def test_writer_rejects_rows_that_do_not_fit(tmp_path):
    with TensorWriter(tmp_path / "t.bin", (2, 3)) as writer:
        with pytest.raises(ValueError):
            writer.append(np.zeros((1, 4)))
        writer.append(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            writer.append(np.zeros((1, 3)))
    with pytest.raises(ValueError, match="1 of 2 rows"):
        with TensorWriter(tmp_path / "u.bin", (2, 3)) as writer:
            writer.append(np.zeros((1, 3)))


def test_non_contiguous_input_ok(tmp_path):
    arr = np.arange(36, dtype=np.float32).reshape(6, 6)[::2, ::2]
    back = _read(tmp_path, tensor_bytes(arr))
    assert np.array_equal(back, arr)


def test_header_starts_with_magic():
    blob = tensor_bytes(np.zeros(3, dtype=np.float32))
    assert blob[:4] == MAGIC


def test_rejects_bad_magic(tmp_path):
    blob = bytearray(tensor_bytes(np.zeros(3, dtype=np.float32)))
    blob[0] ^= 0xFF
    with pytest.raises(ValueError, match="bad magic"):
        _read(tmp_path, bytes(blob))


def test_rejects_truncation(tmp_path):
    blob = tensor_bytes(np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="payload holds 15 bytes"):
        _read(tmp_path, blob[:-1])
    with pytest.raises(ValueError, match="before header end"):
        _read(tmp_path, blob[:6])


def test_rejects_trailing_garbage(tmp_path):
    blob = tensor_bytes(np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="payload holds 17 bytes"):
        _read(tmp_path, blob + b"\x00")


def test_rejects_unknown_version(tmp_path):
    blob = bytearray(tensor_bytes(np.zeros(2, dtype=np.float32)))
    blob[4] = 99  # version field follows the 4-byte magic
    with pytest.raises(ValueError, match="version 99"):
        _read(tmp_path, bytes(blob))


def test_rejects_unknown_dtype(tmp_path):
    blob = bytearray(tensor_bytes(np.zeros(2, dtype=np.float32)))
    blob[8] = 7  # dtype byte follows the u32 version
    with pytest.raises(ValueError, match="dtype code 7"):
        _read(tmp_path, bytes(blob))


def _damaged_blobs():
    blob = tensor_bytes(np.zeros((2, 2), dtype=np.float32))
    bad_magic = bytearray(blob)
    bad_magic[0] ^= 0xFF
    huge_rank = bytearray(blob)
    huge_rank[9:13] = (2**32 - 1).to_bytes(4, "little")  # rank follows the dtype
    return [blob[:-1], blob[:6], blob[:15], blob + b"\x00", bytes(bad_magic),
            bytes(huge_rank)]


@pytest.mark.parametrize("blob", _damaged_blobs(),
                         ids=["payload", "header", "dims", "trailing", "magic",
                              "rank"])
def test_file_read_rejects_what_the_blob_parser_rejects(tmp_path, blob):
    with pytest.raises(ValueError):
        _read(tmp_path, blob)


@st.composite
def _near_tensor_blobs(draw) -> bytes:
    """Bytes shaped like a tensor: header fields valid or not, a rank that
    may disagree with the dimension list, huge dimensions, a payload of the
    right length or of any, and maybe a cut."""
    dims = draw(st.lists(st.integers(0, 3), max_size=3)
                | st.lists(st.integers(0, 2**32 - 1), max_size=4))
    size = 4 * int(np.prod(dims, dtype=object))
    fitting = (st.binary(min_size=size, max_size=size) if size <= 80
               else st.nothing())
    blob = (draw(st.just(MAGIC) | st.binary(min_size=4, max_size=4))
            + struct.pack("<IBI", draw(st.just(1) | st.integers(0, 2)),
                          draw(st.just(0) | st.integers(0, 1)),
                          max(0, len(dims) + draw(st.just(0)
                                                  | st.integers(-1, 1))))
            + struct.pack(f"<{len(dims)}I", *dims)
            + draw(fitting | st.binary(max_size=80)))
    cut = draw(st.none() | st.integers(0, len(blob)))
    return blob[:cut]


@example(blob=MAGIC + struct.pack("<IBI", 1, 0, 0) + bytes(4))  # a scalar
@given(blob=st.binary(max_size=40) | _near_tensor_blobs())
def test_any_bytes_give_an_array_or_a_value_error(tmp_path_factory, blob):
    """What the reader accepts is a tensor whose own bytes are ``blob``."""
    try:
        array = _read(tmp_path_factory.getbasetemp(), blob)
    except ValueError:
        return
    assert tensor_bytes(array) == blob
