"""Tensor container: float32 payloads behind a validated binary header."""

import numpy as np
import pytest

from headlab.tensorio import (MAGIC, TensorWriter, read_tensor, tensor_bytes,
                              tensor_from_bytes)


def test_roundtrip_preserves_float32_exactly():
    arr = np.linspace(-3, 3, 24, dtype=np.float64).reshape(2, 3, 4)
    blob = tensor_bytes(arr)
    back = tensor_from_bytes(blob)
    assert back.dtype == np.float32
    assert back.shape == (2, 3, 4)
    assert np.array_equal(back, arr.astype(np.float32))


def test_roundtrip_is_byte_stable():
    arr = np.float32([[1.5, -2.25], [0.0, 3e-9]])
    blob = tensor_bytes(arr)
    assert tensor_bytes(tensor_from_bytes(blob)) == blob


def test_file_roundtrip(tmp_path):
    arr = np.arange(16, dtype=np.float32).reshape(4, 4)
    path = tmp_path / "t.bin"
    path.write_bytes(tensor_bytes(arr))
    assert np.array_equal(read_tensor(path), arr)


def test_file_read_is_writable(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(tensor_bytes(np.ones((2, 3))))
    back = read_tensor(path)
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


def test_non_contiguous_input_ok():
    arr = np.arange(36, dtype=np.float32).reshape(6, 6)[::2, ::2]
    back = tensor_from_bytes(tensor_bytes(arr))
    assert np.array_equal(back, arr)


def test_header_starts_with_magic():
    blob = tensor_bytes(np.zeros(3, dtype=np.float32))
    assert blob[:4] == MAGIC


def test_rejects_bad_magic():
    blob = bytearray(tensor_bytes(np.zeros(3, dtype=np.float32)))
    blob[0] ^= 0xFF
    with pytest.raises(ValueError):
        tensor_from_bytes(bytes(blob))


def test_rejects_truncation():
    blob = tensor_bytes(np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        tensor_from_bytes(blob[:-1])
    with pytest.raises(ValueError):
        tensor_from_bytes(blob[:6])


def test_rejects_trailing_garbage():
    blob = tensor_bytes(np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        tensor_from_bytes(blob + b"\x00")


def test_rejects_unknown_version():
    blob = bytearray(tensor_bytes(np.zeros(2, dtype=np.float32)))
    blob[4] = 99  # version field follows the 4-byte magic
    with pytest.raises(ValueError):
        tensor_from_bytes(bytes(blob))


def test_rejects_unknown_dtype():
    blob = bytearray(tensor_bytes(np.zeros(2, dtype=np.float32)))
    blob[8] = 7  # dtype byte follows the u32 version
    with pytest.raises(ValueError):
        tensor_from_bytes(bytes(blob))


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
        tensor_from_bytes(blob)
    path = tmp_path / "t.bin"
    path.write_bytes(blob)
    with pytest.raises(ValueError):
        read_tensor(path)
