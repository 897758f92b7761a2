"""Tiny self-describing binary tensor format.

Layout, all little-endian:

* magic bytes ``HEAD``
* format version, u32 (currently 1)
* dtype code, u8 (0 = 32-bit float; nothing else is defined)
* rank, u32
* one u32 per dimension
* payload, row-major

Writers cast to float32; readers hand back exactly the stored float32 values,
so a save/load round trip is bit-exact on the stored bytes.  A
:class:`TensorWriter` writes the header of the whole tensor first and then
streams its payload in slices along the leading axis, so a tensor larger
than memory never has to be held at once.
"""

from __future__ import annotations

import os
import struct

import numpy as np

MAGIC = b"HEAD"
FORMAT_VERSION = 1
DTYPE_FLOAT32 = 0


def tensor_header(shape) -> bytes:
    """The header of a float32 tensor of ``shape``."""
    return (MAGIC + struct.pack("<IBI", FORMAT_VERSION, DTYPE_FLOAT32, len(shape))
            + struct.pack(f"<{len(shape)}I", *shape))


class TensorWriter:
    """Write a tensor of ``shape`` to ``path`` one slice of leading rows at
    a time: the bytes are the header of ``shape``, then every row's float32
    values in row-major order.

    Closing it before all ``shape[0]`` rows arrived raises ``ValueError``.
    """

    def __init__(self, path, shape):
        self.shape = tuple(int(d) for d in shape)
        self.rows = 0
        self._fh = open(path, "wb")
        self._fh.write(tensor_header(self.shape))

    def append(self, rows: np.ndarray) -> None:
        arr = np.ascontiguousarray(rows, dtype="<f4")
        if arr.shape[1:] != self.shape[1:] or self.rows + len(arr) > self.shape[0]:
            raise ValueError(f"{self._fh.name}: rows of shape {arr.shape} do not "
                             f"fit row {self.rows} of a tensor of shape {self.shape}")
        self._fh.write(arr.tobytes(order="C"))
        self.rows += len(arr)

    def close(self) -> None:
        self._fh.close()
        if self.rows != self.shape[0]:
            raise ValueError(f"{self._fh.name}: {self.rows} of {self.shape[0]} "
                             "rows written")

    def __enter__(self) -> "TensorWriter":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if kind is None:
            self.close()
        else:
            self._fh.close()


_HEAD_SIZE = len(MAGIC) + struct.calcsize("<IBI")


def _parse_header(head: bytes) -> tuple[tuple[int, ...], int]:
    """Shape and element count of the header at the start of ``head``."""
    if len(head) < _HEAD_SIZE:
        raise ValueError("tensor truncated before header end")
    if head[:4] != MAGIC:
        raise ValueError(f"bad magic {head[:4]!r}, expected {MAGIC!r}")
    version, dtype_code, rank = struct.unpack_from("<IBI", head, 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported tensor format version {version}")
    if dtype_code != DTYPE_FLOAT32:
        raise ValueError(f"unsupported dtype code {dtype_code}")
    if len(head) < _HEAD_SIZE + 4 * rank:
        raise ValueError("tensor truncated in dimension list")
    dims = struct.unpack_from(f"<{rank}I", head, _HEAD_SIZE)
    return dims, int(np.prod(dims, dtype=np.int64)) if rank else 1


def read_tensor(path) -> np.ndarray:
    """The tensor stored at ``path``; the payload is read once, straight
    into the array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEAD_SIZE)
        rank = (struct.unpack_from("<I", head, _HEAD_SIZE - 4)[0]
                if len(head) == _HEAD_SIZE else 0)
        dims, count = _parse_header(head + fh.read(min(4 * rank, size)))
        if size - fh.tell() != 4 * count:
            raise ValueError(f"payload holds {size - fh.tell()} bytes, "
                             f"expected {4 * count} for shape {dims}")
        return np.fromfile(fh, dtype="<f4", count=count).reshape(dims)
