"""Tiny self-describing binary tensor format.

Layout, all little-endian:

* magic bytes ``HEAD``
* format version, u32 (currently 1)
* dtype code, u8 (0 = 32-bit float; nothing else is defined)
* rank, u32
* one u32 per dimension
* payload, row-major

Writers cast to float32; readers hand back exactly the stored float32 values,
so a save/load round trip is bit-exact on the stored bytes.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"HEAD"
FORMAT_VERSION = 1
DTYPE_FLOAT32 = 0


def tensor_bytes(array: np.ndarray) -> bytes:
    """Serialize an array (cast to float32) into the container format."""
    arr = np.ascontiguousarray(array, dtype="<f4")
    header = MAGIC + struct.pack("<IBI", FORMAT_VERSION, DTYPE_FLOAT32, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + dims + arr.tobytes(order="C")


def tensor_from_bytes(blob: bytes) -> np.ndarray:
    """Inverse of :func:`tensor_bytes`; raises ``ValueError`` on bad data."""
    head_size = len(MAGIC) + struct.calcsize("<IBI")
    if len(blob) < head_size:
        raise ValueError("tensor blob truncated before header end")
    if blob[:4] != MAGIC:
        raise ValueError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    version, dtype_code, rank = struct.unpack_from("<IBI", blob, 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported tensor format version {version}")
    if dtype_code != DTYPE_FLOAT32:
        raise ValueError(f"unsupported dtype code {dtype_code}")
    dims_size = 4 * rank
    if len(blob) < head_size + dims_size:
        raise ValueError("tensor blob truncated in dimension list")
    dims = struct.unpack_from(f"<{rank}I", blob, head_size)
    count = int(np.prod(dims, dtype=np.int64)) if rank else 1
    payload = blob[head_size + dims_size:]
    if len(payload) != 4 * count:
        raise ValueError(f"payload holds {len(payload)} bytes, "
                         f"expected {4 * count} for shape {dims}")
    return np.frombuffer(payload, dtype="<f4").reshape(dims).copy()


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return tensor_from_bytes(fh.read())
