"""VDMK checkpoint files.

Layout: magic "VDMK", format version (u32 LE), tensor count (u32 LE), a
directory of (name length u32, UTF-8 name, rank u64, dims u64..., payload
byte offset u64), the little-endian float64 payloads, and a trailing CRC32
(u32 LE) of everything before it. Round-trips are bit-exact.

Neither direction holds the file in memory: `save_checkpoint` streams the
arrays' own bytes, and `load_checkpoint` checks the CRC a chunk at a time,
then reads each tensor's payload straight into an array of its own. No
loaded tensor keeps another alive, so a model that keeps some of them
(a pruned student) holds only those.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .tensor import Tensor

MAGIC = b"VDMK"
VERSION = 1

_CRC_CHUNK = 1 << 16


def save_checkpoint(params: dict[str, Tensor], path) -> None:
    names = sorted(params)
    # np.require keeps a 0-d tensor 0-d, where ascontiguousarray makes it (1,)
    arrays = [np.require(params[name].data, "<f8", "C") for name in names]
    head = bytearray(MAGIC + struct.pack("<II", VERSION, len(names)))
    offset = 0
    for name, data in zip(names, arrays):
        raw = name.encode("utf-8")
        head += struct.pack(f"<I{len(raw)}sQ{data.ndim}QQ", len(raw), raw, data.ndim, *data.shape, offset)
        offset += data.nbytes
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "wb") as f:
        f.write(head)
        crc = zlib.crc32(head)
        for data in arrays:
            f.write(data)
            crc = zlib.crc32(data, crc)
        f.write(struct.pack("<I", crc))
    tmp.replace(path)


def load_checkpoint(path) -> dict[str, Tensor]:
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size - 4  # where the CRC starts
        if end < 12:
            raise CheckpointError(f"{path}: truncated file")
        crc, left = 0, end
        while left:
            chunk = f.read(min(left, _CRC_CHUNK))
            if not chunk:
                raise CheckpointError(f"{path}: truncated file")
            crc = zlib.crc32(chunk, crc)
            left -= len(chunk)
        if struct.unpack("<I", f.read(4)) != (crc,):
            raise CheckpointError(f"{path}: checksum mismatch")
        f.seek(0)
        magic, version, count = struct.unpack("<4sII", f.read(12))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        pos = 12

        def take(nbytes: int) -> bytes:  # the next directory bytes, never past the CRC
            nonlocal pos
            if pos + nbytes > end:
                raise CheckpointError(f"{path}: truncated directory")
            pos += nbytes
            return f.read(nbytes)

        entries = {}  # name -> (dims, offset)
        for _ in range(count):
            (nlen,) = struct.unpack("<I", take(4))
            try:
                name = take(nlen).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: tensor name is not UTF-8") from exc
            (rank,) = struct.unpack("<Q", take(8))
            dims = struct.unpack(f"<{rank}Q", take(8 * rank))
            (offset,) = struct.unpack("<Q", take(8))
            if name in entries:
                raise CheckpointError(f"{path}: tensor {name!r} is named twice")
            entries[name] = (dims, offset)
        size = end - pos
        for name, (dims, offset) in entries.items():  # Python ints: no product overflows
            if offset % 8:
                raise CheckpointError(f"{path}: payload for {name!r} is not 8-byte aligned")
            if offset + 8 * math.prod(dims) > size:
                raise CheckpointError(f"{path}: payload for {name!r} out of bounds")
        params = {}
        for name, (dims, offset) in entries.items():
            try:
                arr = np.empty(dims, dtype="<f8")
            except ValueError as exc:
                raise CheckpointError(f"{path}: tensor {name!r} has unusable shape {dims}") from exc
            f.seek(pos + offset)
            if f.readinto(arr.reshape(-1)) != arr.nbytes:
                raise CheckpointError(f"{path}: truncated payload")
            params[name] = Tensor(arr, requires_grad=True)
    return params
