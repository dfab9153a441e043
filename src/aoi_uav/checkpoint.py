"""Binary checkpoint container for named float64 tensors.

Layout: 8-byte magic, u32 format version, then named-tensor records
(u32 name length, name bytes, u32 rank, u32 dims, little-endian float64
payload) until 4 bytes before EOF, which hold the CRC32 of everything
preceding them.  Records round-trip in insertion order, so save -> load ->
save reproduces the bytes exactly.  A container whose CRC holds but whose
records do not parse (a length past the end, a name that is not UTF-8, a
repeated name, a NaN or infinite value) is a `CheckpointError` too.

A dump is built in one pass: each payload is the C-contiguous ``<f8``
array itself, handed to ``zlib.crc32`` and the writer through the buffer
protocol, and the CRC is chained over the parts, so no part is copied to
append it.  A load parses a view of the blob and copies each payload
once, into an owned, writable float64 array.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

MAGIC = b"AOIUAV1\x00"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed container or record, bad CRC, or unsupported version."""


def _parts(tensors: dict[str, np.ndarray]) -> list:
    """The container as a list of bytes-like parts, the CRC last."""
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
    for name, array in tensors.items():
        data = np.require(array, "<f8", "C")    # keeps rank 0, unlike ascontiguousarray
        name_bytes = name.encode("utf-8")
        header = struct.pack(f"<I{len(name_bytes)}sI{data.ndim}I", len(name_bytes),
                             name_bytes, data.ndim, *data.shape)
        parts += [header, data]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(struct.pack("<I", crc))
    return parts


def dump_tensors(tensors: dict[str, np.ndarray]) -> bytes:
    return b"".join(_parts(tensors))


def load_tensors(blob: bytes) -> dict[str, np.ndarray]:
    if len(blob) < len(MAGIC) + 8:
        raise CheckpointError("container too short")
    body = memoryview(blob)[:-4]
    (stored_crc,) = struct.unpack_from("<I", blob, len(body))
    if zlib.crc32(body) != stored_crc:
        raise CheckpointError("CRC mismatch: checkpoint is corrupted")
    if body[:len(MAGIC)] != MAGIC:
        raise CheckpointError("bad magic: not a checkpoint container")
    offset = len(MAGIC)
    (version,) = struct.unpack_from("<I", body, offset)
    offset += 4
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    end = len(body)
    try:
        while offset < end:
            (name_len,) = struct.unpack_from("<I", body, offset)
            offset += 4
            name = str(body[offset:offset + name_len], "utf-8")
            if name in out:
                raise ValueError(f"tensor {name!r} repeated")
            offset += name_len
            (rank,) = struct.unpack_from("<I", body, offset)
            offset += 4
            dims = struct.unpack_from(f"<{rank}I", body, offset)
            offset += 4 * rank
            count = int(np.prod(dims, dtype=object))  # Python ints: no overflow
            payload = np.frombuffer(body, dtype="<f8", count=count, offset=offset)
            offset += 8 * count
            out[name] = payload.reshape(dims).astype(np.float64)  # the one copy
            if not np.isfinite(out[name]).all():
                raise ValueError(f"tensor {name!r} holds a non-finite value")
    except (struct.error, ValueError, OverflowError) as err:  # UnicodeDecodeError too
        raise CheckpointError(f"malformed record at byte {offset}: {err}") from None
    return out


def save(path: str, tensors: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_parts(tensors))


def load(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        return load_tensors(fh.read())
