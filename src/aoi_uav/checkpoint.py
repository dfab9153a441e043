"""Binary checkpoint container for named float64 tensors.

Layout: 8-byte magic, u32 format version, then named-tensor records
(u32 name length, name bytes, u32 rank, u32 dims, little-endian float64
payload) until 4 bytes before EOF, which hold the CRC32 of everything
preceding them.  Records round-trip in insertion order, so save -> load ->
save reproduces the bytes exactly.  A container whose CRC holds but whose
records do not parse (a length past the end, a name that is not UTF-8, a
repeated name) is a `CheckpointError` too.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

MAGIC = b"AOIUAV1\x00"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed container or record, bad CRC, or unsupported version."""


def dump_tensors(tensors: dict[str, np.ndarray]) -> bytes:
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
    for name, array in tensors.items():
        data = np.ascontiguousarray(array, dtype="<f8")
        name_bytes = name.encode("utf-8")
        parts.append(struct.pack("<I", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<I", data.ndim))
        parts.append(struct.pack(f"<{data.ndim}I", *data.shape))
        parts.append(data.tobytes())
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def load_tensors(blob: bytes) -> dict[str, np.ndarray]:
    if len(blob) < len(MAGIC) + 8:
        raise CheckpointError("container too short")
    body, crc_bytes = blob[:-4], blob[-4:]
    (stored_crc,) = struct.unpack("<I", crc_bytes)
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
            name = body[offset:offset + name_len].decode("utf-8")
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
            out[name] = payload.reshape(dims).astype(np.float64)
    except (struct.error, ValueError, OverflowError) as err:  # UnicodeDecodeError too
        raise CheckpointError(f"malformed record at byte {offset}: {err}") from None
    return out


def save(path: str, tensors: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(dump_tensors(tensors))


def load(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        return load_tensors(fh.read())
