"""Bit-exact query wire format: header, masked core payload, CRC32 trailer.

Layout (all integers little-endian):

    offset  size  field
    0       1     version (currently 1)
    1       6     ranks r1, r2, r3 as three uint16
    7       4     eps_micro: round(eps_rel * 1e6) as uint32
    11      4     task_id as uint32
    15      8     seed as uint64
    23      8*r   core payload, r = r1*r2*r3 float64 values, row-major (i, j, k)
    23+8r   4     CRC32 (IEEE, reflected) over all preceding bytes
"""
from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .tensor_core import Ranks3

VERSION = 1
_HEADER = struct.Struct("<BHHHIIQ")
_CRC = struct.Struct("<I")

HEADER_SIZE = _HEADER.size  # 23
CRC_SIZE = _CRC.size  # 4

_MAX_RANK = 0xFFFF
_MAX_U32 = 0xFFFFFFFF
_MAX_U64 = 0xFFFFFFFFFFFFFFFF


class CodecError(Exception):
    """Base class for wire-format failures."""


class FramingError(CodecError):
    """Byte stream too short or inconsistent with its declared ranks."""


class IntegrityError(CodecError):
    """CRC32 mismatch: the stream was corrupted."""


class VersionError(CodecError):
    """Unknown format version."""


class CapacityError(CodecError):
    """A field value exceeds what the format can carry."""


@dataclass(frozen=True)
class DecodedQuery:
    """Parsed query: masked core plus transport metadata."""

    ranks: Ranks3
    eps_rel: float
    task_id: int
    seed: int
    core: np.ndarray
    checksum: int


def encode(core, task_id: int, seed: int, eps_rel: float) -> bytes:
    """Serialize a masked core and its metadata; deterministic for equal inputs.

    A core holding nan or inf raises ValueError: :func:`decode` refuses it.
    """
    core = np.ascontiguousarray(core, dtype="<f8")
    # The header's ranks are those of the core it carries; any other ndim raises ValueError.
    r1, r2, r3 = core.shape
    if np.count_nonzero(np.isfinite(core)) != core.size:
        raise ValueError("core entries must be finite")
    if max(r1, r2, r3) > _MAX_RANK:
        raise CapacityError(f"ranks {core.shape} exceed uint16 capacity")
    if not 0 <= int(task_id) <= _MAX_U32:
        raise CapacityError(f"task_id {task_id} does not fit in uint32")
    if not 0 <= int(seed) <= _MAX_U64:
        raise CapacityError(f"seed {seed} does not fit in uint64")
    if not 0.0 <= eps_rel < 1.0:
        raise ValueError(f"eps_rel must lie in [0, 1), got {eps_rel}")
    eps_micro = int(round(eps_rel * 1e6))
    header = _HEADER.pack(VERSION, r1, r2, r3, eps_micro, int(task_id), int(seed))
    body = header + core.tobytes()
    return body + _CRC.pack(zlib.crc32(body))


def decode(data: bytes) -> DecodedQuery:
    """Parse and verify a query byte stream.

    Raises FramingError on truncation or rank/payload inconsistency,
    IntegrityError on checksum mismatch, VersionError on an unknown version.
    """
    if len(data) < HEADER_SIZE + CRC_SIZE:
        raise FramingError(f"stream of {len(data)} bytes is shorter than the minimum query")
    body, trailer = data[:-CRC_SIZE], data[-CRC_SIZE:]
    (stored,) = _CRC.unpack(trailer)
    if zlib.crc32(body) != stored:
        raise IntegrityError("CRC32 mismatch")
    version, r1, r2, r3, eps_micro, task_id, seed = _HEADER.unpack(body[:HEADER_SIZE])
    if version != VERSION:
        raise VersionError(f"unsupported version {version}")
    n_values = r1 * r2 * r3
    payload = body[HEADER_SIZE:]
    if len(payload) != 8 * n_values:
        raise FramingError(
            f"payload of {len(payload)} bytes inconsistent with ranks ({r1}, {r2}, {r3})"
        )
    core = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(r1, r2, r3)
    if np.count_nonzero(np.isfinite(core)) != core.size:
        raise FramingError("payload contains non-finite values")
    return DecodedQuery(
        ranks=(r1, r2, r3),
        eps_rel=eps_micro / 1e6,
        task_id=task_id,
        seed=seed,
        core=core,
        checksum=stored,
    )
