from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from cqd.query_codec import (
    CapacityError,
    CodecError,
    FramingError,
    IntegrityError,
    VersionError,
    decode,
    encode,
)
from cqd.spectral_masking import asm_compress


def core_with_ranks(rng, shape=(5, 5, 5), eps=0.3) -> np.ndarray:
    return asm_compress(rng.standard_normal(shape), eps)


def test_empty_ranks_is_27_bytes():
    core = asm_compress(np.zeros((3, 3, 3)), 0.2)
    assert core.shape == (0, 0, 0)
    data = encode(core, task_id=0, seed=0, eps_rel=0.2)
    assert len(data) == 27
    dq = decode(data)
    assert dq.ranks == (0, 0, 0)
    assert dq.core.shape == (0, 0, 0)


def test_unit_core_payload_is_ieee754_little_endian():
    data = encode(np.array([[[1.0]]]), task_id=0, seed=0, eps_rel=0.5)
    assert data[23:31] == struct.pack("<d", 1.0)


def test_golden_bytes_hand_assembled():
    # Independently rebuild the documented layout for ranks (1,1,1),
    # core value 2.0, eps 0.25, task 7, seed 42.
    hand = struct.pack("<BHHHIIQ", 1, 1, 1, 1, 250000, 7, 42) + struct.pack("<d", 2.0)
    hand += struct.pack("<I", zlib.crc32(hand))
    assert encode(np.array([[[2.0]]]), task_id=7, seed=42, eps_rel=0.25) == hand


def test_round_trip_bit_exact_on_random_states():
    rng = np.random.default_rng(0)
    for i in range(100):
        eps = float(rng.uniform(0.05, 0.9))
        core = core_with_ranks(rng, eps=eps)
        task_id = int(rng.integers(0, 2**32))
        seed = int(rng.integers(0, 2**63))
        data = encode(core, task_id, seed, eps)
        assert len(data) == 27 + 8 * core.size
        dq = decode(data)
        assert dq.ranks == core.shape
        assert dq.task_id == task_id
        assert dq.seed == seed
        assert dq.core.tobytes() == np.ascontiguousarray(core).tobytes()
        assert dq.eps_rel == pytest.approx(eps, abs=5e-7)  # 1e-6 fixed-point grid


def test_encode_deterministic():
    rng = np.random.default_rng(1)
    core = core_with_ranks(rng)
    assert encode(core, 3, 4, 0.3) == encode(core, 3, 4, 0.3)


def test_eps_fixed_point_quantization():
    dq = decode(encode(np.array([[[0.0]]]), 0, 0, 0.123456789))
    assert dq.eps_rel == pytest.approx(0.123457, abs=1e-12)


def test_single_bit_flips_always_rejected():
    rng = np.random.default_rng(2)
    data = bytearray(encode(core_with_ranks(rng), 1, 2, 0.3))
    for byte_index in range(len(data)):
        for bit in (0, 7):
            corrupted = bytearray(data)
            corrupted[byte_index] ^= 1 << bit
            with pytest.raises(CodecError):
                decode(bytes(corrupted))


def test_payload_flip_is_integrity_error():
    rng = np.random.default_rng(3)
    data = bytearray(encode(core_with_ranks(rng), 1, 2, 0.3))
    data[25] ^= 0x10
    with pytest.raises(IntegrityError):
        decode(bytes(data))


def test_truncated_and_empty_streams():
    rng = np.random.default_rng(4)
    data = encode(core_with_ranks(rng), 1, 2, 0.3)
    with pytest.raises(FramingError):
        decode(b"")
    with pytest.raises(FramingError):
        decode(data[:10])


def test_unknown_version_with_valid_crc():
    rng = np.random.default_rng(5)
    data = encode(core_with_ranks(rng), 1, 2, 0.3)
    body = bytes([2]) + data[1:-4]
    crafted = body + struct.pack("<I", zlib.crc32(body))
    with pytest.raises(VersionError):
        decode(crafted)


def test_rank_payload_inconsistency_with_valid_crc():
    body = struct.pack("<BHHHIIQ", 1, 2, 2, 2, 0, 0, 0)  # declares 64 payload bytes
    crafted = body + struct.pack("<I", zlib.crc32(body))
    with pytest.raises(FramingError):
        decode(crafted)


def test_nonfinite_payload_rejected():
    body = struct.pack("<BHHHIIQ", 1, 1, 1, 1, 0, 0, 0) + struct.pack("<d", np.inf)
    crafted = body + struct.pack("<I", zlib.crc32(body))
    with pytest.raises(FramingError):
        decode(crafted)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encode_refuses_a_core_the_oracle_cannot_read(bad):
    # decode refuses a non-finite payload, so encode must not build one.
    core = np.ones((1, 2, 1))
    core[0, 1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        encode(core, 0, 0, 0.5)


@pytest.mark.parametrize("eps", [1.0, -0.1])
def test_encode_refuses_an_eps_outside_zero_to_one(eps):
    with pytest.raises(ValueError, match=r"eps_rel must lie in \[0, 1\)"):
        encode(np.ones((1, 1, 1)), 0, 0, eps)


def test_capacity_error_on_oversized_rank():
    with pytest.raises(CapacityError):
        encode(np.zeros((70000, 1, 1)), 0, 0, 0.5)


def test_encode_refuses_a_core_that_is_not_third_order():
    with pytest.raises(ValueError):
        encode(np.zeros((2, 2)), 0, 0, 0.5)


def test_capacity_error_on_metadata():
    core = np.array([[[0.0]]])
    with pytest.raises(CapacityError):
        encode(core, 2**32, 0, 0.5)
    with pytest.raises(CapacityError):
        encode(core, 0, 2**64, 0.5)


def test_compression_ratio_illustration():
    # Ranks (2,2,2) in a 20x20x20 ambient: 64 payload bytes vs 64,000.
    payload = 8 * 2 * 2 * 2
    full = 8 * 20 * 20 * 20
    assert payload / full == 1e-3
