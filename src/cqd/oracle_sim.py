"""Simulated noisy oracle: the hidden target plus counter-keyed Gaussian noise."""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .query_codec import DecodedQuery, decode
from .tensor_core import as_tensor3

AGGREGATORS = ("mean", "median")


@dataclass(frozen=True)
class OracleConfig:
    """Noise level (total second moment bound) and stream seed."""

    noise_sigma: float
    seed: int

    def __post_init__(self):
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and nonnegative, got {self.noise_sigma}")
        if not 0 <= operator.index(self.seed) < 2**64:
            raise ValueError("seed must fit in uint64")


@dataclass(frozen=True)
class OracleResponse:
    payload: np.ndarray
    draws_used: int


class SimulatedOracle:
    """Backend that answers queries from a hidden ground-truth target.

    The noise-free answer is the target itself, a perfect answer to the
    delegated sub-problem; the oracle keeps a read-only copy of it, so
    later writes to the caller's array do not change its answers. Every
    new query is decoded, which checks its CRC and framing.

    Noise: zero-mean Gaussian with E||xi||^2 == sigma^2, from a counter-based
    Philox stream. The key is (seed, query checksum), so (seed, query
    bytes, draw index) fully determine the bits. Philox counts its blocks
    in counter word 0, so the draw index sits in word 1: draw d reads the
    blocks [j, d, 0, 0], j = 0, 1, ..., and no two draws of one query share
    a counter value. The oracle owns one Philox bit generator and one
    Generator; every draw resets the bit generator's state to that key and
    counter with an empty buffer, which gives bit for bit the stream of a
    fresh ``Philox(counter=..., key=...)`` without its set-up cost. That
    shared state means one oracle instance must not serve concurrent
    ``infer`` calls.
    """

    def __init__(self, cfg: OracleConfig, target):
        self.cfg = cfg
        self.target = as_tensor3(target).copy()
        self.target.flags.writeable = False
        self._scale = cfg.noise_sigma / np.sqrt(np.prod(self.target.shape))
        self._bitgen = np.random.Philox()
        self._gen = np.random.Generator(self._bitgen)
        # The last query and its decoding: the m draws of an ensemble send
        # the same bytes, which are decoded and CRC-checked once.
        self._last: tuple[bytes, DecodedQuery] | None = None

    def infer(self, query: bytes, draw_index: int) -> OracleResponse:
        if draw_index < 0:
            raise ValueError("draw_index must be nonnegative")
        last = self._last
        if last is not None and last[0] == query:
            dq = last[1]
        else:
            dq = decode(query)
            self._last = (bytes(query), dq)  # a copy, should the caller's buffer change
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, draw_index, 0, 0], "key": [self.cfg.seed, dq.checksum]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,  # empty: the next draw starts a fresh block
            "has_uint32": 0,
            "uinteger": 0,
        }
        payload = self._gen.standard_normal(self.target.shape)
        payload *= self._scale
        payload += self.target
        return OracleResponse(payload=payload, draws_used=1)


def aggregate(payloads: Iterable[np.ndarray], method: str = "mean") -> np.ndarray:
    """Elementwise mean or median of shape-homogeneous payloads, in a fresh array.

    The mean is float64, leaves the payloads unmodified and consumes them
    one at a time: a running sum in draw order, then one divide, which is
    what np.mean of the stacked payloads computes along axis 0.
    """
    if method not in AGGREGATORS:
        raise ValueError(f"unknown aggregator {method!r}, expected one of {AGGREGATORS}")
    if method == "median":  # raises ValueError on no payloads or unequal shapes
        return np.median(np.stack([np.asarray(p) for p in payloads], axis=0), axis=0)
    total = None
    count = 0
    for p in payloads:
        if total is None:
            total = np.array(p, dtype=np.float64)
        elif np.shape(p) != total.shape:
            raise ValueError("payload shapes are not homogeneous")
        else:
            total += p
        count += 1
        del p  # freed before the iterator makes the next payload
    if total is None:
        raise ValueError("cannot aggregate an empty response list")
    total /= count
    return total


def ensemble_infer(
    oracle: SimulatedOracle,
    query: bytes,
    m: int,
    agg: str = "mean",
    draw_start: int = 0,
) -> OracleResponse:
    """Issue m independent draws of one query and aggregate the responses.

    Each draw is made as `aggregate` asks for it and freed before the next.
    """
    if m < 1:
        raise ValueError("ensemble size m must be at least 1")
    if agg not in AGGREGATORS:
        raise ValueError(f"unknown aggregator {agg!r}, expected one of {AGGREGATORS}")
    if m == 1:  # aggregate of a singleton is itself, for either method
        return oracle.infer(query, draw_start)
    payloads = (oracle.infer(query, draw_start + i).payload for i in range(m))
    return OracleResponse(payload=aggregate(payloads, agg), draws_used=m)
