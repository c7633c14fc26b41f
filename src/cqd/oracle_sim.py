"""Simulated noisy oracle: deterministic mean maps plus counter-keyed Gaussian noise."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .query_codec import DecodedQuery, decode
from .tensor_core import as_tensor3

MEAN_MAPS = ("identity_completion", "residual")
AGGREGATORS = ("mean", "median")


@dataclass(frozen=True)
class OracleConfig:
    """Noise level (total second moment bound), stream seed, and mean-map id."""

    noise_sigma: float
    seed: int
    mean_map: str = "identity_completion"

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in uint64")
        if self.mean_map not in MEAN_MAPS:
            raise ValueError(f"unknown mean_map {self.mean_map!r}, expected one of {MEAN_MAPS}")


@dataclass(frozen=True)
class OracleResponse:
    payload: np.ndarray
    query_checksum_echo: int
    draws_used: int


class OracleBackend(Protocol):
    """Minimal oracle surface; a remote backend would implement the same call."""

    def infer(self, query: bytes, draw_index: int) -> OracleResponse: ...


class SimulatedOracle:
    """Backend that answers queries from a hidden ground-truth target.

    Mean maps:
      identity_completion -- the target itself (a perfect answer to the
        delegated sub-problem).
      residual -- target minus the decoded core placed in the leading
        block of the ambient grid (a corrective direction on the
        transmitted coordinates).

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
        self.target = as_tensor3(target)
        self._scale = cfg.noise_sigma / np.sqrt(np.prod(self.target.shape))
        self._bitgen = np.random.Philox()
        self._gen = np.random.Generator(self._bitgen)
        # The last query and its decoding: the m draws of an ensemble send
        # the same bytes, which are decoded and CRC-checked once.
        self._last: tuple[bytes, DecodedQuery] | None = None

    def _mean(self, dq: DecodedQuery) -> np.ndarray:
        """The noise-free answer; under identity_completion the target itself, not a copy."""
        if self.cfg.mean_map == "identity_completion":
            return self.target
        r1, r2, r3 = dq.ranks
        if any(r > d for r, d in zip(dq.ranks, self.target.shape)):
            raise ValueError(
                f"query ranks {dq.ranks} exceed the task shape {self.target.shape}"
            )
        lifted = np.zeros(self.target.shape)
        lifted[:r1, :r2, :r3] = dq.core
        return self.target - lifted

    def infer(self, query: bytes, draw_index: int) -> OracleResponse:
        if draw_index < 0:
            raise ValueError("draw_index must be nonnegative")
        last = self._last
        if last is not None and last[0] == query:
            dq = last[1]
        else:
            dq = decode(query)
            self._last = (bytes(query), dq)  # a copy, should the caller's buffer change
        mean = self._mean(dq)
        if self.cfg.noise_sigma == 0.0:
            payload = mean.copy()
        else:
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
            payload += mean
        return OracleResponse(payload=payload, query_checksum_echo=dq.checksum, draws_used=1)


def oracle_infer(query: bytes, cfg: OracleConfig, target, draw_index: int = 0) -> OracleResponse:
    """One simulated oracle call; convenience wrapper over SimulatedOracle."""
    return SimulatedOracle(cfg, target).infer(query, draw_index)


def aggregate(payloads: Sequence[np.ndarray], method: str = "mean") -> np.ndarray:
    """Elementwise mean or median of shape-homogeneous payloads, in a fresh array.

    The mean is float64 and leaves the payloads unmodified.
    """
    if method not in AGGREGATORS:
        raise ValueError(f"unknown aggregator {method!r}, expected one of {AGGREGATORS}")
    if len(payloads) == 0:
        raise ValueError("cannot aggregate an empty response list")
    first = np.asarray(payloads[0])
    for p in payloads[1:]:
        if np.asarray(p).shape != first.shape:
            raise ValueError("payload shapes are not homogeneous")
    if method == "mean":
        # A running sum in draw order, then one divide: what np.mean of the
        # stacked payloads computes along axis 0, without the stack.
        total = np.array(first, dtype=np.float64)
        for p in payloads[1:]:
            total += p
        total /= len(payloads)
        return total
    return np.median(np.stack([np.asarray(p) for p in payloads], axis=0), axis=0)


def ensemble_infer(
    oracle: OracleBackend,
    query: bytes,
    m: int,
    agg: str = "mean",
    draw_start: int = 0,
) -> OracleResponse:
    """Issue m independent draws of one query and aggregate the responses."""
    if m < 1:
        raise ValueError("ensemble size m must be at least 1")
    if agg not in AGGREGATORS:
        raise ValueError(f"unknown aggregator {agg!r}, expected one of {AGGREGATORS}")
    if m == 1:  # aggregate of a singleton is itself, for either method
        return oracle.infer(query, draw_start)
    responses = [oracle.infer(query, draw_start + i) for i in range(m)]
    payload = aggregate([r.payload for r in responses], agg)
    return OracleResponse(
        payload=payload,
        query_checksum_echo=responses[0].query_checksum_echo,
        draws_used=m,
    )
