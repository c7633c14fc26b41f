"""Simulated noisy oracle: the hidden target plus counter-keyed Gaussian noise."""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .query_codec import DecodedQuery, decode
from .tensor_core import _STACK_BYTES, as_tensor3


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
    shared state means one oracle must not serve concurrent ``infer`` calls;
    each ``run_cqd`` serves its own from one thread, one draw at a time.
    """

    def __init__(self, cfg: OracleConfig, target):
        self.cfg = cfg
        self.target = as_tensor3(target).copy()
        self.target.flags.writeable = False
        self._scale = cfg.noise_sigma / np.sqrt(np.prod(self.target.shape))
        self._bitgen = np.random.Philox()
        self._gen = np.random.Generator(self._bitgen)
        # Philox state at the start of a draw; infer sets the counter's draw
        # word and the key's checksum word in place.
        self._counter = [0, 0, 0, 0]
        self._key = [cfg.seed, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,  # empty: the next draw starts a fresh block
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._per_block = max(1, _STACK_BYTES // self.target.nbytes)  # draws per block of a mean
        # The last query and its decoding: calls that repeat one query's bytes (a noise
        # study's single draws, an ensemble experiment's trials) decode and CRC-check it once.
        self._last: tuple[bytes, DecodedQuery] | None = None

    def infer(self, query: bytes, draw_index: int, m: int = 1) -> OracleResponse:
        """The mean of draws draw_index, ..., draw_index + m - 1 of `query`.

        One draw path serves every m, so each draw has the bits of its own m = 1
        call.  The mean sums the draws in order, as np.mean of their stack does
        along axis 0, holding at most max(one payload, 128 KiB) of them at once.
        The payload is a fresh array of the target's shape; one that overflows
        float64 raises FloatingPointError.  A draw index past the Philox
        counter's word, at or past 2**64, raises ValueError before any draw.
        """
        draw_index, m = operator.index(draw_index), operator.index(m)
        if draw_index < 0:
            raise ValueError("draw_index must be nonnegative")
        if m < 1:
            raise ValueError("ensemble size m must be at least 1")
        if draw_index + m > 2**64:
            raise ValueError(f"draws {draw_index}..{draw_index + m - 1} overflow the draw counter")
        last = self._last
        if last is not None and last[0] == query:
            dq = last[1]
        else:
            dq = decode(query)
            self._last = (bytes(query), dq)  # a copy, should the caller's buffer change
        self._key[1] = dq.checksum
        n = min(m, self._per_block)  # draws per block
        block = np.empty((n, *self.target.shape))
        total = None
        with np.errstate(over="raise"):
            for start in range(draw_index, draw_index + m, n):
                rows = block[: min(n, draw_index + m - start)]
                for i in range(len(rows)):
                    self._counter[1] = start + i
                    self._bitgen.state = self._state
                    self._gen.standard_normal(out=rows[i])
                rows *= self._scale
                rows += self.target
                if m == 1:  # the mean of one draw is that draw, in a block of its size
                    return OracleResponse(payload=rows[0], draws_used=1)
                # Summed from -0.0, which adds exactly (numpy's reduce starts at +0.0);
                # total + d is d + total, bit for bit, so the sum goes on in draw order.
                if total is not None:
                    rows[0] += total
                total = np.add.reduce(rows, axis=0, out=total, initial=-0.0)
            total /= m
        return OracleResponse(payload=total, draws_used=m)


def aggregate(payloads: Iterable[np.ndarray]) -> np.ndarray:
    """Elementwise mean of same-shape payloads in a fresh float64 array."""
    return np.mean(np.stack([np.asarray(p, dtype=np.float64) for p in payloads]), axis=0)


def ensemble_infer(
    oracle: SimulatedOracle, query: bytes, m: int, draw_start: int = 0
) -> OracleResponse:
    """The mean of draws draw_start, ..., draw_start + m - 1 of one query."""
    return oracle.infer(query, draw_start, m=m)
