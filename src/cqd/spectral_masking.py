"""Adaptive spectral masking: relative-threshold rank selection and budget control."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import HosvdFactorization, MODES, Ranks3, _multi_mult, as_tensor3, hosvd

# Online threshold controller constants: multiplicative up/down steps and the
# clamp keeping eps inside (0, 1).
EPS_INCREASE = 1.1
EPS_DECREASE = 0.9
EPS_MIN = 1e-6
EPS_MAX = 0.999


def _check_eps(eps_rel: float) -> float:
    eps_rel = float(eps_rel)
    if not 0.0 < eps_rel < 1.0:
        raise ValueError(f"eps_rel must lie in (0, 1), got {eps_rel}")
    return eps_rel


@dataclass(frozen=True)
class CompressedState:
    """Masked core plus the retained factor columns that reproduce the projection.

    Mode n keeps its leading ranks[n] singular directions: descending svals
    under a threshold relative to the largest give a ones-prefix mask
    (see :func:`spectral_mask`).
    """

    masked_core: np.ndarray
    masked_factors: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def ranks(self) -> Ranks3:
        return self.masked_core.shape


def spectral_mask(svals, eps_rel: float) -> np.ndarray:
    """Keep singular value i iff sigma_i >= eps_rel * sigma_1 (inclusive).

    A zero leading singular value marks a zero state, which keeps nothing:
    the literal indicator would keep everything (0 >= 0), but a null state
    carries no information worth budget.
    """
    eps_rel = _check_eps(eps_rel)
    s = np.asarray(svals, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("svals must be a vector")
    if s.size == 0:
        return np.zeros(0, dtype=bool)
    if np.any(s < 0) or np.any(np.diff(s) > 0):
        raise ValueError("svals must be nonnegative and sorted descending")
    mask = np.zeros(s.size, dtype=bool)
    mask[: _kept(s, eps_rel)] = True
    return mask


def _kept(s: np.ndarray, eps_rel: float) -> int:
    """How many of the sorted svals `s` the mask keeps: the count of s_i >= eps * s_0."""
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s >= eps_rel * s[0]))


def mask_factorization(f: HosvdFactorization, eps_rel: float) -> CompressedState:
    """Apply spectral masking to an existing factorization.

    The svals of a HosvdFactorization are sorted and nonnegative (its
    constructor checks them, or the HOSVD kernel produced them), so they
    are not checked again here.
    """
    eps_rel = _check_eps(eps_rel)
    ranks = tuple(_kept(s, eps_rel) for s in f.svals)
    core = f.core[: ranks[0], : ranks[1], : ranks[2]]
    factors = tuple(f.factors[mode][:, : ranks[mode]] for mode in MODES)
    return CompressedState(masked_core=core, masked_factors=factors)


def asm_compress(x, eps_rel: float) -> CompressedState:
    """Compress a tensor by masking each mode's singular directions.

    The represented tensor equals X x_n (U_n M_n U_n^T) over all three
    modes; the stored core is that projection contracted by the retained
    factor columns, so its shape is exactly (r1, r2, r3).
    """
    return mask_factorization(hosvd(as_tensor3(x)), eps_rel)


def masked_tensor(cs: CompressedState) -> np.ndarray:
    """Ambient-shape tensor represented by a compressed state."""
    return _multi_mult(cs.masked_core, cs.masked_factors)


def budget(ranks) -> int:
    """Query budget proxy: the retained core size r1 * r2 * r3."""
    r1, r2, r3 = (int(r) for r in ranks)
    if min(r1, r2, r3) < 0:
        raise ValueError("ranks must be nonnegative")
    return r1 * r2 * r3


def adapt_epsilon(eps_rel: float, achieved_budget: int, tau: int) -> float:
    """One controller step: raise eps over budget, lower it under, hold at par."""
    eps_rel = _check_eps(eps_rel)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if achieved_budget > tau:
        eps_rel *= EPS_INCREASE
    elif achieved_budget < tau:
        eps_rel *= EPS_DECREASE
    return min(max(eps_rel, EPS_MIN), EPS_MAX)


def compress_within_budget(
    f: HosvdFactorization, eps_rel: float, tau: int
) -> tuple[CompressedState, float]:
    """Raise eps until the rank product fits the budget cap tau.

    Returns the accepted compression and the eps that produced it. For
    tau >= 1 and a nonzero tensor EPS_MAX keeps only the leading direction
    per mode unless others lie within 0.1 % of it; the loop ends when the
    budget fits or eps is clamped at EPS_MAX, at most 145 steps of
    EPS_INCREASE from EPS_MIN.
    """
    cs = mask_factorization(f, eps_rel)
    while (achieved := budget(cs.ranks)) > tau:
        bumped = adapt_epsilon(eps_rel, achieved, tau)
        if bumped == eps_rel:  # clamped at EPS_MAX, nothing left to cut
            break
        eps_rel = bumped
        cs = mask_factorization(f, eps_rel)
    return cs, eps_rel
