"""Adaptive spectral masking: relative-threshold rank selection and budget control."""
from __future__ import annotations

import operator

import numpy as np

from .tensor_core import HosvdFactorization, Ranks3, hosvd

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


def _kept(s: np.ndarray, eps_rel: float) -> int:
    """How many of the sorted svals `s` the mask keeps: the count of s_i >= eps * s_0."""
    # Python floats: the same IEEE product and comparisons as numpy's, without its calls.
    vals = s.tolist()
    if not vals or vals[0] <= 0.0:
        return 0
    cut = eps_rel * vals[0]
    return len([v for v in vals if v >= cut])


def mask_factorization(f: HosvdFactorization, eps_rel: float) -> Ranks3:
    """The ranks the spectral mask keeps: per mode, the count of s_i >= eps_rel * s_0.

    Descending svals under a threshold relative to the largest give a
    ones-prefix mask, so the mask is this rank triple; the truncated HOSVD it
    selects is f's core and factor columns sliced to it.  The svals of a
    HosvdFactorization are sorted and nonnegative (its constructor checks
    them, or the HOSVD kernel produced them), so they are not checked again.
    """
    eps_rel = _check_eps(eps_rel)
    return tuple(_kept(s, eps_rel) for s in f.svals)


def asm_compress(x, eps_rel: float) -> np.ndarray:
    """The masked HOSVD core of a tensor, shape (r1, r2, r3): the query payload.

    Mode n keeps its leading r_n singular directions, the columns of U_n; the
    core is X contracted by the U_n^T, and the U_n lift it back to the
    masked tensor X x_1 U_1 U_1^T x_2 U_2 U_2^T x_3 U_3 U_3^T.
    """
    f = hosvd(x)
    r1, r2, r3 = mask_factorization(f, eps_rel)
    return f.core[:r1, :r2, :r3]


def budget(ranks) -> int:
    """Query budget proxy: the retained core size r1 * r2 * r3."""
    r1, r2, r3 = (operator.index(r) for r in ranks)
    if min(r1, r2, r3) < 0:
        raise ValueError("ranks must be nonnegative")
    return r1 * r2 * r3


def adapt_epsilon(eps_rel: float, achieved_budget: int, tau: int) -> float:
    """One controller step: raise eps over budget, lower it under, hold at par."""
    eps_rel = _check_eps(eps_rel)
    if not tau >= 1:  # written so that nan fails it
        raise ValueError(f"tau must be at least 1, got {tau}")
    if achieved_budget > tau:
        eps_rel *= EPS_INCREASE
    elif achieved_budget < tau:
        eps_rel *= EPS_DECREASE
    return min(max(eps_rel, EPS_MIN), EPS_MAX)


def compress_within_budget(
    f: HosvdFactorization, eps_rel: float, tau: int
) -> tuple[Ranks3, float]:
    """Raise eps until the rank product fits the budget cap tau.

    Returns the masked ranks and the eps that produced them, after at most
    145 steps of EPS_INCREASE from EPS_MIN.  EPS_MAX keeps the directions
    within 0.1 % of each mode's leading one; should these still exceed tau,
    the trailing direction of the mode with the most (the lowest such mode on
    a tie) is dropped until the budget fits, which it does at ranks (1, 1, 1)
    for tau >= 1; a tau below 1, or nan, is refused.  Each direction so
    dropped lies within 0.1 % of its mode's leading one.
    """
    if not tau >= 1:  # written so that nan fails it
        raise ValueError(f"tau must be at least 1, got {tau}")
    ranks = mask_factorization(f, eps_rel)
    while (achieved := budget(ranks)) > tau:
        bumped = adapt_epsilon(eps_rel, achieved, tau)
        if bumped == eps_rel:  # clamped at EPS_MAX: cut within the ties
            cut = list(ranks)
            while budget(cut) > tau:
                cut[cut.index(max(cut))] -= 1
            return tuple(cut), eps_rel
        eps_rel = bumped
        ranks = mask_factorization(f, eps_rel)
    return ranks, eps_rel
