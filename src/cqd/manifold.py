"""Stiefel and fixed multilinear-rank geometry: projections, retractions, synthetic targets."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import (
    MODES,
    HosvdFactorization,
    Ranks3,
    StiefelPoint,
    _hosvd_kernel,
    _mode_mult,
    _multi_mult,
    _per_shape,
    _trusted,
    _unfold,
    as_matrix,
    as_tensor3,
)

# Rank collapse: a singular value or |diag(R)| at or below SINGULARITY_TOL times the largest,
SINGULARITY_TOL = 1e-12
_TINY = 1e-150  # or at or below this, whose square (the projection's s^2) is still normal


class RankDeficiencyError(ArithmeticError):
    """A factor or iterate lost the rank the manifold requires."""


def _check_ranks(shape, ranks) -> None:
    """Refuse anything but three ranks for three dimensions, ranks outside
    [1, I_n], and ranks no third-order tensor has (its mode-n unfolding has
    r_m * r_k columns, so r_n <= r_m * r_k)."""
    if len(shape) != 3 or len(ranks) != 3:
        raise ValueError(
            f"ranks {tuple(ranks)} invalid for shape {tuple(shape)}: expected three of each"
        )
    if any(not 1 <= r <= d for r, d in zip(ranks, shape)):
        raise ValueError(f"ranks {tuple(ranks)} invalid for shape {tuple(shape)}")
    for n in MODES:
        if ranks[n] > ranks[(n + 1) % 3] * ranks[(n + 2) % 3]:
            raise ValueError(f"no third-order tensor has ranks {tuple(ranks)}: "
                             f"rank {n} exceeds the product of the other two")


@dataclass(frozen=True)
class TuckerPoint:
    """Point on the fixed multilinear-rank manifold: core plus orthonormal factors."""

    core: np.ndarray
    factors: tuple[StiefelPoint, StiefelPoint, StiefelPoint]

    def __post_init__(self):
        if len(self.factors) != 3 or not all(isinstance(f, StiefelPoint) for f in self.factors):
            raise TypeError("TuckerPoint takes three StiefelPoint factors")
        core = as_tensor3(self.core)
        object.__setattr__(self, "core", core)
        for mode in MODES:
            if self.factors[mode].shape[1] != core.shape[mode]:
                raise ValueError(
                    f"factor {mode} has {self.factors[mode].shape[1]} columns, "
                    f"core dim is {core.shape[mode]}"
                )
        _check_ranks(self.shape, core.shape)

    @property
    def ranks(self) -> Ranks3:
        return self.core.shape

    @property
    def shape(self):
        return tuple(f.shape[0] for f in self.factors)


@dataclass(frozen=True)
class TuckerTangent:
    """Tangent vector in horizontal form: core direction plus gauge-fixed factor directions."""

    core_dir: np.ndarray
    factor_dirs: tuple[np.ndarray, np.ndarray, np.ndarray]


def tangent_project_stiefel(point: StiefelPoint, g) -> np.ndarray:
    """Project an ambient matrix onto the Stiefel tangent space at `point`."""
    g = as_matrix(g)
    u = point.u
    if g.shape != u.shape:
        raise ValueError(f"gradient shape {g.shape} does not match point shape {u.shape}")
    a = u.T @ g
    return g - u @ (0.5 * (a + a.T))


def qr_retraction(y) -> StiefelPoint:
    """Orthonormalize via reduced QR, sign-corrected to a nonnegative R diagonal."""
    y = as_matrix(y)
    q, r = np.linalg.qr(y)
    size = np.abs(np.diagonal(r))
    if np.any(size <= max(SINGULARITY_TOL * size.max(initial=0.0), _TINY)):
        raise RankDeficiencyError("input is rank deficient: |diag(R)| <= 1e-12 max|diag(R)|")
    return StiefelPoint(q * np.where(np.diagonal(r) < 0, -1.0, 1.0))


def gen_synthetic(shape, true_ranks, noise_floor: float, seed: int):
    """Random low-rank target plus an optionally perturbed starting instance.

    The target is a random core pushed through random orthonormal factors,
    so its multilinear rank equals true_ranks exactly (ranks with some
    r_n > r_m * r_k fit no tensor and are refused); the instance adds
    noise_floor times a unit-variance entrywise perturbation.
    """
    shape = tuple(int(s) for s in shape)
    true_ranks = tuple(int(r) for r in true_ranks)
    _check_ranks(shape, true_ranks)
    if not 0 <= noise_floor < np.inf:
        raise ValueError(f"noise_floor must be finite and nonnegative, got {noise_floor}")
    rng = np.random.default_rng(seed)
    core = rng.standard_normal(true_ranks)
    mats = tuple(
        qr_retraction(rng.standard_normal((shape[mode], true_ranks[mode]))).u
        for mode in range(3)
    )
    target = _multi_mult(core, mats)
    if noise_floor > 0:
        instance = target + noise_floor * rng.standard_normal(shape)
    else:
        instance = target.copy()
    return instance, target


def tucker_to_tensor(p: TuckerPoint) -> np.ndarray:
    """Ambient tensor represented by a Tucker point."""
    return _multi_mult(p.core, tuple(f.u for f in p.factors))


def _check_collapse(svals, ranks, ref=None) -> None:
    """Refuse a mode that is empty or whose singular value at position r_n is at or
    below 1e-12 times the mode's largest in `ref` (default `svals`), or 1e-150."""
    for mode, (r, s, top) in enumerate(zip(ranks, svals, svals if ref is None else ref)):
        if r == 0 or s[r - 1] <= max(SINGULARITY_TOL * top[0], _TINY):
            raise RankDeficiencyError(f"mode-{mode} singular value at position {r} is at or "
                                      "below 1e-12 times the mode's largest")


def tucker_from_tensor(x, ranks) -> TuckerPoint:
    """Truncated-HOSVD projection of an ambient tensor onto the rank-`ranks` manifold."""
    x = as_tensor3(x)
    ranks = tuple(int(r) for r in ranks)
    _check_ranks(x.shape, ranks)
    # The factor signs, left as computed, cancel against the core's.
    with np.errstate(over="ignore", invalid="ignore"):
        core, factors, svals = _hosvd_kernel(x, ranks)
    if not np.all(np.isfinite(core)):
        raise ValueError("the projected core overflows float64")
    _check_collapse(svals, ranks)
    return TuckerPoint(core=core, factors=tuple(StiefelPoint(u) for u in factors))


def riemannian_grad_tucker(h: HosvdFactorization, euclid_grad):
    """Project ambient gradients onto the tangent space at the HOSVD point `h`.

    `h` is the point in the gauge of its HOSVD, as :func:`hosvd` returns it:
    the core is all-orthogonal, G_(n) G_(n)^T = diag(s_n^2) (De Lathauwer,
    De Moor & Vandewalle, SIMAX 2000), so the normal equations of the factor
    directions are a column scaling by 1/s_n^2.  The horizontal
    representation is (core direction, factor directions), each factor
    direction orthogonal to the factor's columns of `h`.

    `euclid_grad` has the point's shape, or a leading axis stacking several
    gradients; then the result is a tuple of tangents, one per slice, from
    one pass of contractions.  Raises RankDeficiencyError when a mode's
    last singular value s_n[r_n - 1] is at or below 1e-12 s_n[0] or 1e-150.
    """
    us = h.factors
    g = h.core
    shape = tuple(u.shape[0] for u in us)
    z = np.ascontiguousarray(euclid_grad, dtype=np.float64)
    if z.ndim not in (3, 4) or z.shape[-3:] != shape:
        raise ValueError(f"gradient shape {z.shape} does not match point shape {shape}")
    if np.count_nonzero(np.isfinite(z)) != z.size:
        raise ValueError("gradient entries must be finite")
    _check_collapse(h.svals, g.shape)
    stacked = z.ndim == 4
    zs = z if stacked else z[None]
    b = zs.shape[0]
    (n1, n2, n3), (r1, r2, r3) = shape, g.shape
    # Shared partial contractions, the stack folded into the first axis
    # where mode 0 is not contracted: each mode needs z contracted by the
    # other two factors, and the core direction contracts all three.
    z1 = np.matmul(us[0].T, zs.reshape(b, n1, n2 * n3)).reshape(b * r1, n2, n3)
    p0 = _mode_mult(_mode_mult(zs.reshape(b * n1, n2, n3), us[1].T, 1), us[2].T, 2)
    p1 = _mode_mult(z1, us[2].T, 2)
    p2 = _mode_mult(z1, us[1].T, 1)
    core_dir = np.matmul(us[0].T, p0.reshape(b, n1, r2 * r3)).reshape(b, r1, r2, r3)
    # Mode-n unfoldings of the partials, one per slice.
    unfolded = (
        p0.reshape(b, n1, r2 * r3),
        p1.reshape(b, r1, n2, r3).transpose(0, 2, 1, 3).reshape(b, n2, r1 * r3),
        p2.reshape(b, r1, r2, n3).transpose(0, 3, 1, 2).reshape(b, n3, r1 * r2),
    )
    factor_dirs = []
    for mode in MODES:
        u, s = us[mode], h.svals[mode]
        coeff = (unfolded[mode] @ _unfold(g, mode).T) / (s * s)
        factor_dirs.append(coeff - u @ (u.T @ coeff))
    d1, d2, d3 = factor_dirs
    tangents = tuple([TuckerTangent(core_dir[i], (d1[i], d2[i], d3[i])) for i in range(b)])
    return tangents if stacked else tangents[0]


def tangent_to_ambient(h: HosvdFactorization, t: TuckerTangent) -> np.ndarray:
    """Embed a horizontal tangent vector at the HOSVD point `h` into the ambient tensor space."""
    us = h.factors
    out = _multi_mult(t.core_dir, us)
    for mode in MODES:
        mats = tuple(t.factor_dirs[mode] if m == mode else us[m] for m in MODES)
        out = out + _multi_mult(h.core, mats)
    return out


def tangent_norm_sq(h: HosvdFactorization, t: TuckerTangent) -> float:
    """Squared norm of a tangent vector at the HOSVD point `h`.

    The core component and the three factor components are mutually
    orthogonal in the ambient embedding, so the norm splits into
    ||dG||^2 + sum_n ||dU_n G_(n)||^2, and in the HOSVD gauge
    ||dU_n G_(n)||^2 = ||dU_n diag(s_n)||^2.
    """
    # np.add.reduce(x * x) has the bits of np.sum(x**2), without np.sum's wrapper.
    total = float(np.add.reduce(t.core_dir * t.core_dir, axis=None))
    for d, s in zip(t.factor_dirs, h.svals):
        ds = d * s
        total += float(np.add.reduce(ds * ds, axis=None))
    return total


def tucker_retract(h: HosvdFactorization, direction: TuckerTangent, eta: float) -> TuckerPoint:
    """From the HOSVD point `h`, move by eta * direction, then truncate back
    to the ranks of `h` by HOSVD.

    Works in factored form (Kressner, Steinlechner & Vandereycken, BIT
    2014): for the tangent vector (dG, dU_n) as :func:`tangent_to_ambient`
    embeds it, the moved tensor is C x_n [U_n, dU_n], where the
    (2r1, 2r2, 2r3) block core C holds G + eta*dG in its leading block and
    eta*G in the three blocks that differ from it in one mode.  With
    [U_n, dU_n] = Q_n R_n, the truncated HOSVD of the moved tensor is that
    of C x_n R_n, lifted by the Q_n; no tensor of the ambient shape is
    formed.  `direction` is a tangent at `h`, as
    :func:`riemannian_grad_tucker` returns it.

    Raises RankDeficiencyError when the moved tensor no longer supports the
    manifold's ranks (singular value at position r_n at or below 1e-12 times
    h's largest in that mode, or 1e-150), and FloatingPointError when the step
    overflowed (a non-finite block core).
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    g = h.core
    r1, r2, r3 = ranks = g.shape
    c = np.zeros((2 * r1, 2 * r2, 2 * r3))
    c[:r1, :r2, :r3] = g + eta * direction.core_dir
    c[r1:, :r2, :r3] = c[:r1, r2:, :r3] = c[:r1, :r2, r3:] = eta * g
    blocks = [np.concatenate((u, d), axis=1) for u, d in zip(h.factors, direction.factor_dirs)]
    qs = []
    for mode, (q, r) in enumerate(_per_shape(np.linalg.qr, blocks)):
        qs.append(q)
        c = _mode_mult(c, r, mode)
    if np.count_nonzero(np.isfinite(c)) != c.size:
        raise FloatingPointError("non-finite step: the block core holds inf or nan")
    # The ranks of `h` fit the block core, whose dimensions are 2 r_n.
    core, ws, svals = _hosvd_kernel(c, ranks)
    _check_collapse(svals, ranks, h.svals)  # relative to h: a step onto rounding noise collapses
    # Q_n W_n has orthonormal columns, one per core index: no re-check.
    return _trusted(
        TuckerPoint,
        core=core,
        factors=tuple(_trusted(StiefelPoint, u=q @ w) for q, w in zip(qs, ws)),
    )
