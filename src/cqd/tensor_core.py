"""Dense third-order tensor algebra: unfoldings, mode products, HOSVD, truncation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Ranks3 = tuple[int, int, int]

MODES = (0, 1, 2)

ORTHO_TOL = 1e-10

# Largest LAPACK stack and ensemble block of draws: more (48^3 unfoldings) would raise peak memory.
_STACK_BYTES = 128 * 1024

# Axis order that brings each mode first, the others in their original order.
_MODE_ORDER = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


def as_tensor3(data) -> np.ndarray:
    """Coerce to a C-contiguous float64 third-order array; reject an empty dimension or NaN/Inf."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={arr.ndim}")
    if 0 in arr.shape:
        raise ValueError(f"tensor dimensions must be at least 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor entries must be finite")
    return arr


def as_matrix(data) -> np.ndarray:
    """Coerce to a C-contiguous float64 matrix; reject an empty dimension or NaN/Inf."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={arr.ndim}")
    if 0 in arr.shape:
        raise ValueError(f"matrix dimensions must be at least 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


@dataclass(frozen=True)
class StiefelPoint:
    """An n x p matrix with orthonormal columns."""

    u: np.ndarray

    def __post_init__(self):
        u = as_matrix(self.u)
        object.__setattr__(self, "u", u)
        p = u.shape[1]
        if np.max(np.abs(u.T @ u - np.eye(p))) > ORTHO_TOL:
            raise ValueError("columns are not orthonormal within tolerance")

    @property
    def shape(self):
        return self.u.shape


def _unfold(x: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n unfolding: one row per index of `mode`, the other two indices
    enumerated row-major in their original order along the columns."""
    cols = 1
    for i in MODES:
        if i != mode:
            cols *= x.shape[i]
    return x.transpose(_MODE_ORDER[mode]).reshape(x.shape[mode], cols)


def _mode_mult(x: np.ndarray, a: np.ndarray, mode: int) -> np.ndarray:
    # One BLAS matrix product on a reshaped view per mode (a stack of them for
    # the middle mode); every result is C-contiguous.
    i, j, k = x.shape
    if mode == 0:
        return (a @ x.reshape(i, j * k)).reshape(a.shape[0], j, k)
    if mode == 1:
        return np.matmul(a, x)
    return (x.reshape(i * j, k) @ a.T).reshape(i, j, a.shape[0])


def _multi_mult(x: np.ndarray, mats) -> np.ndarray:
    out = x
    for mode, a in enumerate(mats):
        out = _mode_mult(out, a, mode)
    return out


@dataclass(frozen=True)
class HosvdFactorization:
    """HOSVD of a third-order tensor: X = core x_1 U1 x_2 U2 x_3 U3.

    Factor n holds orthonormal left singular vectors of the mode-n
    unfolding, one column per entry of svals[n], which lists the matching
    singular values in non-increasing order; core has one index per factor
    column and is all-orthogonal, G_(n) G_(n)^T = diag(svals[n]^2), which
    the tangent projection at the point relies on.  :func:`hosvd` gives
    square I_n x I_n factors for a dense tensor, and one column per rank for
    a Tucker tensor.
    """

    core: np.ndarray
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]
    svals: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        for u, s in zip(self.factors, self.svals):
            if u.shape[1] != s.size:
                raise ValueError(f"factor with {u.shape[1]} columns has {s.size} singular values")
            if s.size and (s[-1] < 0 or np.any(np.diff(s) > 0)):
                raise ValueError("singular values must be nonnegative and non-increasing")
        # Scaled by the largest entry, so that no square overflows.
        peak = float(np.max(np.abs(self.core), initial=0.0)) or 1.0
        core = self.core / peak
        tol = 1e-10 * float(np.sum(core**2))
        for mode, s in enumerate(self.svals):
            if core.shape[mode] != s.size:
                raise ValueError(f"core dim {core.shape[mode]} has {s.size} singular values")
            g = _unfold(core, mode)
            if np.max(np.abs(g @ g.T - np.diag((s / peak) ** 2)), initial=0.0) > tol:
                raise ValueError(f"core is not all-orthogonal with these mode-{mode} singular values")


def _trusted(cls, **fields):
    """An instance of the frozen dataclass `cls` built without running its checks.

    For values a kernel of this package has just produced; every public
    construction still goes through ``__post_init__``.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _per_shape(fn, arrays) -> list:
    """[fn(a) for a in arrays], from one call of fn on the stack of the arrays
    if they share one shape and the stack fits in 128 KiB.  fn maps a stack
    slice by slice (numpy's svd and qr do), so each result has the bits of
    a call on its array alone."""
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays) or len(arrays) * arrays[0].nbytes > _STACK_BYTES:
        return [fn(a) for a in arrays]
    res = fn(np.array(arrays))  # np.stack, without its checks
    return list(zip(*res) if isinstance(res, tuple) else res)


def _signs(u: np.ndarray) -> np.ndarray:
    # Reproducibility convention: largest-magnitude entry of each column >= 0.
    # u is a matrix or a stack of them; the signs are those of each matrix.
    n, p = u.shape[-2:]
    flat = u.reshape(-1, n, p)
    idx = np.abs(flat).argmax(axis=1)
    top = flat[np.arange(len(flat))[:, None], idx, np.arange(p)]
    return np.where(top < 0, -1.0, 1.0).reshape(u.shape[:-2] + (p,))


def _hosvd_kernel(x: np.ndarray, ranks) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Truncated HOSVD of x with LAPACK's signs: (core, leading left singular vectors, svals).

    An m x n unfolding with m < n and over 128 KiB (a dense set-up from 26^3 on,
    never the loop's cores) goes through the R-SVD (Chan, 1982): A^T = QR gives
    A = R^T Q^T, so the m x m R^T has A's U and s, with no Gram matrix to square
    its condition number, and neither Q nor V' is formed.
    An R that overflowed leaves A to the direct call, which scales a large A.
    """
    def svd(t):  # t: x with a mode brought first, or a stack of such; unfolded (copied) here
        a = t.reshape(t.shape[:-2] + (-1,))
        if a.shape[-2] < a.shape[-1] and a.nbytes > _STACK_BYTES:
            r = np.linalg.qr(a.T, mode="r")
            a = r.T if np.isfinite(r).all() else a
        # full_matrices only matters when rows exceed columns; avoid the big V'.
        u, s, _ = np.linalg.svd(a, full_matrices=a.shape[-2] > a.shape[-1])
        return u, s  # V' is freed here, not held for all three modes

    core, ws, svals = x, [], []
    for mode, (u, s) in enumerate(_per_shape(svd, [x.transpose(o) for o in _MODE_ORDER])):
        w = u[:, : ranks[mode]]
        core = _mode_mult(core, w.T, mode)
        ws.append(w)
        # An unfolding with fewer columns than rows has rows - cols zero svals.
        pad = u.shape[0] - s.size
        svals.append(np.concatenate([s, np.zeros(pad)]) if pad else s)
    return core, ws, svals


def hosvd(core, factors=None) -> HosvdFactorization:
    """HOSVD of the Tucker tensor core x_1 U1 x_2 U2 x_3 U3, from its core alone.

    Without `factors`, the HOSVD of `core` itself (identity factors): square
    factors, and an exact core, X = core x_1 U1 x_2 U2 x_3 U3 up to floating
    point.  With them, the U_n are three StiefelPoints (else TypeError), with
    one column per core index, and the core is finite (else ValueError).  The
    mode-n unfolding of the tensor is U_n G_(n) (U_3 kron U_2 ...)^T, so with
    G_(n) = W_n S_n V_n^T its left singular vectors are U_n W_n and its
    nonzero singular values are S_n.  Factor n is therefore the I_n x r_n
    matrix U_n W_n, each column signed so its largest-magnitude entry is
    nonnegative, and the core is G contracted by the equally signed W_n; no
    tensor of the ambient shape is formed.
    """
    if factors is None:
        core = as_tensor3(core)
        us = tuple(np.eye(n) for n in core.shape)
    elif len(factors) == 3 and all(isinstance(f, StiefelPoint) for f in factors):
        us = tuple(f.u for f in factors)
        core = np.asarray(core, dtype=np.float64)
        cols = (us[0].shape[1], us[1].shape[1], us[2].shape[1])
        if core.shape != cols:  # mode 3: a core with more than three dimensions
            mode = next((n for n in MODES if core.shape[n : n + 1] != cols[n : n + 1]), 3)
            raise ValueError(f"mode {mode}: core of shape {core.shape}, factor columns {cols}")
        if np.count_nonzero(np.isfinite(core)) != core.size:  # faster than .all() at r^3
            raise ValueError("core entries must be finite")
    else:
        raise TypeError("hosvd takes three StiefelPoint factors")
    g, ws, svals = _hosvd_kernel(core, core.shape)
    uws = [u @ w for u, w in zip(us, ws)]
    s1, s2, s3 = _per_shape(_signs, uws)
    # Flipping a column's sign is exact, in the factor and in the core.  The
    # kernel's svals are LAPACK's, non-increasing and nonnegative, one per
    # factor column, so the factorization is built without re-checking them.
    return _trusted(
        HosvdFactorization,
        core=g * s1[:, None, None] * s2[:, None] * s3,
        factors=(uws[0] * s1, uws[1] * s2, uws[2] * s3),
        svals=tuple(svals),
    )


def _check_mask_ranks(f: HosvdFactorization, ranks) -> Ranks3:
    """The ranks of a mask of `f`: three, each in [0, columns of factor n]."""
    if len(ranks) != 3:
        raise ValueError(f"expected three ranks, got {ranks}")
    out = []
    for mode in MODES:
        r = int(ranks[mode])
        dim = f.factors[mode].shape[1]
        if not 0 <= r <= dim:
            raise ValueError(f"rank {r} out of range [0, {dim}] for mode {mode}")
        out.append(r)
    return tuple(out)


def truncated_reconstruct(f: HosvdFactorization, ranks) -> np.ndarray:
    """Project onto the top-r_n left singular subspace of each unfolding.

    Equivalent to X x_1 P1 x_2 P2 x_3 P3 with P_n the rank-r_n projector;
    computed from the sliced core and factor columns.
    """
    r1, r2, r3 = _check_mask_ranks(f, ranks)
    core = f.core[:r1, :r2, :r3]
    mats = (f.factors[0][:, :r1], f.factors[1][:, :r2], f.factors[2][:, :r3])
    return _multi_mult(core, mats)


def tail_energy(f: HosvdFactorization, ranks) -> float:
    """Sum of squared discarded singular values across the three modes."""
    checked = _check_mask_ranks(f, ranks)
    return float(sum(np.sum(f.svals[mode][checked[mode]:] ** 2) for mode in MODES))
