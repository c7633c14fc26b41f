"""The factored hot path against dense references kept here, not in the package.

The loop takes the iterate's HOSVD from its core, ``hosvd(core, factors)``,
masks and projects at it, and steps from it through the factored
:func:`tucker_retract`; both must agree with the dense computations they
replaced: the HOSVD of the densified iterate, and the truncated HOSVD of the
dense moved tensor.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cqd.manifold import (
    RankDeficiencyError,
    TuckerPoint,
    qr_retraction,
    riemannian_grad_tucker,
    tangent_to_ambient,
    tucker_retract,
    tucker_to_tensor,
)
from cqd.spectral_masking import mask_factorization
from cqd.tensor_core import _mode_mult, hosvd
from tests.test_manifold import point_hosvd, random_tangent

RTOL = 1e-12
# Deterministic example sequence, so that a run repeats the same cases.
SETTINGS = settings(derandomize=True, deadline=None, max_examples=60, database=None)
EINSUM = ("ai,ijk->ajk", "aj,ijk->iak", "ak,ijk->ija")


@st.composite
def tucker_cases(draw, max_dim: int = 7):
    """(shape, ranks, seed) with ranks a Tucker point of that shape can have."""
    shape = tuple(draw(st.integers(1, max_dim)) for _ in range(3))
    ranks = tuple(draw(st.integers(1, n)) for n in shape)
    # A multilinear rank satisfies r_n <= r_m * r_k.
    assume(all(ranks[n] <= ranks[(n + 1) % 3] * ranks[(n + 2) % 3] for n in range(3)))
    return shape, ranks, draw(st.integers(0, 2**32 - 1))


def random_point(rng, shape, ranks) -> TuckerPoint:
    factors = tuple(qr_retraction(rng.standard_normal((shape[n], ranks[n]))) for n in range(3))
    return TuckerPoint(core=rng.standard_normal(ranks), factors=factors)


def unfolding(x: np.ndarray, mode: int) -> np.ndarray:
    return np.moveaxis(x, mode, 0).reshape(x.shape[mode], -1)


def dense_truncation(x: np.ndarray, ranks) -> tuple[np.ndarray, list[np.ndarray]]:
    """Truncated HOSVD of a dense tensor: projected tensor and the svals per mode."""
    out = x
    svals = []
    for mode in range(3):
        u, s, _ = np.linalg.svd(unfolding(x, mode))
        u = u[:, : ranks[mode]]
        out = np.einsum(EINSUM[mode], u @ u.T, out)
        svals.append(s)
    return out, svals


def rel_gaps_ok(s: np.ndarray, upto: int, gap: float = 1e-6) -> bool:
    """Singular values 0..upto are distinct enough for their vectors to be defined."""
    s = s[: upto + 1]
    return bool(np.all(-np.diff(s) > gap * s[0]))


@SETTINGS
@example(case=((5, 5, 5), (3, 3, 3), 0), eta=0.5)  # 2r > n
@example(case=((3, 3, 3), (3, 3, 3), 1), eta=0.5)  # r = n
@example(case=((4, 3, 2), (4, 3, 2), 2), eta=0.5)  # r = n, unequal dims
@given(case=tucker_cases(), eta=st.floats(0.01, 1.0))
def test_retract_matches_dense_truncated_hosvd(case, eta):
    shape, ranks, seed = case
    rng = np.random.default_rng(seed)
    p = random_point(rng, shape, ranks)
    h = point_hosvd(p)
    t = random_tangent(rng, h)
    moved = tucker_to_tensor(p) + eta * tangent_to_ambient(h, t)
    expected, svals = dense_truncation(moved, ranks)
    for mode in range(3):
        r = ranks[mode]
        assume(svals[mode][r - 1] > 1e-6 * svals[mode][0])
        if r < svals[mode].size:  # the truncated subspace is well defined
            assume(svals[mode][r - 1] - svals[mode][r] > 1e-6 * svals[mode][0])
    got = tucker_to_tensor(tucker_retract(h, t, eta))
    assert np.linalg.norm(got - expected) <= RTOL * np.linalg.norm(expected)


@SETTINGS
@example(case=((5, 5, 5), (3, 3, 3), 0), eps=0.3)
@example(case=((3, 3, 3), (3, 3, 3), 1), eps=0.05)
@given(case=tucker_cases(), eps=st.floats(0.01, 0.9))
def test_hosvd_from_core_mask_matches_dense_hosvd(case, eps):
    shape, ranks, seed = case
    rng = np.random.default_rng(seed)
    p = random_point(rng, shape, ranks)
    x = tucker_to_tensor(p)
    dense = hosvd(x)
    thin = point_hosvd(p)
    scale = np.linalg.norm(x)
    for mode in range(3):
        r = ranks[mode]
        s = dense.svals[mode]
        assert thin.factors[mode].shape == (shape[mode], r)
        assert thin.svals[mode].size == r
        assert np.max(np.abs(thin.svals[mode] - s[:r])) <= RTOL * scale
        assert np.all(s[r:] <= RTOL * scale)
        # Vectors of (nearly) equal singular values are not unique, and a
        # threshold on a singular value's ratio to the first decides rounding.
        assume(rel_gaps_ok(s, r - 1))
        assume(np.all(np.abs(s[:r] / s[0] - eps) > 1e-9))
    r1, r2, r3 = kept = mask_factorization(thin, eps)
    assert kept == mask_factorization(dense, eps)
    core_gap = np.abs(thin.core[:r1, :r2, :r3] - dense.core[:r1, :r2, :r3])
    assert np.max(core_gap, initial=0.0) <= RTOL * scale
    for a, b, r in zip(thin.factors, dense.factors, kept):
        assert np.max(np.abs(a[:, :r] - b[:, :r]), initial=0.0) <= 1e-10


@SETTINGS
@given(
    shape=st.tuples(*(st.integers(0, 6) for _ in range(3))),
    rows=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_mode_mult_matches_einsum(shape, rows, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    for mode in range(3):
        a = rng.standard_normal((rows, shape[mode]))
        want = np.einsum(EINSUM[mode], a, x)
        tol = RTOL * max(1.0, np.max(np.abs(want), initial=0.0))
        # C-ordered inputs, and the non-contiguous views the package passes
        # (transposed factors, sliced cores).
        for xs, am in ((x, a), (np.asfortranarray(x), np.asfortranarray(a))):
            got = _mode_mult(xs, am, mode)
            assert got.shape == want.shape
            assert got.flags.c_contiguous
            assert np.max(np.abs(got - want), initial=0.0) <= tol


@SETTINGS
@example(case=((5, 5, 5), (3, 3, 3), 0))
@example(case=((3, 3, 3), (3, 3, 3), 1))
@given(case=tucker_cases())
def test_retract_raises_on_rank_collapse(case):
    shape, ranks, seed = case
    p = random_point(np.random.default_rng(seed), shape, ranks)
    h = point_hosvd(p)
    # X is tangent at X (core direction = core), so a unit step along -X
    # lands on the zero tensor, which supports no positive rank.
    toward_zero = riemannian_grad_tucker(h, -tucker_to_tensor(p))
    with pytest.raises(RankDeficiencyError):
        tucker_retract(h, toward_zero, 1.0)
