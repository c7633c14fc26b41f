from __future__ import annotations

import re

import numpy as np
import pytest

from cqd.optimizer import TaskSpec
from cqd.oracle_sim import OracleConfig, SimulatedOracle
from cqd.tensor_core import (
    HosvdFactorization,
    StiefelPoint,
    _mode_mult,
    _multi_mult,
    _unfold,
    as_matrix,
    as_tensor3,
    hosvd,
    tail_energy,
    truncated_reconstruct,
)


def unfold_by_hand(x: np.ndarray, mode: int) -> np.ndarray:
    """Independent layout oracle: enumerate indices per the layout rule."""
    dims = x.shape
    rest = [i for i in range(3) if i != mode]
    out = np.zeros((dims[mode], dims[rest[0]] * dims[rest[1]]))
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                idx = (i, j, k)
                row = idx[mode]
                col = idx[rest[0]] * dims[rest[1]] + idx[rest[1]]
                out[row, col] = x[i, j, k]
    return out


def random_low_rank(rng, shape, ranks) -> np.ndarray:
    core = rng.standard_normal(ranks)
    mats = []
    for mode in range(3):
        q, _ = np.linalg.qr(rng.standard_normal((shape[mode], ranks[mode])))
        mats.append(q)
    return _multi_mult(core, mats)


def test_unfold_singleton():
    x = np.array([[[5.0]]])
    assert _unfold(x, 0).tolist() == [[5.0]]


def test_unfold_2x2x2_matches_hand_enumeration():
    x = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                x[i, j, k] = 4 * i + 2 * j + k
    m = _unfold(x, 0)
    assert m.tolist() == [[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]]
    for mode in range(3):
        assert np.array_equal(_unfold(x, mode), unfold_by_hand(x, mode))


def test_unfold_hand_oracle_random_shapes():
    rng = np.random.default_rng(0)
    for shape in [(3, 4, 5), (2, 1, 6), (1, 1, 1)]:
        x = rng.standard_normal(shape)
        for mode in range(3):
            assert np.array_equal(_unfold(x, mode), unfold_by_hand(x, mode))


def test_constructors_reject_nonfinite():
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        as_tensor3(bad)
    with pytest.raises(ValueError):
        as_matrix(bad[0])


# A zero-length dimension used to pass the coercions and fail later inside numpy:
# a reshape error, a ZeroDivisionError after a RuntimeWarning, an empty reduction,
# or not at all (TaskSpec).
@pytest.mark.parametrize("build, shape", [
    pytest.param(lambda: hosvd(np.zeros((0, 3, 3))), (0, 3, 3), id="hosvd"),
    pytest.param(lambda: SimulatedOracle(OracleConfig(0.1, 0), np.zeros((2, 0, 2))), (2, 0, 2),
                 id="SimulatedOracle"),
    pytest.param(lambda: StiefelPoint(np.zeros((3, 0))), (3, 0), id="StiefelPoint"),
    pytest.param(lambda: TaskSpec(np.zeros((0, 2, 2)), tau=1), (0, 2, 2), id="TaskSpec"),
])
def test_a_degenerate_dimension_is_refused_when_a_value_is_built(build, shape):
    with pytest.raises(ValueError, match=re.escape(f"must be at least 1, got shape {shape}")):
        build()


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: as_tensor3(np.zeros((2, 2))), "third-order tensor, got ndim=2",
                 id="as_tensor3-ndim"),
    pytest.param(lambda: as_matrix(np.zeros((2, 2, 2))), "matrix, got ndim=3", id="as_matrix-ndim"),
    pytest.param(lambda: truncated_reconstruct(hosvd(np.ones((2, 2, 2))), (1, 1)),
                 re.escape("three ranks, got (1, 1)"), id="truncated_reconstruct-two-ranks"),
])
def test_a_value_of_the_wrong_order_is_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_mode_product_identity_and_zero():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 4, 5))
    assert np.allclose(_mode_mult(x, np.eye(4), 1), x)
    assert np.all(_mode_mult(x, np.zeros((2, 3)), 0) == 0.0)


def test_mode_product_matches_matrix_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 4, 5))
    a = rng.standard_normal((2, 3))
    y = _mode_mult(x, a, 0)
    assert y.shape == (2, 4, 5)
    assert np.max(np.abs(_unfold(y, 0) - a @ _unfold(x, 0))) < 1e-12


def test_mode_product_commutes_across_distinct_modes():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 4, 5))
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal((2, 4))
    left = _mode_mult(_mode_mult(x, a, 0), b, 1)
    right = _mode_mult(_mode_mult(x, b, 1), a, 0)
    assert np.max(np.abs(left - right)) < 1e-12


def test_hosvd_rank_one_tensor():
    rng = np.random.default_rng(5)
    a, b, c = (rng.standard_normal(n) for n in (4, 5, 6))
    a, b, c = (v / np.linalg.norm(v) for v in (a, b, c))
    x = np.einsum("i,j,k->ijk", a, b, c)
    f = hosvd(x)
    assert abs(abs(f.core[0, 0, 0]) - np.linalg.norm(x)) < 1e-10
    rest = f.core.ravel()[1:]
    assert np.max(np.abs(rest)) <= 1e-10
    for s in f.svals:
        assert np.sum(s > 1e-10) == 1


def test_hosvd_zero_tensor():
    f = hosvd(np.zeros((2, 3, 4)))
    assert np.all(f.core == 0.0)
    for s in f.svals:
        assert np.all(s == 0.0)


def test_hosvd_full_reconstruction_exact():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 5, 6))
    f = hosvd(x)
    err = np.linalg.norm(truncated_reconstruct(f, f.core.shape) - x) / np.linalg.norm(x)
    assert err <= 1e-10


def test_hosvd_factor_orthonormality_and_sval_identity():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 5, 6))
    f = hosvd(x)
    fro_sq = np.sum(x**2)
    for mode in range(3):
        u = f.factors[mode]
        assert u.shape == (x.shape[mode], x.shape[mode])
        assert np.max(np.abs(u.T @ u - np.eye(u.shape[0]))) <= 1e-10
        s = f.svals[mode]
        assert np.all(np.diff(s) <= 0)
        assert abs(np.sum(s**2) - fro_sq) <= 1e-9 * fro_sq


def test_hosvd_sign_convention_and_determinism():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 4, 5))
    f1 = hosvd(x)
    f2 = hosvd(x.copy())
    for mode in range(3):
        u = f1.factors[mode]
        idx = np.argmax(np.abs(u), axis=0)
        assert np.all(u[idx, np.arange(u.shape[1])] >= 0)
        assert np.array_equal(u, f2.factors[mode])
    assert np.array_equal(f1.core, f2.core)


def test_hosvd_degenerate_dims():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 1, 1))
    f = hosvd(x)
    assert np.linalg.norm(truncated_reconstruct(f, f.core.shape) - x) <= 1e-10 * np.linalg.norm(x)
    assert f.factors[0].shape == (5, 5)


def test_truncated_reconstruct_full_and_zero_ranks():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, 4, 5))
    f = hosvd(x)
    assert np.linalg.norm(truncated_reconstruct(f, (3, 4, 5)) - x) <= 1e-10
    assert np.all(truncated_reconstruct(f, (0, 0, 0)) == 0.0)


def test_truncated_reconstruct_recovers_exact_low_rank():
    rng = np.random.default_rng(11)
    x = random_low_rank(rng, (4, 4, 4), (2, 2, 2))
    f = hosvd(x)
    assert np.linalg.norm(truncated_reconstruct(f, (2, 2, 2)) - x) <= 1e-9


def test_truncated_reconstruct_rank_out_of_range():
    f = hosvd(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        truncated_reconstruct(f, (3, 0, 0))
    with pytest.raises(ValueError):
        truncated_reconstruct(f, (0, -1, 0))


def test_truncated_reconstruct_matches_projector_form():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 5, 6))
    f = hosvd(x)
    ranks = (2, 3, 4)
    expected = x
    for mode in range(3):
        u = f.factors[mode][:, : ranks[mode]]
        expected = _mode_mult(expected, u @ u.T, mode)
    assert np.max(np.abs(truncated_reconstruct(f, ranks) - expected)) < 1e-12


def test_tail_energy_edges():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((3, 4, 5))
    f = hosvd(x)
    assert tail_energy(f, (3, 4, 5)) == 0.0
    fro_sq = np.sum(x**2)
    assert abs(tail_energy(f, (0, 0, 0)) - 3 * fro_sq) <= 1e-9 * fro_sq


def test_tail_energy_bounds_truncation_residual():
    rng = np.random.default_rng(14)
    for _ in range(20):
        shape = tuple(rng.integers(1, 6, size=3))
        x = rng.standard_normal(shape)
        f = hosvd(x)
        ranks = tuple(int(rng.integers(0, d + 1)) for d in shape)
        resid = np.sum((x - truncated_reconstruct(f, ranks)) ** 2)
        assert resid <= tail_energy(f, ranks) + 1e-9


def test_tail_energy_rank_one_at_unit_ranks():
    rng = np.random.default_rng(15)
    a, b, c = (rng.standard_normal(n) for n in (3, 4, 5))
    x = np.einsum("i,j,k->ijk", a, b, c)
    f = hosvd(x)
    scale = np.sum(x**2)
    assert tail_energy(f, (1, 1, 1)) <= 1e-12 * scale
    resid = np.sum((x - truncated_reconstruct(f, (1, 1, 1))) ** 2)
    assert resid <= 1e-12 * scale


def test_top_projector_beats_random_projectors():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((6, 8))
    svals = np.linalg.svd(a, compute_uv=False)
    optimal = np.sum(svals[2:] ** 2)
    for _ in range(50):
        q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        resid = np.sum((a - q @ (q.T @ a)) ** 2)
        assert resid >= optimal - 1e-12
        assert resid > optimal  # strict for generic input


def test_factorization_rejects_unsorted_svals():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((2, 2, 2))
    f = hosvd(x)
    bad = tuple(s[::-1].copy() for s in f.svals)
    with pytest.raises(ValueError):
        HosvdFactorization(core=f.core, factors=f.factors, svals=bad)


def test_hosvd_pads_svals_to_factor_columns():
    rng = np.random.default_rng(17)
    f = hosvd(rng.standard_normal((5, 1, 2)))
    assert f.factors[0].shape == (5, 5)
    assert f.svals[0].size == 5  # the 5 x 2 unfolding has three zero svals
    assert np.all(f.svals[0][2:] == 0.0)


def test_factorization_rejects_svals_not_matching_factor_columns():
    rng = np.random.default_rng(18)
    f = hosvd(rng.standard_normal((3, 3, 3)))
    short = (f.svals[0][:2],) + f.svals[1:]
    with pytest.raises(ValueError, match="columns"):
        HosvdFactorization(core=f.core, factors=f.factors, svals=short)


def test_factorization_rejects_a_core_that_is_not_all_orthogonal():
    rng = np.random.default_rng(20)
    core = rng.standard_normal((2, 3, 2))
    factors = [np.linalg.qr(rng.standard_normal((n, r)))[0] for n, r in zip((5, 6, 4), core.shape)]
    f = hosvd(core, [StiefelPoint(u) for u in factors])
    # The HOSVD's own fields pass the public constructor.
    HosvdFactorization(core=f.core, factors=f.factors, svals=f.svals)
    # The same tensor in another gauge, with the HOSVD's svals, does not.
    with pytest.raises(ValueError, match="all-orthogonal"):
        HosvdFactorization(core=core, factors=tuple(factors), svals=f.svals)
    with pytest.raises(ValueError, match="core dim"):
        HosvdFactorization(core=f.core[:1], factors=f.factors, svals=f.svals)


def test_hosvd_refuses_factors_that_are_not_stiefel_points():
    # These columns have U^T U = 4 I: taken on trust, they gave factors that
    # are not orthonormal and svals that are not the tensor's.
    with pytest.raises(TypeError, match="StiefelPoint"):
        hosvd(np.ones((2, 2, 2)), (2 * np.eye(4)[:, :2],) * 3)
    with pytest.raises(ValueError, match="orthonormal"):
        StiefelPoint(2 * np.eye(4)[:, :2])


def test_hosvd_refuses_a_core_that_does_not_fit_its_factors_or_is_not_finite():
    # Both used to fail inside numpy: a matmul shape error and an SVD that did
    # not converge.
    factors = (StiefelPoint(np.eye(4)[:, :2]),) * 3
    with pytest.raises(ValueError, match="mode 0: core of shape"):
        hosvd(np.ones((3, 2, 2)), factors)
    with pytest.raises(ValueError, match="mode 2: core of shape"):
        hosvd(np.ones((2, 2, 3)), factors)
    with pytest.raises(ValueError, match="mode 3: core of shape"):
        hosvd(np.ones((2, 2, 2, 1)), factors)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            hosvd(np.full((2, 2, 2), bad), factors)
    with pytest.raises(TypeError, match="three StiefelPoint"):
        hosvd(np.ones((2, 2)), factors[:2])


def test_hosvd_of_tucker_tensor_exact_with_rank_bound_by_columns():
    rng = np.random.default_rng(19)
    core = rng.standard_normal((2, 3, 2))
    factors = [np.linalg.qr(rng.standard_normal((n, r)))[0] for n, r in zip((5, 6, 4), core.shape)]
    x = _multi_mult(core, factors)
    f = hosvd(core, [StiefelPoint(u) for u in factors])
    assert [u.shape for u in f.factors] == [(5, 2), (6, 3), (4, 2)]
    assert np.linalg.norm(truncated_reconstruct(f, f.core.shape) - x) <= 1e-12 * np.linalg.norm(x)
    assert np.linalg.norm(truncated_reconstruct(f, (2, 3, 2)) - x) <= 1e-12 * np.linalg.norm(x)
    assert tail_energy(f, (2, 3, 2)) == 0.0
    with pytest.raises(ValueError):
        truncated_reconstruct(f, (3, 3, 2))  # more than the factor's columns
