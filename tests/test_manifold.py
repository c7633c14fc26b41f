from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from cqd.manifold import (
    RankDeficiencyError,
    StiefelPoint,
    TuckerPoint,
    TuckerTangent,
    gen_synthetic,
    qr_retraction,
    riemannian_grad_tucker,
    tangent_norm_sq,
    tangent_project_stiefel,
    tangent_to_ambient,
    tucker_from_tensor,
    tucker_retract,
    tucker_to_tensor,
)
from cqd.tensor_core import HosvdFactorization, _hosvd_kernel, _multi_mult, hosvd


def random_stiefel(rng, n, p) -> StiefelPoint:
    return qr_retraction(rng.standard_normal((n, p)))


def random_tucker_point(rng, shape=(5, 6, 7), ranks=(2, 3, 2)) -> TuckerPoint:
    factors = tuple(random_stiefel(rng, shape[m], ranks[m]) for m in range(3))
    return TuckerPoint(core=rng.standard_normal(ranks), factors=factors)


def point_hosvd(p: TuckerPoint) -> HosvdFactorization:
    """The HOSVD of a Tucker point, at which its tangents are taken."""
    return hosvd(p.core, p.factors)


def random_tangent(rng, h: HosvdFactorization) -> TuckerTangent:
    dirs = []
    for u in h.factors:
        w = rng.standard_normal(u.shape)
        dirs.append(w - u @ (u.T @ w))
    return TuckerTangent(core_dir=rng.standard_normal(h.core.shape), factor_dirs=tuple(dirs))


def negated(t: TuckerTangent) -> TuckerTangent:
    return TuckerTangent(core_dir=-t.core_dir, factor_dirs=tuple(-d for d in t.factor_dirs))


# ---------------------------------------------------------------------------
# Stiefel primitives
# ---------------------------------------------------------------------------


def test_stiefel_point_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        StiefelPoint(np.ones((4, 2)))


def test_tangent_projection_of_point_is_zero():
    rng = np.random.default_rng(0)
    u = random_stiefel(rng, 6, 3)
    assert np.linalg.norm(tangent_project_stiefel(u, u.u)) <= 1e-10


def test_tangent_projection_fixes_tangent_vectors():
    rng = np.random.default_rng(1)
    u = random_stiefel(rng, 6, 3)
    xi = tangent_project_stiefel(u, rng.standard_normal((6, 3)))
    again = tangent_project_stiefel(u, xi)
    assert np.max(np.abs(again - xi)) <= 1e-12


def test_tangent_projection_tangency_residual():
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = random_stiefel(rng, 7, 3)
        xi = tangent_project_stiefel(u, rng.standard_normal((7, 3)))
        assert np.linalg.norm(u.u.T @ xi + xi.T @ u.u) <= 1e-10


def test_tangent_projection_shape_mismatch():
    rng = np.random.default_rng(3)
    u = random_stiefel(rng, 6, 3)
    with pytest.raises(ValueError):
        tangent_project_stiefel(u, np.zeros((6, 2)))


def test_qr_retraction_identity_on_orthonormal():
    rng = np.random.default_rng(4)
    u = random_stiefel(rng, 6, 3)
    assert np.max(np.abs(qr_retraction(u.u).u - u.u)) <= 1e-12


def test_qr_retraction_absorbs_positive_scale():
    rng = np.random.default_rng(5)
    u = random_stiefel(rng, 6, 3)
    assert np.max(np.abs(qr_retraction(3.0 * u.u).u - u.u)) <= 1e-12


def test_qr_retraction_preserves_span():
    rng = np.random.default_rng(6)
    for _ in range(10):
        y = rng.standard_normal((8, 3))
        q = qr_retraction(y).u
        assert np.max(np.abs(q.T @ q - np.eye(3))) <= 1e-10
        p_q = q @ q.T
        p_y = y @ np.linalg.pinv(y)
        assert np.max(np.abs(p_q - p_y)) <= 1e-9


def test_qr_retraction_rank_deficient():
    y = np.zeros((5, 2))
    y[:, 0] = 1.0
    with pytest.raises(RankDeficiencyError):
        qr_retraction(y)


def test_qr_retraction_deterministic():
    rng = np.random.default_rng(7)
    y = rng.standard_normal((6, 4))
    q1 = qr_retraction(y).u
    q2 = qr_retraction(y.copy()).u
    assert q1.tobytes() == q2.tobytes()


# ---------------------------------------------------------------------------
# Fixed multilinear-rank geometry
# ---------------------------------------------------------------------------


def test_tucker_point_validates_factor_ranks():
    rng = np.random.default_rng(11)
    factors = tuple(random_stiefel(rng, 5, 2) for _ in range(3))
    with pytest.raises(ValueError):
        TuckerPoint(core=rng.standard_normal((2, 2, 3)), factors=factors)


def test_tucker_point_takes_three_stiefel_points():
    # Bare matrices used to construct, and run_cqd then died at k=0 with a raw
    # AttributeError; two factors raised a raw IndexError.
    rng = np.random.default_rng(11)
    factors = tuple(random_stiefel(rng, 5, 2) for _ in range(3))
    core = rng.standard_normal((2, 2, 2))
    for bad in (tuple(f.u for f in factors), factors[:2], factors + factors[:1],
                (factors[0], factors[1], factors[2].u)):
        with pytest.raises(TypeError, match="three StiefelPoint"):
            TuckerPoint(core=core, factors=bad)
    assert TuckerPoint(core=core, factors=factors).shape == (5, 5, 5)


def test_riemannian_grad_zero_input():
    rng = np.random.default_rng(12)
    p = random_tucker_point(rng)
    h = point_hosvd(p)
    t = riemannian_grad_tucker(h, np.zeros(p.shape))
    assert np.all(t.core_dir == 0.0)
    assert all(np.all(d == 0.0) for d in t.factor_dirs)
    assert tangent_norm_sq(h, t) == 0.0


def test_riemannian_grad_fixes_embedded_tangents():
    rng = np.random.default_rng(13)
    h = point_hosvd(random_tucker_point(rng))
    t = random_tangent(rng, h)
    ambient = tangent_to_ambient(h, t)
    back = riemannian_grad_tucker(h, ambient)
    assert np.linalg.norm(tangent_to_ambient(h, back) - ambient) <= 1e-9


def test_riemannian_grad_gauge_orthogonality():
    rng = np.random.default_rng(14)
    p = random_tucker_point(rng)
    h = point_hosvd(p)
    t = riemannian_grad_tucker(h, rng.standard_normal(p.shape))
    for mode in range(3):
        assert np.max(np.abs(h.factors[mode].T @ t.factor_dirs[mode])) <= 1e-10


def test_riemannian_grad_shape_mismatch():
    rng = np.random.default_rng(15)
    p = random_tucker_point(rng)
    h = point_hosvd(p)
    with pytest.raises(ValueError):
        riemannian_grad_tucker(h, np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        riemannian_grad_tucker(h, np.zeros((1, 2, *p.shape)))
    with pytest.raises(ValueError, match="finite"):
        riemannian_grad_tucker(h, np.full(p.shape, np.nan))


def reference_projection(p: TuckerPoint, z: np.ndarray) -> np.ndarray:
    """Orthogonal projection of z onto the tangent space at p, by least squares.

    The tangent space is spanned by the embeddings of the core directions
    e_abc and of the horizontal factor directions (I - U_n U_n^T) e_i e_j^T;
    the latter are linearly dependent, which lstsq handles by its SVD.
    """
    us = [f.u for f in p.factors]
    basis = []
    for idx in np.ndindex(p.ranks):
        core_dir = np.zeros(p.ranks)
        core_dir[idx] = 1.0
        basis.append(_multi_mult(core_dir, us))
    for mode in range(3):
        u = us[mode]
        for i, j in np.ndindex(u.shape):
            d = np.zeros(u.shape)
            d[i, j] = 1.0
            mats = list(us)
            mats[mode] = d - u @ (u.T @ d)
            basis.append(_multi_mult(p.core, mats))
    a = np.stack([v.ravel() for v in basis], axis=1)
    coef, *_ = np.linalg.lstsq(a, z.ravel(), rcond=1e-10)
    return (a @ coef).reshape(z.shape)


@pytest.mark.parametrize(
    "shape, ranks",
    [
        ((6, 6, 6), (2, 2, 2)),
        ((12, 12, 12), (4, 4, 4)),
        ((5, 7, 9), (2, 3, 4)),
        ((6, 5, 4), (3, 2, 4)),
    ],
    ids=["6^3-r2", "12^3-r4", "5x7x9-r234", "6x5x4-r324"],
)
def test_riemannian_grad_matches_least_squares_projection(shape, ranks):
    rng = np.random.default_rng(sum(shape) + sum(ranks))
    start = random_tucker_point(rng, shape, ranks)
    h = point_hosvd(start)
    z = rng.standard_normal(shape)
    # The reference spans the tangent space from the point's own gauge.
    want = reference_projection(start, z)
    t = riemannian_grad_tucker(h, z)
    got = tangent_to_ambient(h, t)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(z)
    # The norm needs only the core direction and the svals of the gauge.
    assert tangent_norm_sq(h, t) == pytest.approx(float(np.sum(got**2)), rel=1e-12)


def test_stacked_projection_equals_one_call_per_slice():
    rng = np.random.default_rng(26)
    p = random_tucker_point(rng, (5, 7, 9), (2, 3, 4))
    h = point_hosvd(p)
    z = rng.standard_normal((2, *p.shape))
    stacked = riemannian_grad_tucker(h, z)
    assert len(stacked) == 2
    for t, zi in zip(stacked, z):
        single = riemannian_grad_tucker(h, zi)
        np.testing.assert_allclose(t.core_dir, single.core_dir, rtol=1e-14, atol=1e-15)
        for a, b in zip(t.factor_dirs, single.factor_dirs):
            np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-15)


def test_riemannian_grad_rank_collapse_names_mode_and_position():
    rng = np.random.default_rng(27)
    p = random_tucker_point(rng, ranks=(2, 3, 2))
    core = p.core.copy()
    core[:, 2, :] = 0.0  # the mode-1 unfolding loses its third row
    h = point_hosvd(TuckerPoint(core=core, factors=p.factors))
    with pytest.raises(RankDeficiencyError, match="mode-1 singular value at position 3 "):
        riemannian_grad_tucker(h, np.ones(p.shape))


def test_tangent_norm_matches_ambient_embedding():
    rng = np.random.default_rng(16)
    h = point_hosvd(random_tucker_point(rng))
    t = random_tangent(rng, h)
    ambient = tangent_to_ambient(h, t)
    assert tangent_norm_sq(h, t) == pytest.approx(float(np.sum(ambient**2)), rel=1e-10)


@pytest.mark.parametrize(
    "shape, ranks", [((6, 6, 6), (2, 2, 2)), ((8, 7, 6), (3, 2, 2)), ((48, 48, 48), (2, 2, 2))]
)
def test_tangent_norm_has_the_bits_of_one_np_sum_per_component(shape, ranks):
    # Exact equality: the norm sums each component as np.sum does, in this order.
    # Twenty instances, since a sum in another order (np.vdot) still gives these
    # bits for most of them.
    rng = np.random.default_rng(19)
    for _ in range(20):
        h = point_hosvd(tucker_from_tensor(rng.standard_normal(shape), ranks))
        t = riemannian_grad_tucker(h, rng.standard_normal(shape))
        want = float(np.sum(t.core_dir**2))
        for d, s in zip(t.factor_dirs, h.svals):
            want += float(np.sum((d * s) ** 2))
        assert tangent_norm_sq(h, t) == want


def test_projection_shrinks_norm():
    rng = np.random.default_rng(17)
    p = random_tucker_point(rng)
    h = point_hosvd(p)
    z = rng.standard_normal(p.shape)
    t = riemannian_grad_tucker(h, z)
    assert tangent_norm_sq(h, t) <= np.sum(z**2) * (1 + 1e-12)


def _recorded(fn, shapes, per_matrix=False):
    """fn, recording the shape of each call's input; with per_matrix, a stack
    is answered by one call of fn per matrix."""

    def wrapped(a, *args, **kwargs):
        shapes.append(a.shape)
        if not per_matrix or a.ndim == 2:
            return fn(a, *args, **kwargs)
        res = [fn(m, *args, **kwargs) for m in a]
        return type(res[0])(*(np.stack(parts) for parts in zip(*res)))

    return wrapped


@pytest.mark.parametrize(
    "shape, ranks, calls",
    [
        ((6, 6, 6), (2, 2, 2), 1),
        ((8, 7, 6), (3, 2, 2), 3),
        ((48, 48, 48), (2, 2, 2), 3),
        ((6, 6, 5), (2, 2, 2), 3),
    ],
)
def test_stacked_svd_and_qr_give_the_bits_of_one_call_per_mode(monkeypatch, shape, ranks, calls):
    # The three modes share one LAPACK call when all their matrices have one
    # shape, up to a 128 KiB stack; otherwise each goes in a call of its own:
    # at 6x6x5 two unfoldings share a shape, and the 48^3 unfoldings (864 KiB
    # each) exceed the stack.
    rng = np.random.default_rng(30)
    x = rng.standard_normal(shape)
    h = point_hosvd(tucker_from_tensor(x, ranks))
    t = riemannian_grad_tucker(h, rng.standard_normal(shape))

    def outputs():
        core, ws, svals = _hosvd_kernel(x, ranks)
        moved = tucker_retract(h, t, 0.3)
        return [a.tobytes() for a in (core, *ws, *svals, moved.core, *(f.u for f in moved.factors))]

    svd, qr = np.linalg.svd, np.linalg.qr
    shapes = []
    monkeypatch.setattr(np.linalg, "svd", _recorded(svd, shapes))
    _hosvd_kernel(x, ranks)
    assert len(shapes) == calls
    stacked = outputs()
    monkeypatch.setattr(np.linalg, "svd", _recorded(svd, [], per_matrix=True))
    monkeypatch.setattr(np.linalg, "qr", _recorded(qr, [], per_matrix=True))
    assert outputs() == stacked


def test_a_large_hosvd_copies_one_unfolding_at_a_time():
    # Above the stacking cap each unfolding is copied in its own SVD call and
    # its V^T freed there: all three unfoldings held at once peaked at 4.1x
    # the tensor, and a V^T kept until the next mode's SVD at 3.1x.
    x = np.random.default_rng(31).standard_normal((48, 48, 48))
    tracemalloc.start()
    try:
        tucker_from_tensor(x, (2, 2, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * x.nbytes  # one unfolding's copy and the V^T of its SVD


def test_tucker_retract_zero_direction():
    rng = np.random.default_rng(18)
    p = random_tucker_point(rng)
    h = point_hosvd(p)
    moved = tucker_retract(h, riemannian_grad_tucker(h, np.zeros(p.shape)), 0.7)
    assert np.linalg.norm(tucker_to_tensor(moved) - tucker_to_tensor(p)) <= 1e-10


@pytest.mark.parametrize("eta", [0.0, -0.5])
def test_tucker_retract_refuses_a_step_that_is_not_positive(eta):
    rng = np.random.default_rng(18)
    h = point_hosvd(random_tucker_point(rng))
    with pytest.raises(ValueError, match="eta must be positive"):
        tucker_retract(h, random_tangent(rng, h), eta)


def test_tucker_retract_first_order_slope():
    rng = np.random.default_rng(19)
    p = random_tucker_point(rng)
    h = point_hosvd(p)
    t = random_tangent(rng, h)
    x = tucker_to_tensor(p)
    emb = tangent_to_ambient(h, t)
    errs = {}
    for eta in (1e-3, 2e-3):
        moved = tucker_to_tensor(tucker_retract(h, t, eta))
        errs[eta] = np.linalg.norm(moved - x - eta * emb)
    # Richardson-style slope: halving eta should shrink the remainder ~4x.
    ratio = errs[2e-3] / errs[1e-3]
    assert 2.5 <= ratio <= 5.5


def test_tucker_retract_descends_toward_matching_rank_target():
    rng = np.random.default_rng(20)
    p = random_tucker_point(rng, shape=(5, 5, 5), ranks=(2, 2, 2))
    target = tucker_to_tensor(random_tucker_point(rng, shape=(5, 5, 5), ranks=(2, 2, 2)))
    dists = [np.linalg.norm(tucker_to_tensor(p) - target)]
    for _ in range(60):
        h = point_hosvd(p)
        step = riemannian_grad_tucker(h, target - tucker_to_tensor(p))
        p = tucker_retract(h, step, 0.2)
        dists.append(np.linalg.norm(tucker_to_tensor(p) - target))
    diffs = np.diff(dists)
    assert np.all(diffs <= 1e-12)
    assert dists[-1] < dists[0]


def test_tucker_retract_rank_collapse_raises():
    rng = np.random.default_rng(21)
    p = random_tucker_point(rng)
    h = point_hosvd(p)
    x = tucker_to_tensor(p)
    # X itself is tangent at X (core direction = core), so a unit step along
    # -X lands exactly on the zero tensor.
    toward_zero = riemannian_grad_tucker(h, -x)
    with pytest.raises(RankDeficiencyError, match="mode-0 singular value at position 2 "):
        tucker_retract(h, toward_zero, 1.0)


def test_tucker_from_tensor_recovers_exact_rank():
    rng = np.random.default_rng(22)
    p = random_tucker_point(rng)
    x = tucker_to_tensor(p)
    q = tucker_from_tensor(x, p.ranks)
    assert np.linalg.norm(tucker_to_tensor(q) - x) <= 1e-10
    with pytest.raises(RankDeficiencyError):
        tucker_from_tensor(x, (3, 4, 3))  # exact rank (2,3,2) cannot support more
    with pytest.raises(ValueError):
        tucker_from_tensor(x, (0, 2, 2))


def test_tucker_from_tensor_rejects_rank_above_dimension():
    x = np.random.default_rng(24).standard_normal((5, 6, 7))
    with pytest.raises(ValueError, match=r"ranks \(2, 2, 8\) invalid for shape \(5, 6, 7\)"):
        tucker_from_tensor(x, (2, 2, 8))
    # The range is checked for every mode before any SVD runs.
    with pytest.raises(ValueError, match=r"ranks \(2, 7, 2\) invalid for shape \(5, 6, 7\)"):
        tucker_from_tensor(np.zeros((5, 6, 7)), (2, 7, 2))


def test_tucker_from_tensor_needs_three_ranks():
    x = np.random.default_rng(24).standard_normal((5, 6, 7))
    for ranks in ((2, 2), (2, 2, 2, 2)):
        with pytest.raises(ValueError, match="expected three of each"):
            tucker_from_tensor(x, ranks)
    with pytest.raises(ValueError, match="expected three of each"):
        gen_synthetic((5, 6), (2, 2, 2), 0.1, 0)


def test_ranks_no_tensor_has_are_refused():
    # Rank 3 for mode 2 needs at least 3 columns in its unfolding, which a
    # 1 x 2 x 3 core does not have: no tensor has multilinear rank (1, 2, 3).
    rng = np.random.default_rng(25)
    with pytest.raises(ValueError, match="no third-order tensor has ranks"):
        gen_synthetic((4, 5, 6), (1, 2, 3), 0.1, 0)
    with pytest.raises(ValueError, match="no third-order tensor has ranks"):
        tucker_from_tensor(rng.standard_normal((4, 5, 6)), (1, 2, 3))
    factors = tuple(random_stiefel(rng, 5, r) for r in (3, 1, 2))
    with pytest.raises(ValueError, match="no third-order tensor has ranks"):
        TuckerPoint(core=rng.standard_normal((3, 1, 2)), factors=factors)


def test_tucker_from_tensor_collapse_names_mode_and_position():
    rng = np.random.default_rng(25)
    x = tucker_to_tensor(random_tucker_point(rng, ranks=(2, 3, 2)))
    with pytest.raises(RankDeficiencyError, match="mode-1 singular value at position 4 "):
        tucker_from_tensor(x, (2, 4, 2))
    with pytest.raises(RankDeficiencyError, match="mode-0 singular value at position 1 "):
        tucker_from_tensor(np.zeros((3, 3, 3)), (1, 1, 1))


def test_tucker_from_tensor_refuses_a_core_that_overflows():
    # Finite entries whose rank-1 core, their sum over sqrt(8), passes float64's
    # limit: a RuntimeWarning out of the core's matmul, under this suite's filter.
    with pytest.raises(ValueError, match="the projected core overflows float64"):
        tucker_from_tensor(np.full((2, 2, 2), 1e308), (1, 1, 1))


# ---------------------------------------------------------------------------
# Retraction axioms (both retractions)
# ---------------------------------------------------------------------------


def test_retraction_axioms_stiefel():
    rng = np.random.default_rng(23)
    h = 1e-5
    for _ in range(10):
        u = random_stiefel(rng, 6, 3)
        assert np.max(np.abs(qr_retraction(u.u + 0.0).u - u.u)) <= 1e-12
        xi = tangent_project_stiefel(u, rng.standard_normal((6, 3)))
        plus = qr_retraction(u.u + h * xi).u
        minus = qr_retraction(u.u - h * xi).u
        fd = (plus - minus) / (2 * h)
        assert np.max(np.abs(fd - xi)) <= 1e-6


def test_retraction_axioms_tucker():
    rng = np.random.default_rng(24)
    h = 1e-5
    for _ in range(10):
        p = random_tucker_point(rng)
        x = tucker_to_tensor(p)
        at = point_hosvd(p)
        same = tucker_retract(at, riemannian_grad_tucker(at, np.zeros(p.shape)), 1.0)
        assert np.linalg.norm(tucker_to_tensor(same) - x) <= 1e-12 * max(
            1.0, np.linalg.norm(x)
        )
        t = random_tangent(rng, at)
        emb = tangent_to_ambient(at, t)
        plus = tucker_to_tensor(tucker_retract(at, t, h))
        minus = tucker_to_tensor(tucker_retract(at, negated(t), h))
        fd = (plus - minus) / (2 * h)
        assert np.max(np.abs(fd - emb)) <= 1e-6 * max(1.0, np.max(np.abs(emb)))
