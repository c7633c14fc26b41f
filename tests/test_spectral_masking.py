from __future__ import annotations

import numpy as np
import pytest

from cqd.spectral_masking import (
    EPS_DECREASE,
    EPS_INCREASE,
    EPS_MAX,
    EPS_MIN,
    adapt_epsilon,
    asm_compress,
    budget,
    compress_within_budget,
    mask_factorization,
)
from cqd.tensor_core import (
    HosvdFactorization,
    _mode_mult,
    _multi_mult,
    _trusted,
    hosvd,
    tail_energy,
    truncated_reconstruct,
)


def low_rank_with_gap(rng, shape=(6, 6, 6), ranks=(2, 2, 2)):
    core = rng.standard_normal(ranks)
    mats = []
    for mode in range(3):
        q, _ = np.linalg.qr(rng.standard_normal((shape[mode], ranks[mode])))
        mats.append(q)
    return _multi_mult(core, mats)


def superdiagonal(svals) -> HosvdFactorization:
    """The HOSVD whose every mode has the singular values `svals`: a superdiagonal core."""
    s = np.asarray(svals, dtype=np.float64)
    core = np.zeros((s.size,) * 3)
    core[np.arange(s.size), np.arange(s.size), np.arange(s.size)] = s
    return HosvdFactorization(core=core, factors=(np.eye(s.size),) * 3, svals=(s, s, s))


def masked(x, eps_rel: float) -> np.ndarray:
    """The tensor the spectral mask keeps of x: its truncated HOSVD at the masked ranks."""
    f = hosvd(x)
    return truncated_reconstruct(f, mask_factorization(f, eps_rel))


def test_mask_basic_threshold():
    assert mask_factorization(superdiagonal([10.0, 5.0, 0.5]), 0.1) == (2, 2, 2)


def test_mask_keeps_exact_threshold_tie():
    # sigma_i == eps * sigma_1 is kept (inclusive >=)
    assert mask_factorization(superdiagonal([10.0, 1.0, 0.5]), 0.1) == (2, 2, 2)


def test_mask_all_equal_svals():
    assert mask_factorization(superdiagonal([3.0, 3.0, 3.0]), 0.99) == (3, 3, 3)


def test_mask_zero_state_overrides_literal_indicator():
    svals = np.zeros(4)
    # The literal definition keeps everything when sigma_1 == 0 (0 >= 0) ...
    assert np.all(svals >= 0.5 * svals[0])
    # ... but a zero state carries no information, so nothing is kept.
    assert mask_factorization(superdiagonal(svals), 0.5) == (0, 0, 0)


@pytest.mark.parametrize(
    "svals, eps",
    [
        ((3.0, 0.1 * 3.0, 0.3, 0.0), 0.1),  # one sval exactly eps * s_0; 0.3 rounds below it
        ((10.0, 1.0, 0.5), 0.1),
        ((0.0, 0.0, 0.0), 0.5),
        ((2.5,), 0.999),
        ((np.inf, 1.0, 0.0), 0.5),
        ((np.inf, np.inf, 1.0), 0.5),
    ],
)
def test_mask_counts_the_svals_at_or_above_eps_times_the_first(svals, eps):
    # Hand-built, as the mask reads only the svals: mode n holds the first n + 1, mode 2 all.
    spectra = tuple(np.array(svals[: n + 1] if n < 2 else svals) for n in range(3))
    f = _trusted(
        HosvdFactorization,
        core=np.zeros(tuple(s.size for s in spectra)),
        factors=tuple(np.eye(s.size) for s in spectra),
        svals=spectra,
    )
    # A zero state keeps nothing (see test_mask_zero_state_overrides_literal_indicator).
    want = tuple(int(np.count_nonzero(s >= eps * s[0])) if s[0] > 0 else 0 for s in spectra)
    assert mask_factorization(f, eps) == want


def test_mask_empty_svals():
    assert mask_factorization(superdiagonal(np.zeros(0)), 0.5) == (0, 0, 0)


def test_mask_rejects_bad_inputs():
    with pytest.raises(ValueError, match="non-increasing"):
        superdiagonal([1.0, 2.0])  # not descending
    f = superdiagonal([2.0, 1.0])
    with pytest.raises(ValueError):
        mask_factorization(f, 0.0)  # eps out of range
    with pytest.raises(ValueError):
        mask_factorization(f, 1.0)


def test_mask_is_prefix_on_random_spectra():
    rng = np.random.default_rng(0)
    for _ in range(25):
        s = np.sort(rng.random(8))[::-1]
        eps = float(rng.uniform(0.05, 0.95))
        kept = mask_factorization(superdiagonal(s), eps)[0]
        assert np.all(s[:kept] >= eps * s[0]) and np.all(s[kept:] < eps * s[0])


def test_asm_recovers_exact_low_rank_with_gap():
    rng = np.random.default_rng(1)
    x = low_rank_with_gap(rng)
    core = asm_compress(x, 0.05)
    assert core.shape == (2, 2, 2)
    assert budget(core.shape) == 8
    assert np.linalg.norm(masked(x, 0.05) - x) <= 1e-9
    assert np.array_equal(core, hosvd(x).core[:2, :2, :2])


def test_asm_tiny_eps_keeps_everything():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 5, 6))
    f = hosvd(x)
    min_ratio = min(s[-1] / s[0] for s in f.svals)
    assert mask_factorization(f, min_ratio / 2) == (4, 5, 6)
    assert asm_compress(x, min_ratio / 2).shape == (4, 5, 6)
    assert np.linalg.norm(masked(x, min_ratio / 2) - x) <= 1e-12 * np.linalg.norm(x)


def test_asm_zero_tensor():
    x = np.zeros((3, 3, 3))
    assert mask_factorization(hosvd(x), 0.2) == (0, 0, 0)
    assert asm_compress(x, 0.2).shape == (0, 0, 0)
    assert np.all(masked(x, 0.2) == 0.0)


def test_asm_matches_literal_projector_form():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 5, 6))
    eps = 0.3
    f = hosvd(x)
    expected = x
    for mode, r in enumerate(mask_factorization(f, eps)):
        u = f.factors[mode]
        m = (np.arange(u.shape[1]) < r).astype(float)  # the ones-prefix mask
        expected = _mode_mult(expected, (u * m) @ u.T, mode)
    assert np.max(np.abs(masked(x, eps) - expected)) < 1e-12


def test_asm_reconstruction_through_retained_factors():
    # The payload core, pushed through the factor columns the mask keeps,
    # is the masked tensor.
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 4, 6))
    rebuilt = core = asm_compress(x, 0.4)
    f = hosvd(x)
    for mode, r in enumerate(core.shape):
        rebuilt = _mode_mult(rebuilt, f.factors[mode][:, :r], mode)
    assert np.linalg.norm(rebuilt - masked(x, 0.4)) <= 1e-10


def test_asm_idempotent():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 5, 6))
    once = masked(x, 0.3)
    twice = masked(once, 0.3)
    assert np.linalg.norm(twice - once) <= 1e-10


def test_asm_non_expansive():
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = rng.standard_normal((4, 5, 6))
        eps = float(rng.uniform(0.05, 0.95))
        y = masked(x, eps)
        assert np.linalg.norm(y) <= np.linalg.norm(x) * (1 + 1e-12)


def test_asm_rank_monotone_in_eps():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 5, 5))
    f = hosvd(x)
    prev = None
    for eps in np.linspace(0.05, 0.95, 15):
        ranks = mask_factorization(f, float(eps))
        if prev is not None:
            assert all(r <= p for r, p in zip(ranks, prev))
        prev = ranks


def test_asm_distortion_bounded_by_tail_energy():
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.standard_normal((4, 4, 4))
        f = hosvd(x)
        ranks = mask_factorization(f, float(rng.uniform(0.1, 0.9)))
        resid = np.sum((x - truncated_reconstruct(f, ranks)) ** 2)
        assert resid <= tail_energy(f, ranks) + 1e-9


def test_budget_arithmetic():
    assert budget((2, 3, 4)) == 24
    assert budget((0, 3, 4)) == 0
    with pytest.raises(ValueError):
        budget((-1, 2, 2))


def test_adapt_epsilon_update_rule():
    assert adapt_epsilon(0.1, 30, 24) == pytest.approx(0.1 * EPS_INCREASE)
    assert adapt_epsilon(0.1, 24, 24) == 0.1
    assert adapt_epsilon(0.1, 20, 24) == pytest.approx(0.1 * EPS_DECREASE)


def test_adapt_epsilon_clamps():
    assert adapt_epsilon(0.998, 100, 1) == EPS_MAX
    assert adapt_epsilon(EPS_MIN, 0, 10) == EPS_MIN
    with pytest.raises(ValueError):
        adapt_epsilon(0.1, 10, -1)


def test_controller_reaches_feasible_budget():
    rng = np.random.default_rng(9)
    f = hosvd(rng.standard_normal((5, 5, 5)))
    eps = 1e-3
    tau = 8
    reached = None
    for step in range(200):
        achieved = budget(mask_factorization(f, eps))
        if achieved <= tau:
            reached = step
            break
        eps = adapt_epsilon(eps, achieved, tau)
    assert reached is not None


def test_compress_within_budget_enforces_tau():
    rng = np.random.default_rng(10)
    for seed in range(5):
        f = hosvd(np.random.default_rng(seed).standard_normal((6, 6, 6)))
        ranks, eps = compress_within_budget(f, 1e-4, tau=10)
        assert budget(ranks) <= 10
        assert EPS_MIN <= eps <= EPS_MAX
    # already feasible input is returned unchanged
    f = hosvd(rng.standard_normal((3, 3, 3)))
    ranks, eps = compress_within_budget(f, 0.9, tau=27)
    assert (ranks, eps) == (mask_factorization(f, 0.9), 0.9)


def test_compress_within_budget_stops_at_eps_max_on_tied_spectrum():
    # The superdiagonal tensor: every unfolding has three equal singular
    # values, so no eps keeps fewer than all of them.  Past EPS_MAX the mask
    # drops tied trailing directions, from the mode with the most, until tau fits.
    x = np.zeros((3, 3, 3))
    x[np.arange(3), np.arange(3), np.arange(3)] = 1.0
    f = hosvd(x)
    ranks, eps = compress_within_budget(f, EPS_MIN, tau=1)
    assert eps == EPS_MAX
    assert ranks == (1, 1, 1)
    # The lowest mode of those with the most directions loses one first.
    for tau, want in ((26, (2, 3, 3)), (18, (2, 3, 3)), (17, (2, 2, 3)), (8, (2, 2, 2)),
                      (7, (1, 2, 2)), (2, (1, 1, 2))):
        assert compress_within_budget(f, EPS_MIN, tau) == (want, EPS_MAX)


# The cap contract TaskSpec holds: tau at least 1, so nan is refused.  A nan cap
# used to return the unmasked (3, 3, 3), tau 0 and 0.5 the lopsided (0, 1, 1),
# and adapt_epsilon held eps under a nan cap.
@pytest.mark.parametrize("tau", [float("nan"), 0, 0.5, -1])
def test_the_budget_functions_refuse_a_cap_below_one(tau):
    f = hosvd(np.random.default_rng(11).standard_normal((3, 3, 3)))
    with pytest.raises(ValueError, match=f"tau must be at least 1, got {tau}"):
        compress_within_budget(f, 0.1, tau)
    with pytest.raises(ValueError, match=f"tau must be at least 1, got {tau}"):
        adapt_epsilon(0.5, 3, tau)


def test_budget_takes_integer_ranks_only():
    # (1.7, 2, 2) used to give 4.
    with pytest.raises(TypeError):
        budget((1.7, 2, 2))
    assert budget((np.int64(2), 3, 1)) == 6
