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
    masked_tensor,
    spectral_mask,
)
from cqd.tensor_core import _mode_mult, _multi_mult, hosvd, tail_energy


def low_rank_with_gap(rng, shape=(6, 6, 6), ranks=(2, 2, 2)):
    core = rng.standard_normal(ranks)
    mats = []
    for mode in range(3):
        q, _ = np.linalg.qr(rng.standard_normal((shape[mode], ranks[mode])))
        mats.append(q)
    return _multi_mult(core, mats)


def test_mask_basic_threshold():
    assert spectral_mask([10.0, 5.0, 0.5], 0.1).astype(int).tolist() == [1, 1, 0]


def test_mask_keeps_exact_threshold_tie():
    # sigma_i == eps * sigma_1 is kept (inclusive >=)
    assert spectral_mask([10.0, 1.0, 0.5], 0.1).astype(int).tolist() == [1, 1, 0]


def test_mask_all_equal_svals():
    assert np.all(spectral_mask([3.0, 3.0, 3.0], 0.99))


def test_mask_zero_state_overrides_literal_indicator():
    svals = np.zeros(4)
    # The literal definition keeps everything when sigma_1 == 0 (0 >= 0) ...
    assert np.all(svals >= 0.5 * svals[0])
    # ... but a zero state carries no information, so nothing is kept.
    assert not np.any(spectral_mask(svals, 0.5))


def test_mask_empty_svals():
    mask = spectral_mask(np.zeros(0), 0.5)
    assert mask.size == 0


def test_mask_rejects_bad_inputs():
    with pytest.raises(ValueError):
        spectral_mask([1.0, 2.0], 0.5)  # not descending
    with pytest.raises(ValueError):
        spectral_mask([2.0, 1.0], 0.0)  # eps out of range
    with pytest.raises(ValueError):
        spectral_mask([2.0, 1.0], 1.0)


def test_mask_is_prefix_on_random_spectra():
    rng = np.random.default_rng(0)
    for _ in range(25):
        s = np.sort(rng.random(8))[::-1]
        mask = spectral_mask(s, float(rng.uniform(0.05, 0.95)))
        kept = int(np.count_nonzero(mask))
        assert np.all(mask[:kept]) and not np.any(mask[kept:])


def test_asm_recovers_exact_low_rank_with_gap():
    rng = np.random.default_rng(1)
    x = low_rank_with_gap(rng)
    cs = asm_compress(x, 0.05)
    assert cs.ranks == (2, 2, 2)
    assert budget(cs.ranks) == 8
    assert np.linalg.norm(masked_tensor(cs) - x) <= 1e-9
    assert cs.masked_core.shape == (2, 2, 2)


def test_asm_tiny_eps_keeps_everything():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 5, 6))
    f = hosvd(x)
    min_ratio = min(s[-1] / s[0] for s in f.svals)
    cs = asm_compress(x, min_ratio / 2)
    assert cs.ranks == (4, 5, 6)
    assert np.linalg.norm(masked_tensor(cs) - x) <= 1e-12 * np.linalg.norm(x)


def test_asm_zero_tensor():
    cs = asm_compress(np.zeros((3, 3, 3)), 0.2)
    assert cs.ranks == (0, 0, 0)
    assert cs.masked_core.shape == (0, 0, 0)
    assert np.all(masked_tensor(cs) == 0.0)


def test_asm_matches_literal_projector_form():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 5, 6))
    eps = 0.3
    f = hosvd(x)
    expected = x
    for mode in range(3):
        u, s = f.factors[mode], f.svals[mode]
        m = np.zeros(u.shape[1])
        m[: s.size] = spectral_mask(s, eps)
        expected = _mode_mult(expected, (u * m) @ u.T, mode)
    assert np.max(np.abs(masked_tensor(asm_compress(x, eps)) - expected)) < 1e-12


def test_asm_reconstruction_through_retained_factors():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 4, 6))
    cs = asm_compress(x, 0.4)
    rebuilt = cs.masked_core
    for mode, u in enumerate(cs.masked_factors):
        rebuilt = _mode_mult(rebuilt, u, mode)
    assert np.linalg.norm(rebuilt - masked_tensor(cs)) <= 1e-10


def test_asm_idempotent():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 5, 6))
    once = masked_tensor(asm_compress(x, 0.3))
    twice = masked_tensor(asm_compress(once, 0.3))
    assert np.linalg.norm(twice - once) <= 1e-10


def test_asm_non_expansive():
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = rng.standard_normal((4, 5, 6))
        eps = float(rng.uniform(0.05, 0.95))
        y = masked_tensor(asm_compress(x, eps))
        assert np.linalg.norm(y) <= np.linalg.norm(x) * (1 + 1e-12)


def test_asm_rank_monotone_in_eps():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 5, 5))
    f = hosvd(x)
    prev = None
    for eps in np.linspace(0.05, 0.95, 15):
        ranks = mask_factorization(f, float(eps)).ranks
        if prev is not None:
            assert all(r <= p for r, p in zip(ranks, prev))
        prev = ranks


def test_asm_distortion_bounded_by_tail_energy():
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.standard_normal((4, 4, 4))
        f = hosvd(x)
        cs = mask_factorization(f, float(rng.uniform(0.1, 0.9)))
        resid = np.sum((x - masked_tensor(cs)) ** 2)
        assert resid <= tail_energy(f, cs.ranks) + 1e-9


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
        achieved = budget(mask_factorization(f, eps).ranks)
        if achieved <= tau:
            reached = step
            break
        eps = adapt_epsilon(eps, achieved, tau)
    assert reached is not None


def test_compress_within_budget_enforces_tau():
    rng = np.random.default_rng(10)
    for seed in range(5):
        f = hosvd(np.random.default_rng(seed).standard_normal((6, 6, 6)))
        cs, eps = compress_within_budget(f, 1e-4, tau=10)
        assert budget(cs.ranks) <= 10
        assert EPS_MIN <= eps <= EPS_MAX
    # already feasible input is returned unchanged
    f = hosvd(rng.standard_normal((3, 3, 3)))
    cs, eps = compress_within_budget(f, 0.9, tau=27)
    assert eps == 0.9


def test_compress_within_budget_stops_at_eps_max_on_tied_spectrum():
    # The superdiagonal tensor: every unfolding has three equal singular
    # values, so no eps keeps fewer than all of them and tau=1 is out of reach.
    x = np.zeros((3, 3, 3))
    x[np.arange(3), np.arange(3), np.arange(3)] = 1.0
    f = hosvd(x)
    cs, eps = compress_within_budget(f, EPS_MIN, tau=1)
    assert eps == EPS_MAX
    assert cs.ranks == (3, 3, 3)
