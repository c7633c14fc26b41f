"""Property tests over random inputs: wire format, spectral mask and retractions.

Derandomized and without an example database, so every run checks the
same cases; they add to the fixed-seed tests of each module.
"""
from __future__ import annotations

import math
import re
import sys
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqd.manifold import (
    RankDeficiencyError,
    TuckerPoint,
    gen_synthetic,
    qr_retraction,
    riemannian_grad_tucker,
    tangent_project_stiefel,
    tangent_to_ambient,
    tucker_from_tensor,
    tucker_retract,
    tucker_to_tensor,
)
from cqd.optimizer import OracleConfig, StepSchedule, TaskSpec, run_cqd, step_size
from cqd.query_codec import CodecError, decode, encode
from cqd.spectral_masking import mask_factorization
from tests.test_factored import SETTINGS, random_point, tucker_cases
from tests.test_manifold import negated, point_hosvd, random_tangent
from tests.test_optimizer import assert_scale_covariant, oracle_overflow_problem
from tests.test_spectral_masking import superdiagonal

FINITE = st.floats(allow_nan=False, allow_infinity=False)
H = 1e-5  # central-difference step of the first-order checks, as in criterion 4
# An extreme float half the time, so that about a third of the robustness
# test's inputs pass every constructor and reach the loop.
EXTREME = st.one_of(
    st.floats(0.1, 10.0),
    st.sampled_from(
        [0.0, 1e300, 1e-300, -1e300, sys.float_info.max, math.inf, -math.inf, math.nan]
    ),
)


@st.composite
def states(draw, max_rank: int = 4):
    """A masked core with arbitrary finite values and the eps it was cut at."""
    ranks = tuple(draw(st.integers(0, max_rank)) for _ in range(3))
    values = draw(st.lists(FINITE, min_size=int(np.prod(ranks)), max_size=int(np.prod(ranks))))
    core = np.array(values, dtype=np.float64).reshape(ranks)
    eps = draw(st.floats(0.0, 1.0, exclude_max=True))
    return core, eps


@SETTINGS
@given(
    state=states(),
    task_id=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**64 - 1),
)
def test_codec_round_trip(state, task_id, seed):
    core, eps = state
    data = encode(core, task_id, seed, eps)
    assert len(data) == 27 + 8 * core.size
    dq = decode(data)
    assert dq.ranks == core.shape
    assert (dq.task_id, dq.seed) == (task_id, seed)
    assert dq.core.tobytes() == core.tobytes()  # -0.0 and subnormals too
    assert abs(dq.eps_rel - eps) <= 5e-7  # the 1e-6 fixed-point grid
    assert dq.checksum == zlib.crc32(data[:-4])
    assert encode(core, task_id, seed, eps) == data


@SETTINGS
@given(
    state=states(max_rank=2),
    task_id=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**64 - 1),
)
def test_every_single_bit_flip_is_rejected(state, task_id, seed):
    core, eps = state
    data = encode(core, task_id, seed, eps)
    for i in range(8 * len(data)):
        corrupted = bytearray(data)
        corrupted[i // 8] ^= 1 << (i % 8)
        try:
            decode(bytes(corrupted))
        except CodecError:
            continue
        raise AssertionError(f"flip of bit {i} of {len(data)} bytes was accepted")


@SETTINGS
@example(svals=[2.0, 1.0, 1.0, 0.5], eps=0.5)  # a value exactly at the threshold is kept
@given(
    svals=st.lists(st.floats(0.0, 1e300), max_size=12),
    eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_spectral_mask_is_a_ones_prefix(svals, eps):
    # The svals at or above the threshold lead the sorted list, so the mask
    # is a ones-prefix per mode and keeps their count as that mode's rank.
    s = np.sort(np.array(svals, dtype=np.float64))[::-1]
    kept = mask_factorization(superdiagonal(s), eps)
    expected = int(np.count_nonzero(s >= eps * s[0])) if s.size and s[0] > 0 else 0
    assert kept == (expected,) * 3


@SETTINGS
@given(
    n=st.integers(1, 8),
    cols=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_stiefel_retraction_axioms(n, cols, seed):
    p = min(n, cols)
    rng = np.random.default_rng(seed)
    u = qr_retraction(rng.standard_normal((n, p)))
    assert np.max(np.abs(qr_retraction(u.u).u - u.u)) <= 1e-12
    xi = tangent_project_stiefel(u, rng.standard_normal((n, p)))
    fd = (qr_retraction(u.u + H * xi).u - qr_retraction(u.u - H * xi).u) / (2 * H)
    assert np.max(np.abs(fd - xi)) <= 1e-6 * max(1.0, np.max(np.abs(xi)))


@SETTINGS
@given(case=tucker_cases())
def test_tucker_retraction_axioms(case):
    shape, ranks, seed = case
    rng = np.random.default_rng(seed)
    p = random_point(rng, shape, ranks)
    x = tucker_to_tensor(p)
    scale = max(1.0, np.max(np.abs(x)))
    h = point_hosvd(p)
    same = tucker_retract(h, riemannian_grad_tucker(h, np.zeros(p.shape)), 1.0)
    assert same.ranks == p.ranks
    assert np.max(np.abs(tucker_to_tensor(same) - x)) <= 1e-12 * scale
    t = random_tangent(rng, h)
    emb = tangent_to_ambient(h, t)
    plus = tucker_to_tensor(tucker_retract(h, t, H))
    minus = tucker_to_tensor(tucker_retract(h, negated(t), H))
    tol = 1e-6 * max(scale, np.max(np.abs(emb)))
    assert np.max(np.abs((plus - minus) / (2 * H) - emb)) <= tol


@SETTINGS
@given(case=tucker_cases(max_dim=5), k=st.integers(-400, 400))
def test_a_noise_free_run_scales_bit_exactly_by_any_power_of_two(case, k):
    shape, ranks, seed = case
    assert_scale_covariant(shape, ranks, seed, k, 30)


@st.composite
def tied_starts(draw):
    """(start, tau): a 6^3 Tucker point of ranks (r, r, r) with random factors
    whose every mode has t >= 2 tied leading singular values, and a cap below
    the t^3 that EPS_MAX keeps of them."""
    r = draw(st.integers(2, 4))
    t = draw(st.integers(2, r))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lead = draw(st.floats(1e-3, 1e3))
    svals = np.concatenate([np.full(t, lead), lead * np.sort(rng.uniform(0.1, 0.9, r - t))[::-1]])
    factors = random_point(rng, (6, 6, 6), (r, r, r)).factors
    start = TuckerPoint(core=superdiagonal(svals).core, factors=factors)
    return start, draw(st.integers(1, t**3 - 1))


@SETTINGS
@given(tied=tied_starts(), sigma=st.sampled_from([0.0, 0.1]), seed=st.integers(0, 2**32 - 1))
def test_every_row_keeps_the_budget_cap_from_a_tied_start(tied, sigma, seed):
    # The first row masks the tied start; EPS_MAX alone used to keep all t^3.
    start, tau = tied
    _, target = gen_synthetic((6, 6, 6), (2, 2, 2), 0.1, seed % 1000)
    _, trace = run_cqd(start, TaskSpec(target=target, tau=tau), OracleConfig(sigma, seed),
                       StepSchedule("robbins_monro", 0.5, 100.0), 0.1, 4)
    assert len(trace) >= 1
    assert np.all(trace.column("budget") <= tau)
    assert np.all(trace.column("budget") == np.prod(trace.column("ranks"), axis=1))


@st.composite
def tiny_problems(draw):
    """(instance, target, ranks): a tiny synthetic problem, its two tensors
    each scaled by an extreme float."""
    shape, ranks, seed = draw(tucker_cases(max_dim=4))
    instance, target = gen_synthetic(shape, ranks, 0.1, seed)
    with np.errstate(all="ignore"):  # inf * 0 is nan: for the API to refuse
        return draw(EXTREME) * instance, draw(EXTREME) * target, ranks


# The oracle overflows of test_optimizer: target and instance at the edge of float64.
EDGE = oracle_overflow_problem()[1].target
# A start point that builds but whose dense tensor overflows float64.
DENSE_EDGE = sys.float_info.max * np.array([[[0, 0.9], [0, 0.5]], [[0.9, 0], [0, 0.5]]])


@settings(SETTINGS, max_examples=200)
@example(problem=(EDGE, EDGE, (2, 2, 2)), sigma=1e308, eta0=0.1, k0=math.inf, seed=0, m=1, tau=27)
@example(problem=(EDGE, EDGE, (2, 2, 2)), sigma=1e308, eta0=0.1, k0=math.inf, seed=1, m=1, tau=27)
@example(problem=(EDGE, EDGE, (2, 2, 2)), sigma=1.0, eta0=0.1, k0=math.inf, seed=0, m=4, tau=27)
@example(problem=(DENSE_EDGE, DENSE_EDGE, (2, 2, 1)),
         sigma=0.1, eta0=0.1, k0=math.inf, seed=0, m=1, tau=27)
@example(problem=(np.full((2, 2, 2), 1e308), EDGE, (1, 1, 1)),
         sigma=0.1, eta0=0.1, k0=math.inf, seed=0, m=1, tau=27)
# A step that underflows to 0 by k=4: refused by run_cqd.
@example(problem=(EDGE, EDGE, (2, 2, 2)), sigma=0.1, eta0=1e-300, k0=1e-300, seed=0, m=1, tau=27)
@given(
    problem=tiny_problems(),
    sigma=EXTREME,
    eta0=EXTREME,
    k0=st.one_of(st.just(math.inf), EXTREME),  # inf: a constant step
    seed=st.integers(0, 2**64 - 1),
    m=st.sampled_from([1, 4]),
    tau=st.sampled_from([1, 8, math.inf]),
)
def test_every_input_is_refused_when_built_or_runs_to_a_trace(
    problem, sigma, eta0, k0, seed, m, tau
):
    # Under the suite's error::RuntimeWarning filter, so a numpy warning
    # inside the loop fails this test too.
    instance, target, ranks = problem
    try:
        x0 = tucker_from_tensor(instance, ranks)
        task = TaskSpec(target=target, tau=tau)
        cfg = OracleConfig(sigma, seed)
        schedule = StepSchedule("robbins_monro", eta0, k0)
    except (ValueError, TypeError, RankDeficiencyError):
        return
    if not step_size(4, schedule) > 0:  # refused when run_cqd is called, before any draw
        with pytest.raises(ValueError, match="step at k=4"):
            run_cqd(x0, task, cfg, schedule, 0.1, 5, m=m)
        return
    final, trace = run_cqd(x0, task, cfg, schedule, 0.1, 5, m=m)
    stages = "loss|densify|mask|oracle|project|retract"
    assert trace.error is None or re.fullmatch(rf"({stages}) at k=\d+: .+", trace.error)
    assert np.all(np.isfinite(final.core))
