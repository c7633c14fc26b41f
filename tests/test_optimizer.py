from __future__ import annotations

import warnings

import numpy as np
import pytest

from cqd.bench_cli import gen_synthetic
from cqd.manifold import tucker_from_tensor, tucker_to_tensor
from cqd.optimizer import (
    OracleConfig,
    RunTrace,
    StepSchedule,
    TaskSpec,
    TraceRow,
    descent_certificate,
    run_cqd,
    run_cqd_ensemble,
    step_size,
    stochastic_grad,
)
from cqd.oracle_sim import OracleResponse
from cqd.spectral_masking import EPS_DECREASE, budget, mask_factorization, masked_tensor
from cqd.tensor_core import hosvd

RM = StepSchedule("robbins_monro", 0.5, 100.0)


def setup_problem(seed, shape=(6, 6, 6), ranks=(2, 2, 2), tau=27, noise_floor=0.1, lam=0.0):
    instance, target = gen_synthetic(shape, ranks, noise_floor, seed)
    x0 = tucker_from_tensor(instance, ranks)
    task = TaskSpec(target=target, lam=lam, tau=tau, task_id=seed)
    return x0, task


# ---------------------------------------------------------------------------
# stochastic_grad
# ---------------------------------------------------------------------------


def test_grad_zero_when_response_equals_iterate():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3, 3))
    task = TaskSpec(target=np.zeros((3, 3, 3)), tau=27)
    resp = OracleResponse(payload=x.copy(), query_checksum_echo=0, draws_used=1)
    assert np.all(stochastic_grad(x, resp, task) == 0.0)


def test_grad_equals_residual_for_identity_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 3, 3))
    t = rng.standard_normal((3, 3, 3))
    task = TaskSpec(target=t, tau=27)
    resp = OracleResponse(payload=t, query_checksum_echo=0, draws_used=1)
    assert np.array_equal(stochastic_grad(x, resp, task), x - t)


def test_grad_matches_central_differences():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 4, 5))
    r = rng.standard_normal((3, 4, 5))
    task = TaskSpec(target=r, tau=27)
    resp = OracleResponse(payload=r, query_checksum_echo=0, draws_used=1)
    g = stochastic_grad(x, resp, task)

    def f(y):
        return 0.5 * np.sum((y - r) ** 2)

    h = 1e-5
    for _ in range(5):
        direction = rng.standard_normal(x.shape)
        direction /= np.linalg.norm(direction)
        fd = (f(x + h * direction) - f(x - h * direction)) / (2 * h)
        assert abs(fd - np.sum(g * direction)) <= 1e-6


def test_grad_shape_mismatch():
    task = TaskSpec(target=np.zeros((2, 2, 2)), tau=27)
    resp = OracleResponse(payload=np.zeros((2, 2, 2)), query_checksum_echo=0, draws_used=1)
    with pytest.raises(ValueError):
        stochastic_grad(np.zeros((3, 3, 3)), resp, task)


# ---------------------------------------------------------------------------
# step schedules
# ---------------------------------------------------------------------------


def test_robbins_monro_values():
    assert step_size(0, RM) == 0.5
    assert step_size(100, RM) == 0.25
    assert step_size(300, RM) == pytest.approx(0.125)


def test_constant_schedule():
    s = StepSchedule("constant", 0.1)
    assert step_size(0, s) == step_size(10**6, s) == 0.1


def test_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule("linear", 0.5)
    with pytest.raises(ValueError):
        StepSchedule("constant", 0.0)
    with pytest.raises(ValueError):
        step_size(-1, RM)


def test_robbins_monro_series_conditions():
    ks = np.arange(10**6, dtype=np.float64)
    etas = RM.eta0 / (1.0 + ks / RM.k0)
    partial_eta = np.cumsum(etas)
    partial_eta_sq = np.cumsum(etas**2)
    # sum eta grows without bound: the last 90% of terms still add ~eta0*k0*ln(10)
    assert partial_eta[-1] > partial_eta[10**5 - 1] + 50.0
    # sum eta^2 converges: analytic tail is eta0^2*k0^2*(1e-5 - 1e-6)
    tail = partial_eta_sq[-1] - partial_eta_sq[10**5 - 1]
    assert tail < 0.03
    assert partial_eta_sq[-1] < RM.eta0**2 * RM.k0 * 20


# ---------------------------------------------------------------------------
# run_cqd
# ---------------------------------------------------------------------------


def test_one_exact_step_lands_on_target():
    # Full-rank manifold, unit step, zero noise: X1 = T.
    instance, target = gen_synthetic((4, 4, 4), (4, 4, 4), 0.5, 3)
    x0 = tucker_from_tensor(instance, (4, 4, 4))
    task = TaskSpec(target=target, tau=64, task_id=3)
    xf, trace = run_cqd(x0, task, OracleConfig(0.0, 3), StepSchedule("constant", 1.0), 0.1, 1)
    err = np.linalg.norm(tucker_to_tensor(xf) - target) / np.linalg.norm(target)
    assert err <= 1e-10
    assert len(trace) == 1


def test_zero_noise_strict_descent_to_threshold():
    x0, task = setup_problem(7)
    _, trace = run_cqd(x0, task, OracleConfig(0.0, 7), StepSchedule("constant", 0.1), 0.1, 400)
    losses = trace.column("loss")
    assert np.min(losses) < 1e-8
    above = losses > 1e-8
    assert np.all(np.diff(losses[above]) < 0.0)  # strict until below threshold


def test_trace_schema_and_lengths():
    x0, task = setup_problem(8)
    _, trace = run_cqd(x0, task, OracleConfig(0.1, 8), RM, 0.1, 50)
    assert len(trace) == 50
    row = trace.rows[0]
    assert isinstance(row, TraceRow)
    assert row.k == 0 and row.eta == 0.5
    assert row.budget == budget(row.ranks)
    assert trace.error is None


def test_budget_cap_enforced_every_iteration():
    x0, task = setup_problem(9, tau=4)
    _, trace = run_cqd(x0, task, OracleConfig(0.1, 9), RM, 0.1, 300)
    assert np.all(trace.column("budget") <= 4)


def test_reproducible_traces():
    x0, task = setup_problem(10)
    runs = [
        run_cqd(x0, task, OracleConfig(0.2, 10), RM, 0.1, 200)[1].rows for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_rank_deficiency_aborts_with_partial_trace():
    rng = np.random.default_rng(11)
    instance, _ = gen_synthetic((4, 4, 4), (2, 2, 2), 0.2, 11)
    x0 = tucker_from_tensor(instance, (2, 2, 2))
    # Target zero: the unit exact step lands on the zero tensor, which
    # cannot support rank (2,2,2).
    task = TaskSpec(target=np.zeros((4, 4, 4)), tau=64, task_id=11)
    _, trace = run_cqd(x0, task, OracleConfig(0.0, 11), StepSchedule("constant", 1.0), 0.1, 5)
    assert trace.error is not None
    assert "rank_deficiency" in trace.error
    assert len(trace) == 1


def test_diverging_run_stops_with_error_instead_of_raising():
    # eta=3 diverges; the loss overflows after a few hundred iterations, and
    # an SVD of the overflowed iterate used to raise out of run_cqd. The
    # overflow shows only as trace.error, with no numpy RuntimeWarning.
    instance, target = gen_synthetic((6, 6, 6), (2, 2, 2), 0.1, 0)
    x0 = tucker_from_tensor(instance, (2, 2, 2))
    task = TaskSpec(target=target, tau=27, task_id=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        final, trace = run_cqd(
            x0, task, OracleConfig(0.0, 0), StepSchedule("constant", 3.0), 0.1, 2000
        )
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert trace.error is not None
    assert trace.error.startswith(f"loss at k={len(trace)}: ")
    assert 50 < len(trace) < 2000
    # The returned point is the last one whose loss was finite: the last row's.
    last = 0.5 * float(np.sum((tucker_to_tensor(final) - target) ** 2))
    assert np.isfinite(last)
    assert last == pytest.approx(trace.rows[-1].loss, rel=1e-9)


def test_linalg_error_in_a_stage_becomes_trace_error(monkeypatch):
    import cqd.optimizer as optimizer

    x0, task = setup_problem(13)

    def failing_retract(p, direction, eta):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(optimizer, "tucker_retract", failing_retract)
    final, trace = run_cqd(x0, task, OracleConfig(0.1, 13), RM, 0.1, 10)
    assert trace.error == "retract at k=0: linalg: SVD did not converge"
    assert len(trace) == 1
    assert final is x0


def test_task_spec_tau_is_required_and_at_least_one():
    target = np.zeros((2, 2, 2))
    with pytest.raises(TypeError):
        TaskSpec(target=target)  # no default: a cap of 0 fits no mask
    with pytest.raises(TypeError):
        TaskSpec(target, "quadratic", 0.0, 27)  # keyword-only
    for bad in (0, -1):
        with pytest.raises(ValueError, match="tau"):
            TaskSpec(target=target, tau=bad)
    assert TaskSpec(target=target, tau=1).tau == 1


def test_iterate_hook_sees_every_iterate():
    x0, task = setup_problem(12)
    seen = []
    run_cqd(
        x0, task, OracleConfig(0.0, 12), StepSchedule("constant", 0.1), 0.1, 20,
        iterate_hook=lambda k, amb: seen.append((k, amb.shape)),
    )
    assert [k for k, _ in seen] == list(range(20))
    assert all(shape == (6, 6, 6) for _, shape in seen)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def test_ensemble_m1_bit_identical_to_run_cqd():
    x0, task = setup_problem(13)
    _, t1 = run_cqd(x0, task, OracleConfig(0.3, 13), RM, 0.1, 100)
    _, t2 = run_cqd_ensemble(x0, task, OracleConfig(0.3, 13), RM, 0.1, 100, m=1)
    assert t1.rows == t2.rows


def test_ensemble_zero_noise_independent_of_m():
    x0, task = setup_problem(14)
    traces = [
        run_cqd_ensemble(
            x0, task, OracleConfig(0.0, 14), StepSchedule("constant", 0.1), 0.1, 40, m=m
        )[1].rows
        for m in (1, 4)
    ]
    assert traces[0] == traces[1]


def test_ensemble_reduces_terminal_loss():
    seeds = range(100, 120)
    m1_losses, m16_losses = [], []
    for seed in seeds:
        x0, task = setup_problem(seed)
        for m, sink in ((1, m1_losses), (16, m16_losses)):
            _, tr = run_cqd_ensemble(
                x0, task, OracleConfig(0.5, seed), RM, 0.1, 150, m=m
            )
            sink.append(tr.rows[-1].loss)
    assert np.mean(m16_losses) < np.mean(m1_losses)


# ---------------------------------------------------------------------------
# descent certificate
# ---------------------------------------------------------------------------


def test_certificate_zero_noise_holds_everywhere():
    x0, task = setup_problem(15)
    _, trace = run_cqd(x0, task, OracleConfig(0.0, 15), StepSchedule("constant", 0.1), 0.1, 300)
    report = descent_certificate(trace, l_est=1.0, sigma=0.0, window=1)
    assert report.violation_rate == 0.0
    assert not report.diverged


def test_certificate_flags_divergent_step():
    # eta > 2/L on a quadratic: analytically unstable, loss grows every step.
    x0, task = setup_problem(16)
    _, trace = run_cqd(x0, task, OracleConfig(0.0, 16), StepSchedule("constant", 3.0), 0.1, 40)
    report = descent_certificate(trace, l_est=1.0, sigma=0.0, window=1)
    assert report.violation_rate == 1.0
    assert report.diverged
    losses = trace.column("loss")
    assert losses[-1] > losses[0]


def test_certificate_noisy_violation_rate_small():
    x0, task = setup_problem(17)
    _, trace = run_cqd(x0, task, OracleConfig(0.1, 17), RM, 0.1, 2000)
    report = descent_certificate(trace, l_est=1.0, sigma=0.1, window=100)
    assert report.violation_rate <= 0.05
    assert not report.diverged


def test_certificate_validates_inputs():
    trace = RunTrace()
    with pytest.raises(ValueError):
        descent_certificate(trace, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Lagrangian consistency (budget multiplier sanity direction)
# ---------------------------------------------------------------------------


def test_lagrangian_objective_prefers_accepted_configuration():
    instance, target = gen_synthetic((6, 6, 6), (2, 2, 2), 0.3, 18)
    x0 = tucker_from_tensor(instance, (3, 3, 3))
    task = TaskSpec(target=target, lam=0.05, tau=12, task_id=18)
    iterates = []
    _, trace = run_cqd(
        x0, task, OracleConfig(0.1, 18), RM, 0.3, 250,
        iterate_hook=lambda k, amb: iterates.append(amb),
    )
    assert trace.error is None
    wins = 0
    for row, ambient in zip(trace.rows, iterates):
        f = hosvd(ambient)
        accepted = mask_factorization(f, row.eps)
        larger = mask_factorization(f, max(row.eps * EPS_DECREASE, 1e-6))
        obj_accepted = (
            np.sum((ambient - masked_tensor(accepted)) ** 2)
            + task.lam * budget(accepted.maskset.ranks)
        )
        obj_larger = (
            np.sum((ambient - masked_tensor(larger)) ** 2)
            + task.lam * budget(larger.maskset.ranks)
        )
        wins += obj_accepted <= obj_larger + 1e-12
    assert wins / len(trace) >= 0.9
