from __future__ import annotations

import dataclasses
import itertools
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import cqd.optimizer as optimizer
from cqd.manifold import (
    RankDeficiencyError,
    TuckerPoint,
    gen_synthetic,
    riemannian_grad_tucker,
    tucker_from_tensor,
    tucker_to_tensor,
)
from cqd.optimizer import (
    OracleConfig,
    RunTrace,
    StepSchedule,
    TaskSpec,
    TraceRow,
    run_cqd,
    step_size,
)
from cqd.oracle_sim import ensemble_infer
from cqd.spectral_masking import EPS_DECREASE, EPS_MAX, budget, mask_factorization
from cqd.tensor_core import StiefelPoint, hosvd, truncated_reconstruct

RM = StepSchedule("robbins_monro", 0.5, 100.0)
# 500 KiB of target, for which the oracle draws one payload per block.
BIG = (40, 40, 40)


def setup_problem(seed, shape=(6, 6, 6), ranks=(2, 2, 2), tau=27, noise_floor=0.1):
    instance, target = gen_synthetic(shape, ranks, noise_floor, seed)
    x0 = tucker_from_tensor(instance, ranks)
    task = TaskSpec(target=target, tau=tau, task_id=seed)
    return x0, task


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


@pytest.mark.parametrize("eta0, k0", [
    (float("nan"), 100.0), (float("inf"), 100.0), (0.5, float("nan")),
], ids=["eta0-nan", "eta0-inf", "k0-nan"])
def test_schedule_rejects_non_finite_values(eta0, k0):
    # Each used to end the run at k=0 with an SVD that did not converge.
    with pytest.raises(ValueError, match="eta0|k0"):
        StepSchedule("robbins_monro", eta0, k0)


def test_infinite_k0_is_a_constant_step():
    s = StepSchedule("robbins_monro", 0.5, float("inf"))
    assert step_size(0, s) == step_size(10**6, s) == 0.5


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
    for shape in ((4, 4, 4), BIG):
        instance, _ = gen_synthetic(shape, (2, 2, 2), 0.2, 11)
        x0 = tucker_from_tensor(instance, (2, 2, 2))
        # Target zero: the unit exact step lands on the zero tensor, which
        # cannot support rank (2,2,2).
        task = TaskSpec(target=np.zeros(shape), tau=64, task_id=11)
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


@pytest.mark.parametrize(
    "scale, sigma, schedule",
    [
        (1e150, 0.1, StepSchedule("constant", 1e300)),  # overflow in the step's multiply
        (1e150, 1e300, RM),  # overflow in the projection's matmul
        (1.0, 1e300, StepSchedule("constant", 1e300)),
    ],
)
def test_an_overflowing_step_stops_the_run_without_a_runtime_warning(scale, sigma, schedule):
    # Each raised a RuntimeWarning out of run_cqd, an error under this suite's filter.
    instance, target = gen_synthetic((4, 4, 4), (2, 2, 2), 0.1, 0)
    x0 = tucker_from_tensor(scale * instance, (2, 2, 2))
    task = TaskSpec(target=scale * target, tau=27)
    final, trace = run_cqd(x0, task, OracleConfig(sigma, 0), schedule, 0.1, 5)
    assert trace.error == "retract at k=0: non-finite step: the block core holds inf or nan"
    assert len(trace) == 1
    assert final is x0


def oracle_overflow_problem(n=4):
    """An n^3 target at the edge of float64, and a start point on it (residual 0)."""
    target = np.zeros((n, n, n))
    target[0, 0, 0], target[1, 1, 1] = 1.79e308, 1e308
    return tucker_from_tensor(target, (2, 2, 2)), TaskSpec(target=target, tau=27)


# Oracle configs, ensemble sizes and target sides n whose answer overflows
# float64: at sigma = 1e308 one 4^3 draw does, at m = 4 the ensemble's sum
# does, also at 40^3, where the oracle draws one payload per block.
ORACLE_OVERFLOWS = [
    pytest.param(OracleConfig(1e308, 0), 1, 4, id="cfg0-1"),
    pytest.param(OracleConfig(1e308, 1), 1, 4, id="cfg1-1"),
    pytest.param(OracleConfig(1.0, 0), 4, 4, id="cfg2-4"),
    pytest.param(OracleConfig(1.0, 0), 4, 40, id="cfg2-4-40cube"),
]


@pytest.mark.parametrize("action", ["default", "error"])
@pytest.mark.parametrize("cfg, m, n", ORACLE_OVERFLOWS)
def test_an_overflowing_oracle_answer_stops_the_run_at_the_oracle(cfg, m, n, action):
    # Each raised a RuntimeWarning out of the oracle, or, with warnings shown,
    # a ValueError out of the projection of the inf residual.
    x0, task = oracle_overflow_problem(n)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action, RuntimeWarning)
        final, trace = run_cqd(
            x0, task, cfg, StepSchedule("constant", 0.1), 0.1, 5, m=m
        )
    assert caught == []
    assert trace.error.startswith("oracle at k=0: overflow encountered in ")
    assert len(trace) == 0
    assert final is x0


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


def test_run_cqd_takes_one_hosvd_per_iteration(monkeypatch):
    # One HOSVD of the iterate, from its core, serves the whole iteration; the
    # loop calls it by this name in cqd.optimizer, where its time is traced.
    import cqd.optimizer as optimizer

    calls = []

    def counting_hosvd(core, factors=None):
        calls.append(core.shape)
        return hosvd(core, factors)

    monkeypatch.setattr(optimizer, "hosvd", counting_hosvd)
    x0, task = setup_problem(14)
    _, trace = run_cqd(x0, task, OracleConfig(0.1, 14), RM, 0.1, 25)
    assert trace.error is None
    assert calls == [x0.ranks] * len(trace) == [(2, 2, 2)] * 25


def scaled_run(shape, ranks, seed, k, iters):
    """A sigma = 0, constant-step run whose instance and target are gen_synthetic's times 2^k."""
    instance, target = gen_synthetic(shape, ranks, 0.1, seed)
    x0 = tucker_from_tensor(instance * 2.0**k, ranks)
    task = TaskSpec(target=target * 2.0**k, tau=27, task_id=seed)
    return run_cqd(x0, task, OracleConfig(0.0, seed), StepSchedule("constant", 0.1), 0.1, iters)


def assert_scale_covariant(shape, ranks, seed, k, iters):
    """The run at 2^k is the run at 1 scaled: losses and gradient norms by 4^k,
    the final core by 2^k, every other output equal, all compared with ==."""
    final0, trace0 = scaled_run(shape, ranks, seed, 0, iters)
    final, trace = scaled_run(shape, ranks, seed, k, iters)
    assert trace.error == trace0.error
    assert len(trace) == len(trace0)
    for name in ("loss", "grad_norm_sq"):
        assert np.all(trace.column(name) == trace0.column(name) * 4.0**k)
    for name in ("ranks", "budget", "eta", "eps"):
        assert np.all(trace.column(name) == trace0.column(name))
    assert np.all(final.core == final0.core * 2.0**k)
    assert all(np.all(f.u == f0.u) for f, f0 in zip(final.factors, final0.factors))
    return trace0


@pytest.mark.parametrize("k", [-450, -200, -60, -40, 20, 400])
@pytest.mark.parametrize("shape", [(6, 6, 6), (7, 6, 5)])
def test_a_noise_free_run_scales_bit_exactly_by_a_power_of_two(shape, k):
    # Every decision of the loop is relative to the iterate's own scale, so
    # a power-of-two scaling, exact while nothing leaves the normal range,
    # passes through it bit for bit.  An absolute collapse tolerance refused
    # every start point from 2^-40 down.
    trace0 = assert_scale_covariant(shape, (2, 2, 2), 0, k, 200)
    assert trace0.error is None and len(trace0) == 200


def test_rank_collapse_of_the_start_point_is_a_typed_trace_error():
    # A zero core slice leaves the mode-0 unfolding one row short: the
    # projection's 1/s^2 scaling would divide by zero.
    x0, task = setup_problem(20)
    core = x0.core.copy()
    core[1] = 0.0
    start = TuckerPoint(core=core, factors=x0.factors)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        final, trace = run_cqd(start, task, OracleConfig(0.1, 20), RM, 0.1, 10)
    assert trace.error == (
        "project at k=0: rank_deficiency: mode-0 singular value at position 2 is at or below "
        "1e-12 times the mode's largest"
    )
    assert len(trace) == 0
    assert final is start


def test_trace_rows_round_trip_through_the_record_array():
    x0, task = setup_problem(21)
    _, trace = run_cqd(x0, task, OracleConfig(0.1, 21), RM, 0.1, 30)
    rows = list(trace.rows)
    assert [row.k for row in rows] == list(range(30))
    for row in rows:
        assert type(row.loss) is float and type(row.eps) is float and type(row.eta) is float
        assert type(row.budget) is int and type(row.k) is int
        assert type(row.ranks) is tuple and all(type(r) is int for r in row.ranks)
    assert list(trace.rows) == rows and trace.rows[-1] == rows[-1] and trace.rows[2:5] == rows[2:5]
    assert repr(trace) == f"RunTrace(rows={rows!r}, error=None)"
    for name in ("k", "loss", "grad_norm_sq", "ranks", "budget", "eta", "eps"):
        want = np.array([getattr(row, name) for row in rows])
        got = trace.column(name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for name in ("k", "loss", "ranks", "budget"):
        got = RunTrace().column(name)
        assert got.dtype == np.array([]).dtype and got.shape == (0,)
    # A name that is no TraceRow field is refused, whether or not the trace has rows.
    for t in (trace, RunTrace()):
        with pytest.raises(KeyError, match="nonsense"):
            t.column("nonsense")
    # A row written back is read back; its k is its position.
    changed = dataclasses.replace(rows[4], budget=99, loss=1.5, ranks=(1, 2, 3))
    trace.rows[4] = changed
    assert trace.rows[4] == changed and trace.rows[3] == rows[3]
    with pytest.raises(ValueError, match="k=4"):
        trace.rows[4] = rows[5]


def test_trace_rows_compare_equal_only_to_another_store():
    x0, task = setup_problem(21)
    _, trace = run_cqd(x0, task, OracleConfig(0.1, 21), RM, 0.1, 5)
    _, again = run_cqd(x0, task, OracleConfig(0.1, 21), RM, 0.1, 5)
    assert trace.rows == again.rows
    # A list of the same rows is no store: __eq__ defers, and Python falls back to identity.
    assert not trace.rows == list(trace.rows) and trace.rows != list(trace.rows)


def test_a_row_written_back_with_two_ranks_is_refused_and_changes_nothing():
    # The rank column of three entries per row once took a 2-entry tuple and
    # every later entry shifted: row 4 then read ranks (1, 2, 2), the last row (2, 2).
    x0, task = setup_problem(21)
    _, trace = run_cqd(x0, task, OracleConfig(0.1, 21), RM, 0.1, 10)
    rows = list(trace.rows)
    for ranks in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError):
            trace.rows[4] = dataclasses.replace(rows[4], loss=1.5, ranks=ranks)
    assert list(trace.rows) == rows
    assert [r.tolist() for r in trace.column("ranks")] == [list(row.ranks) for row in rows]


def test_a_tied_start_keeps_every_row_within_the_budget_cap():
    # Core diag(1, 1): both singular values of every mode tie, so EPS_MAX keeps
    # ranks (2, 2, 2), budget 8, where tau is 1.  Every row used to read budget 8.
    u = StiefelPoint(np.eye(6)[:, :2])
    core = np.zeros((2, 2, 2))
    core[0, 0, 0] = core[1, 1, 1] = 1.0
    _, target = gen_synthetic((6, 6, 6), (2, 2, 2), 0.1, 24)
    task = TaskSpec(target=target, tau=1)
    _, trace = run_cqd(TuckerPoint(core=core, factors=(u, u, u)), task, OracleConfig(0.0, 24),
                       RM, 0.1, 30)
    assert trace.error is None and len(trace) == 30
    assert trace.rows[0].eps == EPS_MAX and trace.rows[0].ranks == (1, 1, 1)
    assert np.all(trace.column("budget") <= task.tau)
    assert np.all(trace.column("budget") == np.prod(trace.column("ranks"), axis=1))


@pytest.mark.parametrize("shape, iters", [((6, 6, 6), 40), ((24, 24, 24), 5)])
def test_every_row_loss_has_the_bits_of_np_sum_of_the_squared_residual(shape, iters):
    x0, task = setup_problem(23, shape=shape)
    ambients = []
    _, trace = run_cqd(x0, task, OracleConfig(0.1, 23), RM, 0.1, iters,
                       iterate_hook=lambda k, ambient: ambients.append(ambient.copy()))
    assert trace.error is None and len(ambients) == iters
    want = [0.5 * float(np.sum((a - task.target) ** 2)) for a in ambients]
    assert [row.loss for row in trace.rows] == want


def test_a_trace_retains_under_100_bytes_per_iteration():
    # What the returned trace holds is what dropping it frees.
    x0, task = setup_problem(22)
    iters = 400
    tracemalloc.start()
    try:
        _, trace = run_cqd(x0, task, OracleConfig(0.1, 22), RM, 0.1, iters)
        assert len(trace) == iters
        with_trace = tracemalloc.get_traced_memory()[0]
        del trace
        without = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (with_trace - without) / iters <= 100


def test_task_spec_tau_is_required_and_at_least_one():
    target = np.zeros((2, 2, 2))
    with pytest.raises(TypeError):
        TaskSpec(target=target)  # no default: a cap of 0 fits no mask
    with pytest.raises(TypeError):
        TaskSpec(target, 27)  # keyword-only
    for bad in (0, -1):
        with pytest.raises(ValueError, match="tau"):
            TaskSpec(target=target, tau=bad)
    assert TaskSpec(target=target, tau=1).tau == 1


def test_task_spec_refuses_a_nan_tau_and_keeps_inf_as_no_cap():
    # nan passed `tau < 1`, and then no cap was enforced.
    target = np.zeros((2, 2, 2))
    with pytest.raises(ValueError, match="tau"):
        TaskSpec(target=target, tau=float("nan"))
    assert TaskSpec(target=target, tau=float("inf")).tau == float("inf")


def test_task_spec_task_id_must_be_an_integer():
    # A fraction used to pass and reach the header truncated.
    target = np.zeros((2, 2, 2))
    for bad in (1.5, 0.0, -0.5):
        with pytest.raises(TypeError):
            TaskSpec(target=target, tau=1, task_id=bad)
    assert TaskSpec(target=target, tau=1, task_id=np.uint32(7)).task_id == 7


def test_task_spec_task_id_must_fit_the_query_header():
    # The header holds task_id as a uint32; outside it, run_cqd used to
    # raise a raw CapacityError from encode at k=0 and return no trace.
    target = np.zeros((2, 2, 2))
    for bad in (-1, 2**32):
        with pytest.raises(ValueError, match="task_id"):
            TaskSpec(target=target, tau=1, task_id=bad)
    assert TaskSpec(target=target, tau=1, task_id=2**32 - 1).task_id == 2**32 - 1


@pytest.mark.parametrize(
    "change, exc, match",
    [
        ({"iters": 0}, ValueError, "iters"),
        ({"m": 0}, ValueError, "m must"),
        ({"agg": "mode"}, ValueError, "aggregator"),
        ({"agg": "median"}, ValueError, "aggregator"),
        # Used to escape the loop at k=0 as numpy's broadcast error.
        ({"target_shape": (5, 6, 6)}, ValueError, "x0 shape"),
        # Used to escape the loop from the mask stage at k=0, with no trace.
        ({"eps0": 0.0}, ValueError, "eps0"),
        ({"eps0": 1.0}, ValueError, "eps0"),
        ({"eps0": float("nan")}, ValueError, "eps0"),
        # Used to die in range(), and in the oracle's np.empty at k=0.
        ({"iters": 3.0}, TypeError, "integer"),
        ({"m": 2.0}, TypeError, "integer"),
        # Draw indices past 2**64 used to raise numpy's OverflowError at the oracle.
        ({"iters": 2**32, "m": 2**32 + 1}, ValueError, "draw counter"),
        # Steps that underflow to 0 used to stop the loop at the retraction,
        # the first at k=1, after its draws, the second at k=100.
        ({"schedule": StepSchedule("robbins_monro", 0.5, 1e-310)}, ValueError, "step at k=4"),
        ({"schedule": StepSchedule("robbins_monro", 5e-324, 100.0), "iters": 101},
         ValueError, "step at k=100"),
        # Used to raise a raw TypeError at k=0, after the first draw.
        ({"iterate_hook": 5}, TypeError, "iterate_hook"),
    ],
    ids=["iters", "m", "agg", "agg-median", "x0-shape", "eps0-0", "eps0-1", "eps0-nan",
         "iters-float", "m-float", "draws-past-2**64", "step-underflow-k0",
         "step-underflow-eta0", "iterate-hook"],
)
def test_run_cqd_checks_arguments_before_any_oracle_call(monkeypatch, change, exc, match):
    import cqd.optimizer as optimizer

    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle was reached")

    monkeypatch.setattr(optimizer, "SimulatedOracle", no_oracle)
    monkeypatch.setattr(optimizer, "ensemble_infer", no_oracle)
    args = {"iters": 5, "m": 1, "agg": "mean", "target_shape": (6, 6, 6), "eps0": 0.1,
            "schedule": RM, "iterate_hook": None, **change}
    x0, _ = setup_problem(19)
    _, target = gen_synthetic(args["target_shape"], (2, 2, 2), 0.1, 19)
    task = TaskSpec(target=target, tau=27)
    with pytest.raises(exc, match=match):
        run_cqd(x0, task, OracleConfig(0.1, 19), args["schedule"], args["eps0"], args["iters"],
                args["m"], args["agg"], iterate_hook=args["iterate_hook"])


def test_iterate_hook_sees_every_iterate():
    x0, task = setup_problem(12)
    seen = []
    run_cqd(
        x0, task, OracleConfig(0.0, 12), StepSchedule("constant", 0.1), 0.1, 20,
        iterate_hook=lambda k, amb: seen.append((k, amb.shape)),
    )
    assert [k for k, _ in seen] == list(range(20))
    assert all(shape == (6, 6, 6) for _, shape in seen)


@pytest.mark.parametrize("shape", [(6, 6, 6), BIG])
def test_iterate_hook_runs_under_the_callers_floating_point_error_state(shape):
    # An overflow in the caller's hook is the caller's to see, not the loop's to drop.
    x0, task = setup_problem(12, shape=shape)
    seen = []
    with np.errstate(over="raise", invalid="warn", divide="ignore"):
        want = np.geterr()
        run_cqd(x0, task, OracleConfig(0.1, 12), RM, 0.1, 3,
                iterate_hook=lambda k, amb: seen.append(np.geterr()))
    assert seen == [want] * 3


# ---------------------------------------------------------------------------
# stage order and error precedence
# ---------------------------------------------------------------------------


def from_call(n, fn, then):
    """fn for the first n calls, then `then`."""
    calls = itertools.count()
    return lambda *args, **kwargs: (fn if next(calls) < n else then)(*args, **kwargs)


def raising(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def point_bytes(point):
    return [point.core.tobytes()] + [f.u.tobytes() for f in point.factors]


@pytest.mark.parametrize("shape", [(6, 6, 6), BIG])
def test_a_run_makes_one_oracle_call_per_row(monkeypatch, shape):
    # Also when the loss stops it: the stages after the loss make no draw.
    x0, task = setup_problem(4, shape=shape)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return ensemble_infer(*args, **kwargs)

    monkeypatch.setattr(optimizer, "ensemble_infer", counting)
    _, trace = run_cqd(x0, task, OracleConfig(0.1, 4), RM, 0.1, 4, m=2)
    assert trace.error is None and len(calls) == len(trace) == 4
    calls.clear()
    inf = np.full(shape, np.inf)
    monkeypatch.setattr(optimizer, "tucker_to_tensor", from_call(1, tucker_to_tensor, lambda p: inf))
    _, trace = run_cqd(x0, task, OracleConfig(0.1, 4), RM, 0.1, 4, m=2)
    assert trace.error == "loss at k=1: non-finite loss inf"
    assert len(calls) == len(trace) == 1


@pytest.mark.parametrize("shape", [(6, 6, 6), BIG])
@pytest.mark.parametrize("stage, exc", [
    ("hosvd", np.linalg.LinAlgError("SVD did not converge")),
    ("ensemble_infer", FloatingPointError("overflow encountered in add")),
])
def test_a_non_finite_loss_stops_the_run_before_a_failing_stage(monkeypatch, shape, stage, exc):
    x0, task = setup_problem(5, shape=shape)
    inf = np.full(shape, np.inf)
    monkeypatch.setattr(optimizer, "tucker_to_tensor", from_call(1, tucker_to_tensor, lambda p: inf))
    monkeypatch.setattr(optimizer, stage, from_call(1, getattr(optimizer, stage), raising(exc)))
    final, trace = run_cqd(x0, task, OracleConfig(0.1, 5), RM, 0.1, 5)
    assert trace.error == "loss at k=1: non-finite loss inf"
    assert len(trace) == 1 and final is x0


@pytest.mark.parametrize("shape", [(6, 6, 6), BIG])
def test_a_floating_point_error_in_the_densify_is_reported_at_the_densify(monkeypatch, shape):
    # It comes before the mask's error too, as the densify ran first.
    x0, task = setup_problem(5, shape=shape)
    failing = raising(FloatingPointError("underflow encountered in matmul"))
    monkeypatch.setattr(optimizer, "tucker_to_tensor", from_call(1, tucker_to_tensor, failing))
    failing = raising(np.linalg.LinAlgError("SVD did not converge"))
    monkeypatch.setattr(optimizer, "hosvd", from_call(1, hosvd, failing))
    final, trace = run_cqd(x0, task, OracleConfig(0.1, 5), RM, 0.1, 5)
    assert trace.error == "densify at k=1: underflow encountered in matmul"
    assert len(trace) == 1 and final is x0


@pytest.mark.parametrize("shape", [(6, 6, 6), BIG])
def test_a_failing_oracle_stops_the_run_before_a_failing_projection(monkeypatch, shape):
    x0, task = setup_problem(5, shape=shape)
    args = (task, OracleConfig(0.1, 5), RM, 0.1)
    x1, _ = run_cqd(x0, *args, 1)
    # The projection fails from the second iteration on, counted by its HOSVDs.
    hosvds = []
    monkeypatch.setattr(optimizer, "hosvd", lambda *a: hosvds.append(1) or hosvd(*a))

    def projection(h, z):
        if len(hosvds) > 1:
            raise RankDeficiencyError("collapsed")
        return riemannian_grad_tucker(h, z)

    monkeypatch.setattr(optimizer, "riemannian_grad_tucker", projection)
    final, trace = run_cqd(x0, *args, 5)
    assert trace.error == "project at k=1: rank_deficiency: collapsed"
    assert len(trace) == 1 and point_bytes(final) == point_bytes(x1)
    hosvds.clear()
    failing = raising(FloatingPointError("overflow encountered in add"))
    monkeypatch.setattr(optimizer, "ensemble_infer", from_call(1, ensemble_infer, failing))
    final, trace = run_cqd(x0, *args, 5)
    assert trace.error == "oracle at k=1: overflow encountered in add"
    assert len(trace) == 1 and point_bytes(final) == point_bytes(x1)


def test_the_stacked_projection_names_its_own_error(monkeypatch):
    # One pass projects both residuals; the run stops at its first error.
    x0, task = setup_problem(5, shape=BIG)
    args = (task, OracleConfig(0.1, 5), RM, 0.1)
    x1, _ = run_cqd(x0, *args, 1)
    hosvds = []
    monkeypatch.setattr(optimizer, "hosvd", lambda *a: hosvds.append(1) or hosvd(*a))
    errors = iter([RankDeficiencyError("first"), RankDeficiencyError("second")])

    def projection(h, z):
        if len(hosvds) > 1:
            raise next(errors)
        return riemannian_grad_tucker(h, z)

    monkeypatch.setattr(optimizer, "riemannian_grad_tucker", projection)
    final, trace = run_cqd(x0, *args, 5)
    assert trace.error == "project at k=1: rank_deficiency: first"
    assert len(trace) == 1 and point_bytes(final) == point_bytes(x1)


def test_a_run_leaves_no_thread_running(monkeypatch):
    x0, task = setup_problem(6, shape=BIG)
    args = (x0, task, OracleConfig(0.1, 6), RM, 0.1, 3)
    before = threading.active_count()
    _, trace = run_cqd(*args)
    assert trace.error is None and threading.active_count() == before

    def hook(k, ambient):
        raise KeyError("stop")

    with pytest.raises(KeyError, match="stop"):
        run_cqd(*args, iterate_hook=hook)
    assert threading.active_count() == before
    # A non-finite loss at k=0 stops the run before its first draw.
    drawn = []
    monkeypatch.setattr(optimizer, "ensemble_infer", lambda *a, **kw: drawn.append(1))
    monkeypatch.setattr(optimizer, "tucker_to_tensor", lambda p: np.full(BIG, np.inf))
    final, trace = run_cqd(*args)
    assert trace.error == "loss at k=0: non-finite loss inf" and final is x0
    assert len(drawn) == 0 and threading.active_count() == before


def test_the_draw_runs_under_the_callers_floating_point_error_state():
    # At sigma = 1e-302 some 40^3 draws scale below float64's normal range.
    x0, task = setup_problem(7, shape=BIG)
    with np.errstate(under="raise"):
        final, trace = run_cqd(x0, task, OracleConfig(1e-302, 7), RM, 0.1, 3)
    assert trace.error == "oracle at k=0: underflow encountered in multiply" and final is x0


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def test_ensemble_zero_noise_independent_of_m():
    x0, task = setup_problem(14)
    traces = [
        run_cqd(
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
            _, tr = run_cqd(x0, task, OracleConfig(0.5, seed), RM, 0.1, 150, m=m)
            sink.append(tr.rows[-1].loss)
    assert np.mean(m16_losses) < np.mean(m1_losses)


# ---------------------------------------------------------------------------
# Lagrangian consistency (budget multiplier sanity direction)
# ---------------------------------------------------------------------------


def test_lagrangian_objective_prefers_accepted_configuration():
    instance, target = gen_synthetic((6, 6, 6), (2, 2, 2), 0.3, 18)
    x0 = tucker_from_tensor(instance, (3, 3, 3))
    task = TaskSpec(target=target, tau=12, task_id=18)
    lam = 0.05  # budget multiplier of the Lagrangian
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
            np.sum((ambient - truncated_reconstruct(f, accepted)) ** 2) + lam * budget(accepted)
        )
        obj_larger = (
            np.sum((ambient - truncated_reconstruct(f, larger)) ** 2) + lam * budget(larger)
        )
        wins += obj_accepted <= obj_larger + 1e-12
    assert wins / len(trace) >= 0.9
