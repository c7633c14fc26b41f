"""Compression-delegation-update outer loop with step schedules and diagnostics."""
from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import KW_ONLY, astuple, dataclass, field
from typing import Callable

import numpy as np

from .manifold import (
    RankDeficiencyError,
    TuckerPoint,
    riemannian_grad_tucker,
    tangent_norm_sq,
    tucker_retract,
    tucker_to_tensor,
)
from .oracle_sim import OracleConfig, SimulatedOracle, ensemble_infer
from .query_codec import _MAX_U32, encode
from .spectral_masking import adapt_epsilon, budget, compress_within_budget
from .tensor_core import Ranks3, as_tensor3, hosvd

SCHEDULE_KINDS = ("robbins_monro", "constant")


@dataclass(frozen=True)
class TaskSpec:
    """Ground-truth target (oracle-side knowledge) and budget terms.

    tau, the cap on the query budget r1 * r2 * r3, is keyword-only and has
    no default; it must be at least 1, the budget of the smallest mask (inf:
    no cap).  task_id goes into every query's header: an integer in uint32.
    """

    target: np.ndarray
    _: KW_ONLY
    tau: int
    task_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "target", as_tensor3(self.target))
        if not self.tau >= 1:  # written so that nan fails it
            raise ValueError(f"tau must be at least 1, got {self.tau}")
        if not 0 <= operator.index(self.task_id) <= _MAX_U32:
            raise ValueError(f"task_id must fit in uint32, got {self.task_id}")


@dataclass(frozen=True)
class StepSchedule:
    """Step-size rule; robbins_monro gives eta0 / (1 + k / k0)."""

    kind: str
    eta0: float
    k0: float = 100.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        # Written so that nan fails them; k0 = inf is a constant step.
        if not 0 < self.eta0 < math.inf:
            raise ValueError(f"eta0 must be finite and positive, got {self.eta0}")
        if not self.k0 > 0:
            raise ValueError(f"k0 must be positive, got {self.k0}")


def step_size(k: int, schedule: StepSchedule) -> float:
    if k < 0:
        raise ValueError("iteration index must be nonnegative")
    if schedule.kind == "constant":
        return schedule.eta0
    return schedule.eta0 / (1.0 + k / schedule.k0)


@dataclass(frozen=True)
class TraceRow:
    k: int
    loss: float
    grad_norm_sq: float
    ranks: Ranks3
    budget: int
    eta: float
    eps: float


# A TraceRow without its k, which is its position: 64 bytes.
_ROW = np.dtype([("loss", "f8"), ("grad_norm_sq", "f8"), ("ranks", "i8", (3,)),
                 ("budget", "i8"), ("eta", "f8"), ("eps", "f8")])


class _TraceRows(Sequence):
    """A run's TraceRows, kept as one array of _ROW records that grows by an
    eighth when full: about 72 bytes an iteration, not a TraceRow object's ~300.
    Row i is built on access, with Python floats, ints and a rank tuple; k = i.
    """

    def __init__(self):
        self._a = np.empty(0, _ROW)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(self._n)[i]]
        i = range(self._n)[i]
        loss, grad_norm_sq, ranks, budget, eta, eps = self._a[i].item()
        return TraceRow(i, loss, grad_norm_sq, tuple(ranks.tolist()), budget, eta, eps)

    def append(self, *row) -> None:
        # Row k = len(self) from its values in _ROW order, as the loop gives them: no TraceRow.
        if self._n == len(self._a):  # not np.resize, which keeps its doubled source alive
            self._a = np.concatenate((self._a, np.empty(self._n // 8 + 8, _ROW)))
        self._a[self._n] = row
        self._n += 1

    def __setitem__(self, i: int, row: TraceRow) -> None:
        i = range(self._n)[i]
        if row.k != i:
            raise ValueError(f"row {i} must have k={i}, got k={row.k}")
        # Converted whole first: a row that is no _ROW raises ValueError and changes nothing.
        self._a[i] = np.array(astuple(row)[1:], _ROW)

    def __eq__(self, other) -> bool:
        if not isinstance(other, _TraceRows):
            return NotImplemented
        return np.array_equal(self._a[: self._n], other._a[: other._n])

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class RunTrace:
    """Per-iteration diagnostics; `error` is set when a run aborts early."""

    rows: _TraceRows = field(default_factory=_TraceRows, init=False)
    error: str | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        """Field `name` of every row, as np.array of the rows' values holds it;
        KeyError for a name that is no TraceRow field, even with no rows."""
        if name not in TraceRow.__dataclass_fields__:
            raise KeyError(name)
        n = len(self.rows)
        if not n:
            return np.array([])
        return np.arange(n) if name == "k" else self.rows._a[name][:n].copy()


def run_cqd(
    x0: TuckerPoint,
    task: TaskSpec,
    oracle_cfg: OracleConfig,
    schedule: StepSchedule,
    eps0: float,
    iters: int,
    m: int = 1,
    agg: str = "mean",
    iterate_hook: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[TuckerPoint, RunTrace]:
    """Run the four-step outer loop: compress, encode, delegate, retract.

    Per iteration: adaptive spectral masking of the current iterate under
    the budget cap tau, wire encoding, the mean of m oracle draws (agg="mean"),
    then a retraction step along the tangent-projected stochastic gradient.
    Returns the final point and the full per-iteration trace; a run that
    stops early returns the point it entered its last iteration with (or
    the one before, if that iteration's loss was not finite) and sets
    `trace.error`. Arguments are checked here, before the oracle is built;
    an iters or m that is no integer, or an iterate_hook that is not
    callable, raises TypeError; iters * m draws past the oracle's 2**64 draw
    indices, or a schedule whose step underflows to 0 within iters, ValueError.

    Each iteration takes one HOSVD of the iterate, from its core, and works
    at it: the mask reads its singular values, the query carries its core,
    the singular values turn the tangent projection's normal equations into
    a diagonal scaling, the projection serves the true residual (the trace's
    gradient norm) and the stochastic residual (the step), and the
    retraction starts from it.

    The stages run on the calling thread in the order their errors take
    precedence: densify and loss, mask, oracle, project (one pass for both
    residuals), retract. An iteration whose loss is not finite makes no draw.
    """
    iters, m = operator.index(iters), operator.index(m)
    if iters < 1:
        raise ValueError("iters must be at least 1")
    if m < 1:
        raise ValueError("m must be at least 1")
    if iters * m > 2**64:
        raise ValueError(f"iters * m = {iters * m} draws overflow the oracle's draw counter")
    if not 0 < eps0 < 1:
        raise ValueError(f"eps0 must lie in (0, 1), got {eps0}")
    # The step does not grow with k, so the last one is the smallest.
    if not (eta_last := step_size(iters - 1, schedule)) > 0:
        raise ValueError(f"the step at k={iters - 1} underflows to {eta_last}")
    if iterate_hook is not None and not callable(iterate_hook):
        raise TypeError(f"iterate_hook must be callable, got {type(iterate_hook).__name__}")
    if agg != "mean":
        raise ValueError(f"unknown aggregator {agg!r}, expected 'mean'")
    if x0.shape != task.target.shape:
        raise ValueError(f"x0 shape {x0.shape} does not match target shape {task.target.shape}")
    oracle = SimulatedOracle(oracle_cfg, task.target)
    trace = RunTrace()
    # Slot 0 holds the true residual; slot 1 its square for the loss, then the stochastic one.
    residuals = np.empty((2, *x0.shape))
    x = good = x0
    eps = eps0
    for k in range(iters):
        stage = "densify"
        try:
            # Diagnostics use the true objective against the hidden target.
            # An iterate near the float64 limit overflows here, in the
            # densify or the loss; the finite check reports it. An overflow
            # in the projection or the step leaves a non-finite block core,
            # which tucker_retract refuses; the gradient norm may read inf.
            with np.errstate(over="ignore", invalid="ignore"):
                ambient = tucker_to_tensor(x)
                residual = np.subtract(ambient, task.target, out=residuals[0])
                loss = 0.5 * float(np.add.reduce(np.square(residual, out=residuals[1]), axis=None))
            if not math.isfinite(loss):
                trace.error = f"loss at k={k}: non-finite loss {loss}"
                return good, trace
            good = x
            stage = "mask"
            h = hosvd(x.core, x.factors)
            ranks, eps = compress_within_budget(h, eps, task.tau)
            achieved = budget(ranks)
            stage = "oracle"
            r1, r2, r3 = ranks
            query = encode(h.core[:r1, :r2, :r3], task.task_id, oracle_cfg.seed, eps)
            response = ensemble_infer(oracle, query, m, draw_start=k * m)
            eta = step_size(k, schedule)
            stage = "project"
            # The stochastic gradient of 0.5 * ||X - R||_F^2 at the oracle's
            # answer R is X - R; its negative is the step direction.
            with np.errstate(over="ignore", invalid="ignore"):
                np.subtract(response.payload, ambient, out=residuals[1])
                true_grad, step_dir = riemannian_grad_tucker(h, residuals)
                grad_norm_sq = tangent_norm_sq(h, true_grad)
            trace.rows.append(loss, grad_norm_sq, ranks, achieved, eta, eps)
            if iterate_hook is not None:
                iterate_hook(k, ambient)
            stage = "retract"
            with np.errstate(over="ignore", invalid="ignore"):
                x = tucker_retract(h, step_dir, eta)
        except (RankDeficiencyError, np.linalg.LinAlgError, FloatingPointError) as exc:
            kind = {RankDeficiencyError: "rank_deficiency: ", np.linalg.LinAlgError: "linalg: "}
            trace.error = f"{stage} at k={k}: {kind.get(type(exc), '')}{exc}"
            return good, trace
        eps = adapt_epsilon(eps, achieved, task.tau)
    return x, trace


# The ensemble name, kept for callers that use it: the same function.
run_cqd_ensemble = run_cqd

