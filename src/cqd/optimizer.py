"""Compression-delegation-update outer loop with step schedules and diagnostics."""
from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field
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
from .oracle_sim import OracleBackend, OracleConfig, OracleResponse, SimulatedOracle, ensemble_infer
from .query_codec import encode
from .spectral_masking import adapt_epsilon, budget, compress_within_budget
from .tensor_core import Ranks3, as_tensor3, thin_hosvd

SCHEDULE_KINDS = ("robbins_monro", "constant")
LOSS_IDS = ("quadratic",)


@dataclass(frozen=True)
class TaskSpec:
    """Ground-truth target (oracle-side knowledge), loss id, and budget terms.

    tau, the cap on the query budget r1 * r2 * r3, is keyword-only and has
    no default; it must be at least 1, the budget of the smallest mask.
    """

    target: np.ndarray
    loss_id: str = "quadratic"
    lam: float = 0.0
    _: KW_ONLY
    tau: int
    task_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "target", as_tensor3(self.target))
        if self.loss_id not in LOSS_IDS:
            raise ValueError(f"unknown loss_id {self.loss_id!r}")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.tau < 1:
            raise ValueError(f"tau must be at least 1, got {self.tau}")


@dataclass(frozen=True)
class StepSchedule:
    """Step-size rule; robbins_monro gives eta0 / (1 + k / k0)."""

    kind: str
    eta0: float
    k0: float = 100.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.eta0 <= 0 or self.k0 <= 0:
            raise ValueError("eta0 and k0 must be positive")


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


@dataclass
class RunTrace:
    """Per-iteration diagnostics; `error` is set when a run aborts early."""

    rows: list[TraceRow] = field(default_factory=list)
    error: str | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(row, name) for row in self.rows])


def stochastic_grad(x_ambient, response: OracleResponse, task: TaskSpec) -> np.ndarray:
    """Euclidean gradient surrogate of the quadratic loss 0.5 * ||X - R||_F^2."""
    x = as_tensor3(x_ambient)
    r = as_tensor3(response.payload)
    if x.shape != r.shape:
        raise ValueError(f"iterate shape {x.shape} does not match response shape {r.shape}")
    if task.loss_id != "quadratic":
        raise ValueError(f"no gradient rule for loss_id {task.loss_id!r}")
    return x - r


def _run(
    x0: TuckerPoint,
    task: TaskSpec,
    oracle: OracleBackend,
    seed: int,
    schedule: StepSchedule,
    eps0: float,
    iters: int,
    m: int,
    agg: str,
    iterate_hook: Callable[[int, np.ndarray], None] | None,
) -> tuple[TuckerPoint, RunTrace]:
    trace = RunTrace()
    x = good = x0
    eps = eps0
    for k in range(iters):
        stage = "densify"
        try:
            ambient = tucker_to_tensor(x)
            # Diagnostics use the true objective against the hidden target.
            # A diverging iterate overflows here; the finite check reports it.
            with np.errstate(over="ignore"):
                residual = ambient - task.target
                loss = 0.5 * float(np.sum(residual**2))
            if not math.isfinite(loss):
                trace.error = f"loss at k={k}: non-finite loss {loss}"
                return good, trace
            good = x
            stage = "mask"
            cs, eps = compress_within_budget(
                thin_hosvd(x.core, tuple(f.u for f in x.factors)), eps, task.tau
            )
            achieved = budget(cs.maskset.ranks)
            stage = "oracle"
            query = encode(cs, task.task_id, seed, eps)
            response = ensemble_infer(oracle, query, m, agg, draw_start=k * m)
            eta = step_size(k, schedule)

            stage = "diagnostics"
            true_grad = riemannian_grad_tucker(x, residual)
            with np.errstate(over="ignore"):  # reads inf; the next loss check stops the run
                grad_norm_sq = tangent_norm_sq(x, true_grad)
            trace.rows.append(
                TraceRow(
                    k=k,
                    loss=loss,
                    grad_norm_sq=grad_norm_sq,
                    ranks=cs.maskset.ranks,
                    budget=achieved,
                    eta=eta,
                    eps=eps,
                )
            )
            if iterate_hook is not None:
                iterate_hook(k, ambient)

            stage = "step"
            step_dir = riemannian_grad_tucker(x, stochastic_grad(ambient, response, task))
            stage = "retract"
            x = tucker_retract(x, step_dir.scaled(-1.0), eta)
        except (RankDeficiencyError, np.linalg.LinAlgError) as exc:
            kind = "rank_deficiency" if isinstance(exc, RankDeficiencyError) else "linalg"
            trace.error = f"{stage} at k={k}: {kind}: {exc}"
            return good, trace
        eps = adapt_epsilon(eps, achieved, task.tau)
    return x, trace


def run_cqd(
    x0: TuckerPoint,
    task: TaskSpec,
    oracle_cfg: OracleConfig,
    schedule: StepSchedule,
    eps0: float,
    iters: int,
    iterate_hook: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[TuckerPoint, RunTrace]:
    """Run the four-step outer loop: compress, encode, delegate, retract.

    Per iteration: adaptive spectral masking of the current iterate under
    the budget cap tau, wire encoding, one oracle draw, then a retraction
    step along the tangent-projected stochastic gradient. Returns the final
    point and the full per-iteration trace.
    """
    if iters < 1:
        raise ValueError("iters must be at least 1")
    oracle = SimulatedOracle(oracle_cfg, task.target)
    return _run(x0, task, oracle, oracle_cfg.seed, schedule, eps0, iters, 1, "mean", iterate_hook)


def run_cqd_ensemble(
    x0: TuckerPoint,
    task: TaskSpec,
    oracle_cfg: OracleConfig,
    schedule: StepSchedule,
    eps0: float,
    iters: int,
    m: int,
    agg: str = "mean",
    iterate_hook: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[TuckerPoint, RunTrace]:
    """Same loop as :func:`run_cqd` with m aggregated oracle draws per iteration."""
    if iters < 1:
        raise ValueError("iters must be at least 1")
    if m < 1:
        raise ValueError("m must be at least 1")
    oracle = SimulatedOracle(oracle_cfg, task.target)
    return _run(x0, task, oracle, oracle_cfg.seed, schedule, eps0, iters, m, agg, iterate_hook)


@dataclass(frozen=True)
class DescentWindow:
    start: int
    mean_decrease: float
    mean_bound: float
    slack: float
    violated: bool


@dataclass(frozen=True)
class DescentReport:
    windows: list[DescentWindow]
    violation_rate: float
    diverged: bool


def descent_certificate(
    trace: RunTrace, l_est: float, sigma: float, window: int = 1
) -> DescentReport:
    """Check the expected-descent inequality over iteration windows.

    Per iteration the certified lower bound on the loss decrease is
    max(eta - L*eta^2/2, 0) * ||grad||^2 - L*eta^2*sigma^2/2; the max with
    zero encodes that a step inside the stable regime never loses ground in
    expectation, which is what makes a diverging schedule show up as a
    violation instead of vacuously passing. Windows are averaged and, for
    sigma > 0, given a 3-sigma statistical slack.
    """
    if l_est <= 0:
        raise ValueError("l_est must be positive")
    if window < 1:
        raise ValueError("window must be at least 1")
    losses = trace.column("loss")
    if len(losses) < 2:
        raise ValueError("trace too short for a descent check")
    etas = trace.column("eta")[:-1]
    grads = trace.column("grad_norm_sq")[:-1]
    decreases = losses[:-1] - losses[1:]
    coeff = np.maximum(etas - 0.5 * l_est * etas**2, 0.0)
    bounds = coeff * grads - 0.5 * l_est * etas**2 * sigma**2

    windows: list[DescentWindow] = []
    for start in range(0, len(decreases), window):
        d = decreases[start : start + window]
        b = bounds[start : start + window]
        slack = 0.0
        if sigma > 0 and d.size > 1:
            slack = 3.0 * float(np.std(d - b, ddof=1)) / np.sqrt(d.size)
        mean_d = float(np.mean(d))
        mean_b = float(np.mean(b))
        tol = 1e-9 * max(1.0, abs(mean_b))
        windows.append(
            DescentWindow(
                start=start,
                mean_decrease=mean_d,
                mean_bound=mean_b,
                slack=slack,
                violated=mean_d < mean_b - slack - tol,
            )
        )
    violation_rate = float(np.mean([w.violated for w in windows]))
    diverged = bool(losses[-1] > losses[0]) and bool(np.all(np.diff(losses) > 0))
    return DescentReport(windows=windows, violation_rate=violation_rate, diverged=diverged)
