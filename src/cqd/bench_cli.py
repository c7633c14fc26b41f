"""Benchmark harness: synthetic instances, certification experiments, report emission."""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .manifold import _check_ranks, gen_synthetic, qr_retraction, tucker_from_tensor
from .optimizer import StepSchedule, TaskSpec, run_cqd
from .oracle_sim import OracleConfig, SimulatedOracle, ensemble_infer
from .query_codec import _MAX_U32, _MAX_U64, CRC_SIZE, HEADER_SIZE, encode
from .spectral_masking import asm_compress, budget, mask_factorization
from .tensor_core import hosvd, tail_energy, truncated_reconstruct

# Pass/fail thresholds for the certification experiments.
GRAD_SQ_THRESHOLD = 1e-3
DETERMINISTIC_LOSS_THRESHOLD = 1e-8
DETERMINISTIC_MAX_ITERS = 400
DETERMINISTIC_ETA = 0.1
# converge's noisy runs step by eta0 / (1 + k / k0), with these eta0 and k0.
ROBBINS_MONRO_ETA0 = 0.5
ROBBINS_MONRO_K0 = 100.0
NEGATIVE_CONTROL_ETA = 3.0
NEGATIVE_CONTROL_ITERS = 50
DIVERGENCE_FACTOR = 1e6
TAIL_BOUND_SLACK = 1e-9
VARIANCE_BAND = (0.8, 1.25)
PROJECTOR_STRICT_TOL = 1e-12
FRONTIER_TOL = 1e-12


# Config fields checked by their name when a config is built.
_COUNTS = ("iters", "tau", "grid_points", "trials", "n_projectors", "n_instances")
_NONNEGATIVE = ("sigma", "noise_floor", "lam")


@dataclass(frozen=True)
class _Config:
    """Base of the experiment configs: each field is checked by its name when built."""

    # The largest seed an experiment can carry; a query header holds it in a fixed width.
    _max_seed = math.inf

    def __post_init__(self):
        for name, value in dataclasses.asdict(self).items():
            if name == "shape" and not all(d > 0 for d in value):
                raise ValueError("shape entries must be positive")
            if name == "seeds" and not (value and min(value) >= 0):
                raise ValueError("seed list must be non-empty and every seed at least 0")
            if name == "seeds" and max(value) > self._max_seed:
                raise ValueError(f"a seed above {self._max_seed} does not fit the query header")
            if name == "m_values" and not (value and min(value) >= 1):
                raise ValueError("m list must be non-empty and every m at least 1")
            # The variance check compares neighbours in list order.
            if name == "m_values" and not all(a < b for a, b in zip(value, value[1:])):
                raise ValueError(f"m list must be strictly increasing, got {list(value)}")
            if name in _COUNTS and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
            if name == "eps0" and not 0 < value < 1:
                raise ValueError(f"eps0 must lie in (0, 1), got {value}")
            if name in _NONNEGATIVE and not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class ProjOptConfig(_Config):
    shape: tuple[int, ...] = (6, 8)
    ranks: tuple[int, ...] = (2,)
    seeds: tuple[int, ...] = tuple(range(20))
    n_projectors: int = 500

    def __post_init__(self):
        super().__post_init__()
        if len(self.shape) != 2 or len(self.ranks) != 1 or not 1 <= self.ranks[0] <= self.shape[0]:
            raise ValueError("projector experiment expects a matrix shape (m, n) and one rank "
                             f"in [1, m], got shape {self.shape} and ranks {self.ranks}")


@dataclass(frozen=True)
class TailBoundConfig(_Config):
    shape: tuple[int, ...] = (5, 5, 5)
    seeds: tuple[int, ...] = (0,)
    n_instances: int = 100

    def __post_init__(self):
        super().__post_init__()
        # Instance shapes are drawn from the seed up to the shape's side.
        if len(self.seeds) != 1 or len(self.shape) != 3 or len(set(self.shape)) != 1:
            raise ValueError("tail-bound experiment expects one seed and three equal shape entries")


@dataclass(frozen=True)
class _SyntheticConfig(_Config):
    """The fields of the experiments that draw their instances with gen_synthetic."""

    shape: tuple[int, ...] = (6, 6, 6)
    ranks: tuple[int, ...] = (2, 2, 2)
    seeds: tuple[int, ...] = tuple(range(10))
    noise_floor: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        _check_ranks(self.shape, self.ranks)


@dataclass(frozen=True)
class ConvergeConfig(_SyntheticConfig):
    _max_seed = _MAX_U32  # each run's task_id
    sigma: float = 0.1
    iters: int = 5000
    eps0: float = 0.1
    tau: int = 27


@dataclass(frozen=True)
class RateDistConfig(_SyntheticConfig):
    lam: float = 0.1
    grid_points: int = 50


@dataclass(frozen=True)
class EnsembleConfig(_SyntheticConfig):
    _max_seed = _MAX_U64  # the query's seed
    sigma: float = 0.5
    eps0: float = 0.1
    trials: int = 2000
    m_values: tuple[int, ...] = (1, 4, 16, 64)


@dataclass
class Report:
    experiment: str
    config: dict
    columns: tuple[str, ...] = ()
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    passed: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.passed.values())


def _finish(report: Report) -> Report:
    """Take the columns from the first row's keys; `summary` keeps what the experiment wrote."""
    report.columns = tuple(report.rows[0])
    return report


def exp_projector_optimality(cfg: ProjOptConfig) -> Report:
    """Top-r singular projector beats random rank-r projectors on every draw."""
    m_dim, n_dim = cfg.shape
    r = int(cfg.ranks[0])
    report = Report("projopt", dataclasses.asdict(cfg))
    total_violations = 0
    for seed in cfg.seeds:
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m_dim, n_dim))
        svals = np.linalg.svd(a, compute_uv=False)
        optimal = float(np.sum(svals[r:] ** 2))
        best_random = np.inf
        violations = 0
        for _ in range(cfg.n_projectors):
            v = qr_retraction(rng.standard_normal((m_dim, r))).u
            resid = float(np.sum((a - v @ (v.T @ a)) ** 2))
            best_random = min(best_random, resid)
            if resid < optimal - PROJECTOR_STRICT_TOL:
                violations += 1
        total_violations += violations
        report.rows.append({"seed": seed, "optimal_residual_sq": optimal,
                            "best_random_residual_sq": best_random, "violations": violations})
    report.passed["zero_violations"] = total_violations == 0
    return _finish(report)


def exp_tail_bound(cfg: TailBoundConfig) -> Report:
    """Truncation residual is bounded by the discarded spectral energy, all rank triples."""
    max_dim = max(int(s) for s in cfg.shape)
    report = Report("tailbound", dataclasses.asdict(cfg))
    total_violations = 0
    base = int(cfg.seeds[0])
    for i in range(cfg.n_instances):
        rng = np.random.default_rng([base, i])
        shape = tuple(int(d) for d in rng.integers(1, max_dim + 1, size=3))
        x = rng.standard_normal(shape)
        f = hosvd(x)
        violations = 0
        n_triples = 0
        max_ratio = 0.0
        for r1 in range(shape[0] + 1):
            for r2 in range(shape[1] + 1):
                for r3 in range(shape[2] + 1):
                    ranks = (r1, r2, r3)
                    resid = float(np.sum((x - truncated_reconstruct(f, ranks)) ** 2))
                    bound = tail_energy(f, ranks)
                    n_triples += 1
                    if resid > bound + TAIL_BOUND_SLACK:
                        violations += 1
                    if bound > 0:
                        max_ratio = max(max_ratio, resid / bound)
        total_violations += violations
        report.rows.append({"instance": i, "shape": "x".join(str(d) for d in shape),
                            "n_triples": n_triples, "violations": violations,
                            "max_slack_ratio": max_ratio})
    report.passed["zero_violations"] = total_violations == 0
    return _finish(report)


def _convergence_run(cfg: ConvergeConfig, seed: int, variant: str) -> dict:
    instance, target = gen_synthetic(cfg.shape, cfg.ranks, cfg.noise_floor, seed)
    x0 = tucker_from_tensor(instance, cfg.ranks)
    if variant == "rm_noisy":
        schedule = StepSchedule("robbins_monro", ROBBINS_MONRO_ETA0, ROBBINS_MONRO_K0)
        sigma, iters = cfg.sigma, cfg.iters
    elif variant == "deterministic":
        schedule = StepSchedule("constant", DETERMINISTIC_ETA)
        sigma, iters = 0.0, DETERMINISTIC_MAX_ITERS
    else:  # negative_control
        schedule = StepSchedule("constant", NEGATIVE_CONTROL_ETA)
        sigma, iters = 0.0, NEGATIVE_CONTROL_ITERS
    task = TaskSpec(target=target, tau=cfg.tau, task_id=seed)
    _, trace = run_cqd(x0, task, OracleConfig(sigma, seed), schedule, cfg.eps0, iters)
    grads = trace.column("grad_norm_sq")
    losses = trace.column("loss")
    if not len(trace):  # stopped at k=0: no row, so each statistic of a row is nan
        grads = losses = np.full(1, np.nan)
    budgets = trace.column("budget")
    running_min = np.minimum.accumulate(grads)
    below = running_min < GRAD_SQ_THRESHOLD
    crossing = np.argmax(below) if below.any() else -1
    return {
        "seed": seed,
        "variant": variant,
        "iters_run": len(trace),
        "crossing_iter": int(crossing),
        "min_running_grad_sq": float(running_min[-1]),
        "final_loss": float(losses[-1]),
        "min_loss": float(np.min(losses)),
        "budget_violations": int(np.sum(budgets > cfg.tau)),
        "diverged": int(losses[-1] > DIVERGENCE_FACTOR * max(losses[0], 1e-300)),
        "error": trace.error or "",
    }


def exp_convergence(cfg: ConvergeConfig) -> Report:
    """Desk-scale convergence: noisy Robbins-Monro runs plus two controls per seed."""
    report = Report("converge", dataclasses.asdict(cfg))
    for seed in cfg.seeds:
        for variant in ("rm_noisy", "deterministic", "negative_control"):
            report.rows.append(_convergence_run(cfg, seed, variant))
    rm_rows = [r for r in report.rows if r["variant"] == "rm_noisy"]
    det_rows = [r for r in report.rows if r["variant"] == "deterministic"]
    neg_rows = [r for r in report.rows if r["variant"] == "negative_control"]
    report.passed["median_grad_crossing"] = (
        float(np.median([r["min_running_grad_sq"] for r in rm_rows])) < GRAD_SQ_THRESHOLD
    )
    report.passed["deterministic_contraction"] = all(
        r["min_loss"] < DETERMINISTIC_LOSS_THRESHOLD and not r["error"] for r in det_rows
    )
    report.passed["divergence_detected"] = all(bool(r["diverged"]) for r in neg_rows)
    # A stopped run's iterations count; with no iteration at all, nothing was respected.
    report.passed["budget_respected"] = any(r["iters_run"] for r in report.rows) and all(
        r["budget_violations"] == 0 for r in report.rows
    )
    return _finish(report)


def exp_rate_distortion(cfg: RateDistConfig) -> Report:
    """Budget/distortion frontier over an eps grid; must be monotone."""
    report = Report("ratedist", dataclasses.asdict(cfg))
    grid = np.geomspace(1e-4, 0.999, cfg.grid_points)
    monotone = True
    for seed in cfg.seeds:
        instance, _ = gen_synthetic(cfg.shape, cfg.ranks, cfg.noise_floor, seed)
        f = hosvd(instance)
        scale = float(np.sum(instance**2))
        prev_budget = None
        prev_distortion = None
        # Grid descends in eps so budget grows and distortion shrinks row to row.
        for idx, eps in enumerate(sorted(grid, reverse=True)):
            ranks = mask_factorization(f, float(eps))
            b = budget(ranks)
            distortion = float(np.sum((instance - truncated_reconstruct(f, ranks)) ** 2))
            report.rows.append({"seed": seed, "grid_index": idx, "eps": float(eps),
                                "r1": ranks[0], "r2": ranks[1], "r3": ranks[2],
                                "budget": b, "distortion": distortion,
                                "lagrangian": distortion + cfg.lam * b})
            if prev_budget is not None:
                if b < prev_budget or distortion > prev_distortion + FRONTIER_TOL * scale:
                    monotone = False
            prev_budget, prev_distortion = b, distortion
    report.passed["frontier_monotone"] = monotone
    # Ranks (2, 2, 2) in a 20x20x20 ambient: the encoded core's 64 payload bytes vs 64,000.
    ratio = (len(encode(np.zeros((2, 2, 2)), 0, 0, 0.0)) - HEADER_SIZE - CRC_SIZE) / (8 * 20**3)
    report.summary["payload_ratio_2x2x2_in_20x20x20"] = ratio
    report.passed["compression_ratio_1e_3"] = ratio == 1e-3
    return _finish(report)


def exp_ensemble_variance(cfg: EnsembleConfig) -> Report:
    """Mean-aggregated oracle variance scales as sigma^2 / m."""
    report = Report("ensemble", dataclasses.asdict(cfg))
    in_band = True
    decreasing = True
    for seed in cfg.seeds:
        instance, target = gen_synthetic(cfg.shape, cfg.ranks, cfg.noise_floor, seed)
        query = encode(asm_compress(instance, cfg.eps0), 0, seed, cfg.eps0)
        oracle = SimulatedOracle(OracleConfig(cfg.sigma, seed), target)
        prev = None
        for m in cfg.m_values:
            sq = np.empty(cfg.trials)
            for t in range(cfg.trials):
                resp = ensemble_infer(oracle, query, int(m), draw_start=t * int(m))
                sq[t] = np.sum((resp.payload - target) ** 2)
            variance = float(np.mean(sq))
            expected = cfg.sigma**2 / m
            ratio = variance / expected if expected > 0 else 0.0
            report.rows.append(
                {"seed": seed, "m": int(m), "variance": variance, "expected": expected, "ratio": ratio}
            )
            if expected > 0 and not VARIANCE_BAND[0] <= ratio <= VARIANCE_BAND[1]:
                in_band = False
            if prev is not None and variance >= prev:
                decreasing = False
            prev = variance
    report.passed["ratio_in_band"] = in_band
    report.passed["variance_strictly_decreasing"] = decreasing
    return _finish(report)


# Each subcommand's config class and experiment.
EXPERIMENTS = {
    "projopt": (ProjOptConfig, exp_projector_optimality),
    "tailbound": (TailBoundConfig, exp_tail_bound),
    "converge": (ConvergeConfig, exp_convergence),
    "ratedist": (RateDistConfig, exp_rate_distortion),
    "ensemble": (EnsembleConfig, exp_ensemble_variance),
}


def emit_report(report: Report, path, fmt: str) -> None:
    """Write a report as CSV (rows only) or JSON (full document)."""
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(report.columns))
            writer.writeheader()
            for row in report.rows:
                writer.writerow(row)
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump(dataclasses.asdict(report), fh, sort_keys=True, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part != "")


# Each config field has one flag, named after the field with dashes unless renamed here.
_FLAG_NAMES = {"seeds": "seed-list", "eps0": "eps", "lam": "lambda",
               "n_projectors": "projectors", "n_instances": "instances", "m_values": "m-list"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqd-bench",
        description="Certification experiments for spectral-masked query delegation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (config_class, experiment) in EXPERIMENTS.items():
        p = sub.add_parser(name, help=experiment.__doc__)
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", default="json", choices=("csv", "json"))
        for f in dataclasses.fields(config_class):
            tuple_valued = isinstance(f.default, tuple)
            p.add_argument(
                "--" + _FLAG_NAMES.get(f.name, f.name.replace("_", "-")),
                dest=f.name,
                type=_int_tuple if tuple_valued else type(f.default),
                default=f.default,
                help=f"{'comma-separated, ' if tuple_valued else ''}default %(default)s",
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    opts = vars(parser.parse_args(argv))
    command, out, fmt = opts.pop("command"), opts.pop("out"), opts.pop("format")
    config_class, experiment = EXPERIMENTS[command]
    try:
        cfg = config_class(**opts)
    except ValueError as exc:
        parser.error(f"{command}: {exc}")
    report = experiment(cfg)
    if out:
        emit_report(report, out, fmt)
    for flag, value in report.passed.items():
        print(f"[{'PASS' if value else 'FAIL'}] {command}: {flag}")
    print(f"{command}: {len(report.rows)} rows, overall {'PASS' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
