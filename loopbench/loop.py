"""Workloads, set-up, the timed loop and the metrics of the cqd loop benchmark.

One operation is one outer iteration of the cqd loop: mask, encode,
delegate, retract, diagnostics included.  A run makes whole rounds; a
round is one ``run_cqd_ensemble`` call per instance of the workload's pool.
Per-iteration times are the gaps between the loop's own ``iterate_hook``
stamps, so the timed run wraps nothing inside cqd.  The reported times are
corrected for host speed by :func:`host_probe_us`, timed between calls.

Every call the benchmark makes into cqd goes through :class:`CqdApi`.
"""
from __future__ import annotations

import importlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"

# Criterion 5's noisy configuration, shared by every workload.
SIGMA = 0.1
NOISE_FLOOR = 0.1
ETA0 = 0.5
K0 = 100.0
EPS0 = 0.1
AGG = "mean"

SETUP_REPS = 9
WARMUP_ITERS = 3

# Host-speed probe: fixed work that does not involve cqd (small SVDs,
# einsum and bytecode, like the loop, plus one mid-size SVD).  On a shared
# machine the host's speed changes by 20-50 % within seconds and from one
# run to the next; scaling each call's times by PROBE_REF_US over the probe
# time measured around the call cut the run-to-run spread of the p50
# about threefold.  PROBE_REF_US is close to the probe's fastest time on the
# machine of the reference figures in README.md (p1 of 1000 probes: 2.4 ms),
# so corrected times read as microseconds on that machine when unloaded.
PROBE_REF_US = 2500.0
_probe_rng = np.random.default_rng(12345)
_PROBE_SMALL = _probe_rng.standard_normal((6, 36))
_PROBE_CUBE = _probe_rng.standard_normal((6, 6, 6))
_PROBE_MID = _probe_rng.standard_normal((24, 576))
_svd = np.linalg.svd  # bound before the tracer can wrap numpy.linalg.svd


def host_probe_us() -> float:
    t0 = time.perf_counter_ns()
    for _ in range(40):
        _svd(_PROBE_SMALL, full_matrices=False)
        np.einsum("ai,ijk->ajk", _PROBE_SMALL[:, :6], _PROBE_CUBE)
        acc = 0
        for i in range(200):
            acc += i * i
    _svd(_PROBE_MID, full_matrices=False)
    return (time.perf_counter_ns() - t0) / 1e3


@dataclass(frozen=True)
class Workload:
    shape: tuple[int, int, int]
    ranks: tuple[int, int, int]
    tau: int
    m: int
    iters: int  # outer iterations per run_cqd_ensemble call
    pool: int  # instances per round, one seed each
    tail_pct: float  # percentile reported as iter_us_tail


# Why each workload exists is in README.md.  A round lasts 2 to 5 s, so a
# run holds several whole rounds; the pools are as large as that allows,
# because query size and mask attempts differ between instances.  The tail
# is p95 (p90 where a run holds only a few hundred iterations): p99 moved by
# more than 2x between runs on a shared machine whenever the host stalled.
WORKLOADS = {
    "desk6": Workload((6, 6, 6), (2, 2, 2), tau=27, m=1, iters=200, pool=8, tail_pct=95.0),
    "dense48": Workload((48, 48, 48), (2, 2, 2), tau=27, m=1, iters=20, pool=3, tail_pct=90.0),
    "ensemble6-m64": Workload((6, 6, 6), (2, 2, 2), tau=27, m=64, iters=60, pool=8, tail_pct=95.0),
    "capped12": Workload((12, 12, 12), (4, 4, 4), tau=16, m=1, iters=30, pool=64, tail_pct=95.0),
}


def instance_seeds(wl: Workload, seed: int) -> list[int]:
    """Seeds of the pool's instances; each also keys that instance's oracle."""
    return [1000 * seed + i for i in range(wl.pool)]


@dataclass(frozen=True)
class Case:
    """One instance of the pool: the hidden target and the loop's inputs."""

    target: np.ndarray
    x0: object
    task: object
    oracle: object
    schedule: object


class CqdApi:
    """The only place that calls cqd: import, inputs, and the run itself."""

    def __init__(self, src: Path = SRC):
        self.src = src.resolve()
        self.mod = None

    def load(self) -> None:
        """Import cqd afresh from the checkout, so that set-up pays the import."""
        if str(self.src) not in sys.path:
            sys.path.insert(0, str(self.src))
        for name in [n for n in sys.modules if n == "cqd" or n.startswith("cqd.")]:
            del sys.modules[name]
        mod = importlib.import_module("cqd")
        if Path(mod.__file__).resolve().parent.parent != self.src:
            raise ImportError(f"cqd imported from {mod.__file__}, not from {self.src}")
        self.mod = mod

    def case(self, wl: Workload, seed: int, task_id: int) -> Case:
        cqd = self.mod
        instance, target = cqd.gen_synthetic(wl.shape, wl.ranks, NOISE_FLOOR, seed)
        return Case(
            target=target,
            x0=cqd.tucker_from_tensor(instance, wl.ranks),
            task=cqd.TaskSpec(target=target, tau=wl.tau, task_id=task_id),
            oracle=cqd.OracleConfig(SIGMA, seed),
            schedule=cqd.StepSchedule("robbins_monro", ETA0, K0),
        )

    def solve(self, case: Case, wl: Workload, iters: int, hook):
        return self.mod.run_cqd_ensemble(
            case.x0, case.task, case.oracle, case.schedule, EPS0, iters, wl.m, AGG, iterate_hook=hook
        )

    def owners(self) -> dict:
        """Modules and classes whose attributes the traced run wraps."""
        cqd = self.mod
        return {
            "optimizer": cqd.optimizer,
            "spectral_masking": cqd.spectral_masking,
            "oracle_sim": cqd.oracle_sim,
            "SimulatedOracle": cqd.oracle_sim.SimulatedOracle,
            "numpy.linalg": np.linalg,
        }


def set_up(api: CqdApi, wl: Workload, seed: int, reps: int = SETUP_REPS):
    """Import cqd, build the pool and warm up, `reps` times; the median is setup_s."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        api.load()
        cases = [api.case(wl, s, i) for i, s in enumerate(instance_seeds(wl, seed))]
        api.solve(cases[0], wl, WARMUP_ITERS, None)
        times.append(time.perf_counter() - t0)
    return cases, statistics.median(times)


@dataclass
class Call:
    """One run_cqd_ensemble call: its outputs and its timing."""

    case: int
    final: object  # None when the call raised
    trace: object
    gaps_ns: np.ndarray  # wall time between successive iterate_hook stamps
    loop_ns: int
    completed: int
    host: float  # probe time around the call over PROBE_REF_US


def run_round(api: CqdApi, wl: Workload, cases, tracer: Tracer | None = None) -> list[Call]:
    calls = []
    probe_us = host_probe_us()
    for i, case in enumerate(cases):
        stamps: list[int] = []

        def hook(k, ambient, _append=stamps.append, _now=time.perf_counter_ns):
            _append(_now())

        if tracer is not None:
            tracer.case = i
        t0 = time.perf_counter_ns()
        try:
            final, trace = api.solve(case, wl, wl.iters, hook)
        except Exception:  # counted as failed iterations, reported below
            traceback.print_exc(file=sys.stderr)
            final = trace = None
        loop_ns = time.perf_counter_ns() - t0
        if trace is None:
            completed = max(len(stamps) - 1, 0)
        else:
            completed = len(trace.rows) - (trace.error is not None)
        gaps = np.diff(np.array(stamps, dtype=np.int64))
        # The host's speed during the call: the probes just before and after.
        probe_before, probe_us = probe_us, host_probe_us()
        host = (probe_before + probe_us) / 2 / PROBE_REF_US
        calls.append(Call(i, final, trace, gaps, loop_ns, completed, host))
    return calls


def timed_rounds(api, wl, cases, seconds: float, tracer: Tracer | None = None):
    """Whole rounds until `seconds` have passed; at least one.

    With a tracer, traced and untraced rounds alternate, so that the
    tracing overhead is measured under the same load.  Returns the traced
    and the untraced calls.
    """
    traced: list[Call] = []
    plain: list[Call] = []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            with tracer.installed(api.owners()):
                traced += run_round(api, wl, cases, tracer)
        plain += run_round(api, wl, cases)
        if time.perf_counter() >= deadline:
            return traced, plain


def end_to_end(wl: Workload, calls: list[Call], tracer: Tracer, setup_s: float) -> dict:
    gaps_us = np.concatenate([c.gaps_ns / c.host for c in calls]) / 1e3
    loop_s = sum(c.loop_ns / c.host for c in calls) / 1e9
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw_p50 = np.percentile(np.concatenate([c.gaps_ns for c in calls]), 50) / 1e3
    host = statistics.median(c.host for c in calls)
    print(f"uncorrected iter_us_p50 {raw_p50:.1f}, median host factor {host:.3f}", file=sys.stderr)
    return {
        "iter_us_p50": (float(np.percentile(gaps_us, 50)), "us"),
        "iter_us_tail": (float(np.percentile(gaps_us, wl.tail_pct)), "us"),
        "iters_per_s": (sum(c.completed for c in calls) / loop_s, "1/s"),
        "query_bytes_per_iter": (tracer.query_bytes_per_iter(), "B"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }


def _mean_iter_us(calls: list[Call], host_corrected: bool = False) -> float:
    loop_ns = sum(c.loop_ns / c.host if host_corrected else c.loop_ns for c in calls)
    return loop_ns / max(sum(c.completed for c in calls), 1) / 1e3


def per_layer(calls: list[Call], plain: list[Call], tracer: Tracer) -> dict:
    iters = max(sum(c.completed for c in calls), 1)
    loop_ns = sum(c.loop_ns for c in calls)
    iter_us = _mean_iter_us(calls)

    def us(span):
        return tracer.ns[span] / iters / 1e3

    def count(span):
        return tracer.calls[span] / iters

    draws = tracer.calls["infer"]
    return {
        "optimizer.iter_us": (iter_us, "us"),
        "optimizer.host_probe_us": (statistics.median(c.host for c in calls) * PROBE_REF_US, "us"),
        "optimizer.trace_overhead_us_per_iter": (
            _mean_iter_us(calls, True) - _mean_iter_us(plain, True),
            "us",
        ),
        "optimizer.self_us_per_iter": ((loop_ns - tracer.top_ns) / iters / 1e3, "us"),
        "tensor_core.hosvd_us_per_iter": (us("hosvd"), "us"),
        "tensor_core.svd_calls_per_iter": (count("svd"), "count"),
        "tensor_core.svd_input_bytes_per_iter": (tracer.svd_bytes / iters, "B"),
        "spectral_masking.compress_us_per_iter": (us("compress"), "us"),
        "spectral_masking.mask_attempts_per_iter": (count("mask"), "count"),
        "query_codec.encode_us_per_iter": (us("encode"), "us"),
        "query_codec.decode_us_per_iter": (us("decode"), "us"),
        "query_codec.decodes_per_iter": (count("decode"), "count"),
        "oracle_sim.ensemble_us_per_iter": (us("ensemble"), "us"),
        "oracle_sim.infer_us_per_draw": (tracer.ns["infer"] / max(draws, 1) / 1e3, "us"),
        "oracle_sim.draws_per_iter": (count("infer"), "count"),
        "oracle_sim.aggregate_us_per_iter": (us("aggregate"), "us"),
        "oracle_sim.query_bytes_per_iter": (tracer.query_bytes_per_iter(), "B"),
        "manifold.densify_us_per_iter": (us("densify"), "us"),
        "manifold.rgrad_us_per_iter": (us("rgrad"), "us"),
        "manifold.rgrad_calls_per_iter": (count("rgrad"), "count"),
        "manifold.tangent_norm_us_per_iter": (us("tangent_norm"), "us"),
        "manifold.retract_us_per_iter": (us("retract"), "us"),
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool, setup_reps: int = SETUP_REPS) -> dict:
    """One benchmark run; returns the result object the command prints."""
    api = CqdApi()
    cases, setup_s = set_up(api, wl, seed, setup_reps)
    tracer = Tracer(wl.m)
    traced, plain = timed_rounds(api, wl, cases, seconds, tracer if trace else None)
    if not trace:
        # One more round, wrapped and outside the timed window, counts the
        # query bytes and keeps what the output checks read.
        with tracer.installed(api.owners()):
            traced = run_round(api, wl, cases, tracer)
    timed = traced + plain if trace else plain
    failures = checks.check_calls(wl, cases, traced + plain) + checks.check_probe(
        wl, cases, traced, tracer, SIGMA
    )
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    metrics = per_layer(traced, plain, tracer) if trace else end_to_end(wl, plain, tracer, setup_s)
    return {
        "correct": not failures,
        "attempted": len(timed) * wl.iters,
        "failed": sum(wl.iters - c.completed for c in timed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
