"""Acceptance suite: one test per certification criterion, with stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion; each test also enforces its runtime limit.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from cqd.bench_cli import (
    ConvergeConfig,
    EnsembleConfig,
    ProjOptConfig,
    RateDistConfig,
    TailBoundConfig,
    _convergence_run,
    exp_convergence,
    exp_ensemble_variance,
    exp_projector_optimality,
    exp_rate_distortion,
    exp_tail_bound,
    emit_report,
    gen_synthetic,
)
from cqd.manifold import (
    qr_retraction,
    riemannian_grad_tucker,
    tangent_project_stiefel,
    tangent_to_ambient,
    tucker_retract,
    tucker_to_tensor,
)
from cqd.oracle_sim import OracleConfig, SimulatedOracle
from cqd.query_codec import CodecError, decode, encode
from cqd.spectral_masking import asm_compress
from cqd.tensor_core import hosvd, truncated_reconstruct
from tests.test_manifold import negated, point_hosvd, random_tangent, random_tucker_point


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_projector_optimality():
    start = time.perf_counter()
    cfg = ProjOptConfig(shape=(6, 8), ranks=(2,), seeds=tuple(range(20)), n_projectors=500)
    rep = exp_projector_optimality(cfg)
    violations = sum(row["violations"] for row in rep.rows)
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (top-2 projector optimality)",
        rep.passed["zero_violations"] and elapsed < 10.0,
        f"violations={violations}, elapsed={elapsed:.2f}s (< 10 s)",
    )


def test_criterion_02_tail_bound_all_rank_triples():
    start = time.perf_counter()
    cfg = TailBoundConfig(shape=(5, 5, 5), seeds=(19,), n_instances=100)
    rep = exp_tail_bound(cfg)
    violations = sum(row["violations"] for row in rep.rows)
    checked = sum(row["n_triples"] for row in rep.rows)
    elapsed = time.perf_counter() - start
    report(
        "criterion 2 (truncation tail bound)",
        rep.passed["zero_violations"] and elapsed < 30.0,
        f"{checked} rank triples, violations={violations}, elapsed={elapsed:.2f}s (< 30 s)",
    )


def test_criterion_03_hosvd_exactness():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 5, 6))
        f = hosvd(x)
        err = np.linalg.norm(truncated_reconstruct(f, f.core.shape) - x) / np.linalg.norm(x)
        worst = max(worst, err)
    report(
        "criterion 3 (full-rank reconstruction)",
        worst <= 1e-10,
        f"worst relative error {worst:.2e} (<= 1e-10) over 100 tensors",
    )


def test_criterion_04_retraction_axioms():
    h = 1e-5
    worst_zero = 0.0
    worst_fd = 0.0
    rng = np.random.default_rng(23)
    for _ in range(50):
        u = qr_retraction(rng.standard_normal((6, 3)))
        worst_zero = max(worst_zero, float(np.max(np.abs(qr_retraction(u.u).u - u.u))))
        xi = tangent_project_stiefel(u, rng.standard_normal((6, 3)))
        fd = (qr_retraction(u.u + h * xi).u - qr_retraction(u.u - h * xi).u) / (2 * h)
        worst_fd = max(worst_fd, float(np.max(np.abs(fd - xi))))
    for _ in range(50):
        p = random_tucker_point(rng)
        x = tucker_to_tensor(p)
        at = point_hosvd(p)
        zero = riemannian_grad_tucker(at, np.zeros(p.shape))
        same = tucker_to_tensor(tucker_retract(at, zero, 1.0))
        worst_zero = max(worst_zero, float(np.max(np.abs(same - x))))
        t = random_tangent(rng, at)
        emb = tangent_to_ambient(at, t)
        plus = tucker_to_tensor(tucker_retract(at, t, h))
        minus = tucker_to_tensor(tucker_retract(at, negated(t), h))
        fd_err = np.max(np.abs((plus - minus) / (2 * h) - emb))
        worst_fd = max(worst_fd, float(fd_err))
    report(
        "criterion 4 (retraction axioms)",
        worst_zero <= 1e-12 and worst_fd <= 1e-6,
        f"max |Retr(0)-x|={worst_zero:.2e} (<= 1e-12), "
        f"max first-order error={worst_fd:.2e} (<= 1e-6, h=1e-5), 50 points each",
    )


def test_criterion_05_convergence_desk_scale():
    start = time.perf_counter()
    # Defaults: 6^3, ranks (2,2,2), sigma 0.1, Robbins-Monro eta0 0.5 and
    # k0 100, 5000 iterations, eps0 0.1, tau 27.
    cfg = ConvergeConfig()
    noisy = [_convergence_run(cfg, seed, "rm_noisy") for seed in range(10)]
    assert all(row["error"] == "" for row in noisy)
    median_min = float(np.median([row["min_running_grad_sq"] for row in noisy]))

    det = _convergence_run(cfg, 99, "deterministic")
    det_ok = det["min_loss"] < 1e-8

    neg = _convergence_run(cfg, 99, "negative_control")
    diverged = bool(neg["diverged"])

    elapsed = time.perf_counter() - start
    report(
        "criterion 5 (convergence desk scale)",
        median_min < 1e-3 and det_ok and diverged and elapsed < 120.0,
        f"median running-min grad^2={median_min:.2e} (< 1e-3, 10 seeds), "
        f"deterministic min loss={det['min_loss']:.2e} (< 1e-8 in <= 400), "
        f"eta=3 diverged={diverged}, elapsed={elapsed:.1f}s (< 2 min)",
    )


def test_criterion_06_ensemble_variance_reduction():
    cfg = EnsembleConfig(sigma=0.5, seeds=(31,), trials=2000, m_values=(1, 4, 16, 64))
    rep = exp_ensemble_variance(cfg)
    variances = [row["variance"] for row in rep.rows]
    in_band = rep.passed["ratio_in_band"]
    decreasing = rep.passed["variance_strictly_decreasing"]
    report(
        "criterion 6 (ensemble variance reduction)",
        in_band and decreasing,
        f"variances={['%.2e' % v for v in variances]} for m in (1,4,16,64), "
        f"band [0.8,1.25]*sigma^2/m ok={in_band}, strictly decreasing={decreasing}",
    )


def test_criterion_07_oracle_noise_contract():
    sigma = 0.5
    rng = np.random.default_rng(37)
    instance, target = gen_synthetic((6, 6, 6), (2, 2, 2), 0.1, 37)
    query = encode(asm_compress(instance, 0.1), 0, 37, 0.1)
    oracle = SimulatedOracle(OracleConfig(sigma, 37), target)
    n = 10_000
    payloads = np.stack([oracle.infer(query, i).payload for i in range(n)])
    noise = payloads - target
    second_moment = float(np.mean(np.sum(noise**2, axis=(1, 2, 3))))
    moment_ok = abs(second_moment - sigma**2) <= 0.05 * sigma**2
    bias = float(np.linalg.norm(np.mean(noise, axis=0)))
    bias_ok = bias <= 3 * sigma / np.sqrt(n)
    report(
        "criterion 7 (oracle noise contract)",
        moment_ok and bias_ok,
        f"E||xi||^2={second_moment:.4f} (within 5% of {sigma**2}), "
        f"bias={bias:.4f} (<= {3 * sigma / np.sqrt(n):.4f})",
    )


def test_criterion_08_wire_format():
    rng = np.random.default_rng(41)
    round_trips = 0
    lengths_ok = True
    for _ in range(100):
        shape = tuple(int(d) for d in rng.integers(2, 7, size=3))
        x = rng.standard_normal(shape)
        eps = float(rng.uniform(0.05, 0.9))
        core = asm_compress(x, eps)
        task_id = int(rng.integers(0, 2**32))
        seed = int(rng.integers(0, 2**63))
        data = encode(core, task_id, seed, eps)
        if len(data) != 27 + 8 * core.size:
            lengths_ok = False
        dq = decode(data)
        if (
            dq.ranks == core.shape
            and dq.task_id == task_id
            and dq.seed == seed
            and dq.core.tobytes() == np.ascontiguousarray(core).tobytes()
        ):
            round_trips += 1
    # every single-bit corruption of one representative query is rejected
    data = bytearray(encode(asm_compress(rng.standard_normal((4, 4, 4)), 0.3), 1, 2, 0.3))
    rejected = 0
    total = 0
    for byte_index in range(len(data)):
        for bit in range(8):
            corrupted = bytearray(data)
            corrupted[byte_index] ^= 1 << bit
            total += 1
            try:
                decode(bytes(corrupted))
            except CodecError:
                rejected += 1
    report(
        "criterion 8 (wire format)",
        round_trips == 100 and lengths_ok and rejected == total,
        f"round trips {round_trips}/100, lengths 27+8*r ok={lengths_ok}, "
        f"bit flips rejected {rejected}/{total}",
    )


def test_criterion_09_rate_distortion_frontier():
    cfg = RateDistConfig(seeds=tuple(range(10)), grid_points=50)
    rep = exp_rate_distortion(cfg)
    report(
        "criterion 9 (rate-distortion frontier)",
        rep.ok,
        f"monotone={rep.passed['frontier_monotone']} over 50-point grid x 10 seeds, "
        f"payload ratio (2,2,2)/20^3 = {rep.summary['payload_ratio_2x2x2_in_20x20x20']}",
    )


def test_criterion_10_experiment_determinism(tmp_path):
    configs = {
        "projopt": (
            exp_projector_optimality,
            ProjOptConfig(shape=(6, 8), ranks=(2,), seeds=(0, 1), n_projectors=50),
        ),
        "tailbound": (
            exp_tail_bound,
            TailBoundConfig(shape=(6, 6, 6), seeds=(0,), n_instances=5),
        ),
        "converge": (
            exp_convergence,
            ConvergeConfig(seeds=(0,), iters=300),
        ),
        "ratedist": (
            exp_rate_distortion,
            RateDistConfig(seeds=(0, 1), grid_points=20),
        ),
        "ensemble": (
            exp_ensemble_variance,
            EnsembleConfig(sigma=0.5, seeds=(0,), trials=200, m_values=(1, 4)),
        ),
    }
    identical = True
    for name, (fn, cfg) in configs.items():
        for fmt in ("csv", "json"):
            p1 = tmp_path / f"{name}_1.{fmt}"
            p2 = tmp_path / f"{name}_2.{fmt}"
            emit_report(fn(cfg), p1, fmt)
            emit_report(fn(cfg), p2, fmt)
            if p1.read_bytes() != p2.read_bytes():
                identical = False
    report(
        "criterion 10 (experiment determinism)",
        identical,
        "re-running every experiment with identical config and seeds "
        "produced byte-identical CSV and JSON reports",
    )
