"""Hash what cqd computes, to show that two source trees give byte-identical output.

Run it once per tree, each time with its own work directory, and diff the two
listings:

    python3 scripts/byte_identity.py OLD_TREE old.d --cli > old.txt
    python3 scripts/byte_identity.py NEW_TREE new.d --cli > new.txt
    diff old.txt new.txt

Each line is the first 16 hex digits of a sha256 and the output's name:
- the trace rows, ``trace.error``, start and final point of ``run_cqd`` for the
  four loopbench workload configurations, instance seeds 0-2, and (listed as
  ``.../columns``) the dtype, shape and bytes of each run's seven
  ``trace.column(name)`` arrays, which the certification reports read;
- ``ensemble24-m3``: 24^3, ranks (2, 2, 2), m=3, seeds 0-1, 10 iterations, a
  shape whose draws the oracle makes one per block;
- ``ensemble40-m3``: the same at 40^3, a 500 KiB target, near the dense
  workload's scale;
- the 6^3, sigma=0, constant eta=3, 2000-iteration diverging run;
- ``hosvd`` on random, thin (5x1x2), rank-one and all-zero tensors, and on
  the core and factors of seeded Tucker points (listed as ``thin_hosvd``, the
  name that HOSVD had earlier), ``tucker_from_tensor`` on seeded inputs, and
  ``tucker_retract`` from that HOSVD along the projection of a random tensor;
- the file bytes of acceptance criterion 10's five CSV and five JSON reports;
- with ``--cli``, ``python -m cqd.bench_cli <experiment> --out`` for all five
  experiments at default flags (about 1.5 minutes on one core).
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

# (shape, ranks, tau, m, iterations) as loopbench/loop.py's WORKLOADS.
WORKLOADS = {
    "desk6": ((6, 6, 6), (2, 2, 2), 27, 1, 200),
    "dense48": ((48, 48, 48), (2, 2, 2), 27, 1, 20),
    "ensemble6-m64": ((6, 6, 6), (2, 2, 2), 27, 64, 60),
    "capped12": ((12, 12, 12), (4, 4, 4), 16, 1, 30),
}
EXPERIMENTS = ("projopt", "tailbound", "converge", "ratedist", "ensemble")
COLUMNS = ("k", "loss", "grad_norm_sq", "ranks", "budget", "eta", "eps")  # TraceRow's fields


def run_args(cqd, workload: tuple, seed: int) -> tuple:
    """run_cqd's arguments for a WORKLOADS row and instance seed, as loopbench
    builds them: noise floor and sigma 0.1, Robbins-Monro (0.5, 100), eps0 0.1."""
    shape, ranks, tau, m, iters = workload
    instance, target = cqd.gen_synthetic(shape, ranks, 0.1, seed)
    return (cqd.tucker_from_tensor(instance, ranks),
            cqd.TaskSpec(target=target, tau=tau, task_id=seed),
            cqd.OracleConfig(0.1, seed), cqd.StepSchedule("robbins_monro", 0.5, 100.0),
            0.1, iters, m)


def digest(name: str, *parts) -> None:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    print(h.hexdigest()[:16], name, flush=True)


def point_bytes(p) -> list[bytes]:
    return [p.core.tobytes()] + [f.u.tobytes() for f in p.factors]


def factorization_bytes(f) -> list[bytes]:
    return [a.tobytes() for a in (f.core, *f.factors, *f.svals)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="checkout whose src/ holds cqd")
    parser.add_argument("workdir", type=Path, help="directory for the reports written")
    parser.add_argument("--cli", action="store_true", help="also run cqd-bench at default flags")
    args = parser.parse_args()
    src = (args.tree / "src").resolve()
    work = args.workdir.resolve()
    work.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(src))

    import cqd
    from cqd import bench_cli
    from cqd.manifold import (
        gen_synthetic, riemannian_grad_tucker, tucker_from_tensor, tucker_retract,
    )
    from cqd.tensor_core import hosvd

    if Path(cqd.__file__).resolve().parent.parent != src:
        raise SystemExit(f"cqd imported from {cqd.__file__}, not from {src}")

    for name, workload in WORKLOADS.items():
        for seed in range(3):
            x0, *rest = run_args(cqd, workload, seed)
            final, trace = cqd.run_cqd(x0, *rest)
            digest(f"{name}/mean/seed{seed}", trace.rows, trace.error,
                   *point_bytes(x0), *point_bytes(final))
            columns = [trace.column(field) for field in COLUMNS]
            digest(f"{name}/mean/seed{seed}/columns",
                   *[part for c in columns for part in (c.dtype.str, c.shape, c.tobytes())])

    for n in (24, 40):
        ensemble = ((n, n, n), (2, 2, 2), 27, 3, 10)
        for seed in range(2):
            final, trace = cqd.run_cqd(*run_args(cqd, ensemble, seed))
            digest(f"ensemble{n}-m3/mean/seed{seed}", trace.rows, trace.error,
                   *point_bytes(final))

    instance, target = gen_synthetic((6, 6, 6), (2, 2, 2), 0.1, 0)
    final, trace = cqd.run_cqd(
        tucker_from_tensor(instance, (2, 2, 2)), cqd.TaskSpec(target=target, tau=27),
        cqd.OracleConfig(0.0, 0), cqd.StepSchedule("constant", 3.0), 0.1, 2000,
    )
    digest("diverging", trace.rows, trace.error, *point_bytes(final))

    rng = np.random.default_rng(7)
    for shape in ((4, 5, 6), (5, 1, 2), (6, 6, 6), (1, 1, 1), (7, 3, 2)):
        f = hosvd(rng.standard_normal(shape))
        digest("hosvd/random" + "x".join(map(str, shape)), *factorization_bytes(f))
    digest("hosvd/zeros", *factorization_bytes(hosvd(np.zeros((2, 3, 4)))))
    x = np.zeros((3, 4, 5))
    x[0, 0, 0] = 2.0
    digest("hosvd/rank1", *factorization_bytes(hosvd(x)))
    for seed in range(3):
        instance, _ = gen_synthetic((8, 7, 6), (3, 2, 2), 0.0, seed)
        p = tucker_from_tensor(instance, (3, 2, 2))
        h = hosvd(p.core, p.factors)
        digest(f"thin_hosvd/seed{seed}", *factorization_bytes(h))
        digest(f"tucker_from_tensor/seed{seed}", *point_bytes(p))
        t = riemannian_grad_tucker(h, rng.standard_normal((8, 7, 6)))
        digest(f"tucker_retract/seed{seed}", *point_bytes(tucker_retract(h, t, 0.3)))

    # Acceptance criterion 10's configurations.
    configs = {
        "projopt": bench_cli.ProjOptConfig(shape=(6, 8), ranks=(2,), seeds=(0, 1), n_projectors=50),
        "tailbound": bench_cli.TailBoundConfig(shape=(6, 6, 6), seeds=(0,), n_instances=5),
        "converge": bench_cli.ConvergeConfig(seeds=(0,), iters=300),
        "ratedist": bench_cli.RateDistConfig(seeds=(0, 1), grid_points=20),
        "ensemble": bench_cli.EnsembleConfig(sigma=0.5, seeds=(0,), trials=200, m_values=(1, 4)),
    }
    for name, config in configs.items():
        _, experiment = bench_cli.EXPERIMENTS[name]
        for fmt in ("csv", "json"):
            path = work / f"criterion10_{name}.{fmt}"
            bench_cli.emit_report(experiment(config), path, fmt)
            digest(f"criterion10/{name}.{fmt}", path.read_bytes())

    if args.cli:
        # No bytecode is written into the tree: it would speed up later imports there.
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        for name in EXPERIMENTS:
            out = work / f"cli_{name}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "cqd.bench_cli", name, "--out", str(out)],
                cwd=work, env=env, capture_output=True, text=True,
            )
            digest(f"cli/{name}.json", proc.returncode, proc.stdout, out.read_bytes())


if __name__ == "__main__":
    main()
