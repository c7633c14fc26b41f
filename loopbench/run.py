"""Benchmark of the cqd outer loop: one run, two sets of runs, or a profile.

One run (prints one JSON line last):

    python3 loopbench/run.py --workload desk6 --seed 0 --seconds 20 --trace 0

Two sets of runs of the same code, medians and their difference against
each end-to-end metric's bound from BENCHMARK.json:

    python3 loopbench/run.py --compare [--runs 10] [--seconds 20] [--workload W ...]

Traced stage shares, tracing overhead and the certification CLI's wall time:

    python3 loopbench/run.py --profile [--seconds 20] [--workload W ...]

Results of --compare and --profile go to loopbench/results/.
"""
from __future__ import annotations

import os

# One BLAS thread: the loop's matrices are small, and on a shared 2-core
# machine a second BLAS thread made the 48^3 SVDs slower and noisier.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def one_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import loop

    result = loop.run(loop.WORKLOADS[workload], seed, seconds, trace)
    print(json.dumps(machine()), file=sys.stderr)
    print(json.dumps(result))
    return 0


def spawn(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(workloads, runs: int, seconds: float) -> int:
    """Two sets of `runs` runs each, alternating A and B, seeds apart."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {"machine": machine(), "seconds": seconds, "runs": runs, "workloads": {}}
    ok = True
    for w in workloads:
        sets = {"A": [], "B": []}
        for i in range(runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                seed = i if side == "A" else runs + i
                sets[side].append(spawn(w, seed, seconds, 0))
        out = {"failed_share": {}, "wall_s": {}, "metrics": {}}
        for side, results in sets.items():
            out["failed_share"][side] = [r["failed"] / r["attempted"] for r in results]
            out["wall_s"][side] = [r["wall_s"] for r in results]
            ok &= all(r["correct"] for r in results)
        walls = out["wall_s"]["A"] + out["wall_s"]["B"]
        print(f"\n{w}: failed share A {set(out['failed_share']['A'])} B {set(out['failed_share']['B'])}, "
              f"all correct {all(r['correct'] for rs in sets.values() for r in rs)}, "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s")
        print(f"{'metric':22} {'A q1 / median / q3':>34} {'B q1 / median / q3':>34} "
              f"{'IQR/med A':>9} {'IQR/med B':>9} {'B worse':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            qa = quartiles([r["metrics"][name]["value"] for r in sets["A"]])
            qb = quartiles([r["metrics"][name]["value"] for r in sets["B"]])
            worse = (qb[1] - qa[1]) / qa[1]
            if metric["better"] == "higher":
                worse = -worse
            spread_a, spread_b = (qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1]
            held = worse <= bound and (name == "setup_s" or max(spread_a, spread_b) <= bound)
            ok &= held
            out["metrics"][name] = {"unit": metric["unit"], "bound": bound, "A": qa, "B": qb,
                                    "A_values": [r["metrics"][name]["value"] for r in sets["A"]],
                                    "B_values": [r["metrics"][name]["value"] for r in sets["B"]],
                                    "worse": worse, "held": held}
            print(f"{name:22} {qa[0]:10.4g} {qa[1]:10.4g} {qa[2]:10.4g}   {qb[0]:10.4g} {qb[1]:10.4g} "
                  f"{qb[2]:10.4g}   {spread_a:9.3f} {spread_b:9.3f} {worse:8.3f} {bound:6.2f}"
                  f"{'' if held else '  OVER'}")
        doc["workloads"][w] = out
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "compare.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


def profile(workloads, seed: int, seconds: float) -> int:
    """One traced run per workload, then the certification CLI's wall time."""
    doc = {"machine": machine(), "seconds": seconds, "seed": seed, "workloads": {}, "cli_s": {}}
    for w in workloads:
        traced = spawn(w, seed, seconds, 1)["metrics"]
        iter_us = traced["optimizer.iter_us"]["value"]
        overhead = traced["optimizer.trace_overhead_us_per_iter"]["value"]
        print(f"\n{w}: traced {iter_us:.1f} us/iter, tracing overhead {overhead:+.1f} us "
              f"({overhead / (iter_us - overhead) * 100:+.1f} %)")
        for name, m in traced.items():
            share = f"{m['value'] / iter_us * 100:6.1f} %" if name.endswith("_us_per_iter") else ""
            print(f"  {name:42} {m['value']:12.4f} {m['unit']:6} {share}")
        doc["workloads"][w] = traced
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for experiment in ("converge", "ensemble"):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "cqd.bench_cli", experiment],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800)
        doc["cli_s"][experiment] = time.perf_counter() - t0
        print(f"\ncqd-bench {experiment} (defaults): {doc['cli_s'][experiment]:.1f} s, exit {proc.returncode}")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "profile.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    import loop

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(loop.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--compare", action="store_true", help="two sets of runs of the same code")
    mode.add_argument("--profile", action="store_true", help="stage shares and tracing overhead")
    parser.add_argument("--runs", type=int, default=10, help="runs per set with --compare")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    workloads = args.workload or list(loop.WORKLOADS)
    if args.compare:
        return compare(workloads, args.runs, args.seconds)
    if args.profile:
        return profile(workloads, args.seed, args.seconds)
    if args.workload is None or len(args.workload) != 1:
        parser.error("a single run needs exactly one --workload")
    return one_run(args.workload[0], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    if not (ROOT / "src" / "cqd" / "__init__.py").is_file():
        print(f"cqd sources not found under {ROOT / 'src'}; run from a checkout of the repo",
              file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
