"""Paired, in-process timing of the cqd loop on two source trees.

    python3 scripts/ab_loop.py OLD_TREE NEW_TREE [--workload W ...] [--rounds N]

Each tree's ``src/cqd`` is copied into a temporary directory as a package of
its own (``cqd_old``, ``cqd_new``) and both are imported into one process;
that works because no module in ``src/cqd`` imports ``cqd.`` by absolute
name (the script refuses a tree where one does).  The runs' inputs are
loopbench's, built by ``byte_identity.run_args`` from its ``WORKLOADS``
table, instance seeds 0-2.

A round is one ``run_cqd`` call per seed; rounds alternate between the
trees, the first side swapping every round, after one untimed warm-up round
each.  A round's times are the median (p50) and the 90th percentile (p90,
the percentile loopbench reports as dense48's ``iter_us_tail``) of the gaps
between successive ``iterate_hook`` stamps.  Per workload the script prints,
for p50 and then for p90, each side's median round time and the median of
the per-round ratios new/old, and how many rounds the new tree won at p50.
Both sides see the same host load within a round, so the ratio is steadier
than two loopbench processes run one after the other; claims are still made
with loopbench pairs.
"""
from __future__ import annotations

import os

# One BLAS thread, as loopbench pins it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from byte_identity import WORKLOADS, run_args  # noqa: E402

SEEDS = (0, 1, 2)


def load(tree: Path, name: str, into: Path):
    """Import `tree`'s src/cqd as the package `name`, copied under `into`."""
    src = tree.resolve() / "src" / "cqd"
    for path in src.glob("*.py"):
        if re.search(r"^\s*(from|import)\s+cqd\b", path.read_text(), re.M):
            raise SystemExit(f"{path} imports cqd by absolute name; it cannot be renamed")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def cases(cqd, workload: str) -> list[tuple]:
    """run_cqd's arguments for each seed, as byte_identity.py builds them."""
    return [run_args(cqd, WORKLOADS[workload], seed) for seed in SEEDS]


def round_us(cqd, args_list) -> tuple[float, float]:
    """p50 and p90 µs between iterate_hook stamps over one run_cqd call per case."""
    gaps = []
    for args in args_list:
        stamps: list[int] = []
        cqd.run_cqd(*args, iterate_hook=lambda k, a, _s=stamps.append: _s(time.perf_counter_ns()))
        gaps.append(np.diff(np.array(stamps, dtype=np.int64)))
    p50, p90 = np.percentile(np.concatenate(gaps), (50, 90)) / 1e3
    return float(p50), float(p90)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout whose src/ holds the old cqd")
    parser.add_argument("new", type=Path, help="checkout whose src/ holds the new cqd")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to time (repeatable; default: all)")
    parser.add_argument("--rounds", type=int, default=21, help="timed rounds per tree")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = {"old": load(args.old, "cqd_old", Path(tmp)), "new": load(args.new, "cqd_new", Path(tmp))}
        print(f"{'workload':<14} {'rounds':>6} {'old_p50_us':>11} {'new_p50_us':>11} {'new/old':>8}"
              f" {'old_p90_us':>11} {'new_p90_us':>11} {'new/old':>8} {'new_won':>8}", flush=True)
        for workload in args.workload or list(WORKLOADS):
            inputs = {side: cases(cqd, workload) for side, cqd in sides.items()}
            for side, cqd in sides.items():  # warm-up
                round_us(cqd, inputs[side])
            times = {"old": [], "new": []}
            for r in range(args.rounds):
                for side in ("old", "new") if r % 2 == 0 else ("new", "old"):
                    times[side].append(round_us(sides[side], inputs[side]))
            cells = []
            for q in (0, 1):  # p50, then p90
                old, new = ([t[q] for t in times[side]] for side in ("old", "new"))
                ratio = statistics.median(n / o for n, o in zip(new, old))
                cells.append(f" {statistics.median(old):>11.1f} {statistics.median(new):>11.1f} {ratio:>8.3f}")
            won = sum(n[0] < o[0] for n, o in zip(times["new"], times["old"]))
            print(f"{workload:<14} {args.rounds:>6}{''.join(cells)} {won:>5}/{args.rounds}", flush=True)


if __name__ == "__main__":
    main()
