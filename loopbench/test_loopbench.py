"""Tests of the loop benchmark: a tiny version of each workload and its checks.

Run from the repository root with ``python3 -m pytest loopbench -q``.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import loop
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> loop.Workload:
    return dataclasses.replace(loop.WORKLOADS[name], iters=12, pool=1)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(loop.WORKLOADS)


@pytest.mark.parametrize("name", list(loop.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_and_passes_its_checks(name, trace):
    result = loop.run(tiny(name), seed=3, seconds=0, trace=trace, setup_reps=1)
    assert result["correct"]
    # A traced run alternates traced and untraced rounds.
    assert result["attempted"] == 12 * (2 if trace else 1) and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    signed = ("oracle_sim.aggregate_us_per_iter", "optimizer.trace_overhead_us_per_iter")
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k not in signed)


def _traced_tiny_desk6():
    wl = tiny("desk6")
    api = loop.CqdApi()
    cases, _ = loop.set_up(api, wl, seed=0, reps=1)
    tracer = Tracer(wl.m)
    with tracer.installed(api.owners()):
        calls = loop.run_round(api, wl, cases, tracer)
    assert checks.check_calls(wl, cases, calls) == []
    assert checks.check_probe(wl, cases, calls, tracer, loop.SIGMA) == []
    return wl, cases, calls, tracer


def test_checks_catch_a_flipped_query_bit():
    wl, cases, calls, tracer = _traced_tiny_desk6()
    case, k, query = tracer.queries[5]
    flipped = bytearray(query)
    flipped[30] ^= 0x04
    tracer.queries[5] = (case, k, bytes(flipped))
    assert checks.check_probe(wl, cases, calls, tracer, loop.SIGMA)


def test_checks_catch_a_budget_over_tau_and_a_wrong_loss():
    wl, cases, calls, _ = _traced_tiny_desk6()
    rows = calls[0].trace.rows
    rows[4] = dataclasses.replace(rows[4], budget=wl.tau + 1)
    rows[0] = dataclasses.replace(rows[0], loss=rows[0].loss * (1 + 1e-6))
    failures = checks.check_calls(wl, cases, calls)
    assert any("budget" in f for f in failures)
    assert any("k=0" in f for f in failures)


def test_tracing_leaves_cqd_unwrapped_afterwards():
    api = loop.CqdApi()
    api.load()
    owners = api.owners()
    before = {(key, attr): getattr(owners[key], attr) for key, attr, _ in LAYERS}
    with Tracer(1).installed(owners):
        pass
    assert before == {(key, attr): getattr(owners[key], attr) for key, attr, _ in LAYERS}


def test_command_prints_one_json_line_last():
    proc = subprocess.run(
        [sys.executable, "loopbench/run.py", "--workload", "desk6", "--seed", "1",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "loopbench", tmp_path / "loopbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "loopbench/run.py", "--workload", "desk6", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
