from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import cqd

SRC = str(Path(cqd.__file__).resolve().parent.parent)
NAMES = (
    "gen_synthetic",
    "tucker_from_tensor",
    "TaskSpec",
    "OracleConfig",
    "StepSchedule",
    "run_cqd",
    "run_cqd_ensemble",
)


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_import_cqd_exports_seven_names_without_the_cli():
    script = (
        "import sys, cqd\n"
        "assert 'cqd.bench_cli' not in sys.modules, 'cqd imported its CLI'\n"
        f"names = {NAMES!r}\n"
        "assert all(callable(getattr(cqd, n)) for n in names)\n"
        "public = sorted(n for n in vars(cqd) if not n.startswith('_') and callable(getattr(cqd, n)))\n"
        "assert public == sorted(names), public\n"
        "for mod in ('optimizer', 'spectral_masking', 'oracle_sim'):\n"
        "    assert getattr(cqd, mod).__name__ == 'cqd.' + mod\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_cli_module_runs_with_runtime_warnings_as_errors():
    proc = run_python("-W", "error::RuntimeWarning", "-m", "cqd.bench_cli", "tailbound", "--instances", "2")
    assert proc.returncode == 0, proc.stderr
    assert "tailbound: 2 rows, overall PASS" in proc.stdout
