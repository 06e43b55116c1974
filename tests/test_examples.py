"""Every top-level example runs to exit 0, as a user would run it."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.kernels import get_kernel
from repro.runtime import compile_loop, execute_kernel

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def run_example(path: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(path)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_every_example_is_collected():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(path, tmp_path):
    proc = run_example(path, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_pipeline_timeline_draws_one_row_per_queue(tmp_path):
    proc = run_example(ROOT / "examples" / "pipeline_timeline.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("timeline 0 .. "))
    rows = [ln.split()[0] for ln in lines[start + 1:] if ln.endswith("|")]
    # the example's run: umt2k-4 on 4 cores, 10 iterations
    spec = get_kernel("umt2k-4")
    res = execute_kernel(compile_loop(spec.loop(), 4), spec.workload(trip=10))
    assert rows == [
        f"{qs.qid.src}->{qs.qid.dst}.{qs.qid.vclass.value}"
        for qs in res.queue_stats
    ]
