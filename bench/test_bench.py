"""Tests of the benchmark itself, at the quick size.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


@pytest.fixture(scope="module")
def results(tmp_path_factory) -> dict:
    """One untraced and one traced quick run of every workload."""
    out = {}
    for trace in ("0", "1"):
        path = tmp_path_factory.mktemp("out") / "result.json"
        code, stdout = bench("--quick", "--seconds", "0.1", "--seed", "1",
                             "--trace", trace, "--out", str(path))
        assert code == 0, stdout
        out[trace] = (json.loads(stdout.splitlines()[-1]), json.loads(path.read_text()))
    return out


def test_every_workload_runs_and_checks_out(results):
    for last, doc in results.values():
        assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
        assert set(doc["workloads"]) == {w["name"] for w in SPEC["workloads"]}
        for res in doc["workloads"].values():
            assert res["correct"] and res["failed"] == 0


def test_metric_names_match_benchmark_json(results):
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert all(NAME.fullmatch(n) for n in declared)
        for res in results[trace][1]["workloads"].values():
            assert {n: m["unit"] for n, m in res["metrics"].items()} == declared


def test_end_to_end_metrics_are_never_zero(results):
    for res in results["0"][1]["workloads"].values():
        assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", ["suite-cold", "grid-t512", "serve-zipf"])
def test_tracing_changes_no_output(workload):
    r = run.Run(run.QUICK, seed=2)
    try:
        untraced, traced, _ = run.measure(r, workload, 0.1, trace=True)
    finally:
        r.close()
    assert not r.problems
    assert untraced and traced
    assert {x["digest"] for x in untraced} == {x["digest"] for x in traced}
    assert all(x["trace"]["spans"] for x in traced)


@pytest.mark.parametrize("correct, deadlocked, resolved_by, failed", [
    (True, False, None, False),        # verified parallel run
    (False, True, None, False),        # deadlock: an output, not a failure
    (False, False, None, True),        # mismatch, budget, memory fault, sim error
    (False, False, "fallback", False),  # the guard served the sequential result
    (True, False, "first-try", False),
])
def test_cell_failed(correct, deadlocked, resolved_by, failed):
    assert worker.cell_failed(correct, deadlocked, resolved_by) is failed


@pytest.mark.parametrize("x, a, b, want", [
    (0.3, 1.0, 1.0, 0.3),              # uniform
    (0.5, 7.5, 7.5, 0.5),              # symmetric
    (0.9, 4.0, 1.0, 0.9 ** 4),         # I_x(a, 1) = x**a
    (0.2, 1.0, 3.0, 1 - 0.8 ** 3),     # I_x(1, b) = 1 - (1 - x)**b
    (0.995, 1485.99, 15.01, None),     # the p99 weights of 1500 samples
])
def test_beta_cdf(x, a, b, want):
    got = run.beta_cdf(x, a, b)
    if want is None:
        assert got + run.beta_cdf(1 - x, b, a) == pytest.approx(1.0, abs=1e-12)
    else:
        assert got == pytest.approx(want, abs=1e-12)


def test_hd_percentile_smooths_a_cliff_in_the_tail():
    assert run.hd_percentile([], 99) == 0.0
    assert run.hd_percentile([5.0], 99) == pytest.approx(5.0)
    assert run.hd_percentile([1.0, 2.0, 3.0], 50) == pytest.approx(2.0)
    # 15 slow samples, then 1485 fast: the nearest-rank p99 sits on the
    # first fast one and jumps to a slow one when one more slow sample
    # comes; the estimate moves by a small share of that jump
    low = [100.0] * 1485 + [500.0] * 15
    high = [100.0] * 1484 + [500.0] * 16
    assert run.percentile(high, 99) - run.percentile(low, 99) == 400.0
    assert 0 < run.hd_percentile(high, 99) - run.hd_percentile(low, 99) < 150.0


def test_serve_plan_varies_only_the_workload_data_with_the_seed():
    plans = []
    for seed in (0, 5):
        r = run.Run(run.FULL, seed)
        r.close()
        plans.append([(q["kernel"], q["cores"], q["seed"] - seed * r.size.seed_offsets)
                      for q in run.serve_plan(r)])
    assert plans[0] == plans[1]
    assert len(plans[0]) == run.FULL.requests
    assert len({cell[:2] for cell in plans[0]}) == 36   # Table I x {2, 4}


@pytest.mark.parametrize("seed", [3_000_000_000, -1, 2**64])
def test_any_seed_requests_valid_workload_seeds(seed):
    r = run.Run(run.FULL, seed)
    r.close()
    seeds = {q["seed"] for q in run.serve_plan(r)}
    assert 0 <= r.seed < run.DATA_SEEDS
    assert 0 <= min(seeds) and max(seeds) < 2**31


def _reaped(pids: list[int]) -> bool:
    return all(not Path(f"/proc/{pid}").exists() for pid in pids)


@pytest.fixture
def spawned_pids(monkeypatch) -> list[int]:
    """Records the pid of every process the benchmark starts."""
    pids: list[int] = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pids.append(self.pid)

    monkeypatch.setattr(run.subprocess, "Popen", Recording)
    return pids


def test_serve_daemon_is_reaped_on_success(spawned_pids):
    r = run.Run(run.QUICK, seed=0)
    try:
        rep = run.serve_rep(r, run.serve_plan(r), trace=False)
    finally:
        r.close()
    assert rep["failed"] == 0 and spawned_pids
    assert _reaped(spawned_pids)


def test_serve_daemon_is_reaped_on_failure(spawned_pids, monkeypatch):
    def broken(*_args):
        raise RuntimeError("client crashed")

    monkeypatch.setattr(run, "closed_loop", broken)
    r = run.Run(run.QUICK, seed=0)
    try:
        with pytest.raises(RuntimeError):
            run.serve_rep(r, run.serve_plan(r), trace=False)
    finally:
        r.close()
    assert spawned_pids and _reaped(spawned_pids)


def test_speed_probe_samples_beside_the_run_and_is_reaped(spawned_pids):
    r = run.Run(run.QUICK, seed=0)
    try:
        with run.speed_probe(r) as samples:
            time.sleep(0.5)
    finally:
        r.close()
    assert len(spawned_pids) == 1 and _reaped(spawned_pids)
    assert len(samples) > 10 and all(dt > 0 for _, dt in samples)
    assert 0 < run.HostSpeed(samples).scale(samples[0][0], samples[-1][0])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, stdout = bench("--workload", "grid-t512", "--seed", "0",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert stdout == ""


@pytest.mark.parametrize("a, b, better, bound, verdict", [
    ([10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10],
     [9, 9.1, 8.9, 9, 9.05, 8.95, 9, 9.1, 8.9, 9], "lower", 0.1, "improved"),
    ([10, 10.1, 9.9, 10, 10.05], [10.02, 10.0, 9.95, 10.04, 10.0],
     "lower", 0.1, "unchanged"),
    ([10, 10.1, 9.9, 10, 10.05], [12, 12.1, 11.9, 12, 12.05],
     "lower", 0.1, "regressed"),
    ([10, 13, 7, 12, 8], [10, 12.5, 7.5, 11, 9], "lower", 0.1, "unresolved"),
    ([1.62, 1.62, 1.62], [1.62, 1.62, 1.62], "higher", 0.0, "unchanged"),
    ([1.62, 1.62, 1.62], [1.60, 1.60, 1.60], "higher", 0.0, "regressed"),
    ([5, 5, 5], [4, 4, 4], "lower", None, "improved"),
    ([5, 5, 5], [6, 6, 6], "lower", None, "regressed"),
])
def test_compare_verdicts(a, b, better, bound, verdict):
    assert compare.judge(a, b, better, bound).verdict == verdict


def test_compare_reads_run_outputs(tmp_path, results):
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "1.json").write_text(json.dumps(results["0"][1]))
    rows = compare.compare(compare.load_runs(tmp_path / "a"),
                           compare.load_runs(tmp_path / "b"), SPEC)
    assert len(rows) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert {v.verdict for *_, v in rows} == {"unchanged"}
