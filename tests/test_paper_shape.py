"""Paper-shape gate: E1–E10 at the evaluation trip show the paper's shapes.

One cold pass over a fresh result store runs each of E1–E10 once at
trip 64 (``run_experiment(eid, 64)``, the ``repro experiment`` default),
and every check below reads that pass: each asserts one qualitative
shape the paper reports (PAPER.md §V), with the paper's own number
beside its bound.

The same pass regenerates the ten reports committed under ``reports/``,
and each must match its file byte for byte, so every number
EXPERIMENTS.md quotes is pinned.  To re-record a report after a change
that means to move it (the command prints a ``=====`` header, the
report and a blank line)::

    PYTHONPATH=src python -m repro experiment E2 | sed '1d;$d' \\
        > reports/E2_fig12_speedup.txt
"""

from __future__ import annotations

import difflib
import pathlib

import pytest

from repro.experiments import REGISTRY, run_experiment
from repro.experiments.common import clear_cache

TRIP = 64

REPORTS_DIR = pathlib.Path(__file__).resolve().parents[1] / "reports"

#: experiment id -> its committed report under ``reports/``.
REPORTS = {
    "E1": "E1_table1_characterization.txt",
    "E2": "E2_fig12_speedup.txt",
    "E3": "E3_table2_apps.txt",
    "E4": "E4_table3_stats.txt",
    "E5": "E5_fig13_latency.txt",
    "E6": "E6_fig14_speculation.txt",
    "E7": "E7_ablation_throughput.txt",
    "E8": "E8_ablation_queue_depth.txt",
    "E9": "E9_ablation_multipair.txt",
    "E10": "E10_ablation_adaptive.txt",
}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """``{id: result}`` of one cold pass of E1–E10 at ``TRIP`` over a
    fresh result store."""
    clear_cache()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("paper-store")))
        return {eid: run_experiment(eid, TRIP) for eid in REPORTS}


@pytest.mark.parametrize("eid", REPORTS)
def test_report_matches_committed(results, eid):
    path = REPORTS_DIR / REPORTS[eid]
    want = path.read_bytes().decode()
    got = REGISTRY[eid][0].format_result(results[eid]) + "\n"
    if got != want:
        diff = "".join(difflib.unified_diff(
            want.splitlines(keepends=True), got.splitlines(keepends=True),
            f"reports/{REPORTS[eid]}", f"{eid} at trip {TRIP}"))
        pytest.fail(f"{eid} report changed:\n{diff}")


def test_table1_characterization(results):
    res = results["E1"]
    c = res.counts
    assert c["total"] == 51
    assert c["init"] == 6
    assert c["traditional"] == 25
    assert c["conditional"] == 2
    assert c["amenable"] == 18
    assert len(res.rows) == 18


def test_fig12_speedup(results):
    res = results["E2"]
    assert res.avg[4] > res.avg[2] > 1.0
    assert 1.1 <= res.avg[2] <= 1.7       # paper 1.32
    assert 1.6 <= res.avg[4] <= 2.4       # paper 2.05
    by = {r["kernel"]: r["speedup_4"] for r in res.rows}
    assert by["umt2k-2"] <= 1.35          # paper 1.01
    top = sorted(by, key=by.get)[-6:]
    assert any(k.startswith("irs") for k in top)


def test_table2_apps(results):
    res = results["E3"]
    avg = res.by_app("average")
    assert 1.0 <= avg["speedup_2"] <= 1.6   # paper 1.18
    assert avg["speedup_2"] <= avg["speedup_4"] <= 2.0  # paper 1.73
    for r in res.rows:
        assert r["speedup_2"] >= 0.95


def test_table3_stats(results):
    res = results["E4"]
    by = {r["kernel"]: r for r in res.rows}
    # relationships the paper's table exhibits
    assert by["irs-5"]["initial_fibers"] == max(r["initial_fibers"] for r in res.rows)
    assert by["irs-5"]["com_ops"] >= 30           # paper 60, largest
    assert all(r["queues"] <= 12 for r in res.rows)
    assert max(r["queues"] for r in res.rows) >= 6  # paper max 8
    assert all(r["load_balance"] >= 1.0 for r in res.rows)


def test_fig13_latency(results):
    """Paper series: avg 2.05 @5cyc -> 1.85 @20 -> 1.36 @50 -> ~1.0 @100."""
    res = results["E5"]
    assert res.avg[5] > res.avg[20] > res.avg[50] > res.avg[100]
    assert res.avg[50] <= 1.55                    # paper 1.36
    assert res.avg[100] <= 1.25                   # paper ~1.0
    assert res.no_speedup[100] >= res.no_speedup[50] >= res.no_speedup[20]
    assert res.no_speedup[100] >= 8               # paper 16


def test_fig14_speculation(results):
    res = results["E6"]
    assert res.avg_spec >= res.avg_base - 0.01    # versioned: no net loss
    assert res.n_improved >= 1                    # paper: 8
    by = {r["kernel"]: r for r in res.rows}
    assert by["umt2k-6"]["gain"] > 1.1            # chained-conditional win


def test_ablation_throughput(results):
    """Paper: mixed outcome; 3 kernels improve, 6 degrade, -11% on average."""
    res = results["E7"]
    assert res.improved >= 1
    assert res.degraded >= res.improved           # net-negative direction
    assert res.avg_change_pct < 5.0


def test_ablation_queue_depth(results):
    res = results["E8"]
    assert all(v == 0 for v in res.deadlocks.values())  # rank-ordered comm
    assert res.avg[20] >= res.avg[4] >= res.avg[1]
    assert res.avg[1] > 1.0  # still profitable at depth 1


def test_ablation_multipair(results):
    res = results["E9"]
    # coarser merge decisions: close to single-pair on average
    assert res.avg_multi >= res.avg_single - 0.25
    # the compile-time saving, counted on each large kernel: fewer
    # selection rounds and fewer live pairs examined, the same affinities
    assert res.merge_work
    for w in res.merge_work:
        single, multi = w["single"], w["multi"]
        assert multi["rounds"] < single["rounds"]
        assert multi["pairs_examined"] < single["pairs_examined"]
        assert multi["affinity_evals"] == single["affinity_evals"]


def test_ablation_adaptive(results):
    res = results["E10"]
    # knowing the true latency must help (or at worst tie) on average
    for lat in res.avg_fixed:
        assert res.avg_adaptive[lat] >= res.avg_fixed[lat] - 0.05
    # and recover a visible fraction of the Fig 13 degradation at 50cyc
    assert res.avg_adaptive[50] >= res.avg_fixed[50] + 0.1
