"""Tests for the experiment harness and each experiment's shape checks.

These use a reduced trip count so the whole module stays fast;
``tests/test_paper_shape.py`` checks the paper's shapes at the
evaluation trip (64).
"""

import pytest

from repro.experiments import ExpConfig, REGISTRY, amean, geomean, run_kernel
from repro.experiments import common as C
from repro.experiments import (
    ablation_queue_depth,
    ablation_throughput,
    fig12_speedup,
    fig13_latency,
    fig14_speculation,
    table1_hotloops,
    table2_apps,
    table3_stats,
)
from repro.kernels import get_kernel

TRIP = 24


@pytest.fixture(scope="module", autouse=True)
def _warm_cache():
    yield


class TestHarness:
    def test_run_kernel_correct_and_cached(self):
        spec = get_kernel("umt2k-1")
        cfg = ExpConfig(n_cores=2, trip=TRIP)
        r1 = run_kernel(spec, cfg)
        r2 = run_kernel(spec, cfg)
        assert r1 is r2  # memoised
        assert r1.correct and not r1.deadlocked
        assert r1.speedup > 0

    @pytest.mark.parametrize("broken, failure", [
        ("compile", "compile-error"), ("protocol", "protocol"),
    ])
    def test_static_cell_without_parallel_artifact_is_recorded(
            self, monkeypatch, broken, failure):
        # a compiler crash or a checker rejection of the parallel kernel
        # is a failed cell, not an exception out of the harness
        from repro.check import mutate_kernel
        from repro.isa import lower as L
        from repro.runtime import exec as X

        parallelize, lower_plan = X.parallelize, X.lower_plan

        def crashing(loop, n_cores, *a, **kw):
            if n_cores > 1:
                raise RuntimeError("synthetic compiler bug")
            return parallelize(loop, n_cores, *a, **kw)

        def miscompiling(plan):
            kern = lower_plan(plan)
            if plan.n_cores > 1:
                return mutate_kernel(kern, "drop-enq") or kern
            return kern

        if broken == "compile":
            monkeypatch.setattr(X, "parallelize", crashing)
        else:
            # the selection's lowering and the compile's own
            monkeypatch.setattr(L, "lower_plan", miscompiling)
            monkeypatch.setattr(X, "lower_plan", miscompiling)
        C.clear_cache()
        run = run_kernel(get_kernel("umt2k-1"),
                         ExpConfig(n_cores=4, trip=TRIP, seed=93), store=None)
        C.clear_cache()
        assert run.failure == failure
        assert not run.correct and run.resolved_by is None
        assert run.fallback and run.speedup == 0.0

    def test_means(self):
        assert amean([1.0, 3.0]) == 2.0
        assert abs(geomean([1.0, 4.0]) - 2.0) < 1e-12
        assert geomean([]) == 0.0

    def test_registry_complete(self):
        assert set(REGISTRY) == {f"E{k}" for k in range(1, 14)}


class TestTable1:
    def test_counts(self):
        res = table1_hotloops.run()
        assert res.counts["total"] == 51
        assert res.counts["amenable"] == 18
        assert "51" in table1_hotloops.format_result(res)


class TestFig12:
    def test_shape(self):
        res = fig12_speedup.run(trip=TRIP)
        assert len(res.rows) == 18
        # headline shape: 4-core average beats 2-core average, both > 1
        assert res.avg[4] > res.avg[2] > 1.0
        # in the paper's band (generous tolerance for a reconstruction)
        assert 1.1 <= res.avg[2] <= 1.7
        assert 1.6 <= res.avg[4] <= 2.4
        assert fig12_speedup.format_result(res)

    def test_pathological_kernels_near_bottom(self):
        res = fig12_speedup.run(trip=TRIP)
        by_name = {r["kernel"]: r["speedup_4"] for r in res.rows}
        ranked = sorted(by_name, key=by_name.get)
        assert "umt2k-2" in ranked[:5]
        assert by_name["umt2k-2"] < 1.35


class TestTable2:
    def test_rows_and_shape(self):
        res = table2_apps.run(trip=TRIP)
        apps = [r["app"] for r in res.rows]
        assert apps == ["lammps", "irs", "umt2k", "sphot", "average"]
        avg = res.by_app("average")
        assert avg["speedup_4"] >= avg["speedup_2"] >= 1.0
        assert table2_apps.format_result(res)

    def test_amdahl(self):
        assert table2_apps.amdahl([(1.0, 2.0)]) == 2.0
        assert table2_apps.amdahl([]) == 1.0
        assert abs(table2_apps.amdahl([(0.5, 2.0)]) - 1 / 0.75) < 1e-12
        with pytest.raises(ValueError):
            table2_apps.amdahl([(0.8, 2.0), (0.3, 2.0)])


class TestTable3:
    def test_columns_present(self):
        res = table3_stats.run(trip=TRIP)
        assert len(res.rows) == 18
        r = res.rows[0]
        for key in ("initial_fibers", "data_deps", "load_balance",
                    "com_ops", "queues", "speedup"):
            assert key in r
        assert table3_stats.format_result(res)

    def test_relationships(self):
        res = table3_stats.run(trip=TRIP)
        by = {r["kernel"]: r for r in res.rows}
        # irs-5 is the biggest kernel in both worlds
        assert by["irs-5"]["initial_fibers"] == max(
            r["initial_fibers"] for r in res.rows
        )
        # queue usage never exceeds the 12 directed pairs of 4 cores
        assert all(r["queues"] <= 12 for r in res.rows)
        assert all(r["load_balance"] >= 1.0 for r in res.rows)


class TestFig13:
    def test_monotone_degradation(self):
        res = fig13_latency.run(trip=TRIP, latencies=(5, 20, 50))
        assert res.avg[5] > res.avg[20] > res.avg[50]
        assert res.no_speedup[50] >= res.no_speedup[5]
        assert fig13_latency.format_result(res)

    def test_adaptive_series_performance_neutral_when_balanced(self):
        # on the (fault-free) uniform machine the adaptive runtime must
        # not cost anything: its series tracks static within noise
        res = fig13_latency.run(trip=TRIP, latencies=(5, 50))
        assert res.avg_adaptive is not None
        for lat in (5, 50):
            assert res.avg_adaptive[lat] >= res.avg[lat] - 0.05
        assert "adaptive" in fig13_latency.format_result(res)

    def test_adaptive_series_optional(self):
        res = fig13_latency.run(trip=TRIP, latencies=(5,), adaptive=False)
        assert res.avg_adaptive is None
        assert all("adaptive_5" not in r for r in res.rows)


class TestFig14:
    def test_no_regressions_and_umt2k6_gains(self):
        res = fig14_speculation.run(trip=TRIP)
        assert res.avg_spec >= res.avg_base - 0.01
        by = {r["kernel"]: r for r in res.rows}
        assert by["umt2k-6"]["gain"] > 1.1
        assert res.n_improved >= 1
        assert fig14_speculation.format_result(res)

    def test_adaptive_column_tracks_static(self):
        res = fig14_speculation.run(trip=TRIP)
        assert res.avg_adaptive is not None
        assert res.avg_adaptive >= res.avg_base - 0.05


class TestImbalanceE13:
    """E13 slice: the adaptive campaign's gates on a reduced matrix
    (full matrix runs under `repro chaos-adapt` and the CI smoke)."""

    def _slice(self):
        from repro.experiments import imbalance

        scenarios = tuple(
            s for s in imbalance.SKEW_SCENARIOS if s[0] != "slow13x2"
        )
        return imbalance, imbalance.run(
            trip=16, kernels=("umt2k-1", "irs-1"), scenarios=scenarios,
        )

    def test_campaign_gates_hold(self):
        imbalance, res = self._slice()
        assert res.silent == 0
        assert res.all_checks_ok and res.total_checks > 0
        assert res.never_worse
        assert all(n >= 1 for n in res.wins_per_kernel.values())
        assert res.mean_skewed_gain > 0
        assert res.ok
        text = imbalance.format_result(res)
        assert "campaign gate: PASS" in text
        assert "SAFETY INVARIANT HOLDS" in text

    def test_cells_are_independently_verified(self):
        imbalance, res = self._slice()
        assert all(c.correct for c in res.cells)
        assert all(c.outcome in imbalance.OUTCOMES for c in res.cells)
        # the balanced control never escalates
        for c in res.cells:
            if c.scenario == "balanced":
                assert c.outcome == "balanced"
                assert c.resolved_by == "first-try"

    def test_cell_row_shape(self):
        """A cell's row of ``repro chaos-adapt --json``."""
        from repro.experiments import imbalance

        res = imbalance.run(trip=8, kernels=("umt2k-1",),
                            scenarios=(("balanced", (), 1.0),))
        row = res.cells[0].row(trip=8, cores=4)
        assert row["kernel"] == "umt2k-1" and row["scenario"] == "balanced"
        assert {"static_cycles", "adaptive_cycles", "gain", "imbalance",
                "resolved_by", "checks", "checks_ok",
                "outcome"} <= set(row)


class TestAdaptive:
    def test_adaptive_helps_on_average(self):
        from repro.experiments import ablation_adaptive

        res = ablation_adaptive.run(trip=TRIP, latencies=(50,))
        assert res.avg_adaptive[50] >= res.avg_fixed[50] - 0.05
        assert ablation_adaptive.format_result(res)


class TestAblations:
    def test_throughput_mixed_outcome(self):
        res = ablation_throughput.run(trip=TRIP)
        assert res.improved >= 1 and res.degraded >= 1
        assert ablation_throughput.format_result(res)

    def test_queue_depth_monotone(self):
        res = ablation_queue_depth.run(trip=TRIP, depths=(1, 4, 20))
        assert res.avg[20] >= res.avg[1]
        assert all(v == 0 for v in res.deadlocks.values())
        assert ablation_queue_depth.format_result(res)
