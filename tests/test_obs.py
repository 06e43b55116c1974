"""Tests for the repro.obs observability subsystem: event bus,
metrics registry, Chrome-trace timeline, stall attribution, and the
disabled-overhead guard."""

from __future__ import annotations

import json
import sys

import pytest

from repro.kernels import get_kernel
from repro.obs.events import (
    SIM_KINDS,
    STALL_QUEUE_EMPTY,
    STALL_QUEUE_FULL,
    STALL_TRANSFER,
    Event,
    EventBus,
    EventLog,
    span,
)
from repro.obs.metrics import MetricsCollector, MetricsRegistry
from repro.obs.report import format_profile, profile_result
from repro.obs.timeline import (
    PID_COMPILER,
    PID_CORES,
    PID_QUEUES,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.runtime import compile_loop, execute_kernel
from repro.sim import MachineParams

#: tier-1 kernels the attribution tests sweep (acceptance: >= 4).
PROFILE_KERNELS = ("umt2k-1", "umt2k-6", "lammps-2", "irs-3", "sphot-2")


def observed_run(name, n_cores=4, trip=16, params=None):
    """Compile + simulate ``name`` with a bus + log attached."""
    spec = get_kernel(name)
    bus = EventBus()
    log = EventLog()
    bus.subscribe(log)
    kern = compile_loop(spec.loop(), n_cores, obs=bus)
    res = execute_kernel(kern, spec.workload(trip=trip), params, obs=bus)
    return spec, kern, res, log


class TestEventBus:
    def test_disabled_bus_never_dispatches(self):
        bus = EventBus(enabled=False)
        log = EventLog()
        bus.subscribe(log)
        bus.emit_enq(1.0, 0, "q", 42)
        bus.emit_stall(1.0, 0, STALL_QUEUE_FULL, 3.0)
        bus.emit_pass("merge", 0.0, 0.1)
        assert len(log) == 0 and not bus.active

    def test_subscribe_unsubscribe(self):
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        bus.subscribe(log)  # idempotent
        bus.emit_halt(5.0, 1)
        bus.unsubscribe(log)
        bus.emit_halt(6.0, 1)
        assert len(log) == 1 and log.events[0].kind == "halt"

    def test_log_cap_counts_drops(self):
        log = EventLog(max_events=3)
        for k in range(10):
            log(Event("enq", float(k)))
        assert len(log) == 3 and log.dropped == 7

    def test_by_kind_and_core(self):
        log = EventLog()
        log(Event("enq", 1.0, core=0))
        log(Event("deq", 2.0, core=1))
        assert len(log.by_kind("enq")) == 1
        assert len(log.by_core(1)) == 1

    def test_span_noop_without_bus(self):
        with span(None, "x"):
            pass
        with span(EventBus(enabled=False), "x"):
            pass

    def test_span_emits_pass(self):
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        with span(bus, "merge"):
            pass
        (ev,) = log.events
        assert ev.kind == "pass" and ev.name == "merge" and ev.dur >= 0


class TestSimulatorEvents:
    def test_stall_split_closes_exactly(self):
        for name in PROFILE_KERNELS:
            _, _, res, _ = observed_run(name)
            for st in res.core_stats:
                assert st.stall_full + st.stall_empty + st.stall_transfer == (
                    pytest.approx(st.queue_stall)
                ), name

    def test_events_match_core_stats(self):
        _, kern, res, log = observed_run("umt2k-6")
        for cid, st in enumerate(res.core_stats):
            evs = log.by_core(cid)
            assert sum(1 for e in evs if e.kind == "enq") == st.enq_ops
            assert sum(1 for e in evs if e.kind == "deq") == st.deq_ops
            retired = sum(e.value for e in evs if e.kind == "retire")
            assert retired == st.instrs
        assert len(log.by_kind("halt")) == kern.n_cores

    def test_stall_events_sum_to_accounting(self):
        _, _, res, log = observed_run("lammps-2")
        for cid, st in enumerate(res.core_stats):
            by_reason = {}
            for e in log.by_core(cid):
                if e.kind == "stall":
                    by_reason[e.name] = by_reason.get(e.name, 0.0) + e.dur
            assert by_reason.get(STALL_QUEUE_FULL, 0.0) == pytest.approx(st.stall_full)
            assert by_reason.get(STALL_QUEUE_EMPTY, 0.0) == pytest.approx(st.stall_empty)
            assert by_reason.get(STALL_TRANSFER, 0.0) == pytest.approx(st.stall_transfer)

    def test_compiler_passes_recorded(self):
        _, _, _, log = observed_run("umt2k-1")
        names = {e.name for e in log.by_kind("pass")}
        assert {"normalize", "codegraph", "merge", "comm", "schedule",
                "lower"} <= names


class TestMetrics:
    def test_registry_types_and_snapshot(self):
        r = MetricsRegistry()
        r.counter("a").inc(2)
        r.gauge("b").set(7.5)
        r.histogram("c").observe(3.0)
        with pytest.raises(TypeError):
            r.gauge("a")
        snap = r.snapshot()
        assert snap["a"]["value"] == 2 and snap["b"]["value"] == 7.5
        assert snap["c"]["count"] == 1 and "le_5" in snap["c"]["buckets"]
        json.loads(r.to_json())  # round-trips

    def test_collector_folds_host_events(self):
        spec = get_kernel("umt2k-6")
        bus = EventBus()
        coll = MetricsCollector()
        bus.subscribe(coll)
        compile_loop(spec.loop(), 4, obs=bus)
        bus.emit_guard("deadlock", 1)
        bus.emit_task("umt2k-6", 0.0, 0.5, "ok")
        bus.emit_heartbeat("umt2k-6", "alive")
        r = coll.registry
        assert r.value("compiler.pass.merge.calls") == 1
        assert r.value("compiler.pass.merge.seconds") > 0
        assert r.value("guard.deadlock") == 1
        assert r.value("task.ok") == 1 and r.value("heartbeat.alive") == 1
        assert r.value("obs.events.pass") == sum(
            r.value(n) for n in r.names() if n.endswith(".calls"))


class TestTimeline:
    def test_structure_valid(self):
        _, kern, res, log = observed_run("umt2k-6")
        doc = chrome_trace(log.events)
        assert validate_chrome_trace(doc) == []
        evs = doc["traceEvents"]
        core_tracks = [
            e for e in evs
            if e["ph"] == "M" and e["name"] == "thread_name"
            and e["pid"] == PID_CORES
        ]
        assert len(core_tracks) == kern.n_cores
        queue_tracks = [
            e for e in evs
            if e["ph"] == "M" and e["name"] == "thread_name"
            and e["pid"] == PID_QUEUES
        ]
        assert len(queue_tracks) == len(res.queue_stats)
        assert any(e["ph"] == "X" and e["pid"] == PID_COMPILER for e in evs)
        assert any(e["ph"] == "C" for e in evs)

    def test_occupancy_counter_never_negative(self):
        _, _, _, log = observed_run("lammps-2")
        doc = chrome_trace(log.events)
        for e in doc["traceEvents"]:
            if e["ph"] == "C":
                assert e["args"]["outstanding"] >= 0

    def test_write_and_reload(self, tmp_path):
        _, _, _, log = observed_run("umt2k-1", trip=8)
        path = tmp_path / "trace.json"
        write_chrome_trace(path, log.events)
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []

    def test_write_rejects_malformed(self, tmp_path):
        with pytest.raises(ValueError):
            write_chrome_trace(tmp_path / "bad.json", {"traceEvents": [{}]})

    def test_validator_flags_problems(self):
        assert validate_chrome_trace([]) == ["document is not a JSON object"]
        assert validate_chrome_trace({}) == ["traceEvents is missing or not a list"]
        probs = validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "ts": 0, "pid": 1, "tid": 0}]}
        )
        assert any("name" in p for p in probs)
        assert any("dur" in p for p in probs)


class TestReport:
    @pytest.mark.parametrize("name", PROFILE_KERNELS)
    def test_percentages_close_and_agree(self, name):
        spec = get_kernel(name)
        kern = compile_loop(spec.loop(), 4)
        res = execute_kernel(kern, spec.workload(trip=24))
        prof = profile_result(res, kernel=name, trip=24, queue_depth=20,
                              stats=kern.plan.stats)
        for row in prof.rows:
            total = (row.pct_busy + row.pct_full + row.pct_empty
                     + row.pct_transfer)
            assert total == pytest.approx(100.0, abs=0.1)
        # agreement with the machine's own accounting, to the cycle
        assert prof.total_stall == pytest.approx(res.total_queue_stall)
        assert prof.total_instrs == res.total_instrs
        assert prof.cycles == res.cycles

    def test_format_profile_contents(self):
        spec = get_kernel("umt2k-6")
        kern = compile_loop(spec.loop(), 4)
        res = execute_kernel(kern, spec.workload(trip=16))
        prof = profile_result(res, kernel="umt2k-6", trip=16, queue_depth=20,
                              stats=kern.plan.stats, seq_cycles=2.0 * res.cycles)
        text = format_profile(prof)
        assert "stall attribution" in text and "queue pressure" in text
        assert "speedup: 2.00x" in text


class TestAdaptiveProfileSignals:
    """The adaptive runtime's signals surfaced through `repro profile`:
    per-core idle fractions, imbalance, and occupancy histograms."""

    def _profile(self, trip=16, faults=None):
        spec = get_kernel("umt2k-1")
        kern = compile_loop(spec.loop(), 4)
        res = execute_kernel(kern, spec.workload(trip=trip), faults=faults)
        return profile_result(res, kernel="umt2k-1", trip=trip,
                              queue_depth=20, stats=kern.plan.stats)

    def test_idle_fractions_and_imbalance(self):
        prof = self._profile()
        for row in prof.rows:
            assert 0.0 <= row.idle_frac <= 1.0
        assert prof.imbalance == pytest.approx(
            max(r.idle_frac for r in prof.rows)
            - min(r.idle_frac for r in prof.rows)
        )

    def test_skew_raises_reported_imbalance(self):
        from repro.faults import FaultInjector, FaultPlan

        balanced = self._profile()
        skewed = self._profile(faults=FaultInjector(
            FaultPlan(seed=3, slow_cores=(1,), slow_factor=4.0)))
        assert skewed.imbalance > balanced.imbalance

    def test_queue_rows_carry_occupancy(self):
        prof = self._profile()
        assert prof.queues
        for q in prof.queues:
            assert q.depth > 0
            assert q.mean_occupancy >= 0.0
            spark = q.occupancy_sparkline()
            assert len(spark) == 8
        text = format_profile(prof)
        assert "imbalance" in text and "idle" in text


class TestGuardAndHarnessEvents:
    def test_guard_emits_failure_then_fallback(self):
        from repro.runtime.guard import GuardPolicy, guarded_run

        spec = get_kernel("umt2k-1")
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        run = guarded_run(
            spec.loop(), spec.workload(trip=16), 4,
            params=MachineParams(max_instrs=5),
            policy=GuardPolicy(max_attempts=1, budget_scale=1),
            obs=bus,
        )
        assert run.degraded
        names = [e.name for e in log.by_kind("guard")]
        assert names[0] == "budget" and names[-1] == "fallback"

    def test_guard_emits_parallel_on_success(self):
        from repro.runtime.guard import guarded_run

        spec = get_kernel("umt2k-1")
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        run = guarded_run(spec.loop(), spec.workload(trip=8), 2, obs=bus)
        assert run.source == "parallel"
        assert [e.name for e in log.by_kind("guard")] == ["parallel"]

    def test_run_kernel_task_lifecycle(self):
        from repro.experiments import common

        common.clear_cache()
        spec = get_kernel("umt2k-1")
        cfg = common.ExpConfig(n_cores=2, trip=8)
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        common.run_kernel(spec, cfg, store=None, obs=bus)
        common.run_kernel(spec, cfg, store=None, obs=bus)
        statuses = [e.value for e in log.by_kind("task")]
        assert statuses == ["ok", "cached"]
        assert all(e.name == "umt2k-1:c2" for e in log.by_kind("task"))

    def test_run_grid_serial_emits_tasks(self):
        from repro.experiments import common
        from repro.store.sweep import run_grid

        common.clear_cache()
        specs = [get_kernel("umt2k-1"), get_kernel("lammps-1")]
        cfg = common.ExpConfig(n_cores=2, trip=8)
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        run_grid(specs, [cfg], workers=0, store=None, obs=bus)
        names = sorted(e.name for e in log.by_kind("task"))
        assert names == ["lammps-1:c2", "umt2k-1:c2"]

    def test_run_grid_pool_replays_worker_events(self):
        """A pool cell's host-domain events come back with its run: the
        workers' own task events, and the compile's pass spans, which no
        worker process can emit on this bus."""
        from repro.experiments import common
        from repro.store.sweep import run_grid

        common.clear_cache()
        specs = [get_kernel("umt2k-1"), get_kernel("lammps-1")]
        cfg = common.ExpConfig(n_cores=2, trip=8)
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        run_grid(specs, [cfg], workers=2, store=None, obs=bus)
        tasks = sorted((e.name, e.value) for e in log.by_kind("task"))
        assert tasks == [("lammps-1:c2", "ok"), ("umt2k-1:c2", "ok")]
        assert log.by_kind("pass")


class TestDisabledOverhead:
    """The satellite guard: with observability off, simulation must not
    get measurably more expensive.  Wall clock is too noisy to assert
    on, so we count Python calls with sys.setprofile instead."""

    @staticmethod
    def _counted_run(obs):
        spec = get_kernel("umt2k-6")
        kern = compile_loop(spec.loop(), 4)
        wl = spec.workload(trip=16)
        calls = [0]
        obs_frames = [0]

        def prof(frame, event, arg):
            if event == "call":
                calls[0] += 1
                fname = frame.f_code.co_filename
                if f"repro{'/' if '/' in fname else chr(92)}obs" in fname:
                    obs_frames[0] += 1

        sys.setprofile(prof)
        try:
            res = execute_kernel(kern, wl, obs=obs)
        finally:
            sys.setprofile(None)
        return res, calls[0], obs_frames[0]

    def test_disabled_obs_adds_under_3pct(self):
        res_none, calls_none, obs_none = self._counted_run(None)
        res_off, calls_off, obs_off = self._counted_run(EventBus(enabled=False))
        # no code path enters the obs package when disabled...
        assert obs_none == 0 and obs_off == 0
        # ...the simulated outcome is bit-identical...
        assert res_off.cycles == res_none.cycles
        assert res_off.total_instrs == res_none.total_instrs
        # ...and the instruction (Python-call) overhead is < 3%.
        assert calls_off <= calls_none * 1.03

    @pytest.mark.parametrize("enabled", [None, False, True])
    def test_pool_cell_gets_a_bus_only_to_replay_into(self, monkeypatch,
                                                       enabled):
        """A sweep's pool worker hands its cell a bus only when the sweep
        has an enabled one to replay the cell's events into."""
        import concurrent.futures

        import repro.pool as pool
        from repro.experiments import common
        from repro.store.sweep import run_grid

        class Inline:
            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        run = common.run_kernel
        seen = []

        def spy(spec, config, **kwargs):
            seen.append(type(kwargs.get("obs")).__name__)
            return run(spec, config, **kwargs)

        monkeypatch.setattr(pool, "make_executor", lambda *args: Inline())
        monkeypatch.setattr(common, "run_kernel", spy)
        common.clear_cache()
        bus = None if enabled is None else EventBus(enabled=enabled)
        run_grid([get_kernel("umt2k-1"), get_kernel("lammps-1")],
                 [common.ExpConfig(n_cores=2, trip=8)], workers=2,
                 store=None, obs=bus)
        assert seen == ["_HostEvents" if enabled else "NoneType"] * 2

    def test_host_bus_gives_the_cores_no_bus(self):
        """A HostBus's simulator emitters do nothing, so the machine
        hands its cores no bus and the slice loop makes no call into
        the obs package; a guarded run still delivers its guard and
        pass events to the bus's subscriber."""
        from repro.obs.events import HostBus
        from repro.runtime.guard import guarded_run
        from repro.sim.machine import Machine
        from repro.sim.memory import SharedMemory

        bus = HostBus()
        log = EventLog()
        bus.subscribe(log)
        kern = compile_loop(get_kernel("umt2k-6").loop(), 4)
        machine = Machine(kern.programs, SharedMemory({}), obs=bus)
        assert machine.obs is None
        assert all(core.obs is None for core in machine.cores)
        res_none, calls_none, _ = self._counted_run(None)
        res_host, calls_host, obs_host = self._counted_run(bus)
        assert obs_host == 0 and calls_host == calls_none
        assert res_host.cycles == res_none.cycles

        spec = get_kernel("umt2k-1")
        run = guarded_run(spec.loop(), spec.workload(trip=8), 2, obs=bus)
        assert run.source == "parallel"
        assert [e.name for e in log.by_kind("guard")] == ["parallel"]
        assert log.by_kind("pass")
        assert not [e for e in log.events if e.kind in SIM_KINDS]

    def test_enabled_obs_does_not_change_simulation(self):
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        spec = get_kernel("irs-3")
        kern = compile_loop(spec.loop(), 4)
        wl = spec.workload(trip=16)
        a = execute_kernel(kern, wl, obs=bus)
        b = execute_kernel(kern, wl)
        assert a.cycles == b.cycles and a.total_instrs == b.total_instrs
        assert len(log) > 0
        for e in log.events:
            assert e.kind in SIM_KINDS
