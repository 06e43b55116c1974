"""repro.serve.resilience: breaker, supervisor, drain — injected clocks."""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.events import EventBus, EventLog
from repro.obs.metrics import MetricsRegistry
from repro.pool import kill_workers
from repro.serve.admission import Draining, Overloaded
from repro.serve.resilience import (
    CircuitBreaker,
    DrainController,
    DrainReport,
    SupervisorPolicy,
    WorkerSupervisor,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def run(coro):
    return asyncio.run(coro)


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=3, cooldown=10.0, clock=clock)
        for _ in range(2):
            b.check("k")
            b.record_failure("k")
        assert b.state("k") == "closed"
        b.record_failure("k")
        assert b.state("k") == "open"
        with pytest.raises(Overloaded):
            b.check("k")

    def test_success_resets_the_count(self):
        b = CircuitBreaker(threshold=2, clock=FakeClock())
        b.record_failure("k")
        b.record_success("k")
        b.record_failure("k")
        assert b.state("k") == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        b.record_failure("k")
        clock.t = 10.0
        assert b.state("k") == "half-open"
        b.check("k")  # the probe is admitted
        with pytest.raises(Overloaded):
            b.check("k")  # second caller is shed while the probe flies

    def test_probe_success_closes(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        b.record_failure("k")
        clock.t = 10.0
        b.check("k")
        b.record_success("k")
        assert b.state("k") == "closed" and b.open_keys == 0
        b.check("k")  # freely admitted again

    def test_probe_failure_reopens_for_another_cooldown(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=5, cooldown=10.0, clock=clock)
        for _ in range(5):
            b.record_failure("k")
        clock.t = 10.0
        b.check("k")
        b.record_failure("k")  # failed probe: no threshold grace
        clock.t = 19.9
        with pytest.raises(Overloaded):
            b.check("k")
        clock.t = 20.0
        b.check("k")  # next probe window

    def test_keys_are_independent(self):
        b = CircuitBreaker(threshold=1, clock=FakeClock())
        b.record_failure("bad")
        b.check("good")

    def test_eviction_spares_open_breakers(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=2, cooldown=99.0, max_keys=2, clock=clock)
        b.record_failure("tripped")
        b.record_failure("tripped")  # open: shedding state, must survive
        b.record_failure("a")        # closed (count 1)
        b.record_failure("c")        # over the cap: oldest closed ("a") goes
        assert b.open_keys == 1
        with pytest.raises(Overloaded):
            b.check("tripped")
        b.record_failure("a")  # count restarted at 1: the entry was evicted
        assert b.state("a") == "closed"

    def test_metrics_counters(self):
        reg = MetricsRegistry()
        clock = FakeClock()
        b = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock,
                           registry=reg)
        b.record_failure("k")
        with pytest.raises(Overloaded):
            b.check("k")
        clock.t = 10.0
        b.check("k")
        b.record_success("k")
        assert reg.value("serve.breaker.open") == 1
        assert reg.value("serve.breaker.shed") == 1
        assert reg.value("serve.breaker.close") == 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)


class TestWorkerSupervisor:
    def _sup(self, **kw):
        clock = FakeClock()
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        policy = SupervisorPolicy(**kw)
        reg = MetricsRegistry()
        return WorkerSupervisor(policy, bus=bus, registry=reg,
                                clock=clock), clock, log, reg

    def test_begin_end_heartbeats(self):
        sup, clock, log, _ = self._sup()
        token = sup.begin("run:sphot-1", timeout=5.0)
        assert sup.inflight == 1
        clock.t = 1.5
        sup.end(token, "done")
        assert sup.inflight == 0
        beats = [(e.name, e.value) for e in log.events if e.kind == "heartbeat"]
        assert beats == [("run:sphot-1", "start"), ("run:sphot-1", "done")]

    def test_scan_marks_stuck_past_deadline_plus_grace(self):
        sup, clock, log, reg = self._sup(grace=2.0)
        sup.begin("run:x", timeout=5.0)
        clock.t = 6.9  # past deadline, inside grace
        assert sup.scan() == 0
        clock.t = 7.1
        assert sup.scan() == 1
        assert sup.scan() == 0  # not newly stuck twice
        assert reg.value("serve.supervisor.stuck") == 1
        statuses = [e.value for e in log.events if e.kind == "heartbeat"]
        assert "alive" in statuses and "stuck" in statuses

    def test_restart_budget_and_backoff(self):
        sup, clock, _, reg = self._sup(
            max_restarts=2, backoff_base=0.5, backoff_cap=30.0
        )
        sup.admit()
        sup.note_restart()  # backoff 0.5
        with pytest.raises(Overloaded, match="restarting"):
            sup.admit()
        clock.t = 0.5
        sup.admit()
        sup.note_restart()  # backoff 1.0 (exponential)
        assert sup.backoff_remaining == pytest.approx(1.0)
        clock.t = 1.5
        sup.admit()
        assert not sup.exhausted
        sup.note_restart()  # third rebuild: budget of 2 is blown
        assert sup.exhausted and not sup.healthy
        clock.t = 1e9  # no amount of waiting revives it
        with pytest.raises(Overloaded, match="exhausted"):
            sup.admit()
        assert reg.value("serve.supervisor.restarts") == 3

    def test_backoff_is_capped(self):
        sup, clock, _, _ = self._sup(
            max_restarts=100, backoff_base=1.0, backoff_cap=4.0
        )
        for _ in range(10):
            clock.t += 1000.0
            sup.note_restart()
        assert sup.backoff_remaining <= 4.0

    def test_kill_workers_ignores_thread_executors(self):
        class FakeThreadExecutor:
            pass

        assert kill_workers(FakeThreadExecutor()) == 0

    def test_kill_workers_skips_reaped_workers(self, monkeypatch):
        """A reaped worker's pid may be another process's by now."""
        import types

        import repro.pool as pool

        killed = []
        monkeypatch.setattr(pool.os, "kill", lambda pid, sig: killed.append(pid))

        class FakePool:
            _processes = {1: types.SimpleNamespace(exitcode=-15),
                          2: types.SimpleNamespace(exitcode=None)}

        assert kill_workers(FakePool()) == 1
        assert killed == [2]

    def test_scan_kills_pool_workers_of_stuck_tasks(self):
        sup, clock, log, reg = self._sup(grace=1.0)

        killed = []

        class FakePool:
            # mimics ProcessPoolExecutor._processes: {pid: process}
            _processes = {999999999: object()}

        import repro.pool as pool

        orig = pool.os.kill

        def fake_kill(pid, sig):
            killed.append((pid, sig))

        pool.os.kill = fake_kill
        try:
            sup.begin("run:y", timeout=1.0)
            clock.t = 3.0
            assert sup.scan(FakePool()) == 1
        finally:
            pool.os.kill = orig
        assert killed and killed[0][0] == 999999999
        assert reg.value("serve.supervisor.killed") == 1
        assert any(
            e.name == "pool" and e.value == "killed"
            for e in log.events if e.kind == "heartbeat"
        )


class TestDrainController:
    def test_check_raises_only_while_draining(self):
        d = DrainController(clock=FakeClock())
        d.check()
        d.begin()
        with pytest.raises(Draining):
            d.check()

    def test_wait_idle_immediate_when_nothing_in_flight(self):
        d = DrainController(clock=FakeClock())
        d.begin()
        assert run(d.wait_idle(0.01)) is True

    def test_wait_idle_resolves_when_last_request_exits(self):
        d = DrainController(clock=FakeClock())

        async def scenario():
            d.enter()
            d.begin()

            async def finish():
                await asyncio.sleep(0.01)
                d.exit()

            task = asyncio.ensure_future(finish())
            ok = await d.wait_idle(5.0)
            await task
            return ok

        assert run(scenario()) is True

    def test_wait_idle_times_out_on_a_hung_request(self):
        d = DrainController(clock=FakeClock())
        d.enter()
        d.begin()
        assert run(d.wait_idle(0.05)) is False
        assert d.inflight == 1  # the hung request is still accounted

    def test_report_format(self):
        rep = DrainReport(clean=False, flushed=3, abandoned=1,
                          journal_pending=2, duration_s=1.5)
        text = rep.format()
        assert "deadline expired" in text and "3 request(s)" in text
        assert "2 journal" in text
