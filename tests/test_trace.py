"""Tests for the Fig 11 ASCII timeline and communication summary.

Both render an :class:`~repro.obs.events.EventLog`'s events
(:mod:`repro.obs.timeline`), the one sink a run's bus feeds.
"""

from repro.ir.types import VClass
from repro.isa import QueueId
from repro.kernels import get_kernel
from repro.obs.events import Event, EventBus, EventLog
from repro.obs.timeline import ascii_timeline, comm_summary
from repro.runtime import compile_loop, execute_kernel
from repro.sim import Machine, SharedMemory

Q = QueueId(0, 1, VClass.GPR)


def traced_run(name, n_cores, trip):
    """Run ``name`` with an EventLog on its bus; returns (kernel, result,
    log)."""
    spec = get_kernel(name)
    kern = compile_loop(spec.loop(), n_cores)
    bus = EventBus()
    log = EventLog()
    bus.subscribe(log)
    res = execute_kernel(kern, spec.workload(trip=trip), obs=bus)
    return kern, res, log


class TestRecorder:
    def test_events_capped(self):
        log = EventLog(max_events=3)
        for k in range(10):
            log(Event("enq", float(k), core=0, queue=Q))
        assert len(log.events) == 3

    def test_queries(self):
        log = EventLog()
        log(Event("enq", 1.0, core=0, queue=Q, stall=2.0))
        log(Event("deq", 2.0, core=1, queue=Q, stall=3.0))
        log(Event("stall", 0.5, core=1, queue=Q, name="queue-empty", dur=3.0))
        assert len(log.by_core(0)) == 1
        # stall spans are not transfers: each core's stall is its
        # transfers' own wait, counted once
        summary = comm_summary(log.events)
        assert "core 0: 1 enq, 0 deq, 2 stall cycles" in summary
        assert "core 1: 0 enq, 1 deq, 3 stall cycles" in summary

    def test_empty_render(self):
        assert ascii_timeline([]) == "(no events)"
        # host-domain events alone draw nothing either
        assert ascii_timeline([Event("pass", 12.5, name="merge")]) == "(no events)"


class TestKernelTracing:
    def test_trace_captures_comm(self):
        kern, _, log = traced_run("umt2k-4", 4, 8)
        enqs = log.by_kind("enq")
        deqs = log.by_kind("deq")
        assert enqs and len(enqs) == len(deqs)
        assert len(log.by_kind("halt")) == kern.n_cores

    def test_trace_matches_core_stats(self):
        _, res, log = traced_run("lammps-2", 2, 8)
        for cid, stats in enumerate(res.core_stats):
            evs = log.by_core(cid)
            assert sum(1 for e in evs if e.kind == "enq") == stats.enq_ops
            assert sum(1 for e in evs if e.kind == "deq") == stats.deq_ops

    def test_timeline_renders(self):
        _, res, log = traced_run("umt2k-1", 4, 6)
        text = ascii_timeline(log.events, width=40)
        assert "timeline" in text and "|" in text
        assert "enqueue" in text
        rows = [line for line in text.splitlines() if line.startswith("  ")
                and line.endswith("|")]
        assert len(rows) == len(res.queue_stats)
        assert all(len(r.split("|")[1]) == 40 for r in rows)
        assert "core 0" in comm_summary(log.events)

    def test_tracing_off_by_default(self):
        # no bus, or a disabled one, leaves the machine nothing to emit into
        for obs in (None, EventBus(enabled=False)):
            m = Machine([], SharedMemory({}), obs=obs)
            assert m.obs is None

    def test_tracing_does_not_change_timing(self):
        spec = get_kernel("irs-3")
        kern = compile_loop(spec.loop(), 4)
        wl = spec.workload(trip=16)
        log = EventLog()
        bus = EventBus()
        bus.subscribe(log)
        a = execute_kernel(kern, wl, obs=bus)
        b = execute_kernel(kern, wl)
        assert log.events and a.cycles == b.cycles


class TestDroppedEvents:
    def test_cap_is_not_silent(self):
        log = EventLog(max_events=3)
        for k in range(10):
            log(Event("enq", float(k), core=0, queue=Q))
        assert len(log.events) == 3
        assert log.dropped == 7
        assert "7 event(s) dropped" in comm_summary(log.events, log.dropped)

    def test_no_drops_no_warning(self):
        log = EventLog()
        log(Event("enq", 1.0, core=0, queue=Q))
        assert log.dropped == 0
        assert "dropped" not in comm_summary(log.events, log.dropped)


class TestRecorderAsBusConsumer:
    def test_on_event_feeds_renderer(self):
        # the renderers take the full stream (retire spans, stall spans,
        # compiler passes) and draw only its transfers and halts
        bus = EventBus()
        spec = get_kernel("umt2k-4")
        log = EventLog()
        bus.subscribe(log)
        kern = compile_loop(spec.loop(), 4, obs=bus)
        res = execute_kernel(kern, spec.workload(trip=8), obs=bus)
        kinds = {e.kind for e in log.events}
        assert {"retire", "stall", "pass"} <= kinds
        comm = [e for e in log.events if e.kind in ("enq", "deq", "halt")]
        assert ascii_timeline(log.events) == ascii_timeline(comm)
        assert comm_summary(log.events) == comm_summary(comm)
        assert sum(e.stall for e in comm) == res.total_queue_stall
        assert "core 0" in comm_summary(log.events)
