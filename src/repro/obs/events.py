"""Typed observability event bus.

Design constraints, in priority order:

1. **Near-zero overhead when disabled.**  The simulator's hot loop
   holds a plain attribute that is ``None`` unless a caller installed
   an *enabled* bus, so the disabled cost is one identity check on the
   communication ops only.  Every typed ``emit_*`` helper additionally
   short-circuits when the bus is disabled or has no subscribers, so
   stray emits from cold code cost two attribute reads.
2. **Two clock domains.**  Simulator events (``enq``/``deq``/``stall``/
   ``retire``/``halt``) are timestamped in *simulated cycles*; host
   events (compiler ``pass`` spans, ``guard`` decisions, sweep ``task``
   lifecycle) in *wall-clock seconds* from :func:`time.perf_counter`.
   :data:`SIM_KINDS` / :data:`WALL_KINDS` name the split; the timeline
   exporter keeps the domains on separate process tracks.
3. **No dependencies.**  This module imports nothing from the rest of
   the package, so any layer (sim, compiler, runtime, store) can emit
   without creating an import cycle.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

#: event kinds timestamped in simulated cycles.
SIM_KINDS = frozenset({"enq", "deq", "stall", "retire", "halt"})
#: event kinds timestamped in wall-clock seconds (perf_counter).
#: ``heartbeat`` carries executor-task liveness (serve supervisor).
WALL_KINDS = frozenset({"pass", "guard", "task", "heartbeat"})

#: stall reasons attached to ``stall`` events (also the bucket names of
#: the per-core breakdown in :mod:`repro.obs.report`).
STALL_QUEUE_FULL = "queue-full"       # enqueue waited for a free slot
STALL_QUEUE_EMPTY = "queue-empty"     # dequeue waited for the producer
STALL_TRANSFER = "transfer-latency"   # dequeue waited for the in-flight hop


@dataclass(frozen=True, slots=True)
class Event:
    """One observability event.

    ``ts`` is simulated cycles for :data:`SIM_KINDS` and wall-clock
    seconds for :data:`WALL_KINDS`; ``dur`` is in the same unit.
    ``name`` carries the stall reason, pass name, failure kind, or task
    label depending on ``kind``.
    """

    kind: str
    ts: float
    core: int | None = None
    queue: object | None = None    # QueueId for queue-related events
    name: str | None = None
    value: object = None
    dur: float = 0.0
    stall: float = 0.0             # enq/deq: cycles this op waited


class EventBus:
    """Dispatch point: emitters call the typed helpers, consumers
    subscribe a callable taking one :class:`Event`."""

    __slots__ = ("enabled", "_subs")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._subs: list = []

    # -- subscription ----------------------------------------------------
    def subscribe(self, fn) -> None:
        if fn not in self._subs:
            self._subs.append(fn)

    def unsubscribe(self, fn) -> None:
        if fn in self._subs:
            self._subs.remove(fn)

    @property
    def active(self) -> bool:
        """True when emitting would reach at least one consumer."""
        return self.enabled and bool(self._subs)

    def emit(self, ev: Event) -> None:
        if not self.enabled:
            return
        for fn in self._subs:
            fn(ev)

    # -- simulator domain (timestamps in simulated cycles) ---------------
    def emit_enq(self, ts, core, queue, value, stall=0.0) -> None:
        if not self.enabled or not self._subs:
            return
        self.emit(Event("enq", ts, core=core, queue=queue, value=value,
                        stall=stall))

    def emit_deq(self, ts, core, queue, value, stall=0.0) -> None:
        if not self.enabled or not self._subs:
            return
        self.emit(Event("deq", ts, core=core, queue=queue, value=value,
                        stall=stall))

    def emit_stall(self, ts, core, reason, dur, queue=None) -> None:
        if not self.enabled or not self._subs:
            return
        self.emit(Event("stall", ts, core=core, queue=queue, name=reason,
                        dur=dur))

    def emit_retire(self, ts, core, dur, n_instrs) -> None:
        """Bulk fetch→retire span: ``n_instrs`` instructions retired by
        ``core`` over ``[ts, ts + dur]`` simulated cycles (one event per
        scheduling slice, not per instruction, to keep overhead sane)."""
        if not self.enabled or not self._subs:
            return
        self.emit(Event("retire", ts, core=core, value=n_instrs, dur=dur))

    def emit_halt(self, ts, core) -> None:
        if not self.enabled or not self._subs:
            return
        self.emit(Event("halt", ts, core=core))

    # -- host domain (timestamps in perf_counter seconds) -----------------
    def emit_pass(self, name, t0, t1) -> None:
        if not self.enabled or not self._subs:
            return
        self.emit(Event("pass", t0, name=name, dur=t1 - t0))

    def emit_guard(self, name, attempt, note=None) -> None:
        if not self.enabled or not self._subs:
            return
        self.emit(Event("guard", time.perf_counter(), name=name,
                        value=attempt if note is None else (attempt, note)))

    def emit_task(self, name, t0, t1, status) -> None:
        if not self.enabled or not self._subs:
            return
        self.emit(Event("task", t0, name=name, value=status, dur=t1 - t0))

    def emit_heartbeat(self, name, status, age=0.0) -> None:
        """Executor-task liveness pulse: ``status`` is ``start`` /
        ``alive`` / ``done`` / ``stuck`` / ``killed``; ``age`` is the
        task's wall-clock age in seconds at emit time."""
        if not self.enabled or not self._subs:
            return
        self.emit(Event("heartbeat", time.perf_counter(), name=name,
                        value=status, dur=age))


class HostBus(EventBus):
    """A bus that carries host-domain events only: its simulator-domain
    emitters do nothing, so a run on it builds none of its per-cycle
    events.  For a consumer that folds host events alone (serve's
    ``metrics``, a pool worker's reply)."""

    __slots__ = ()

    def emit_enq(self, *args, **kwargs) -> None:
        pass

    emit_deq = emit_stall = emit_retire = emit_halt = emit_enq


class EventLog:
    """Bounded in-memory sink: ``bus.subscribe(log)``; the one sink the
    Perfetto and ASCII timelines (:mod:`repro.obs.timeline`) read.

    Hitting the cap is never silent — ``dropped`` counts every event
    discarded past ``max_events``.
    """

    __slots__ = ("events", "max_events", "dropped")

    def __init__(self, max_events: int = 2_000_000) -> None:
        self.events: list[Event] = []
        self.max_events = max_events
        self.dropped = 0

    def __call__(self, ev: Event) -> None:
        if len(self.events) < self.max_events:
            self.events.append(ev)
        else:
            self.dropped += 1

    def __len__(self) -> int:
        return len(self.events)

    def by_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def by_core(self, core: int) -> list[Event]:
        return [e for e in self.events if e.core == core]


@contextmanager
def span(bus: EventBus | None, name: str):
    """Wall-clock span helper for compiler passes and other host work:
    ``with span(obs, "merge"): ...`` — a no-op when ``bus`` is None or
    disabled."""
    if bus is None or not bus.enabled:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        bus.emit_pass(name, t0, time.perf_counter())
