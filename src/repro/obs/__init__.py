"""Unified observability: event bus, metrics, timelines, reports.

The paper's evaluation is an exercise in *cycle attribution* — Fig 11
pipeline timelines, Table III communication statistics, the §V
queue-latency discussion — so the reproduction needs first-class
instrumentation rather than ad-hoc printouts.  This package provides
four layers, each consumable on its own:

* :mod:`repro.obs.events` — a typed event bus with near-zero overhead
  when disabled.  The simulator (enqueue/dequeue, stall spans, bulk
  instruction retirement, halts), the compiler pipeline (pass spans),
  the guarded runtime (retry/fallback decisions) and the sweep engine
  (task lifecycle) all emit into it.
* :mod:`repro.obs.metrics` — counters / gauges / histograms with a
  JSON-able snapshot, and the collector that counts the host-domain
  events (pass spans, guard decisions, task lifecycle) into them.
* :mod:`repro.obs.timeline` — export any event log as Chrome
  trace-event JSON (one track per core, per queue, and per compiler
  pass) viewable at https://ui.perfetto.dev, or draw its Fig 11 ASCII
  timeline and per-core communication summary.
* :mod:`repro.obs.report` — per-kernel stall attribution and queue
  pressure reports, read exactly from a finished
  :class:`~repro.sim.machine.SimResult`.

The simulator only emits: one :class:`~repro.obs.events.EventLog`
subscribed to a run's bus is the sink every timeline reads, and every
cycle attribution is read from the machine's own accounting.

Surface command: ``python -m repro profile <kernel>`` prints the
report; with ``--out F`` it also writes the cell's Chrome trace to F.
"""

from .events import Event, EventBus, EventLog, span
from .metrics import Counter, Gauge, Histogram, MetricsCollector, MetricsRegistry
from .report import CoreRow, KernelProfile, QueueRow, format_profile, profile_result
from .timeline import chrome_trace, validate_chrome_trace, write_chrome_trace

__all__ = [
    "CoreRow",
    "Counter",
    "Event",
    "EventBus",
    "EventLog",
    "Gauge",
    "Histogram",
    "KernelProfile",
    "MetricsCollector",
    "MetricsRegistry",
    "QueueRow",
    "chrome_trace",
    "format_profile",
    "profile_result",
    "span",
    "validate_chrome_trace",
    "write_chrome_trace",
]
