"""Metrics registry: counters, gauges, histograms, JSON snapshots.

:class:`MetricsCollector` is the event-bus subscriber that folds the
host-domain events (compiler ``pass`` spans, ``guard`` decisions, task
lifecycle, heartbeats) into a :class:`MetricsRegistry`; serve's
``metrics`` endpoint reports that registry.  Where a run's cycles went
is not folded from events: :func:`repro.obs.report.profile_result`
reads it exactly from the machine's own accounting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .events import Event

#: default histogram bucket upper bounds (values are cycle counts or
#: occupancies; the last implicit bucket is +inf).
DEFAULT_BOUNDS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 1000.0)


@dataclass
class Counter:
    value: float = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


@dataclass
class Gauge:
    value: float = 0.0

    def set(self, v: float) -> None:
        self.value = v

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


@dataclass
class Histogram:
    """Fixed-bound histogram with running count/sum/min/max."""

    bounds: tuple = DEFAULT_BOUNDS
    counts: list = field(default_factory=list)   # len(bounds) + 1
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, v: float) -> None:
        i = 0
        for b in self.bounds:
            if v <= b:
                break
            i += 1
        self.counts[i] += 1
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "buckets": {
                **{f"le_{b:g}": c for b, c in zip(self.bounds, self.counts)},
                "le_inf": self.counts[-1],
            },
        }


class MetricsRegistry:
    """Name-keyed metric store.  Re-requesting a name returns the same
    instance; requesting it as a different type is an error."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def _get(self, name: str, cls, factory):
        m = self._metrics.get(name)
        if m is None:
            m = factory()
            self._metrics[name] = m
        elif not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(m).__name__}"
            )
        return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, Gauge)

    def histogram(self, name: str, bounds: tuple = DEFAULT_BOUNDS) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(bounds=bounds))

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str):
        return self._metrics.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        m = self._metrics.get(name)
        return getattr(m, "value", default) if m is not None else default

    def snapshot(self) -> dict:
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


_default_registry: MetricsRegistry | None = None


def default_registry() -> MetricsRegistry:
    """Process-wide shared registry.

    The ``repro serve`` daemon counts into it; ephemeral consumers (one
    experiment run, one test) should construct their own
    :class:`MetricsRegistry` instead.
    """
    global _default_registry
    if _default_registry is None:
        _default_registry = MetricsRegistry()
    return _default_registry


class MetricsCollector:
    """Event-bus subscriber that counts host-domain events into a
    registry: ``bus.subscribe(collector)``."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry or MetricsRegistry()

    def __call__(self, ev: Event) -> None:
        r = self.registry
        r.counter(f"obs.events.{ev.kind}").inc()
        if ev.kind == "pass":
            r.counter(f"compiler.pass.{ev.name}.seconds").inc(ev.dur)
            r.counter(f"compiler.pass.{ev.name}.calls").inc()
        elif ev.kind == "guard":
            r.counter(f"guard.{ev.name}").inc()
        elif ev.kind == "task":
            r.counter(f"task.{ev.value}").inc()
        elif ev.kind == "heartbeat":
            r.counter(f"heartbeat.{ev.value}").inc()
