"""Tiered result cache: in-memory LRU (L1) over the disk store (L2).

The L1 holds *response-ready payload dicts* keyed by the same
content-addressed digests as the persistent store, bounded three ways:
entry count, approximate total bytes (JSON-encoded size of each
payload), and an optional per-entry TTL.  The L2 is the existing
:class:`repro.store.disk.ResultStore`; an L1 miss that hits L2 decodes
the stored record, re-encodes the payload and promotes it into L1.

Every lookup outcome increments a counter in an
:class:`~repro.obs.metrics.MetricsRegistry` (the process-wide
:func:`~repro.obs.metrics.default_registry` unless one is injected):
``cache.l1_hit``, ``cache.l2_hit``, ``cache.miss`` — plus
``cache.coalesced`` maintained by :mod:`repro.serve.singleflight` —
so ``repro cache stats`` and the serve ``metrics`` endpoint report the
same numbers.
"""

from __future__ import annotations

from typing import Any

from ..memo import LRUCache  # the L1; re-exported for serve callers
from ..obs.metrics import MetricsRegistry, default_registry

#: registry counter names for the cache tiers (satellite: surfaced by
#: ``repro cache stats`` alongside the disk-store session counters).
TIER_COUNTERS = ("cache.l1_hit", "cache.l2_hit", "cache.miss", "cache.coalesced")


class TieredCache:
    """L1 (:class:`repro.memo.LRUCache`) over L2 (the content-addressed disk store).

    ``get_run``/``put_run`` speak the run-record tier pair; ``get_local``
    /``put_local`` are L1-only (compile plans and trace summaries have
    no on-disk record kind, so they live purely in memory).  L2 writes
    are the compute path's job (``run_kernel`` already persists its
    result); this class only *reads* L2 and promotes hits.
    """

    def __init__(
        self,
        store: Any = None,
        l1: LRUCache | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.store = store
        self.l1 = l1 or LRUCache()
        self.registry = registry if registry is not None else default_registry()

    def _count(self, outcome: str) -> None:
        self.registry.counter(f"cache.{outcome}").inc()

    def get_run(self, key: str) -> tuple[str | None, Any | None]:
        """Look up a run payload: returns ``(tier, payload)`` where tier
        is ``"l1"``, ``"l2"``, or ``None`` on a full miss."""
        payload = self.l1.get(key)
        if payload is not None:
            self._count("l1_hit")
            return "l1", payload
        if self.store is not None:
            run = self.store.get_run(key)
            if run is not None:
                from .service import run_payload  # local: avoid cycle

                payload = run_payload(run)
                self.l1.put(key, payload)
                self._count("l2_hit")
                return "l2", payload
        self._count("miss")
        return None, None

    def put_run(self, key: str, payload: Any) -> None:
        """Promote a freshly computed payload into L1 (L2 was written by
        the compute path itself)."""
        self.l1.put(key, payload)

    def get_local(self, key: str) -> tuple[str | None, Any | None]:
        payload = self.l1.get(key)
        if payload is not None:
            self._count("l1_hit")
            return "l1", payload
        self._count("miss")
        return None, None

    def put_local(self, key: str, payload: Any) -> None:
        self.l1.put(key, payload)


def tier_stats_line(registry: MetricsRegistry | None = None) -> str:
    """One-line tier-counter summary for ``repro cache stats``."""
    r = registry if registry is not None else default_registry()
    parts = []
    for name in TIER_COUNTERS:
        parts.append(f"{name.removeprefix('cache.')} {int(r.value(name))}")
    return "cache tiers  : " + " / ".join(parts)
