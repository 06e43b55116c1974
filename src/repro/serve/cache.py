"""Result-tier counters: the process run memo (L1) over the disk store (L2).

Serve looks every cell up with :func:`repro.experiments.common.recall`,
which tries the run memo (:data:`repro.memo.RUNS`) and then the
content-addressed disk store, promoting a store hit into the memo.
Every lookup outcome increments a counter in the service's
:class:`~repro.obs.metrics.MetricsRegistry`: ``cache.l1_hit``,
``cache.l2_hit``, ``cache.miss`` — plus ``cache.coalesced`` maintained
by :mod:`repro.serve.singleflight` — so ``repro cache stats`` and the
serve ``metrics`` endpoint report the same numbers.
"""

from __future__ import annotations

from ..obs.metrics import MetricsRegistry, default_registry

#: registry counter names for the result tiers (surfaced by ``repro
#: cache stats`` alongside the disk-store session counters).
TIER_COUNTERS = ("cache.l1_hit", "cache.l2_hit", "cache.miss", "cache.coalesced")


def tier_stats_line(registry: MetricsRegistry | None = None) -> str:
    """One-line tier-counter summary for ``repro cache stats``."""
    r = registry if registry is not None else default_registry()
    parts = []
    for name in TIER_COUNTERS:
        parts.append(f"{name.removeprefix('cache.')} {int(r.value(name))}")
    return "cache tiers  : " + " / ".join(parts)
