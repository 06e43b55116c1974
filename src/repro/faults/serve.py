"""Serve-level chaos: process, disk, and compute fault injection.

:mod:`repro.faults.plan` perturbs the *simulated machine*; this module
perturbs the *serving infrastructure around it* — the process pool,
the disk under the content-addressed store, the compute dispatch — so
the crash-safety machinery (write-ahead journal, circuit breaker,
supervisor, drain) can be proven rather than assumed.

Same design discipline as :class:`~repro.faults.plan.FaultPlan`:

* :class:`ServeFaultPlan` is frozen pure data; all randomness derives
  from ``plan.seed`` inside :class:`ServeFaultInjector`, so a (plan,
  request sequence) pair injects the identical fault sequence on every
  run.
* Every injection is recorded as a
  :class:`~repro.faults.plan.FaultEvent` so campaigns report exactly
  what was done.

Three injection points:

* ``compute-crash`` — the dispatched compute raises
  :class:`~concurrent.futures.process.BrokenProcessPool` from inside
  the executor, exercising the service's real lazy-rebuild path and
  the supervisor's restart budget.
* ``store-enospc`` / ``store-eio`` — :class:`FaultyStore` wraps the
  result store and fails ``put``/``put_run``/``put_seq`` with
  :class:`~repro.store.disk.StoreWriteError` (classified
  ``store-error``), leaving reads untouched: a full disk must degrade
  writes, never corrupt what is already durable.

Network-level chaos (connection reset mid-response, torn/garbage
NDJSON lines, slow-loris) is client *behavior*, not daemon state, so
it lives in the E12 scenarios (:mod:`repro.experiments.chaos_serve`)
rather than in the plan.

Injection only arms on the in-process lane (``workers=0``, one
thread): a process pool's workers open their own store by root path
and never see the wrapper.  E12 runs its chaos services on that lane
for exactly this reason.
"""

from __future__ import annotations

import errno
import random
from dataclasses import dataclass
from typing import Any, Callable

from .plan import FaultEvent

#: the injectable serve fault kinds, in campaign-report order.
SERVE_FAULT_KINDS = ("compute-crash", "store-enospc", "store-eio")


@dataclass(frozen=True)
class ServeFaultPlan:
    """What to inject.  All probabilities are per dispatched compute
    (crash) or per store write (enospc/eio)."""

    seed: int = 0
    crash_prob: float = 0.0
    enospc_prob: float = 0.0
    eio_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("crash_prob", "enospc_prob", "eio_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")

    @property
    def active_kinds(self) -> tuple[str, ...]:
        out = []
        if self.crash_prob > 0:
            out.append("compute-crash")
        if self.enospc_prob > 0:
            out.append("store-enospc")
        if self.eio_prob > 0:
            out.append("store-eio")
        return tuple(out)

    @classmethod
    def single(cls, kind: str, seed: int = 0, prob: float = 0.5) -> "ServeFaultPlan":
        """A plan injecting exactly one serve fault kind."""
        if kind == "compute-crash":
            return cls(seed=seed, crash_prob=prob)
        if kind == "store-enospc":
            return cls(seed=seed, enospc_prob=prob)
        if kind == "store-eio":
            return cls(seed=seed, eio_prob=prob)
        raise ValueError(
            f"unknown serve fault kind {kind!r}; expected one of "
            f"{SERVE_FAULT_KINDS}"
        )


def _crash(key: str) -> None:
    from concurrent.futures.process import BrokenProcessPool

    raise BrokenProcessPool(
        f"injected worker crash during compute of {key[:12]}…"
    )


class ServeFaultInjector:
    """One service's worth of injection state (seeded, recorded)."""

    def __init__(self, plan: ServeFaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self.events: list[FaultEvent] = []
        self._n_computes = 0
        self._n_writes = 0

    def _record(self, kind: str, where: str, index: int, detail: str = "") -> None:
        self.events.append(FaultEvent(kind=kind, where=where, index=index,
                                      detail=detail))

    # -- compute dispatch ----------------------------------------------

    def wrap_compute(self, key: str, fn: Callable[[], Any]) -> Callable[[], Any]:
        """Possibly replace the compute fn with one that crashes inside
        the executor — the awaiting service sees a real
        ``BrokenProcessPool`` and takes its rebuild path."""
        self._n_computes += 1
        if self._rng.random() < self.plan.crash_prob:
            self._record("compute-crash", key[:12], self._n_computes)
            return lambda: _crash(key)
        return fn

    # -- store writes --------------------------------------------------

    def wrap_store(self, store: Any) -> "FaultyStore":
        return FaultyStore(store, self)

    def check_write(self, key: str) -> None:
        """Raise :class:`StoreWriteError` per the plan's disk-fault
        probabilities (called by :class:`FaultyStore` before a put)."""
        from ..store.disk import StoreWriteError

        self._n_writes += 1
        roll = self._rng.random()
        if roll < self.plan.enospc_prob:
            self._record("store-enospc", key[:12], self._n_writes)
            err = StoreWriteError(
                f"injected ENOSPC writing {key[:12]}…: "
                f"[Errno {errno.ENOSPC}] No space left on device"
            )
            err.errno = errno.ENOSPC
            raise err
        if roll < self.plan.enospc_prob + self.plan.eio_prob:
            self._record("store-eio", key[:12], self._n_writes)
            err = StoreWriteError(
                f"injected EIO writing {key[:12]}…: "
                f"[Errno {errno.EIO}] Input/output error"
            )
            err.errno = errno.EIO
            raise err

    def summary(self) -> dict[str, int]:
        out = {k: 0 for k in SERVE_FAULT_KINDS}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out


class FaultyStore:
    """Store proxy failing writes per the injector's plan.

    Reads pass straight through — a sick disk must never *invent*
    data, and the crash-safety invariants are all about writes.
    """

    def __init__(self, store: Any, injector: ServeFaultInjector) -> None:
        self._store = store
        self._injector = injector

    # the store surface the serve/compute path actually uses ----------

    @property
    def root(self):
        return self._store.root

    def get(self, key: str):
        return self._store.get(key)

    def get_run(self, key: str):
        return self._store.get_run(key)

    def get_seq(self, key: str):
        return self._store.get_seq(key)

    def has(self, key: str) -> bool:
        return self._store.has(key)

    def put(self, key: str, envelope: dict) -> None:
        self._injector.check_write(key)
        self._store.put(key, envelope)

    def put_run(self, key: str, run: Any) -> None:
        self._injector.check_write(key)
        self._store.put_run(key, run)

    def put_seq(self, key: str, kernel: str, cycles: float) -> None:
        # sequential-baseline records are cheap derived data; failing
        # them adds noise without testing anything new, so only the
        # run-record path is fault-injected.
        self._store.put_seq(key, kernel, cycles)

    def stats(self):
        return self._store.stats()

    def gc(self, protect=None):
        return self._store.gc(protect=protect)

    def clear(self):
        return self._store.clear()
