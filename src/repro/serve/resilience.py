"""Crash safety and overload protection for the serve daemon.

Three cooperating mechanisms, all transport-independent:

* :class:`CircuitBreaker` — per-content-key failure tracking.  A key
  that keeps failing trips open and is *shed* (structured
  ``overloaded`` response) instead of burning an executor slot on a
  compute that is going to fail again; after a cooldown one probe is
  let through (half-open) and a success closes the breaker.
* :class:`WorkerSupervisor` — liveness watchdog over the executor.
  Every dispatched compute registers a watch with a deadline; the
  watchdog scan emits ``heartbeat`` events on the obs bus (``start`` /
  ``alive`` / ``done`` / ``stuck`` / ``killed``), SIGKILLs process-pool
  workers whose task blew its deadline (the resulting
  ``BrokenProcessPool`` flows through the service's lazy-rebuild
  path), and enforces a bounded restart budget with exponential
  backoff — while the budget is cooling down, new computes are shed
  with ``overloaded``; when it is exhausted, the daemon keeps serving
  cache hits and health checks but refuses new compute for good.
* :class:`DrainController` — graceful-shutdown gate.  ``begin()``
  stops admission (new compute gets a structured ``draining``
  response); ``wait_idle()`` flushes in-flight requests under a
  deadline so the daemon can checkpoint its journal and exit 0.

All three use injectable clocks so tests are deterministic.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from ..pool import kill_workers
from .admission import Overloaded

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------

@dataclass
class _Breaker:
    """State for one key: closed (counting), open (shedding), or
    half-open (one probe in flight)."""

    failures: int = 0
    open: bool = False
    opened_at: float = 0.0
    probing: bool = False


class CircuitBreaker:
    """Per-key breaker table, bounded at ``max_keys`` entries.

    Protocol: call :meth:`check` before dispatching a compute for
    ``key`` (raises :class:`~repro.serve.admission.Overloaded` when the
    key is shedding), then exactly one of :meth:`record_success` /
    :meth:`record_failure` with the outcome.
    """

    def __init__(
        self,
        threshold: int = 5,
        cooldown: float = 30.0,
        max_keys: int = 4096,
        clock: Callable[[], float] = time.monotonic,
        registry: Any = None,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.cooldown = cooldown
        self.max_keys = max_keys
        self._clock = clock
        self._registry = registry
        self._keys: OrderedDict[str, _Breaker] = OrderedDict()

    def _count(self, name: str) -> None:
        if self._registry is not None:
            self._registry.counter(name).inc()

    def state(self, key: str) -> str:
        b = self._keys.get(key)
        if b is None or not b.open:
            return "closed"
        if b.probing or self._clock() - b.opened_at >= self.cooldown:
            return "half-open"
        return "open"

    @property
    def open_keys(self) -> int:
        return sum(1 for b in self._keys.values() if b.open)

    def check(self, key: str) -> None:
        """Raise :class:`Overloaded` when ``key`` is currently shed."""
        b = self._keys.get(key)
        if b is None or not b.open:
            return
        now = self._clock()
        if now - b.opened_at < self.cooldown:
            self._count("serve.breaker.shed")
            raise Overloaded(
                f"circuit open for key {key[:12]}… "
                f"({b.failures} consecutive failures; "
                f"retry in {self.cooldown - (now - b.opened_at):.1f}s)"
            )
        # cooldown elapsed: half-open — admit exactly one probe.
        if b.probing:
            self._count("serve.breaker.shed")
            raise Overloaded(
                f"circuit half-open for key {key[:12]}…; probe in flight"
            )
        b.probing = True

    def record_success(self, key: str) -> None:
        b = self._keys.pop(key, None)
        if b is not None and b.open:
            self._count("serve.breaker.close")

    def record_failure(self, key: str) -> None:
        b = self._keys.get(key)
        if b is None:
            b = _Breaker()
            self._keys[key] = b
            self._evict()
        was_open = b.open
        b.failures += 1
        b.probing = False
        if was_open or b.failures >= self.threshold:
            # trip, or re-open after a failed half-open probe
            b.open = True
            b.opened_at = self._clock()
            if not was_open:
                self._count("serve.breaker.open")
                log.warning(
                    "serve: circuit opened for key %s… after %d failures",
                    key[:12], b.failures,
                )

    def _evict(self) -> None:
        """Drop oldest *closed* entries past the cap (open breakers are
        load-shedding state and must survive)."""
        while len(self._keys) > self.max_keys:
            for k, b in self._keys.items():
                if not b.open:
                    del self._keys[k]
                    break
            else:
                return  # every entry is open: let the table grow


# ---------------------------------------------------------------------------
# worker supervisor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupervisorPolicy:
    """Watchdog and restart-budget knobs."""

    #: seconds past a task's deadline before it is declared stuck.
    grace: float = 5.0
    #: pool rebuilds allowed over the daemon's lifetime; beyond this
    #: the executor is declared dead and computes are shed for good.
    max_restarts: int = 3
    #: restart backoff: ``base * 2^(n-1)`` seconds, capped.
    backoff_base: float = 0.5
    backoff_cap: float = 30.0


@dataclass
class _Watch:
    """One in-flight executor task."""

    name: str
    started: float
    deadline: float
    stuck: bool = False


class WorkerSupervisor:
    """Deadline watchdog + bounded-restart accounting for the executor.

    The service calls :meth:`admit` before dispatch (sheds while the
    restart budget is cooling down or exhausted), brackets every
    executor call with :meth:`begin` / :meth:`end`, and reports pool
    breakage via :meth:`note_restart`.  The daemon runs :meth:`scan`
    periodically; it emits liveness heartbeats and SIGKILLs pool
    workers whose task is stuck (the broken pool then surfaces in the
    awaiting call and flows through the service's rebuild path).
    """

    def __init__(
        self,
        policy: SupervisorPolicy | None = None,
        bus: Any = None,
        registry: Any = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy or SupervisorPolicy()
        self.bus = bus
        self.registry = registry
        self._clock = clock
        self._seq = 0
        self._watches: dict[int, _Watch] = {}
        self.restarts = 0
        self._cooldown_until = 0.0

    # -- task lifecycle ------------------------------------------------

    def begin(self, name: str, timeout: float) -> int:
        now = self._clock()
        self._seq += 1
        token = self._seq
        self._watches[token] = _Watch(
            name=name, started=now, deadline=now + timeout
        )
        if self.bus is not None:
            self.bus.emit_heartbeat(name, "start")
        return token

    def end(self, token: int, status: str = "done") -> None:
        w = self._watches.pop(token, None)
        if w is not None and self.bus is not None:
            self.bus.emit_heartbeat(w.name, status, age=self._clock() - w.started)

    @property
    def inflight(self) -> int:
        return len(self._watches)

    # -- restart budget ------------------------------------------------

    @property
    def exhausted(self) -> bool:
        return self.restarts > self.policy.max_restarts

    @property
    def healthy(self) -> bool:
        return not self.exhausted and self._clock() >= self._cooldown_until

    @property
    def backoff_remaining(self) -> float:
        return max(0.0, self._cooldown_until - self._clock())

    def admit(self) -> None:
        """Raise :class:`Overloaded` while the executor is restarting
        (backoff) or permanently dead (budget exhausted)."""
        if self.exhausted:
            raise Overloaded(
                f"executor restart budget exhausted "
                f"({self.policy.max_restarts} rebuilds); compute disabled"
            )
        rem = self.backoff_remaining
        if rem > 0:
            raise Overloaded(
                f"executor restarting; retry in {rem:.1f}s "
                f"(restart {self.restarts}/{self.policy.max_restarts})"
            )

    def note_restart(self) -> None:
        """One pool rebuild happened: charge the budget, arm backoff."""
        self.restarts += 1
        backoff = min(
            self.policy.backoff_cap,
            self.policy.backoff_base * (2 ** (self.restarts - 1)),
        )
        self._cooldown_until = self._clock() + backoff
        if self.registry is not None:
            self.registry.counter("serve.supervisor.restarts").inc()
        log.warning(
            "serve: executor restart %d/%d (backoff %.1fs)",
            self.restarts, self.policy.max_restarts, backoff,
        )

    # -- watchdog ------------------------------------------------------

    def scan(self, executor: Any = None) -> int:
        """One watchdog pass: heartbeat live tasks, declare deadline
        violators stuck, and (process pools only) SIGKILL the workers
        so the stuck task's future fails instead of hanging forever.
        Returns the number of *newly* stuck tasks."""
        now = self._clock()
        newly_stuck = 0
        for w in self._watches.values():
            if w.stuck:
                continue
            if now > w.deadline + self.policy.grace:
                w.stuck = True
                newly_stuck += 1
                if self.registry is not None:
                    self.registry.counter("serve.supervisor.stuck").inc()
                if self.bus is not None:
                    self.bus.emit_heartbeat(w.name, "stuck", age=now - w.started)
                log.warning(
                    "serve: task %s stuck (%.1fs past deadline)",
                    w.name, now - w.deadline,
                )
            elif self.bus is not None:
                self.bus.emit_heartbeat(w.name, "alive", age=now - w.started)
        if newly_stuck and (killed := kill_workers(executor)):
            if self.registry is not None:
                self.registry.counter("serve.supervisor.killed").inc(killed)
            if self.bus is not None:
                self.bus.emit_heartbeat("pool", "killed")
            log.warning("serve: killed %d stuck pool worker(s)", killed)
        return newly_stuck


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------

class DrainController:
    """Admission gate + in-flight request accounting for shutdown.

    ``track()`` brackets every admitted request; ``begin()`` flips the
    daemon into draining (``check()`` then raises ``Draining`` for new
    compute); ``wait_idle()`` resolves when the last in-flight request
    finishes or the drain deadline expires.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.draining = False
        self._clock = clock
        self._inflight = 0
        self._waiters: list[asyncio.Future] = []

    @property
    def inflight(self) -> int:
        return self._inflight

    def begin(self) -> None:
        self.draining = True
        if self._inflight == 0:
            self._wake()

    def check(self) -> None:
        if self.draining:
            from .admission import Draining

            raise Draining("server is draining; not admitting new work")

    def enter(self) -> None:
        self._inflight += 1

    def exit(self) -> None:
        self._inflight -= 1
        if self._inflight <= 0:
            self._wake()

    def _wake(self) -> None:
        waiters, self._waiters = self._waiters, []
        for fut in waiters:
            if not fut.done():
                fut.set_result(None)

    async def wait_idle(self, timeout: float) -> bool:
        """True when in-flight hit zero before ``timeout`` seconds."""
        if self._inflight <= 0:
            return True
        fut = asyncio.get_running_loop().create_future()
        self._waiters.append(fut)
        try:
            await asyncio.wait_for(fut, timeout)
            return True
        except asyncio.TimeoutError:
            return False


@dataclass
class DrainReport:
    """Outcome of one graceful shutdown, for logs and tests."""

    clean: bool = True
    flushed: int = 0
    abandoned: int = 0
    journal_pending: int = 0
    duration_s: float = 0.0

    def format(self) -> str:
        state = "clean" if self.clean else "deadline expired"
        return (
            f"drain {state}: {self.flushed} request(s) flushed, "
            f"{self.abandoned} abandoned, {self.journal_pending} journal "
            f"cell(s) pending, {self.duration_s:.2f}s"
        )
