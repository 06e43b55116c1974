"""The compile-and-simulate service core (transport-independent).

:class:`ServeService` turns decoded request dicts into response dicts.
Every request flows::

    parse/validate → per-client rate limit → result tiers (L1: the
    process run memo, L2: the disk store) → singleflight coalescing →
    priority admission → bounded executor compute → memo fill →
    response

Cache hits bypass admission entirely (they cost microseconds and must
not queue behind compute).  Heavy work runs in one executor, chosen
once when the first compute builds it.  It has exactly as many slots
as admission lets cells in (:attr:`ServeConfig.compute_width`), so an
admitted cell never waits inside the executor, where neither priority
nor the watchdog's deadline could see it.  With ``workers > 0`` (the
``repro serve`` default: one per usable CPU) it is the worker pool of
:mod:`repro.pool`, the one sweeps compute in, with
``min(workers, max_concurrency)`` workers.  Each opens the store once,
drops the sockets the fork copied, dies with the daemon, and sends
back, beside each run, its memo and store counters and the cell's
host-domain events.  The cells are
CPU-bound Python, so only processes run two of them at once.  With
``workers=0`` it is one in-process thread sharing the service's store
and event bus: the lane of tests, E12's in-process scenarios, loadgen's
owned service and the serve fault injector.  A broken process pool is
rebuilt lazily instead of poisoning the daemon.

Failure boundary: compute failures are classified through the
:class:`repro.runtime.guard.FailureKind` taxonomy and returned as
structured error responses with provenance — the daemon itself never
dies on a request.  Failures inside a cell — compile errors, checker
rejections, simulation failures — don't even reach that path:
``run_kernel`` runs every cell through the guard, which folds them
into the ``KernelRun`` record (``failure`` / ``fallback`` provenance
fields).

The obs event bus backs the ``metrics`` endpoint: compile pass spans,
guard decisions and task lifecycle events — emitted on the bus by the
in-process lane, shipped back by pool workers — are folded into the
same :class:`~repro.obs.metrics.MetricsRegistry` that holds the
cache-tier and admission counters.  Only wall-clock (host-domain)
events are folded, so the service's bus, like a pool worker's, is a
:class:`~repro.obs.events.HostBus`: the simulator's per-cycle events
are never built.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any

from .. import pool
from ..obs.events import HostBus
from ..obs.metrics import MetricsCollector, MetricsRegistry
from .admission import AdmissionQueue, AdmitError, RateLimiter
from .protocol import (
    BadRequest,
    Request,
    error_response,
    ok_response,
    parse_request,
)
from .resilience import (
    CircuitBreaker,
    DrainController,
    DrainReport,
    SupervisorPolicy,
    WorkerSupervisor,
)
from .singleflight import Singleflight

log = logging.getLogger(__name__)

#: how many recent request latencies (ms) back the exact p50/p95/p99
#: quantiles of the ``metrics`` endpoint.
LATENCY_WINDOW = 50_000


@dataclass(frozen=True)
class ServeConfig:
    """Daemon configuration knobs."""

    #: store root; ``None`` uses the process default store resolution.
    store_root: str | Path | None = None
    #: ``False`` disables the L2 disk tier entirely.
    use_store: bool = True
    #: compute processes (a ``fork`` pool); 0 = one in-process thread
    #: that shares the store instance and obs bus with the service.
    workers: int = 0
    #: the most cells computed at once; caps ``workers``.
    max_concurrency: int = 4
    #: bounded admission wait list; beyond this, ``queue-full``.
    max_queue: int = 1024
    #: per-client token-bucket rate (req/s); 0 disables limiting.
    rate: float = 0.0
    burst: float | None = None
    #: per-request compute timeout (seconds) when the request sets none.
    default_timeout: float = 60.0

    # -- crash safety / resilience (PR 7) ------------------------------
    #: write-ahead journal ``run`` computes into ``<store>/journals/``.
    journal: bool = True
    #: replay incomplete journals at startup (``repro serve --resume``).
    resume: bool = False
    #: seconds granted to in-flight requests on SIGTERM/SIGINT.
    drain_deadline: float = 10.0
    #: supervisor scan period (seconds); 0 disables the watchdog task.
    watchdog_interval: float = 1.0
    #: seconds past a compute's deadline before it is declared stuck.
    task_grace: float = 5.0
    #: consecutive per-key failures that trip the circuit breaker.
    breaker_threshold: int = 5
    #: seconds a tripped key sheds load before a half-open probe.
    breaker_cooldown: float = 30.0
    #: executor rebuilds allowed before compute is disabled for good.
    max_restarts: int = 3
    #: base of the exponential restart backoff (seconds).
    restart_backoff: float = 0.5
    #: a :class:`repro.faults.ServeFaultPlan` arming seeded chaos
    #: (store write faults, compute crashes); ``None`` in production.
    fault_plan: Any = None

    @property
    def compute_width(self) -> int:
        """How many cells compute at once: the width of the admission
        gate and of the executor alike (``workers`` processes, or the
        one in-process thread, at most ``max_concurrency``)."""
        return min(max(self.workers, 1), self.max_concurrency)


def run_payload(run: Any) -> dict:
    """Response payload for a :class:`~repro.experiments.common.KernelRun`
    (the same JSON shape the store records, plus the derived speedup)."""
    from ..store.records import encode_run

    payload = encode_run("", run)["payload"]
    payload["speedup"] = run.speedup
    return payload


class ServeService:
    """In-process service core; see the module docstring for the flow."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.store = self._open_store()
        self.singleflight = Singleflight(registry=self.registry)
        self.admission = AdmissionQueue(
            max_concurrency=self.config.compute_width,
            max_queue=self.config.max_queue,
        )
        self.limiter = RateLimiter(self.config.rate, self.config.burst)
        self.bus = HostBus()
        self.bus.subscribe(MetricsCollector(self.registry))
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._executor: Any = None
        self.pool_counters = pool.PoolCounters()
        self._started = time.monotonic()

        # -- resilience (PR 7) -----------------------------------------
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
            registry=self.registry,
        )
        self.supervisor = WorkerSupervisor(
            policy=SupervisorPolicy(
                grace=self.config.task_grace,
                max_restarts=self.config.max_restarts,
                backoff_base=self.config.restart_backoff,
            ),
            bus=self.bus,
            registry=self.registry,
        )
        self.drain = DrainController()
        self._watchdog: asyncio.Task | None = None
        self.faults = self._arm_faults()
        self.journal = self._open_journal()

    def _arm_faults(self) -> Any:
        if self.config.fault_plan is None:
            return None
        from ..faults.serve import ServeFaultInjector

        injector = ServeFaultInjector(self.config.fault_plan)
        if self.store is not None:
            self.store = injector.wrap_store(self.store)
        return injector

    def _open_journal(self) -> Any:
        """Write-ahead journal for ``run`` computes: intent before
        dispatch, done after the durable store write.  ``None`` when
        there is no store to be durable against."""
        if self.store is None or not self.config.journal:
            return None
        from ..store.journal import SweepJournal, new_journal_path

        journal = SweepJournal(new_journal_path(self.store.root, prefix="serve"))
        journal.open_campaign({"mode": "serve"})
        return journal

    # -- plumbing ------------------------------------------------------

    def _open_store(self) -> Any:
        if not self.config.use_store:
            return None
        if self.config.store_root is not None:
            from ..store.disk import ResultStore

            return ResultStore(self.config.store_root)
        from ..store.disk import default_store

        return default_store()

    def _executor_now(self) -> Any:
        """The executor, built on first use (so start-up forks nothing)."""
        width = self.config.compute_width
        if self._executor is None and self.config.workers > 0:
            try:
                self._executor = pool.make_executor(width, self.store)
            except pool.UNAVAILABLE as exc:
                log.warning(
                    "serve: process pool unavailable (%s); using threads", exc
                )
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=width, thread_name_prefix="repro-serve")
        return self._executor

    async def _in_executor(self, fn: Any) -> Any:
        executor = self._executor_now()
        loop = asyncio.get_running_loop()
        try:
            out = await loop.run_in_executor(executor, fn)
        except BrokenProcessPool:
            # One crashed worker must not poison every later request:
            # drop the pool (rebuilt lazily) and fail the calls it held.
            # The first of them charges the rebuild against the
            # supervisor's bounded restart budget; while its backoff
            # cools down, new computes are shed with ``overloaded``.
            if self._executor is executor:
                log.warning("serve: process pool broke; rebuilding on next request")
                self._executor = None
                executor.shutdown(wait=False, cancel_futures=True)
                self.pool_counters.retire()
                self.supervisor.note_restart()
            raise RuntimeError("compute worker crashed (pool rebuilt)") from None
        if isinstance(out, pool.WorkerReply):
            self.pool_counters.add(out)
            out.replay(self.bus)
            out = out.run
        return out

    def start_watchdog(self) -> None:
        """Launch the supervisor's periodic scan (daemon mode only —
        in-process tests drive :meth:`WorkerSupervisor.scan` directly)."""
        if self._watchdog is None and self.config.watchdog_interval > 0:
            self._watchdog = asyncio.ensure_future(self._watchdog_loop())

    async def _watchdog_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.watchdog_interval)
            self.supervisor.scan(self._executor)

    async def drain_and_close(self, deadline: float | None = None) -> DrainReport:
        """Graceful shutdown: stop admission, flush in-flight requests
        under the drain deadline, checkpoint the journal, release the
        executor.  Idempotent with :meth:`aclose`."""
        t0 = time.monotonic()
        report = DrainReport(flushed=self.drain.inflight)
        self.drain.begin()
        report.clean = await self.drain.wait_idle(
            self.config.drain_deadline if deadline is None else deadline
        )
        report.abandoned = self.drain.inflight
        report.flushed -= report.abandoned
        report.journal_pending = len(self.journal.pending) if self.journal else 0
        report.duration_s = time.monotonic() - t0
        await self.aclose()
        return report

    async def aclose(self) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()
            try:
                await self._watchdog
            except (asyncio.CancelledError, Exception):
                pass
            self._watchdog = None
        if self.journal is not None and not self.journal.closed:
            # a journal with open intents is left *incomplete* on
            # purpose — that is the crash/abandon breadcrumb --resume
            # replays; a fully-acked journal closes complete and is
            # reclaimed by the next store gc.
            self.journal.checkpoint(pending=len(self.journal.pending))
            self.journal.close(complete=not self.journal.pending)
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    @property
    def uptime(self) -> float:
        return time.monotonic() - self._started

    # -- compute path --------------------------------------------------

    def _compute_fn(self, kernel: str, cfg: dict) -> Any:
        """The cell's compute callable, for the lane of the executor
        actually built."""
        if isinstance(self._executor_now(), ProcessPoolExecutor):
            return partial(pool.compute_in_worker, kernel, cfg)
        return partial(pool.compute_run, kernel, cfg, self.store, self.bus)

    async def _compute_cell(
        self, req: Request, kernel: str, cfg: dict, key: str
    ) -> Any:
        """Admission-gated executor compute + memo fill.  Runs as the
        singleflight leader task, detached from any one waiter.

        Resilience wrapping (outermost first): circuit breaker sheds
        keys that keep failing, supervisor sheds while the executor is
        restarting, the journal records intent before dispatch and
        completion only after the durable store write."""
        from ..experiments import common

        timeout = req.timeout or self.config.default_timeout

        async def work() -> Any:
            self.breaker.check(key)
            self.supervisor.admit()
            journaled = self.journal is not None
            if journaled:
                self.journal.record_intent(key, kernel, cfg)
            token = self.supervisor.begin(f"run:{kernel}", timeout)
            try:
                fn = self._compute_fn(kernel, cfg)
                if self.faults is not None:
                    fn = self.faults.wrap_compute(key, fn)
                run = await self._in_executor(fn)
                self.registry.counter("serve.computed").inc()
                # run_kernel wrote the durable record before returning,
                # so it precedes the done line and any ack — no acked
                # result can be lost, even to kill -9 between these
                # statements.  A pool worker filled its own memo, not
                # this process's.
                common.seed_cache(key, run)
            except BaseException as exc:
                self.supervisor.end(token, "failed")
                self.breaker.record_failure(key)
                # A structured failure response is still an ack: the
                # cell is not owed on resume (the store stays ground
                # truth either way).  A *cancelled* compute was never
                # acked — its intent stays open so the journal closes
                # incomplete and --resume re-dispatches it.
                if journaled and not self.journal.closed and not isinstance(
                    exc, asyncio.CancelledError
                ):
                    self.journal.record_done(key, status="failed")
                raise
            self.supervisor.end(token, "done")
            self.breaker.record_success(key)
            if journaled and not self.journal.closed:
                self.journal.record_done(key)
            return run

        return await self.admission.run(req.priority, work)

    async def _cell(
        self, req: Request, kernel: str, n_cores: int
    ) -> tuple[str | None, dict]:
        """One (kernel, cores) cell through the result tiers →
        singleflight → compute; returns its tier and response payload."""
        from ..experiments import common
        from ..kernels import get_kernel

        try:
            spec = get_kernel(kernel)
        except KeyError:
            raise BadRequest(f"unknown kernel {kernel!r}") from None
        cfg = req.exp_config_kwargs(n_cores)
        key = common.store_key_for(spec, common.ExpConfig(**cfg))
        tier, run = common.recall(key, self.store)
        self.registry.counter(f"cache.{tier}_hit" if tier else "cache.miss").inc()
        if run is None:
            run = await self.singleflight.do(
                key, lambda: self._compute_cell(req, kernel, cfg, key)
            )
        return tier, run_payload(run)

    # -- ops -----------------------------------------------------------

    async def _op_run(self, req: Request) -> tuple[str | None, dict]:
        return await self._cell(req, req.kernel, req.cores)

    async def _op_sweep(self, req: Request) -> tuple[str | None, dict]:
        cells = [(k, c) for k in req.kernels for c in req.cores_list]
        results = await asyncio.gather(
            *(self._cell(req, k, c) for k, c in cells)
        )
        rows = []
        all_cached = True
        for (kernel, cores), (tier, payload) in zip(cells, results):
            all_cached = all_cached and tier is not None
            rows.append({
                "kernel": kernel,
                "n_cores": cores,
                "cached": tier,
                "speedup": payload.get("speedup"),
                "correct": payload.get("correct"),
                "deadlocked": payload.get("deadlocked"),
                "failure": payload.get("failure"),
            })
        return ("l1" if all_cached else None), {"cells": len(rows), "rows": rows}

    def _latency_quantiles(self) -> dict:
        from .stats import percentiles

        vals = list(self._latencies)
        q = percentiles(vals, (50.0, 95.0, 99.0))
        return {
            "count": len(vals),
            "mean": sum(vals) / len(vals) if vals else 0.0,
            "p50": q[0], "p95": q[1], "p99": q[2],
        }

    def metrics_snapshot(self) -> dict:
        """The ``metrics`` endpoint body (also used by loadgen reports)."""
        self.registry.gauge("serve.queue_depth").set(self.admission.depth)
        self.registry.gauge("serve.active").set(self.admission.active)
        self.registry.gauge("serve.inflight_keys").set(len(self.singleflight))
        self.registry.gauge("serve.restarts").set(self.supervisor.restarts)
        self.registry.gauge("serve.open_breakers").set(self.breaker.open_keys)
        self.registry.gauge("serve.journal_pending").set(
            len(self.journal.pending) if self.journal else 0)
        self.registry.gauge("serve.draining").set(
            1.0 if self.drain.draining else 0.0
        )
        from .. import memo

        snap: dict[str, Any] = {
            "uptime_s": round(self.uptime, 3),
            "latency_ms": self._latency_quantiles(),
            "counters": self.registry.snapshot(),
            # this process's memos, the run tier (L1) included
            "memo": memo.stats(),
        }
        if self.config.workers > 0:
            # the pool workers' stage memos and store counters
            snap["workers"] = self.pool_counters.snapshot()
        if self.store is not None:
            st = self.store.stats()
            snap["store"] = {
                "root": st.root,
                "run_records": st.run_records,
                "seq_records": st.seq_records,
                "hits": st.hits,
                "misses": st.misses,
                "writes": st.writes,
            }
        return snap

    def _op_health(self) -> dict:
        if self.drain.draining:
            status = "draining"
        elif not self.supervisor.healthy:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "uptime_s": round(self.uptime, 3),
            "inflight": len(self.singleflight),
            "active": self.admission.active,
            "queue_depth": self.admission.depth,
            "restarts": self.supervisor.restarts,
            "open_breakers": self.breaker.open_keys,
            "journal_pending": len(self.journal.pending) if self.journal else 0,
        }

    # -- entry point ---------------------------------------------------

    async def handle(self, obj: Any, default_client: str = "anon") -> dict:
        """Process one decoded request object.  Never raises: every
        outcome — including an internal bug — is a structured response
        (``serve.unhandled`` counts the internal ones; a healthy daemon
        keeps it at zero)."""
        t0 = time.perf_counter()
        req_id = obj.get("id") if isinstance(obj, dict) else None

        def _ms() -> float:
            ms = (time.perf_counter() - t0) * 1e3
            self._latencies.append(ms)
            self.registry.histogram(
                "serve.latency_ms", bounds=(0.5, 1, 5, 10, 50, 100, 500, 1000, 5000)
            ).observe(ms)
            return ms

        self.registry.counter("serve.requests").inc()
        try:
            req = parse_request(obj, default_client=default_client)
        except BadRequest as exc:
            self.registry.counter("serve.rejected.bad-request").inc()
            return error_response(req_id, "bad-request", str(exc), elapsed_ms=_ms())

        try:
            if req.op == "health":
                return ok_response(req.id, self._op_health(), elapsed_ms=_ms())
            if req.op == "metrics":
                return ok_response(req.id, self.metrics_snapshot(), elapsed_ms=_ms())

            # health/metrics stay answerable during drain (above);
            # everything else is refused once shutdown began.
            self.drain.check()
            self.limiter.check(req.client)
            dispatch = {"run": self._op_run, "sweep": self._op_sweep}[req.op]
            timeout = req.timeout or self.config.default_timeout
            self.drain.enter()
            try:
                tier, result = await asyncio.wait_for(dispatch(req), timeout)
            finally:
                self.drain.exit()
            self.registry.counter(f"serve.ok.{req.op}").inc()
            return ok_response(req.id, result, cached=tier, elapsed_ms=_ms())
        except BadRequest as exc:
            self.registry.counter("serve.rejected.bad-request").inc()
            return error_response(req.id, "bad-request", str(exc), elapsed_ms=_ms())
        except AdmitError as exc:
            self.registry.counter(f"serve.rejected.{exc.code}").inc()
            return error_response(req.id, exc.code, str(exc), elapsed_ms=_ms())
        except asyncio.TimeoutError:
            # The coalesced compute keeps running and will fill the
            # run memo; only this caller's wait is abandoned.
            self.registry.counter("serve.rejected.timeout").inc()
            return error_response(
                req.id, "timeout",
                f"request exceeded {req.timeout or self.config.default_timeout:g}s",
                elapsed_ms=_ms(),
            )
        except Exception as exc:  # compute failure: classify, never die
            from ..runtime.guard import classify_failure

            kind = classify_failure(exc).value
            self.registry.counter(f"serve.failures.{kind}").inc()
            self.bus.emit_guard(kind, 1, note=str(exc).splitlines()[0] if str(exc) else None)
            log.warning("serve: %s %s failed (%s: %s)",
                        req.op, req.kernel, type(exc).__name__, exc)
            return error_response(
                req.id, kind, f"{type(exc).__name__}: {exc}",
                provenance={
                    "exception": type(exc).__name__,
                    "op": req.op,
                    "kernel": req.kernel,
                },
                elapsed_ms=_ms(),
            )
