"""The worker pool of ``repro serve`` and ``run_grid``: the one way a
cell runs in another process.  Importing it loads no executor."""

from __future__ import annotations

import os
import signal
import stat
import sys
from typing import Any, NamedTuple

from .obs.events import WALL_KINDS, Event, EventBus

#: what building or starting a pool raises where processes cannot be had
UNAVAILABLE = (OSError, ValueError, ImportError, NotImplementedError)

#: ``prctl`` option: the signal a process gets when its parent dies.
PR_SET_PDEATHSIG = 1

#: a pool worker's store, opened once by :func:`_worker_init`.
_worker_store: Any = None


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the
    platform has one, else every CPU): the automatic worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def compute_run(kernel: str, cfg: dict, store: Any, obs: Any = None) -> Any:
    """Run one cell in an executor (thread or worker process) and
    return its :class:`~repro.experiments.common.KernelRun`.

    Compile, checker and simulator failures come back *inside* the run
    as provenance.  ``run_kernel`` is looked up on its module at call
    time, so a wrapper installed there (a profiler, a test probe) sees
    every cell.
    """
    from .experiments import common
    from .kernels import get_kernel

    return common.run_kernel(
        get_kernel(kernel), common.ExpConfig(**cfg), store=store, obs=obs,
    )


def make_executor(width: int, store: Any) -> Any:
    """A ``fork``-context pool of ``width`` workers on ``store``'s root.  It
    forks on the first submit, from a thread that must outlive it."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=width,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_worker_init,
        initargs=(os.getpid(), str(store.root) if store is not None else None),
    )


def kill_workers(executor: Any) -> int:
    """SIGKILL a pool's workers (a thread executor has none); count them."""
    killed = 0
    for pid, proc in list((getattr(executor, "_processes", None) or {}).items()):
        try:
            if getattr(proc, "exitcode", None) is None:  # a reaped pid may be reused
                os.kill(pid, signal.SIGKILL)
                killed += 1
        except (OSError, TypeError):
            continue
    return killed


def _drop_inherited_sockets() -> None:
    """Point every socket the fork copied past stdio (a daemon's
    listener, its client connections, the event loop's self-pipe) at
    ``/dev/null``.

    A worker holding the listener would keep it completing handshakes
    into a backlog nobody accepts after the daemon closed it, and one
    holding a connection the daemon closed would keep its FIN from
    being sent.  ``dup2`` rather than ``close`` keeps each fd number
    taken, so a copied socket object that closes its fd later cannot
    close a file the worker has opened since.
    """
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for name in os.listdir("/proc/self/fd"):
            fd = int(name)
            try:
                if fd > 2 and stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:
                pass  # the listing's own fd, closed by now
    finally:
        os.close(null)


def _worker_init(parent_pid: int, store_root: str | None) -> None:
    """Pool-worker initializer: die with the parent, let go of its
    sockets, leave signals to it, and open the store once.

    Without the death signal a SIGKILLed parent leaves its workers
    blocked on a call-queue pipe whose write end they hold themselves,
    or running their cell to its end.  The signal fires when the
    forking thread exits (see :func:`make_executor`).  A parent that
    died before the signal was armed is caught by the parent-pid
    check.  The fork also copied an event loop's signal wakeup fd:
    reset, so a signal sent to a worker cannot wake the daemon's loop,
    and SIGINT (a terminal's ^C reaches the whole process group) is
    left to the parent: the daemon's drain, the sweep's teardown.
    """
    global _worker_store
    if sys.platform.startswith("linux"):
        import ctypes

        try:
            prctl = ctypes.CDLL(None).prctl
            prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
            prctl.restype = ctypes.c_int
            prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
        except (OSError, AttributeError):
            pass
        _drop_inherited_sockets()
    if os.getppid() != parent_pid:
        os._exit(0)
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if store_root is not None:
        from .store.disk import ResultStore

        _worker_store = ResultStore(store_root)


class _HostEvents(EventBus):
    """The bus a pool worker hands one cell: it keeps the host-domain
    events (pass spans, guard decisions, the task event) as picklable
    tuples and drops the simulator's per-cycle events unbuilt."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        super().__init__()
        self.events: list[tuple] = []
        self.subscribe(self._keep)

    def _keep(self, ev: Event) -> None:
        if ev.kind in WALL_KINDS:
            self.events.append((ev.kind, ev.ts, ev.name, ev.value, ev.dur))

    def emit_enq(self, *args: Any, **kwargs: Any) -> None:
        pass

    emit_deq = emit_stall = emit_retire = emit_halt = emit_enq


class WorkerReply(NamedTuple):
    """A pool worker's answer for one cell: the run, and what the parent
    cannot see from its own process."""

    run: Any
    pid: int
    #: the worker's ``memo.stats()`` after the cell
    memo: dict
    #: the worker's store ``(hits, misses, writes)`` after the cell
    store: tuple
    #: the cell's host-domain events as ``(kind, ts, name, value, dur)``
    events: list

    def replay(self, bus: Any) -> None:
        """Emit the cell's host-domain events on the parent's ``bus``."""
        for kind, ts, name, value, dur in self.events:
            bus.emit(Event(kind, ts, name=name, value=value, dur=dur))


def compute_in_worker(kernel: str, cfg: dict, report: bool = True) -> WorkerReply:
    """Picklable process-pool entry: the cell on the worker's store; with
    ``report`` false (a sweep with no bus), no bus, events or memo stats."""
    from . import memo

    bus = _HostEvents() if report else None
    run = compute_run(kernel, cfg, _worker_store, bus)
    store = _worker_store
    return WorkerReply(
        run=run,
        pid=os.getpid(),
        memo=memo.stats() if report else {},
        store=((store.hits, store.misses, store.writes) if store is not None
               else (0, 0, 0)),
        events=bus.events if report else [],
    )


class PoolCounters:
    """The pool workers' memo and store counters, from each worker's
    last reply: hits, misses and writes summed over every worker the
    daemon has had, memo entries over the live pool's workers only."""

    def __init__(self) -> None:
        #: pid -> (memo stats, store counts) of the live pool's workers
        self.live: dict[int, tuple[dict, tuple]] = {}
        #: the last replies of the workers of replaced pools
        self.retired: list[tuple[dict, tuple]] = []

    def add(self, reply: WorkerReply) -> None:
        self.live[reply.pid] = (reply.memo, reply.store)

    def retire(self) -> None:
        """The pool was dropped, and its workers' memos with it."""
        self.retired.extend(self.live.values())
        self.live.clear()

    def snapshot(self) -> dict:
        every = [*self.live.values(), *self.retired]

        def total(reports: Any, stage: str, field: str) -> int:
            return sum(memo[stage][field] for memo, _ in reports if stage in memo)

        stages = sorted({stage for memo, _ in every for stage in memo})
        return {
            "pids": sorted(self.live),
            "memo": {stage: {"hits": total(every, stage, "hits"),
                             "misses": total(every, stage, "misses"),
                             "entries": total(self.live.values(), stage, "entries")}
                     for stage in stages},
            "store": {name: sum(counts[i] for _, counts in every)
                      for i, name in enumerate(("hits", "misses", "writes"))},
        }
