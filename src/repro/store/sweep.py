"""Parallel sweep engine: schedule the kernel × config matrix.

``run_grid`` fans every (kernel, config) cell out over the worker pool
of :mod:`repro.pool`, the one ``repro serve`` computes in.  Scheduling
is longest-job-first:
each task's expected cost is looked up from previously stored cycle
counts, and unknown tasks are treated as the longest (they run first,
which both minimizes makespan under uncertainty and populates the
store for the next sweep).  Workers share the content-addressed store
through the filesystem — its atomic renames make concurrent writers of
the same key safe — so a warm grid completes without a single
compile/simulate call.

Every failure mode degrades gracefully: a pool that cannot be created
(restricted environments without ``/dev/shm``, missing ``fork``) falls
back to in-process serial execution, a task that times out or crashes
*transiently* is retried (with exponential backoff + jitter between
retry rounds), a task that fails *deterministically* (a ``ValueError``
from a bad config, a simulator invariant violation) is quarantined
immediately — retrying a byte-identical computation cannot succeed and
only starves the rest of the grid — and quarantined or retry-exhausted
tasks are re-run serially in the parent, where a real error surfaces
with its true traceback instead of a pickled pool remnant.
"""

from __future__ import annotations

import logging
import math
import os
import random
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Mapping, Sequence

log = logging.getLogger(__name__)

#: environment variable selecting the default worker count for sweeps
#: ("" / "0" / "1" = serial, "auto" = usable CPUs, N = N processes).
WORKERS_ENV = "REPRO_WORKERS"

#: backoff between pool retry rounds: base * 2^attempt, capped, jittered.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: exception types that mark a task as deterministically broken —
#: the same inputs will fail the same way, so retries are pointless.
#: (DeadlockError normally never escapes a worker — run_kernel converts
#: it into a KernelRun record — but classify it anyway for robustness.)
PERMANENT_ERRORS = (
    ValueError, TypeError, KeyError, AttributeError, AssertionError,
    ZeroDivisionError, IndexError, NotImplementedError,
)

_UNSET = object()


def _is_retryable(exc: BaseException) -> bool:
    """True for plausibly-transient worker failures (infrastructure:
    broken pipes, OOM kills surfacing as OSError, pickling hiccups);
    False for deterministic task failures."""
    from ..sim import MachineFailure, MemoryFault, SimError

    if isinstance(exc, (MachineFailure, SimError, MemoryFault)):
        return False
    if isinstance(exc, PERMANENT_ERRORS):
        return False
    return True


def _backoff_delay(attempt: int, rng: random.Random) -> float:
    """Full-jitter exponential backoff for retry round ``attempt``."""
    return min(BACKOFF_CAP, BACKOFF_BASE * (2 ** attempt)) * (
        0.5 + 0.5 * rng.random()
    )


@dataclass(frozen=True)
class SweepTask:
    """One cell of the grid."""

    kernel: str
    config: Any  # ExpConfig

    @property
    def cell(self) -> tuple[str, Any]:
        return (self.kernel, self.config)


def resolve_workers(workers: int | str | None) -> int:
    """Normalize a worker-count request; 0/1 means serial, -1 means
    "auto" (:func:`repro.pool.usable_cpus`).

    Explicit arguments are strict: strings that are neither
    "auto"/"max" nor an integer, and negative counts other than -1,
    raise ValueError so callers can report the bad value instead of
    silently doing something else.  The env-var path stays lenient —
    a bad ``$REPRO_WORKERS`` logs a warning and degrades (invalid
    strings to serial, negatives to auto) rather than breaking every
    command that consults it.
    """
    from_env = workers is None
    if from_env:
        workers = os.environ.get(WORKERS_ENV, "").strip() or "0"
    if isinstance(workers, str):
        if workers.lower() in ("auto", "max"):
            workers = -1
        else:
            try:
                workers = int(workers)
            except ValueError:
                if from_env:
                    log.warning("ignoring invalid %s=%r", WORKERS_ENV, workers)
                    return 0
                raise ValueError(
                    f"workers must be an integer or 'auto', got {workers!r}"
                ) from None
    if workers < 0:
        if workers != -1 and not from_env:
            raise ValueError(
                f"workers must be >= 0 (or -1 for auto), got {workers}"
            )
        if workers != -1:
            log.warning("%s=%d is negative; treating as auto", WORKERS_ENV, workers)
        from ..pool import usable_cpus

        workers = usable_cpus()
    return workers


def _task_key(spec: Any, config: Any) -> str:
    from ..experiments.common import store_key_for

    return store_key_for(spec, config)


def _estimate_cycles(store: Any, spec: Any, config: Any) -> float:
    """Expected task cost from a prior run; unknown → +inf so
    never-seen tasks are scheduled first (longest-job-first under
    uncertainty).

    The run is read through :func:`~repro.experiments.common.recall`,
    so a stored record enters the run memo here and the cell's own
    lookup in ``run_kernel`` is a memo hit: one store read per cell.
    """
    from ..experiments.common import recall

    if store is None:
        return math.inf
    _, run = recall(_task_key(spec, config), store)
    if run is None:
        return math.inf
    if run.deadlocked or not math.isfinite(run.par_cycles):
        return 0.0  # warm deadlock records are pure store hits: instant
    return run.par_cycles


def _campaign_doc(specs: Sequence[Any], configs: Sequence[Any]) -> dict:
    """JSON-safe description of a grid, sufficient to rebuild it on
    resume (kernels by registry name, configs by field dict)."""
    return {
        "kernels": [spec.name for spec in specs],
        "configs": [asdict(cfg) for cfg in configs],
    }


def run_grid(
    specs: Sequence[Any],
    configs: Sequence[Any],
    *,
    workers: int | str | None = None,
    timeout: float | None = None,
    retries: int = 1,
    store: Any = _UNSET,
    obs: Any = None,
    journal: Any = None,
) -> Mapping[tuple[str, Any], Any]:
    """Run every kernel × config cell; returns ``{(name, config): KernelRun}``.

    ``specs`` are :class:`~repro.kernels.base.KernelSpec` objects,
    ``configs`` are :class:`~repro.experiments.common.ExpConfig`.
    ``workers`` defaults to ``$REPRO_WORKERS`` (serial when unset);
    ``timeout`` bounds each task attempt in seconds; after ``retries``
    failed pool attempts a task is executed serially in-process.
    ``obs`` (a :class:`repro.obs.events.EventBus`) receives the task
    lifecycle: serial cells emit through :func:`run_kernel`'s hook, and
    a pool cell's host-domain events come back with its run and are
    emitted here (a cell that timed out or raised in the pool gets a
    task event from this process).

    ``journal`` (a path, or ``None``) arms the write-ahead journal: every cell's
    intent is on disk before its compute dispatches and its completion
    after the store write, so a killed sweep resumes with
    :func:`resume_grid` re-dispatching only the missing cells.
    """
    from .disk import default_store
    from .journal import SweepJournal

    if store is _UNSET:
        store = default_store()
    by_name = {spec.name: spec for spec in specs}
    tasks = [SweepTask(spec.name, cfg) for spec in specs for cfg in configs]
    # Longest-job-first from cached cycle counts (stable for ties).
    tasks.sort(
        key=lambda t: -_estimate_cycles(store, by_name[t.kernel], t.config)
    )

    if journal is not None:
        journal = SweepJournal(journal)
        journal.open_campaign(_campaign_doc(specs, configs))

    results: dict[tuple[str, Any], Any] = {}
    try:
        _dispatch_tasks(
            tasks, by_name, results,
            workers=workers, timeout=timeout, retries=retries,
            store=store, obs=obs, journal=journal,
        )
    finally:
        if journal is not None:
            # complete only when every campaign cell has a result: a
            # crash or partial failure must leave the recovery
            # breadcrumb behind.
            journal.close(complete=all(t.cell in results for t in tasks))
    return results


def _dispatch_tasks(
    tasks: list[SweepTask],
    by_name: Mapping[str, Any],
    results: dict,
    *,
    workers: int | str | None,
    timeout: float | None,
    retries: int,
    store: Any,
    obs: Any,
    journal: Any = None,
) -> None:
    """Pool-then-serial dispatch shared by ``run_grid`` and
    ``resume_grid`` (which re-dispatches an arbitrary task subset).

    With a ``journal``, each cell's intent is on disk before its first
    dispatch, and its ``done`` line post-dates its durable record."""
    from ..experiments import common

    n_workers = resolve_workers(workers)
    pending = list(tasks)
    if obs is not None and not getattr(obs, "enabled", False):
        obs = None
    if n_workers > 1 and len(tasks) > 1:
        pending = _run_pool(
            pending, by_name, results,
            workers=min(n_workers, len(tasks)),
            timeout=timeout, retries=retries, store=store, obs=obs,
            journal=journal,
        )

    for task in pending:  # serial path and pool-failure fallback
        spec = by_name[task.kernel]
        if journal is not None:
            key = _task_key(spec, task.config)
            journal.record_intent(key, task.kernel, asdict(task.config))
        results[task.cell] = common.run_kernel(
            spec, task.config, store=store, obs=obs,
        )
        if journal is not None:
            journal.record_done(key)


@dataclass
class ResumeReport:
    """What :func:`resume_grid` found and did."""

    journal: str
    cells: int                     # cells the journal owes
    intents: int                   # cells whose intent survived the crash
    completed: int                 # cells already durable in the store
    recomputed: int                # cells actually re-dispatched
    torn_lines: int = 0

    def format(self) -> str:
        return (
            f"resume {self.journal}: {self.cells} cell(s), "
            f"{self.intents} journaled intent(s), {self.completed} already "
            f"durable, {self.recomputed} re-dispatched"
            + (f", {self.torn_lines} torn line(s) tolerated"
               if self.torn_lines else "")
        )


def resume_grid(
    journal_path: Any,
    *,
    workers: int | str | None = None,
    timeout: float | None = None,
    retries: int = 1,
    store: Any = _UNSET,
    obs: Any = None,
) -> tuple[Mapping[tuple[str, Any], Any], ResumeReport]:
    """Resume a crashed journal, a sweep's or a daemon's: replay it
    against the store and re-dispatch **only** the missing cells.

    The cells are the ones the journal owes
    (:meth:`~repro.store.journal.JournalState.owed`): every cell of its
    campaign, including those the crash came before, and every intent;
    one that cannot be rebuilt raises ``ValueError`` before any
    compute.  The journal is opened, taking its writer lock, before it
    is read: a live writer's raises
    :class:`~repro.store.journal.JournalHeld`.  The store is ground
    truth in both directions — a cell whose record exists is complete
    even if its ``done`` line was torn off by the crash, and a ``done``
    whose record has vanished is recomputed.  Re-running a *completed*
    journal therefore performs zero computes (the idempotence
    invariant).  Returns the results plus a :class:`ResumeReport`;
    once every cell has a result the journal is closed complete.
    """
    from ..experiments.common import ExpConfig
    from ..kernels import get_kernel
    from .disk import default_store
    from .journal import SweepJournal, load_journal

    if store is _UNSET:
        store = default_store()
    if not os.path.isfile(journal_path):
        raise FileNotFoundError(f"no such journal: {journal_path}")
    journal = SweepJournal(journal_path)  # append to the same file
    complete = False
    try:
        state = load_journal(journal_path)
        if not state.schema_ok:
            raise ValueError(f"journal {journal_path} has an unsupported schema")
        owed = state.owed()
        tasks = [SweepTask(cell["kernel"], ExpConfig(**cell["config"]))
                 for cell in owed.values()]
        by_name = {task.kernel: get_kernel(task.kernel) for task in tasks}

        results: dict[tuple[str, Any], Any] = {}
        missing: list[SweepTask] = []
        for key, task in zip(owed, tasks):
            run = store.get_run(key) if store is not None else None
            if run is not None:
                results[task.cell] = run
            else:
                missing.append(task)

        durable = len(results)  # before dispatch mutates the results dict
        if missing:
            _dispatch_tasks(
                missing, by_name, results,
                workers=workers, timeout=timeout, retries=retries,
                store=store, obs=obs, journal=journal,
            )
        # complete once nothing is owed, so the next gc and the next
        # --resume scan skip it; a journal closed before needs no
        # second close line.
        complete = not state.closed and all(task.cell in results for task in tasks)
    finally:
        journal.close(complete=complete)
    report = ResumeReport(
        journal=str(journal_path), cells=len(tasks), intents=len(state.intents),
        completed=durable, recomputed=len(missing),
        torn_lines=state.torn_lines,
    )
    return results, report


def resume_journals(
    store: Any,
    paths: Sequence[Any] | None = None,
    *,
    say: Callable[[str], None] = print,
    **dispatch: Any,
) -> tuple[int, list[ResumeReport]]:
    """``repro sweep --resume`` and ``repro serve --resume``:
    :func:`resume_grid` each of ``paths`` (every incomplete journal
    under ``store``'s root, oldest first, by default) with ``dispatch``
    (``workers``, ``timeout``, ``retries``), and ``say`` one line per
    journal: its report, ``skip <path>: held by a live writer``, or why
    it failed.  Returns the exit code (2 when a journal failed, else
    0) and the reports."""
    from .journal import JournalHeld, incomplete_journals

    if paths is None:
        paths = [state.path for state in incomplete_journals(store.root)]
        if not paths:
            say(f"no incomplete journal under {store.root}; nothing to resume")
    rc, reports = 0, []
    for path in paths:
        try:
            _, report = resume_grid(path, store=store, **dispatch)
        except JournalHeld:
            say(f"skip {path}: held by a live writer")
            continue
        except (ValueError, OSError) as exc:
            say(f"--resume: {exc}")
            rc = 2
            continue
        say(report.format())
        reports.append(report)
    return rc, reports


def _run_pool(
    pending: list[SweepTask],
    by_name: Mapping[str, Any],
    results: dict,
    *,
    workers: int,
    timeout: float | None,
    retries: int,
    store: Any,
    obs: Any = None,
    journal: Any = None,
) -> list[SweepTask]:
    """Drain ``pending`` through the worker pool; returns tasks left for
    the serial fallback (retry-exhausted and quarantined cells).

    Failure discipline: a *transient* failure (timeout, infrastructure
    error) is retried in the next pool round, after an exponential
    backoff with jitter; a *deterministic* failure (bad config, sim
    invariant violation — see :data:`PERMANENT_ERRORS`) quarantines the
    cell immediately, as does exhausting the per-cell retry budget, so
    one cell that keeps raising can never starve the rest of the grid
    of pool rounds.  Quarantined cells run serially in the parent where
    a genuine error surfaces with its real traceback.

    A worker that dies mid-cell (a segfault, an OOM kill) breaks the
    pool, which stops its other workers too: every cell of that round
    without a result fails with ``BrokenProcessPool``, a transient
    failure, so a cell that kills its worker every time takes the
    round's other cells through the retries and into the serial
    fallback with it.  One that dies before the round is all handed
    out sends the rest of the dispatch to the serial fallback at once.

    A pool ends by killing its workers, so none goes on running a cell
    nobody collects: after a round that timed out or broke it (the next
    round builds a fresh one), and when the dispatch ends.
    """
    from concurrent.futures import BrokenExecutor, TimeoutError as FutureTimeout

    from .. import pool
    from ..experiments import common

    rng = random.Random(0xC0FFEE ^ len(pending))
    quarantined: list[SweepTask] = []
    fail_counts: dict[tuple, int] = {}
    executor = None
    try:
        for attempt in range(retries + 1):
            if not pending:
                break
            failed: list[SweepTask] = []
            spoiled = False

            def _fail(task: SweepTask, reason: str, retryable: bool,
                      status: str) -> None:
                if obs is not None:
                    obs.emit_task(f"{task.kernel}:c{task.config.n_cores}",
                                  t_round, time.perf_counter(), status)
                fail_counts[task.cell] = fail_counts.get(task.cell, 0) + 1
                if not retryable:
                    log.warning(
                        "sweep: %s failed deterministically (%s); quarantined "
                        "for serial fallback, no pool retries", task.kernel, reason,
                    )
                    quarantined.append(task)
                elif fail_counts[task.cell] > retries:
                    log.warning(
                        "sweep: %s failed %d time(s) (%s); quarantined for "
                        "serial fallback", task.kernel, fail_counts[task.cell], reason,
                    )
                    quarantined.append(task)
                else:
                    log.warning(
                        "sweep: %s failed (%s); will retry (attempt %d/%d)",
                        task.kernel, reason, attempt + 1, retries + 1,
                    )
                    failed.append(task)

            t_round = time.perf_counter()
            if journal is not None:
                # write-ahead discipline: every intent line hits disk
                # before the first worker can touch its cell.
                for t in pending:
                    journal.record_intent(_task_key(by_name[t.kernel], t.config),
                                          t.kernel, asdict(t.config))
            try:
                if executor is None:
                    executor = pool.make_executor(min(workers, len(pending)), store)
                # the first submit forks the workers
                futures = [
                    (t, executor.submit(pool.compute_in_worker, t.kernel,
                                        asdict(t.config), obs is not None))
                    for t in pending
                ]
            except (*pool.UNAVAILABLE, BrokenExecutor) as exc:
                log.warning("sweep: worker pool unavailable (%s); running serially", exc)
                break
            for task, future in futures:
                try:
                    reply = future.result(timeout)
                except FutureTimeout:
                    spoiled = True
                    _fail(task, f"timed out after {timeout or 0.0:.1f}s",
                          retryable=True, status="timeout")
                except Exception as exc:
                    spoiled = spoiled or isinstance(exc, BrokenExecutor)
                    _fail(task, f"{type(exc).__name__}: {exc}",
                          retryable=_is_retryable(exc),
                          status=type(exc).__name__)
                else:
                    results[task.cell] = reply.run
                    key = _task_key(by_name[task.kernel], task.config)
                    # parent memo: later serial calls reuse the run
                    common.seed_cache(key, reply.run)
                    if journal is not None:
                        # the worker's run_kernel persisted the record
                        # before returning: completion is now durable.
                        journal.record_done(key)
                    if obs is not None:
                        reply.replay(obs)
            if spoiled:
                pool.kill_workers(executor)
                executor.shutdown(wait=True, cancel_futures=True)
                executor = None
            pending = failed
            if pending and attempt < retries:
                delay = _backoff_delay(attempt, rng)
                log.info("sweep: backing off %.2fs before retry round %d",
                         delay, attempt + 2)
                time.sleep(delay)
    finally:
        if executor is not None:
            pool.kill_workers(executor)
            executor.shutdown(wait=True, cancel_futures=True)
    return pending + quarantined
