"""Parallel sweep engine: schedule the kernel × config matrix.

``run_grid`` fans every (kernel, config) cell out over a
``multiprocessing`` worker pool.  Scheduling is longest-job-first:
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
import multiprocessing
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

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


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the
    platform has one, else every CPU): the automatic worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_workers(workers: int | str | None) -> int:
    """Normalize a worker-count request; 0/1 means serial, -1 means
    "auto" (:func:`usable_cpus`).

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
            workers = usable_cpus()
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


def _worker_run(kernel: str, config: Any, store_root: str | None) -> Any:
    """Pool worker: execute one cell against the shared store."""
    from ..experiments.common import run_kernel
    from ..kernels import get_kernel
    from .disk import ResultStore

    store = ResultStore(store_root) if store_root is not None else None
    return run_kernel(get_kernel(kernel), config, store=store)


def _campaign_doc(specs: Sequence[Any], configs: Sequence[Any]) -> dict:
    """JSON-safe description of a grid, sufficient to rebuild it on
    resume (kernels by registry name, configs by field dict)."""
    from dataclasses import asdict

    return {
        "kernels": [spec.name for spec in specs],
        "configs": [asdict(cfg) for cfg in configs],
    }


class _JournalScribe:
    """Parent-side journal bookkeeping for one grid run.

    Records each cell's *intent* exactly once, immediately before its
    first dispatch, and its *completion* once a result exists (the
    store write happens inside ``run_kernel``, in the worker or
    in-process, before the result is returned — so a ``done`` line
    always post-dates the durable record)."""

    def __init__(self, journal: Any, by_name: Mapping[str, Any]) -> None:
        self.journal = journal
        self.by_name = by_name
        self._keys: dict[tuple, str] = {}
        self._intents: set[str] = set()
        self._done: set[str] = set()

    def key_for(self, task: SweepTask) -> str:
        key = self._keys.get(task.cell)
        if key is None:
            key = _task_key(self.by_name[task.kernel], task.config)
            self._keys[task.cell] = key
        return key

    def intent(self, task: SweepTask) -> None:
        from dataclasses import asdict

        key = self.key_for(task)
        if key in self._intents:
            return  # retries re-dispatch; the intent stands
        self._intents.add(key)
        self.journal.record_intent(key, task.kernel, asdict(task.config))

    def done(self, task: SweepTask, status: str = "ok") -> None:
        key = self.key_for(task)
        if key in self._done:
            return
        self._done.add(key)
        self.journal.record_done(key, status)

    @property
    def pending(self) -> int:
        return len(self._intents) - len(self._done)


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
    lifecycle: serial cells emit through :func:`run_kernel`'s hook,
    pool cells emit a parent-side completion event per handle (worker
    processes cannot share the in-memory bus).

    ``journal`` (a :class:`~repro.store.journal.SweepJournal`, an open
    path, or ``None``) arms the write-ahead journal: every cell's
    intent is on disk before its compute dispatches and its completion
    after the store write, so a killed sweep resumes with
    :func:`resume_grid` re-dispatching only the missing cells.
    """
    from ..experiments import common
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

    owned_journal = journal is not None and not isinstance(journal, SweepJournal)
    if owned_journal:
        journal = SweepJournal(journal)
        journal.open_campaign(_campaign_doc(specs, configs))
    scribe = _JournalScribe(journal, by_name) if journal is not None else None

    results: dict[tuple[str, Any], Any] = {}
    try:
        _dispatch_tasks(
            tasks, by_name, results,
            workers=workers, timeout=timeout, retries=retries,
            store=store, obs=obs, scribe=scribe,
        )
    finally:
        if owned_journal:
            # complete only when nothing is owed: a crash or partial
            # failure must leave the recovery breadcrumb behind.
            journal.close(complete=scribe is not None and scribe.pending == 0)
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
    scribe: Any = None,
) -> None:
    """Pool-then-serial dispatch shared by ``run_grid`` and
    ``resume_grid`` (which re-dispatches an arbitrary task subset)."""
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
            scribe=scribe,
        )

    for task in pending:  # serial path and pool-failure fallback
        if scribe is not None:
            scribe.intent(task)
        results[task.cell] = common.run_kernel(
            by_name[task.kernel], task.config, store=store, obs=obs,
        )
        if scribe is not None:
            scribe.done(task)


@dataclass
class ResumeReport:
    """What :func:`resume_grid` found and did."""

    journal: str
    cells: int                     # total campaign cells
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
    """Resume a crashed journaled sweep: replay the journal against the
    store and re-dispatch **only** the missing cells.

    The store is ground truth in both directions — a cell whose record
    exists is complete even if its ``done`` line was torn off by the
    crash, and a ``done`` whose record has vanished is recomputed.
    Re-running a *completed* journal therefore performs zero computes
    (the idempotence invariant).  Returns the full grid results plus a
    :class:`ResumeReport`; on success the journal is closed complete.
    """
    from ..experiments.common import ExpConfig
    from ..kernels import get_kernel
    from .disk import default_store
    from .journal import SweepJournal, load_journal

    if store is _UNSET:
        store = default_store()
    state = load_journal(journal_path)
    if not state.schema_ok:
        raise ValueError(f"journal {journal_path} has an unsupported schema")
    campaign = state.campaign
    if not campaign.get("kernels") or not campaign.get("configs"):
        raise ValueError(
            f"journal {journal_path} carries no campaign (its 'open' record "
            "was lost); cannot rebuild the task list"
        )
    specs = [get_kernel(name) for name in campaign["kernels"]]
    configs = [ExpConfig(**cfg) for cfg in campaign["configs"]]
    by_name = {spec.name: spec for spec in specs}
    tasks = [SweepTask(spec.name, cfg) for spec in specs for cfg in configs]

    results: dict[tuple[str, Any], Any] = {}
    missing: list[SweepTask] = []
    for task in tasks:
        run = None
        if store is not None:
            run = store.get_run(_task_key(by_name[task.kernel], task.config))
        if run is not None:
            results[task.cell] = run
        else:
            missing.append(task)

    durable = len(results)  # before dispatch mutates the results dict
    if missing:
        journal = SweepJournal(journal_path)  # append to the same file
        scribe = _JournalScribe(journal, by_name)
        try:
            _dispatch_tasks(
                missing, by_name, results,
                workers=workers, timeout=timeout, retries=retries,
                store=store, obs=obs, scribe=scribe,
            )
        finally:
            journal.close(complete=scribe.pending == 0)
    else:
        # nothing owed: mark the journal complete so the next gc (and
        # the next --resume scan) skip it.
        journal = SweepJournal(journal_path)
        journal.close(complete=not state.closed)
    report = ResumeReport(
        journal=str(journal_path), cells=len(tasks), intents=len(state.intents),
        completed=durable, recomputed=len(missing),
        torn_lines=state.torn_lines,
    )
    return results, report


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
    scribe: Any = None,
) -> list[SweepTask]:
    """Drain ``pending`` through a worker pool; returns tasks left for
    the serial fallback (retry-exhausted and quarantined cells).

    Failure discipline: a *transient* failure (timeout, infrastructure
    error) is retried in the next pool round, after an exponential
    backoff with jitter; a *deterministic* failure (bad config, sim
    invariant violation — see :data:`PERMANENT_ERRORS`) quarantines the
    cell immediately, as does exhausting the per-cell retry budget, so
    one repeatedly-crashing cell can never starve the rest of the grid
    of pool rounds.  Quarantined cells run serially in the parent where
    a genuine error surfaces with its real traceback.
    """
    from ..experiments import common

    root = str(store.root) if store is not None else None
    ctx = multiprocessing.get_context()
    rng = random.Random(0xC0FFEE ^ len(pending))
    quarantined: list[SweepTask] = []
    fail_counts: dict[tuple, int] = {}
    for attempt in range(retries + 1):
        if not pending:
            break
        try:
            pool = ctx.Pool(processes=min(workers, len(pending)))
        except (OSError, ValueError, ImportError) as exc:
            log.warning("sweep: worker pool unavailable (%s); running serially", exc)
            return pending + quarantined
        failed: list[SweepTask] = []
        timed_out = False

        def _fail(task: SweepTask, reason: str, retryable: bool) -> None:
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

        try:
            t_round = time.perf_counter()
            if scribe is not None:
                # write-ahead discipline: every intent line hits disk
                # before the first worker can touch its cell.
                for t in pending:
                    scribe.intent(t)
            handles = [
                (t, pool.apply_async(_worker_run, (t.kernel, t.config, root)))
                for t in pending
            ]
            for task, handle in handles:
                name = f"{task.kernel}:c{task.config.n_cores}"
                try:
                    run = handle.get(timeout)
                except multiprocessing.TimeoutError:
                    timed_out = True
                    _fail(task, f"timed out after {timeout or 0.0:.1f}s",
                          retryable=True)
                    if obs is not None:
                        obs.emit_task(name, t_round, time.perf_counter(),
                                      "timeout")
                except Exception as exc:
                    _fail(task, f"{type(exc).__name__}: {exc}",
                          retryable=_is_retryable(exc))
                    if obs is not None:
                        obs.emit_task(name, t_round, time.perf_counter(),
                                      type(exc).__name__)
                else:
                    results[task.cell] = run
                    # parent memo: later serial calls reuse the run
                    common.seed_cache(
                        _task_key(by_name[task.kernel], task.config), run)
                    if scribe is not None:
                        # the worker's run_kernel persisted the record
                        # before returning: completion is now durable.
                        scribe.done(task)
                    if obs is not None:
                        obs.emit_task(name, t_round, time.perf_counter(),
                                      run.failure or "ok")
        finally:
            # A timed-out worker may still hold a pool slot; terminate
            # so retries start on a clean pool.
            if timed_out:
                pool.terminate()
            else:
                pool.close()
            pool.join()
        pending = failed
        if pending and attempt < retries:
            delay = _backoff_delay(attempt, rng)
            log.info("sweep: backing off %.2fs before retry round %d",
                     delay, attempt + 2)
            time.sleep(delay)
    return pending + quarantined
