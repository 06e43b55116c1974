"""Persistent content-addressed result store + parallel sweep engine.

The experiment harness re-simulates identical (kernel, config,
workload) cells on every process start; this package removes that
waste and turns the kernel × config matrix into a schedulable grid:

* :mod:`repro.store.keys` — SHA-256 cache keys over the kernel's
  loop digest (:func:`repro.ir.codec.loop_digest`), the
  :class:`~repro.compiler.CompilerConfig`, the
  :class:`~repro.sim.MachineParams` and the workload ``(trip, seed)``
  recipe.  Anything that can change a simulated cycle count changes
  the key; nothing else does.
* :mod:`repro.store.records` — versioned JSON envelopes for
  :class:`~repro.experiments.common.KernelRun` records (and the
  lightweight sequential-baseline records).
* :mod:`repro.store.disk` — the on-disk store: sharded layout, atomic
  temp-file + rename writes, corruption-tolerant reads (a bad record
  is a miss, never a crash), stats / clear / gc maintenance.
* :mod:`repro.store.sweep` — ``run_grid``: fan a kernel × config grid
  out over the :mod:`repro.pool` workers with longest-job-first
  ordering seeded from cached cycle counts, per-task timeout + retry,
  and graceful in-process serial fallback.
* :mod:`repro.store.journal` — write-ahead sweep journal: intent
  before compute, completion after the durable store write, so a
  ``kill -9``'d sweep or daemon resumes by re-dispatching only the
  missing cells of its campaign (``run_grid(journal=...)`` /
  ``resume_grid``).
"""

from .disk import ResultStore, StoreStats, StoreWriteError, default_store, store_root
from .journal import JournalState, SweepJournal, load_journal, new_journal_path
from .keys import SCHEMA_VERSION, kernel_run_key, stable_digest
from .sweep import resume_grid, run_grid

__all__ = [
    "SCHEMA_VERSION",
    "JournalState",
    "ResultStore",
    "StoreStats",
    "StoreWriteError",
    "SweepJournal",
    "default_store",
    "kernel_run_key",
    "load_journal",
    "new_journal_path",
    "resume_grid",
    "run_grid",
    "stable_digest",
    "store_root",
]
