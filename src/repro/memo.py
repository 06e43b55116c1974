"""Bounded per-process memos for the pure stages of a cell and its results.

A cell runs three stages whose result depends on nothing but their
inputs: the compiled kernel (:func:`repro.runtime.exec.compile_loop`),
the interpreter oracle (in :func:`repro.runtime.guard.guarded_run`) and
the store key (:func:`repro.experiments.common.store_key_for`).
Experiments that vary only the machine (Fig 13 latencies, E8 queue
depths) would otherwise recompute all three for every cell.  Each stage
sits behind one :class:`Memo`, keyed on the content of exactly that
stage's inputs:

* loops by their digest (:func:`repro.ir.codec.loop_digest`), the
  SHA-256 of a complete encoding, computed once per loop object, so
  two loops share an entry exactly when they are equal and no key
  holds a loop;
* workloads and configs by :func:`content_key`, so two equal configs
  share an entry and a reseeded workload misses.  The store-key memo
  also names the spec's seed and workload recipe
  (:meth:`repro.kernels.base.KernelSpec.recipe_key`).

Two more memos hold the cell's results, keyed by the content-addressed
store key: :data:`RUNS` (finished runs) and :data:`SEQ` (sequential
baseline cycles).  They are this process's tier in front of the disk
store: :func:`repro.experiments.common.run_kernel` reads them, and
``repro serve`` uses :data:`RUNS` as its L1.

A miss runs the stage's code unchanged; a hit returns the very object
the miss returned, so memoised results are shared and read-only (the
oracle's arrays are flagged non-writeable).  Bounds are the module
constants below; :func:`clear` empties every memo.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable, Mapping

import numpy as np

def content_key(obj: Any) -> Hashable:
    """Hashable content address of configs and workloads.

    Dataclasses, mappings and sequences recurse; numpy arrays reduce to
    dtype, shape and a digest of their bytes; scalars keep their type
    and ``repr``, so ``1`` and ``1.0``, or ``0.0`` and ``-0.0``, never
    share an entry.  Any other hashable object stands for itself.
    """
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (bool, int, float, np.generic)):
        return (type(obj).__name__, repr(obj))
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return ("ndarray", data.dtype.str, data.shape,
                hashlib.blake2b(data.data, digest_size=16).digest())
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(content_key(v) for v in obj))
    if isinstance(obj, (dict, Mapping)):
        return ("map", tuple(sorted(
            ((repr(k), content_key(v)) for k, v in obj.items()),
            key=lambda kv: kv[0],
        )))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__qualname__, tuple(
            (f.name, content_key(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)
        ))
    return obj


class Memo:
    """A bounded, thread-safe LRU memo in front of one stage.

    Two threads that miss on one key both compute it; the results are
    equal by the stage's purity, and the later one is kept.  The lock
    covers the map and the counters, never a computation.
    """

    def __init__(self, stage: str, capacity: int) -> None:
        self.stage = stage
        self.capacity = capacity
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: Hashable) -> Any | None:
        """The entry for ``key``, or ``None``; counts a hit or a miss."""
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
                self._data.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value`` as the most recent entry, evicting the least
        recently used one past the bound."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def get(self, key: Hashable, compute: Callable[[], Any], obs: Any = None) -> Any:
        """The memoised result for ``key``, computed by ``compute()`` on
        a miss.  A hit on an enabled ``obs`` bus emits one ``pass``
        event named ``memo:<stage>``."""
        t0 = time.perf_counter()
        value = self.lookup(key)
        if value is None:
            value = compute()
            self.put(key, value)
        elif obs is not None and obs.enabled:
            obs.emit_pass(f"memo:{self.stage}", t0, time.perf_counter())
        return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = self.misses = 0

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._data)}


# Bounds, from one cold E2–E10 pass at trip 64 (the ``suite-cold``
# benchmark workload) and the ``serve-zipf`` request mix.

#: compiled kernels (about 90 KiB each on Table I).  ``run_grid``
#: dispatches kernel-major, so reuse is consecutive: 2 entries catch
#: 256 of the 328 possible hits; 64 catch 292 and 128 all of them.
COMPILE_ENTRIES = 4
#: interpreter results.  Reuse cycles over the 18 Table-I kernels, so
#: 18 entries catch all 306 hits; on ``serve-zipf`` 79 of 212 computed
#: cells can hit, spread over more (kernel, seed) workloads.
ORACLE_ENTRIES = 64
#: store keys: small strings.
STORE_KEY_ENTRIES = 1024
#: finished runs (``KernelRun`` records, about 1 KiB each): above the
#: 324 distinct cells of ``experiment all`` and the 288 cells
#: ``serve-zipf`` can request, so neither ever evicts one.
RUNS_ENTRIES = 4096
#: sequential-baseline cycle counts: one float per key.
SEQ_ENTRIES = 4096

#: (loop digest, n_cores, CompilerConfig content, check) -> LoweredKernel
COMPILE = Memo("compile", COMPILE_ENTRIES)
#: (loop digest, workload content) -> InterpResult with read-only arrays
ORACLE = Memo("oracle", ORACLE_ENTRIES)
#: (loop digest, spec recipe key, ExpConfig content) -> content-addressed
#: key of a cell
STORE_KEY = Memo("store_key", STORE_KEY_ENTRIES)
#: store key -> KernelRun, this process's result tier in front of the
#: disk store (``run_kernel``'s memo and serve's L1)
RUNS = Memo("runs", RUNS_ENTRIES)
#: sequential-baseline store key -> cycles
SEQ = Memo("seq", SEQ_ENTRIES)

MEMOS = (COMPILE, ORACLE, STORE_KEY, RUNS, SEQ)


def clear() -> None:
    """Empty every memo and zero its counters."""
    for memo in MEMOS:
        memo.clear()


def stats() -> dict[str, dict[str, int]]:
    """Hits, misses and live entries of every memo, by stage."""
    return {memo.stage: memo.stats() for memo in MEMOS}
