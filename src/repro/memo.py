"""Bounded per-process memos for the pure stages of a cell.

A cell runs four stages whose result depends on nothing but their
inputs: the compiled kernel (:func:`repro.runtime.exec.compile_loop`),
the interpreter oracle (in :func:`repro.runtime.guard.guarded_run`), the
printed IR (:func:`repro.store.keys.ir_text`) and the store key
(:func:`repro.experiments.common.store_key_for`).  Experiments that vary
only the machine (Fig 13 latencies, E8 queue depths) would otherwise
recompute all four for every cell.  Each stage sits behind one
:class:`Memo`, keyed on exactly that stage's inputs:

* loops by **identity** — :class:`~repro.ir.stmts.Loop` hashes by
  identity, and :meth:`repro.kernels.base.KernelSpec.loop` returns one
  object per spec.  The printed IR is not a content address: it leaves
  out dtypes and statement lines, and lines feed the §III-B proximity
  term;
* workloads and configs by **content** (:func:`content_key`), so two
  equal configs share an entry and a reseeded workload misses.

A miss runs the stage's code unchanged; a hit returns the very object
the miss returned, so memoised results are shared and read-only (the
oracle's arrays are flagged non-writeable).  Bounds are the module
constants below; :func:`clear` empties every memo.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable, Mapping

import numpy as np

_UNSET = object()


def payload_cost(value: Any) -> int:
    """Approximate in-memory cost of a cached payload, in bytes.

    Payloads are JSON-shaped dicts by construction, so the encoded
    length is a faithful (and cheap) proxy; anything unencodable is
    charged a flat floor so the bytes bound still makes progress.
    """
    try:
        return len(json.dumps(value, separators=(",", ":")))
    except (TypeError, ValueError):
        return 256


class LRUCache:
    """Size-, byte- and TTL-bounded LRU map, safe to share between threads.

    ``capacity`` bounds the entry count, ``max_bytes`` the summed
    :func:`payload_cost` of live entries, and ``ttl`` (seconds, from
    ``clock``) expires entries lazily at lookup time.  ``clock`` is
    injectable for deterministic tests.
    """

    def __init__(
        self,
        capacity: int = 1024,
        max_bytes: int | None = None,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        #: key -> (value, expiry-or-None, cost)
        self._data: OrderedDict[Hashable, tuple[Any, float | None, int]] = OrderedDict()
        self._bytes = 0
        self.evictions = 0
        self.expirations = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return self.get(key) is not None

    @property
    def bytes(self) -> int:
        return self._bytes

    def _drop(self, key: Hashable, *, expired: bool = False) -> None:
        _, _, cost = self._data.pop(key)
        self._bytes -= cost
        if expired:
            self.expirations += 1
        else:
            self.evictions += 1

    def get(self, key: Hashable) -> Any | None:
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                return None
            value, expiry, _ = entry
            if expiry is not None and self._clock() >= expiry:
                self._drop(key, expired=True)
                return None
            self._data.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any, ttl: float | None = _UNSET) -> None:
        if ttl is _UNSET:
            ttl = self.ttl
        cost = payload_cost(value)
        with self._lock:
            if key in self._data:
                self._drop(key)
            if self.max_bytes is not None and cost > self.max_bytes:
                return  # a single over-budget entry can never fit
            expiry = self._clock() + ttl if ttl is not None else None
            self._data[key] = (value, expiry, cost)
            self._bytes += cost
            while len(self._data) > self.capacity or (
                self.max_bytes is not None and self._bytes > self.max_bytes
            ):
                self._drop(next(iter(self._data)))

    def purge_expired(self) -> int:
        """Eagerly drop expired entries; returns how many."""
        with self._lock:
            now = self._clock()
            dead = [
                k for k, (_, expiry, _) in self._data.items()
                if expiry is not None and now >= expiry
            ]
            for k in dead:
                self._drop(k, expired=True)
            return len(dead)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._bytes = 0


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
    """A bounded, thread-safe memo in front of one pure stage.

    Two threads that miss on one key both compute it; the results are
    equal by the stage's purity, and the later one is kept.
    """

    def __init__(self, stage: str, capacity: int) -> None:
        self.stage = stage
        self.cache = LRUCache(capacity)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, compute: Callable[[], Any], obs: Any = None) -> Any:
        """The memoised result for ``key``, computed by ``compute()`` on
        a miss.  A hit on an enabled ``obs`` bus emits one ``pass``
        event named ``memo:<stage>``."""
        t0 = time.perf_counter()
        value = self.cache.get(key)
        with self._lock:
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
        if value is None:
            value = compute()
            self.cache.put(key, value)
        elif obs is not None and obs.enabled:
            obs.emit_pass(f"memo:{self.stage}", t0, time.perf_counter())
        return value

    def clear(self) -> None:
        self.cache.clear()
        with self._lock:
            self.hits = self.misses = 0

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self.cache)}


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
#: printed IR texts and store keys: small strings.
IR_TEXT_ENTRIES = 256
STORE_KEY_ENTRIES = 1024

#: (loop, n_cores, CompilerConfig content, check) -> LoweredKernel
COMPILE = Memo("compile", COMPILE_ENTRIES)
#: (loop, workload content) -> InterpResult with read-only arrays
ORACLE = Memo("oracle", ORACLE_ENTRIES)
#: (loop, max_expr_height) -> printed IR
IR_TEXT = Memo("ir_text", IR_TEXT_ENTRIES)
#: (loop, ExpConfig content, kind) -> content-addressed key of a cell
STORE_KEY = Memo("store_key", STORE_KEY_ENTRIES)

MEMOS = (COMPILE, ORACLE, IR_TEXT, STORE_KEY)


def clear() -> None:
    """Empty every memo and zero its counters."""
    for memo in MEMOS:
        memo.clear()


def stats() -> dict[str, dict[str, int]]:
    """Hits, misses and live entries of every memo, by stage."""
    return {memo.stage: memo.stats() for memo in MEMOS}
