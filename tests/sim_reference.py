"""The simulator core as it was before its slice loop did the memory,
cache and queue work in place: a test-only reference.

:class:`RefMachine` runs the same decoded records through the old
``Core.run_slice``, which called :class:`RefQueue`, :class:`RefCache`
and :class:`RefMemory` methods for every load, store, enqueue and
dequeue, stored into the NumPy arrays directly and built every queue's
occupancy histogram by sorting both of its time lists.  It reuses the
production decode and failure reports, so a difference between the two
machines is a difference in the slice loop, the memory, the queues or
the scheduling round.  ``tests/test_sim_reference.py`` compares them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from repro import ops as _ops
from repro.obs.events import STALL_QUEUE_EMPTY, STALL_QUEUE_FULL, STALL_TRANSFER
from repro.sim.core import (
    BIN, CALL, CALLR, DEQ, END, ENQ, FJP, HALT, JP, LAB, LOAD, MOV, RET,
    SELECT, STORE, TJP, UN, Core, SimError,
)
from repro.sim.machine import (
    BudgetExceeded, DeadlockError, Machine, MachineParams, SimResult,
)
from repro.sim.memory import MemoryFault


@dataclass
class RefMemory:
    """Functional storage: name -> NumPy buffer (mutated in place)."""

    arrays: dict
    is_float: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, buf in self.arrays.items():
            self.is_float[name] = buf.dtype == np.float64

    def load(self, name: str, idx: int):
        buf = self.arrays[name]
        if not 0 <= idx < len(buf):
            raise MemoryFault(f"load {name}[{idx}] out of bounds (len {len(buf)})")
        v = buf[idx]
        return float(v) if self.is_float[name] else int(v)

    def store(self, name: str, idx: int, value) -> None:
        buf = self.arrays[name]
        if not 0 <= idx < len(buf):
            raise MemoryFault(f"store {name}[{idx}] out of bounds (len {len(buf)})")
        buf[idx] = value


class RefCache:
    """Per-core LRU line cache (timing only)."""

    def __init__(self, cache_lines: int, line_elems: int):
        self.lines: OrderedDict = OrderedDict()
        self.capacity = cache_lines
        self.shift = max(0, line_elems - 1).bit_length()

    def access(self, name: str, idx: int, lat) -> int:
        key = (name, idx >> self.shift)
        lines = self.lines
        if key in lines:
            lines.move_to_end(key)
            return lat.load_hit
        lines[key] = True
        if len(lines) > self.capacity:
            lines.popitem(last=False)
        return lat.load_miss

    def touch(self, name: str, idx: int) -> None:
        key = (name, idx >> self.shift)
        lines = self.lines
        if key in lines:
            lines.move_to_end(key)
        else:
            lines[key] = True
            if len(lines) > self.capacity:
                lines.popitem(last=False)


@dataclass
class RefQueue:
    qid: object
    depth: int
    transfer_latency: int
    values: list = field(default_factory=list)
    ready_times: list = field(default_factory=list)
    deq_times: list = field(default_factory=list)
    n_enq: int = 0
    n_deq: int = 0
    max_outstanding: int = 0
    stall_full: float = 0.0
    stall_empty: float = 0.0
    injector: object | None = None

    def slot_blocker(self) -> int | None:
        m = self.n_enq
        if m - self.depth >= self.n_deq:
            return m - self.depth
        return None

    def slot_free_time(self) -> float:
        m = self.n_enq
        if m - self.depth >= 0:
            return self.deq_times[m - self.depth]
        return 0.0

    def push(self, value, ready_time: float) -> bool:
        assert self.slot_blocker() is None, "push on full queue"
        if self.injector is not None:
            value, ready_time, dropped = self.injector.on_enqueue(
                self.qid, self.n_enq, value, ready_time
            )
            if dropped:
                return False
        self.values.append(value)
        self.ready_times.append(ready_time)
        self.n_enq += 1
        self.max_outstanding = max(self.max_outstanding, self.n_enq - self.n_deq)
        return True

    def entry_blocker(self) -> int | None:
        if self.n_deq >= self.n_enq:
            return self.n_deq
        return None

    def head_ready_time(self) -> float:
        return self.ready_times[self.n_deq]

    def pop(self, deq_completion: float):
        assert self.entry_blocker() is None, "pop on empty queue"
        v = self.values[self.n_deq]
        self.deq_times.append(deq_completion)
        self.n_deq += 1
        return v

    def grow(self, new_depth: int) -> bool:
        if new_depth <= self.depth:
            return False
        self.depth = new_depth
        return True

    def occupancy_histogram(self) -> dict:
        events = [(t, 1) for t in self.ready_times]
        events += [(t, -1) for t in self.deq_times]
        events.sort()
        hist: dict = {}
        occ = 0
        last = None
        for t, d in events:
            if last is not None and t > last and occ > 0:
                hist[occ] = hist.get(occ, 0.0) + (t - last)
            occ += d
            last = t
        return hist

    @property
    def outstanding(self) -> int:
        return self.n_enq - self.n_deq


@dataclass
class RefQueueStat:
    qid: object
    n_transfers: int
    max_outstanding: int
    depth: int = 0
    occupancy_hist: dict = field(default_factory=dict)
    stall_full: float = 0.0
    stall_empty: float = 0.0


@dataclass
class _Blocked:
    kind: str
    queue: RefQueue
    index: int
    since: float


class RefCore(Core):
    """The core with the old slice loop and its per-instruction calls."""

    def __init__(self, cid, program, lat, cache: RefCache, memory: RefMemory,
                 queues) -> None:
        super().__init__(cid, program, lat, memory, queues,
                         cache.capacity, 1 << cache.shift)
        self.cache = cache

    def unblocked(self) -> bool:
        b = self.blocked
        if b is None:
            return True
        if b.kind == "entry":
            return b.queue.n_enq > b.index
        return b.queue.n_deq > b.index or b.queue.slot_blocker() is None

    def run_slice(self, budget: int) -> int:
        self.blocked = None
        cid = self.cid
        obs = self.obs
        race = self.race
        regs = self.regs
        stats = self.stats
        lat = self.lat
        bodies = self._bodies
        qs = self._qs
        load = self.memory.load
        store = self.memory.store
        access = self.cache.access
        touch = self.cache.touch
        fn = self.fn
        code = bodies[fn]
        pc = self.pc
        t0 = now = self.time
        executed = n_mem = n_enq = n_deq = 0
        try:
            while executed < budget:
                rec = code[pc]
                op = rec[0]
                if op == BIN:
                    _, dst, a, b, f, cost = rec
                    regs[dst] = f(regs[a], regs[b])
                    now += cost
                    pc += 1
                elif op == LOAD:
                    _, dst, a, array = rec
                    idx = int(regs[a])
                    regs[dst] = load(array, idx)
                    now += access(array, idx, lat)
                    n_mem += 1
                    if race is not None:
                        race.on_load(cid, array, idx)
                    pc += 1
                elif op == DEQ:
                    _, dst, s, qid = rec
                    q = qs[s]
                    if q is None:
                        q = qs[s] = self.queues(qid)
                    blocker = q.entry_blocker()
                    if blocker is not None:
                        self.blocked = _Blocked("entry", q, blocker, now)
                        stats.instrs += executed
                        if obs is not None and executed:
                            obs.emit_retire(t0, cid, now - t0, executed)
                        return executed
                    start = now
                    ready = q.head_ready_time()
                    wait = ready - start
                    if wait < 0.0:
                        wait = 0.0
                    completion = start + wait + lat.dequeue
                    if wait > 0.0:
                        stats.queue_stall += wait
                        q.stall_empty += wait
                        empty = ready - q.transfer_latency - start
                        if empty < 0.0:
                            empty = 0.0
                        stats.stall_empty += empty
                        stats.stall_transfer += wait - empty
                        if obs is not None:
                            if empty > 0.0:
                                obs.emit_stall(start, cid, STALL_QUEUE_EMPTY,
                                               empty, queue=qid)
                            if wait > empty:
                                obs.emit_stall(start + empty, cid,
                                               STALL_TRANSFER, wait - empty,
                                               queue=qid)
                    if race is not None:
                        race.on_deq(cid, qid, q.n_deq)
                    regs[dst] = q.pop(completion)
                    if obs is not None:
                        obs.emit_deq(completion, cid, qid, regs[dst], wait)
                    now = completion
                    n_deq += 1
                    pc += 1
                elif op == ENQ:
                    _, a, s, qid = rec
                    q = qs[s]
                    if q is None:
                        q = qs[s] = self.queues(qid)
                    blocker = q.slot_blocker()
                    if blocker is not None:
                        self.blocked = _Blocked("slot", q, blocker, now)
                        stats.instrs += executed
                        if obs is not None and executed:
                            obs.emit_retire(t0, cid, now - t0, executed)
                        return executed
                    start = now
                    wait = q.slot_free_time() - start
                    if wait < 0.0:
                        wait = 0.0
                    completion = start + wait + lat.enqueue
                    if wait > 0.0:
                        stats.queue_stall += wait
                        stats.stall_full += wait
                        q.stall_full += wait
                    if race is not None:
                        race.on_enq(cid, qid, q.n_enq)
                    sent = regs[a]
                    q.push(sent, completion + q.transfer_latency)
                    if obs is not None:
                        if wait > 0.0:
                            obs.emit_stall(start, cid, STALL_QUEUE_FULL,
                                           wait, queue=qid)
                        obs.emit_enq(completion, cid, qid, sent, wait)
                    now = completion
                    n_enq += 1
                    pc += 1
                elif op == LAB:
                    pc += 1
                    continue
                elif op == FJP:
                    pc = rec[2] if not regs[rec[1]] else pc + 1
                    now += lat.branch
                elif op == MOV:
                    regs[rec[1]] = regs[rec[2]]
                    now += lat.mov
                    pc += 1
                elif op == STORE:
                    _, a, b, array = rec
                    idx = int(regs[a])
                    store(array, idx, regs[b])
                    touch(array, idx)
                    now += lat.store
                    n_mem += 1
                    if race is not None:
                        race.on_store(cid, array, idx)
                    pc += 1
                elif op == TJP:
                    pc = rec[2] if regs[rec[1]] else pc + 1
                    now += lat.branch
                elif op == JP:
                    pc = rec[1]
                    now += lat.branch
                elif op == CALL:
                    _, dst, args, name = rec
                    regs[dst] = _ops.eval_call(name, [regs[x] for x in args])
                    now += lat.call[name]
                    pc += 1
                elif op == UN:
                    _, dst, a, f = rec
                    regs[dst] = f(regs[a])
                    now += lat.unop
                    pc += 1
                elif op == SELECT:
                    _, dst, a, b, c, is_float = rec
                    v = regs[a] if regs[c] else regs[b]
                    regs[dst] = float(v) if is_float else v
                    now += lat.select
                    pc += 1
                elif op == CALLR:
                    target = int(regs[rec[1]])
                    if not 0 <= target < len(bodies):
                        raise SimError(
                            f"core {cid}: bad function index {target}"
                        )
                    self.frames.append((fn, pc + 1))
                    fn = target
                    code = bodies[fn]
                    pc = 0
                    now += lat.branch
                elif op == RET:
                    if not self.frames:
                        raise SimError(f"core {cid}: ret with empty stack")
                    fn, pc = self.frames.pop()
                    code = bodies[fn]
                    now += lat.branch
                elif op == HALT:
                    self.halted = True
                    stats.instrs += executed + 1
                    if obs is not None:
                        obs.emit_retire(t0, cid, now - t0, executed + 1)
                        obs.emit_halt(now, cid)
                    return executed + 1
                elif op == END:
                    raise SimError(
                        f"core {cid}: fell off end of "
                        f"{self.program.functions[fn].name}"
                    )
                else:
                    raise SimError(f"core {cid}: bad opcode {rec[1]}")
                executed += 1
        except KeyError:
            err = self._undefined_read(fn, pc)
            if err is None:
                raise
            raise err from None
        finally:
            self.fn, self.pc, self.time = fn, pc, now
            stats.mem += n_mem
            stats.enq_ops += n_enq
            stats.deq_ops += n_deq
        stats.instrs += executed
        if obs is not None and executed:
            obs.emit_retire(t0, cid, now - t0, executed)
        return executed


def _resolve(queues, depth_overrides, params, faults, qid) -> RefQueue:
    q = queues.get(qid)
    if q is None:
        depth = depth_overrides.get(
            (qid.src, qid.dst, qid.vclass.value), params.queue_depth
        )
        q = queues[qid] = RefQueue(qid=qid, depth=depth,
                                   transfer_latency=params.queue_latency,
                                   injector=faults)
    return q


class RefMachine(Machine):
    """The machine's old scheduling round (``unblocked()`` per core) and
    result (histograms sorted at run end) over :class:`RefCore`.  Takes
    the production machine's arguments, with the arrays of ``memory``
    used in place."""

    def __init__(self, programs, memory, params: MachineParams | None = None,
                 preload_regs=None, detect_races: bool = False, faults=None,
                 obs=None, controller=None) -> None:
        super().__init__([], memory, params, detect_races=detect_races,
                         faults=faults, obs=obs, controller=controller)
        if detect_races:
            from repro.sim.race import RaceDetector

            self.race_detector = RaceDetector(n_cores=len(programs))
        self.memory = RefMemory(memory.arrays)
        queues = partial(_resolve, self.queues, self._depth_overrides,
                         self.params, self.faults)
        self.cores = [
            RefCore(
                i, prog,
                faults.latencies_for(i, self.params.latencies)
                if faults is not None else self.params.latencies,
                RefCache(self.params.cache_lines, self.params.line_elems),
                self.memory, queues,
            )
            for i, prog in enumerate(programs)
        ]
        for cid, regs in (preload_regs or {}).items():
            self.cores[cid].regs.update(regs)
        for core in self.cores:
            core.race = self.race_detector
            core.obs = self.obs

    def run(self, live_out=None, primary: int = 0) -> SimResult:
        total = 0
        budget = self.params.slice_budget
        rescued = False
        while True:
            progressed = False
            for core in self.cores:
                if core.halted or not core.unblocked():
                    continue
                total += core.run_slice(budget)
                progressed = True
                if total > self.params.max_instrs:
                    raise BudgetExceeded(
                        f"instruction budget exceeded ({total} instrs)",
                        partial=self._partial_stats(total),
                    )
            if all(c.halted for c in self.cores):
                break
            if not progressed:
                if (not rescued and self.controller is not None
                        and self.controller.on_stuck(self)):
                    rescued = True
                    continue
                raise DeadlockError(
                    self._deadlock_report(),
                    partial=self._partial_stats(total),
                    blocked=self._blocked_transfers(),
                )
            rescued = False
            if self.controller is not None:
                self.controller.on_round(self)

        self._check_drained(total)
        scalars = {}
        for name in live_out or []:
            if name in self.cores[primary].regs:
                scalars[name] = self.cores[primary].regs[name]
        return SimResult(
            cycles=max(c.time for c in self.cores),
            core_times=[c.time for c in self.cores],
            core_stats=[c.stats for c in self.cores],
            arrays=self.memory.arrays,
            scalars=scalars,
            queue_stats=[
                RefQueueStat(q.qid, q.n_deq, q.max_outstanding,
                             depth=q.depth,
                             occupancy_hist=q.occupancy_histogram(),
                             stall_full=q.stall_full,
                             stall_empty=q.stall_empty)
                for q in sorted(
                    self.queues.values(),
                    key=lambda q: (q.qid.src, q.qid.dst, q.qid.vclass.value),
                )
            ],
            total_instrs=total,
            races=list(self.race_detector.races)
            if self.race_detector is not None
            else [],
        )
