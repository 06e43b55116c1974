"""In-order single-issue core model.

Each core executes its :class:`~repro.isa.program.Program` on its own
timeline.  The only cross-core interactions are the hardware queues (and
the shared functional memory, whose cross-core ordering the compiler
enforces *through* the queues), so a core can run ahead until it needs a
queue event that has not been processed yet — the machine then suspends
it and resumes it later with correct simulated timestamps (conservative
dataflow replay; see :mod:`repro.sim.machine`).

A program is decoded once (:func:`decode`) into flat per-instruction
records — a small-int opcode, operands as register names, the operator's
callable and latency, jump targets and per-core queue slots — and
:meth:`Core.run_slice` dispatches on those records, so executing an
instruction re-derives nothing from the :class:`~repro.isa.Instr`.

The slice loop also does each instruction's memory, cache and queue
work in place, on state it holds in locals: the bounds-checked load or
store on the run's memory lists (:mod:`repro.sim.memory`), the LRU line
update and its hit/miss latency, and each queue's blocker test, head
and slot times, dequeue and enqueue (:mod:`repro.sim.queues`).  No
instruction calls into another object, except the optional hooks (obs
bus, race detector, a fault injector's :meth:`HwQueue.push`) and a
store that NumPy has to convert.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional

from .. import ops as _ops
from ..analysis.cost import LatencyTable
from ..ir.types import F64, I64
from ..isa.instructions import Imm
from ..isa.program import Program
from ..obs.events import STALL_QUEUE_EMPTY, STALL_QUEUE_FULL, STALL_TRANSFER
from .memory import INT64_MAX, INT64_MIN, MemoryFault, SharedMemory
from .queues import HwQueue


class SimError(RuntimeError):
    pass


@dataclass
class CoreStats:
    instrs: int = 0
    enq_ops: int = 0
    deq_ops: int = 0
    queue_stall: float = 0.0   # cycles waiting on queue readiness/slots
    mem: float = 0.0           # load and store instructions executed
    # exact stall-reason decomposition (invariant: the three buckets sum
    # to queue_stall; repro.obs.report builds its attribution from them)
    stall_full: float = 0.0      # enqueue waited for a free slot
    stall_empty: float = 0.0     # dequeue waited for the producer
    stall_transfer: float = 0.0  # dequeue waited for the in-flight hop


@dataclass
class _Blocked:
    kind: str          # 'entry' | 'slot'
    queue: HwQueue
    index: int         # history index being waited for
    since: float       # core time when the wait began


# -- decoding ------------------------------------------------------------

#: record opcodes, numbered in order of dynamic frequency (``bin`` is
#: about half of all fetches), which is the order ``run_slice`` tests
#: them in.  ``END`` sits one past each function's last instruction;
#: ``BAD`` stands for an unknown opcode.
(BIN, LOAD, DEQ, ENQ, LAB, FJP, MOV, STORE, TJP, JP, CALL, UN, SELECT,
 CALLR, RET, HALT, END, BAD) = range(18)

#: operand fields each opcode reads, in the order the core reads them
#: (``select`` and ``call`` are handled in :func:`_reads`).
_READ_FIELDS = {
    "bin": ("a", "b"), "store": ("a", "b"), "load": ("a",), "un": ("a",),
    "mov": ("a",), "enq": ("a",), "fjp": ("a",), "tjp": ("a",),
    "callr": ("a",),
}


class Decoded(NamedTuple):
    """One program's records, shared by every core that runs it.

    ``bodies[f][i]`` is the record of ``functions[f].instrs[i]``, plus an
    ``END`` record at ``len(instrs)``; indices stay aligned with the
    instructions because deadlock reports and blocked-transfer tags read
    the :class:`~repro.isa.Instr` at a core's ``fn``/``pc``.
    ``consts`` seeds each immediate as a read-only pseudo-register
    (``#k``), so every operand read is a register read; each queue the
    program names gets one of ``n_queues`` per-core slots.
    """

    bodies: list
    consts: dict
    n_queues: int


def decode(program: Program, lat: LatencyTable) -> Decoded:
    """``program``'s records under ``lat``, decoded once and kept on the
    program.  Programs never change after lowering, and a compile-memo
    hit returns the same program objects, so the decode is shared
    exactly when the kernel is.  ``bin`` records fold in their
    latency, so the cache is keyed by the content of the binary-op
    latency tables (fault plans scale a core's table)."""
    key = (tuple(sorted(lat.float_bin.items())),
           tuple(sorted(lat.int_bin.items())))
    cache = program.__dict__.setdefault("_decoded", {})
    dec = cache.get(key)
    if dec is None:
        dec = cache[key] = _decode(program, lat)
    return dec


def _bad_binop(ins, lat, a, b):
    """Fail as the reference does, evaluating the operator before
    looking up its latency: one of the two is unknown."""
    _ops.eval_binop(ins.fn, a, b, F64 if ins.is_float else I64)
    lat.binop(ins.fn, ins.is_float)
    raise AssertionError(f"{ins!r} decoded as unknown")  # pragma: no cover


def _decode(program: Program, lat: LatencyTable) -> Decoded:
    consts: dict[str, object] = {}
    imm_regs: dict[tuple, str] = {}
    slots: dict = {}

    def reg(x):
        if not isinstance(x, Imm):
            return x
        v = x.value
        # exact identity: 0.0 and -0.0, or 1 and 1.0, are distinct
        k = (type(v), struct.pack("<d", v) if isinstance(v, float) else v)
        name = imm_regs.get(k)
        if name is None:
            name = imm_regs[k] = f"#{len(imm_regs)}"
            consts[name] = v
        return name

    def slot(qid):
        return slots.setdefault(qid, len(slots))

    bodies = []
    for fn in program.functions:
        code = []
        for ins in fn.instrs:
            op = ins.op
            if op == "bin":
                f = _ops.BINOP_FNS.get((ins.fn, ins.is_float))
                table = lat.float_bin if ins.is_float else lat.int_bin
                if f is None or ins.fn not in table:
                    rec = (BIN, ins.dst, reg(ins.a), reg(ins.b),
                           partial(_bad_binop, ins, lat), 0)
                else:
                    rec = (BIN, ins.dst, reg(ins.a), reg(ins.b), f,
                           table[ins.fn])
            elif op == "load":
                rec = (LOAD, ins.dst, reg(ins.a), ins.array)
            elif op == "deq":
                rec = (DEQ, ins.dst, slot(ins.queue), ins.queue)
            elif op == "enq":
                rec = (ENQ, reg(ins.a), slot(ins.queue), ins.queue)
            elif op == "lab":
                rec = (LAB,)
            elif op in ("fjp", "tjp", "jp"):
                # a label costs nothing, so a jump lands one past it
                to = fn.labels[ins.label] + 1
                if op == "jp":
                    rec = (JP, to)
                else:
                    rec = (FJP if op == "fjp" else TJP, reg(ins.a), to)
            elif op == "mov":
                rec = (MOV, ins.dst, reg(ins.a))
            elif op == "store":
                rec = (STORE, reg(ins.a), reg(ins.b), ins.array)
            elif op == "call":
                args = tuple(reg(x) for x in (ins.a, ins.b, ins.c)
                             if x is not None)
                rec = (CALL, ins.dst, args, ins.fn)
            elif op == "un":
                f = _ops.UNOP_FNS.get((ins.fn, ins.is_float))
                if f is None:
                    f = partial(_ops.eval_unop, ins.fn,
                                dtype=F64 if ins.is_float else I64)
                rec = (UN, ins.dst, reg(ins.a), f)
            elif op == "select":
                rec = (SELECT, ins.dst, reg(ins.a), reg(ins.b), reg(ins.c),
                       ins.is_float)
            elif op == "callr":
                rec = (CALLR, reg(ins.a))
            elif op == "ret":
                rec = (RET,)
            elif op == "halt":
                rec = (HALT,)
            else:
                rec = (BAD, op)
            code.append(rec)
        code.append((END,))
        bodies.append(code)
    return Decoded(bodies, consts, len(slots))


def _reads(ins, regs) -> tuple:
    """The operands ``ins`` reads, in the order the core reads them."""
    if ins.op == "select":
        c = ins.c
        if not isinstance(c, Imm) and c not in regs:
            return (c,)
        taken = c.value if isinstance(c, Imm) else regs[c]
        return (c, ins.a if taken else ins.b)
    if ins.op == "call":
        return tuple(x for x in (ins.a, ins.b, ins.c) if x is not None)
    return tuple(getattr(ins, f) for f in _READ_FIELDS.get(ins.op, ()))


class Core:
    def __init__(
        self,
        cid: int,
        program: Program,
        lat: LatencyTable,
        memory: SharedMemory,
        queues,  # Machine-owned dict resolver: QueueId -> HwQueue
        cache_lines: int,
        line_elems: int,
    ) -> None:
        self.cid = cid
        self.program = program
        self.lat = lat
        self.memory = memory
        self.queues = queues
        dec = decode(program, lat)
        self._bodies = dec.bodies
        #: this core's HwQueue per decoded queue slot, resolved on first
        #: use: a run's queue statistics list only the queues it touched.
        self._qs: list[Optional[HwQueue]] = [None] * dec.n_queues
        #: the private LRU cache (timing only): (array, line) -> True, in
        #: recency order, at most ``cache_lines`` lines of ``line_elems``
        #: elements.  A load misses or hits here; a store allocates.
        self._lines: OrderedDict = OrderedDict()
        self._capacity = cache_lines
        self._shift = max(0, line_elems - 1).bit_length()
        self.regs: dict[str, float | int] = dict(dec.consts)
        self.frames: list[tuple[int, int]] = []
        self.fn = program.entry
        self.pc = 0
        self.time = 0.0
        self.halted = False
        #: the queue event this core waits for; the machine tests it in
        #: line before it runs the core again.
        self.blocked: Optional[_Blocked] = None
        self.stats = CoreStats()
        #: optional RaceDetector installed by the machine
        self.race = None
        #: optional enabled EventBus (repro.obs.events) installed by the
        #: machine; None keeps the hot loop observation-free.
        self.obs = None

    def _undefined_read(self, fn: int, pc: int) -> Optional[SimError]:
        """The undefined-register error of the instruction at
        ``fn:pc``, or None when every register it reads is defined (the
        ``KeyError`` came from elsewhere and stands)."""
        f = self.program.functions[fn]
        ins = f.instrs[pc]
        for x in _reads(ins, self.regs):
            if not isinstance(x, Imm) and x not in self.regs:
                return SimError(
                    f"core {self.cid}: read of undefined register {x!r} at "
                    f"{f.name}:{pc} ({ins!r})"
                )
        return None

    # -- main slice ----------------------------------------------------
    def run_slice(self, budget: int) -> int:
        """Execute until halt, block, or ``budget`` instructions.
        Returns the number of instructions executed.  The machine's
        memory must be open (:meth:`SharedMemory.open`)."""
        self.blocked = None
        cid = self.cid
        obs = self.obs
        race = self.race
        regs = self.regs
        stats = self.stats
        lat = self.lat
        load_hit, load_miss, store_cost = lat.load_hit, lat.load_miss, lat.store
        enq_cost, deq_cost = lat.enqueue, lat.dequeue
        branch, mov_cost = lat.branch, lat.mov
        bodies = self._bodies
        qs = self._qs
        memory = self.memory
        cells, kinds = memory.cells, memory.kinds
        lines, capacity, shift = self._lines, self._capacity, self._shift
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
                    buf = cells[array]
                    if not 0 <= idx < len(buf):
                        raise MemoryFault(f"load {array}[{idx}] out of bounds "
                                          f"(len {len(buf)})")
                    regs[dst] = buf[idx]
                    line = (array, idx >> shift)
                    if line in lines:
                        lines.move_to_end(line)
                        now += load_hit
                    else:
                        lines[line] = True
                        if len(lines) > capacity:
                            lines.popitem(last=False)
                        now += load_miss
                    n_mem += 1
                    if race is not None:
                        race.on_load(cid, array, idx)
                    pc += 1
                elif op == DEQ:
                    _, dst, s, qid = rec
                    q = qs[s]
                    if q is None:
                        q = qs[s] = self.queues(qid)
                    n = q.n_deq
                    if n >= q.n_enq:
                        # entry n has not been enqueued yet
                        self.blocked = _Blocked("entry", q, n, now)
                        stats.instrs += executed
                        if obs is not None and executed:
                            obs.emit_retire(t0, cid, now - t0, executed)
                        return executed
                    start = now
                    ready = q.ready_times[n]
                    wait = ready - start
                    if wait < 0.0:
                        wait = 0.0
                    completion = start + wait + deq_cost
                    if wait > 0.0:
                        stats.queue_stall += wait
                        q.stall_empty += wait
                        # Split the wait at the producer's enqueue-
                        # completion point (ready - transfer_latency):
                        # before it the queue was empty, after it the
                        # value was in flight.
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
                        race.on_deq(cid, qid, n)
                    regs[dst] = got = q.values[n]
                    q.deq_times.append(completion)
                    q.n_deq = n + 1
                    if obs is not None:
                        obs.emit_deq(completion, cid, qid, got, wait)
                    now = completion
                    n_deq += 1
                    pc += 1
                elif op == ENQ:
                    _, a, s, qid = rec
                    q = qs[s]
                    if q is None:
                        q = qs[s] = self.queues(qid)
                    m = q.n_enq
                    freed = m - q.depth  # the dequeue that frees a slot
                    if freed >= q.n_deq:
                        self.blocked = _Blocked("slot", q, freed, now)
                        stats.instrs += executed
                        if obs is not None and executed:
                            obs.emit_retire(t0, cid, now - t0, executed)
                        return executed
                    start = now
                    wait = (q.deq_times[freed] if freed >= 0 else 0.0) - start
                    if wait < 0.0:
                        wait = 0.0
                    completion = start + wait + enq_cost
                    if wait > 0.0:
                        stats.queue_stall += wait
                        stats.stall_full += wait
                        q.stall_full += wait
                    if race is not None:
                        race.on_enq(cid, qid, m)
                    sent = regs[a]
                    if q.injector is None:
                        q.values.append(sent)
                        q.ready_times.append(completion + q.transfer_latency)
                        q.n_enq = m = m + 1
                        if m - q.n_deq > q.max_outstanding:
                            q.max_outstanding = m - q.n_deq
                    else:
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
                    continue  # zero-cost pseudo-instruction
                elif op == FJP:
                    pc = rec[2] if not regs[rec[1]] else pc + 1
                    now += branch
                elif op == MOV:
                    regs[rec[1]] = regs[rec[2]]
                    now += mov_cost
                    pc += 1
                elif op == STORE:
                    _, a, b, array = rec
                    idx = int(regs[a])
                    v = regs[b]
                    buf = cells[array]
                    if not 0 <= idx < len(buf):
                        raise MemoryFault(f"store {array}[{idx}] out of bounds "
                                          f"(len {len(buf)})")
                    kind = type(v)
                    if kind is not kinds[array] or (
                            kind is int and not INT64_MIN <= v <= INT64_MAX):
                        v = memory.convert(array, v)
                    buf[idx] = v
                    line = (array, idx >> shift)  # write-allocate
                    if line in lines:
                        lines.move_to_end(line)
                    else:
                        lines[line] = True
                        if len(lines) > capacity:
                            lines.popitem(last=False)
                    now += store_cost
                    n_mem += 1
                    if race is not None:
                        race.on_store(cid, array, idx)
                    pc += 1
                elif op == TJP:
                    pc = rec[2] if regs[rec[1]] else pc + 1
                    now += branch
                elif op == JP:
                    pc = rec[1]
                    now += branch
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
                    now += branch
                elif op == RET:
                    if not self.frames:
                        raise SimError(f"core {cid}: ret with empty stack")
                    fn, pc = self.frames.pop()
                    code = bodies[fn]
                    now += branch
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
