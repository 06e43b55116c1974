"""In-order single-issue core model.

Each core executes its :class:`~repro.isa.program.Program` on its own
timeline.  The only cross-core interactions are the hardware queues (and
the shared functional memory, whose cross-core ordering the compiler
enforces *through* the queues), so a core can run ahead until it needs a
queue event that has not been processed yet — the machine then suspends
it and resumes it later with correct simulated timestamps (conservative
dataflow replay; see :mod:`repro.sim.machine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import ops as _ops
from ..analysis.cost import LatencyTable
from ..obs.events import STALL_QUEUE_EMPTY, STALL_QUEUE_FULL, STALL_TRANSFER
from ..ir.types import F64, I64
from ..isa.instructions import Imm, Instr, QueueId
from ..isa.program import Program
from .memory import CoreCache, SharedMemory
from .queues import HwQueue


class SimError(RuntimeError):
    pass


class SimDivergence(SimError):
    """A fast simulation path (the specialized core) produced a result
    the reference simulator contradicts.  This must never happen — the
    guard raises it loudly (``FailureKind.SIM_DIVERGENCE``) instead of
    serving the fast answer, and the differential battery exists to
    keep this class unreachable."""


@dataclass
class CoreStats:
    instrs: int = 0
    enq_ops: int = 0
    deq_ops: int = 0
    queue_stall: float = 0.0   # cycles waiting on queue readiness/slots
    compute: float = 0.0       # cycles in compute/branch/mov ops
    mem: float = 0.0           # cycles in loads/stores
    per_op: dict = field(default_factory=dict)
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


class Core:
    def __init__(
        self,
        cid: int,
        program: Program,
        lat: LatencyTable,
        cache: CoreCache,
        memory: SharedMemory,
        queues,  # Machine-owned dict resolver: QueueId -> HwQueue
    ) -> None:
        self.cid = cid
        self.program = program
        self.lat = lat
        self.cache = cache
        self.memory = memory
        self.queues = queues
        self.regs: dict[str, float | int] = {}
        self.frames: list[tuple[int, int]] = []
        self.fn = program.entry
        self.pc = 0
        self.time = 0.0
        self.halted = False
        self.blocked: Optional[_Blocked] = None
        self.stats = CoreStats()
        #: optional RaceDetector installed by the machine
        self.race = None
        #: optional enabled EventBus (repro.obs.events) installed by the
        #: machine; None keeps the hot loop observation-free.
        self.obs = None

    # -- helpers -----------------------------------------------------
    def _val(self, x):
        if isinstance(x, Imm):
            return x.value
        try:
            return self.regs[x]
        except KeyError:
            raise SimError(
                f"core {self.cid}: read of undefined register {x!r} at "
                f"{self.program.functions[self.fn].name}:{self.pc} "
                f"({self.program.functions[self.fn].instrs[self.pc]!r})"
            ) from None

    def unblocked(self) -> bool:
        b = self.blocked
        if b is None:
            return True
        if b.kind == "entry":
            return b.queue.n_enq > b.index
        # slot waits also clear when the queue *grew* under the blocked
        # producer (live reconfiguration): re-check current capacity.
        return b.queue.n_deq > b.index or b.queue.slot_blocker() is None

    # -- main slice ----------------------------------------------------
    def run_slice(self, budget: int) -> int:
        """Execute until halt, block, or ``budget`` instructions.
        Returns the number of instructions executed."""
        self.blocked = None
        executed = 0
        obs = self.obs
        t0 = self.time
        regs = self.regs
        lat = self.lat
        functions = self.program.functions
        fn_obj = functions[self.fn]
        code = fn_obj.instrs
        labels = fn_obj.labels

        while executed < budget:
            if self.pc >= len(code):
                raise SimError(
                    f"core {self.cid}: fell off end of {fn_obj.name}"
                )
            ins: Instr = code[self.pc]
            op = ins.op

            if op == "bin":
                a = self._val(ins.a)
                b = self._val(ins.b)
                regs[ins.dst] = _ops.eval_binop(
                    ins.fn, a, b, F64 if ins.is_float else I64
                )
                self.time += lat.binop(ins.fn, ins.is_float)
                self.pc += 1
            elif op == "load":
                idx = int(self._val(ins.a))
                regs[ins.dst] = self.memory.load(ins.array, idx)
                self.time += self.cache.access(ins.array, idx, lat)
                self.stats.mem += 1
                if self.race is not None:
                    self.race.on_load(self.cid, ins.array, idx)
                self.pc += 1
            elif op == "store":
                idx = int(self._val(ins.a))
                self.memory.store(ins.array, idx, self._val(ins.b))
                self.cache.touch(ins.array, idx)
                self.time += lat.store
                self.stats.mem += 1
                if self.race is not None:
                    self.race.on_store(self.cid, ins.array, idx)
                self.pc += 1
            elif op == "call":
                args = [
                    self._val(x)
                    for x in (ins.a, ins.b, ins.c)
                    if x is not None
                ]
                regs[ins.dst] = _ops.eval_call(ins.fn, args)
                self.time += lat.call[ins.fn]
                self.pc += 1
            elif op == "un":
                regs[ins.dst] = _ops.eval_unop(
                    ins.fn, self._val(ins.a), F64 if ins.is_float else I64
                )
                self.time += lat.unop
                self.pc += 1
            elif op == "select":
                v = self._val(ins.a) if self._val(ins.c) else self._val(ins.b)
                regs[ins.dst] = float(v) if ins.is_float else v
                self.time += lat.select
                self.pc += 1
            elif op == "mov":
                regs[ins.dst] = self._val(ins.a)
                self.time += lat.mov
                self.pc += 1
            elif op == "enq":
                q: HwQueue = self.queues(ins.queue)
                blocker = q.slot_blocker()
                if blocker is not None:
                    self.blocked = _Blocked("slot", q, blocker, self.time)
                    self.stats.instrs += executed
                    if obs is not None and executed:
                        obs.emit_retire(t0, self.cid, self.time - t0, executed)
                    return executed
                start = self.time
                wait = q.slot_free_time() - start
                if wait < 0.0:
                    wait = 0.0
                completion = start + wait + lat.enqueue
                self.stats.queue_stall += wait
                self.stats.stall_full += wait
                q.stall_full += wait
                if self.race is not None:
                    self.race.on_enq(self.cid, ins.queue, q.n_enq)
                sent = self._val(ins.a)
                q.push(sent, completion + q.transfer_latency)
                if obs is not None:
                    if wait > 0.0:
                        obs.emit_stall(start, self.cid, STALL_QUEUE_FULL,
                                       wait, queue=ins.queue)
                    obs.emit_enq(completion, self.cid, ins.queue, sent, wait)
                self.time = completion
                self.stats.enq_ops += 1
                self.pc += 1
            elif op == "deq":
                q = self.queues(ins.queue)
                blocker = q.entry_blocker()
                if blocker is not None:
                    self.blocked = _Blocked("entry", q, blocker, self.time)
                    self.stats.instrs += executed
                    if obs is not None and executed:
                        obs.emit_retire(t0, self.cid, self.time - t0, executed)
                    return executed
                start = self.time
                ready = q.head_ready_time()
                wait = ready - start
                if wait < 0.0:
                    wait = 0.0
                completion = start + wait + lat.dequeue
                self.stats.queue_stall += wait
                q.stall_empty += wait
                if wait > 0.0:
                    # Split the wait at the producer's enqueue-completion
                    # point (ready - transfer_latency): before it the
                    # queue was empty, after it the value was in flight.
                    empty = ready - q.transfer_latency - start
                    if empty < 0.0:
                        empty = 0.0
                    self.stats.stall_empty += empty
                    self.stats.stall_transfer += wait - empty
                    if obs is not None:
                        if empty > 0.0:
                            obs.emit_stall(start, self.cid, STALL_QUEUE_EMPTY,
                                           empty, queue=ins.queue)
                        if wait > empty:
                            obs.emit_stall(start + empty, self.cid,
                                           STALL_TRANSFER, wait - empty,
                                           queue=ins.queue)
                if self.race is not None:
                    self.race.on_deq(self.cid, ins.queue, q.n_deq)
                regs[ins.dst] = q.pop(completion)
                if obs is not None:
                    obs.emit_deq(completion, self.cid, ins.queue,
                                 regs[ins.dst], wait)
                self.time = completion
                self.stats.deq_ops += 1
                self.pc += 1
            elif op == "fjp":
                taken = not self._val(ins.a)
                self.pc = labels[ins.label] if taken else self.pc + 1
                self.time += lat.branch
            elif op == "tjp":
                taken = bool(self._val(ins.a))
                self.pc = labels[ins.label] if taken else self.pc + 1
                self.time += lat.branch
            elif op == "jp":
                self.pc = labels[ins.label]
                self.time += lat.branch
            elif op == "lab":
                self.pc += 1
                executed -= 1  # zero-cost pseudo-instruction
            elif op == "callr":
                target = int(self._val(ins.a))
                if not 0 <= target < len(functions):
                    raise SimError(
                        f"core {self.cid}: bad function index {target}"
                    )
                self.frames.append((self.fn, self.pc + 1))
                self.fn = target
                fn_obj = functions[self.fn]
                code = fn_obj.instrs
                labels = fn_obj.labels
                self.pc = 0
                self.time += lat.branch
            elif op == "ret":
                if not self.frames:
                    raise SimError(f"core {self.cid}: ret with empty stack")
                self.fn, self.pc = self.frames.pop()
                fn_obj = functions[self.fn]
                code = fn_obj.instrs
                labels = fn_obj.labels
                self.time += lat.branch
            elif op == "halt":
                self.halted = True
                self.stats.instrs += executed + 1
                if obs is not None:
                    obs.emit_retire(t0, self.cid, self.time - t0, executed + 1)
                    obs.emit_halt(self.time, self.cid)
                return executed + 1
            else:  # pragma: no cover - defensive
                raise SimError(f"core {self.cid}: bad opcode {op}")
            executed += 1
        self.stats.instrs += executed
        if obs is not None and executed:
            obs.emit_retire(t0, self.cid, self.time - t0, executed)
        return executed
