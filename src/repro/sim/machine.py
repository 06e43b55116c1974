"""Multi-core machine: conservative dataflow replay of all cores.

Cores interact only through single-producer/single-consumer hardware
queues, so each core can be *processed* far ahead of the others while
simulated timestamps remain exact: every queue records enqueue-ready
and dequeue-completion times, and a core that needs an event that has
not been processed yet is suspended and resumed later (its stall time
is computed from timestamps, not from processing order).

Deadlock (all unfinished cores waiting on queue events that will never
be produced) is detected and reported with full queue diagnostics —
this is the runtime manifestation of a compiler failure to statically
pair senders and receivers (§III-I), or of an undersized queue.

A run opens the shared memory as lists for its cores and writes it back
into the arrays when it ends or raises; between slices the machine
tests a blocked core's queue in line, and each queue's occupancy
histogram is built only when a caller first reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..analysis.cost import LatencyTable, default_latencies
from ..isa.instructions import QueueId
from ..isa.program import Program
from ..obs.events import HostBus
from .core import Core, CoreStats, SimError
from .memory import SharedMemory
from .queues import HwQueue, occupancy_histogram


@dataclass
class PartialStats:
    """Progress snapshot attached to machine failures.

    When a run dies (deadlock, budget, drain error) the caller — the
    guard layer, the chaos report, a human — needs to know how far the
    machine got, not just that it died.  Cheap to build: everything is
    already tracked per core/queue."""

    total_instrs: int
    core_times: list[float]
    core_instrs: list[int]
    core_halted: list[bool]
    queue_stats: list[QueueStat]

    def format(self) -> str:
        cores = ", ".join(
            f"c{i}: {t:.0f}cy/{n}i{'*' if h else ''}"
            for i, (t, n, h) in enumerate(
                zip(self.core_times, self.core_instrs, self.core_halted)
            )
        )
        return (
            f"{self.total_instrs} instrs; {cores}; "
            f"{len(self.queue_stats)} queue(s) active"
        )


class MachineFailure(RuntimeError):
    """Base for machine-detected failures; carries partial statistics."""

    def __init__(self, message: str, partial: PartialStats | None = None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class BlockedTransfer:
    """One transfer a core is deadlocked on, in static-checker terms.

    ``queue`` uses the same ``(src, dst, vclass)`` key the static
    wait-for-graph cycle reports (repro.check), so a dynamic deadlock
    can be cross-checked against the predicted cycle.
    """

    core: int
    kind: str                    # 'entry' (dequeue) | 'slot' (enqueue)
    queue: tuple                 # (producer pid, consumer pid, vclass)
    index: int                   # FIFO index the core is waiting for
    tag: str                     # value register / immediate involved

    def format(self) -> str:
        op = "deq" if self.kind == "entry" else "enq"
        return f"core{self.core}:{op} {self.queue}[{self.tag}]#{self.index}"


class DeadlockError(MachineFailure):
    """All unfinished cores wait on queue events that cannot happen.

    ``blocked`` lists the precise blocked transfer set: queue key,
    producer/consumer partition ids and the value tag of the
    instruction each stuck core is executing.
    """

    def __init__(
        self,
        message: str,
        partial: PartialStats | None = None,
        blocked: tuple[BlockedTransfer, ...] = (),
    ):
        super().__init__(message, partial)
        self.blocked = blocked


class BudgetExceeded(MachineFailure):
    pass


@dataclass(frozen=True)
class MachineParams:
    """Hardware configuration (paper §V defaults: 20-slot queues,
    5-cycle transfer latency)."""

    queue_depth: int = 20
    queue_latency: int = 5
    latencies: LatencyTable = field(default_factory=default_latencies)
    cache_lines: int = 1024
    line_elems: int = 8
    #: total instruction budget across cores (runaway watchdog).
    max_instrs: int = 500_000_000
    #: instructions per scheduling slice.
    slice_budget: int = 100_000
    #: per-queue depth overrides: ``(((src, dst, vclass), depth), ...)``
    #: keyed like the checker/deadlock diagnostics.  A tuple (not a
    #: dict) so the params stay frozen/hashable and store-keyable; the
    #: adaptive runtime bakes self-tuned depths in here per epoch.
    queue_depths: tuple = ()


@dataclass
class QueueStat:
    qid: QueueId
    n_transfers: int
    max_outstanding: int
    #: queue capacity at run end (0 when unknown, e.g. partial stats).
    depth: int = 0
    #: simulated cycles stalled on this queue (producer side / consumer
    #: side); zero for partial stats.
    stall_full: float = 0.0
    stall_empty: float = 0.0
    #: the queue's enqueue-visibility and dequeue-completion times;
    #: empty for partial stats.
    ready_times: list = field(default_factory=list, repr=False)
    deq_times: list = field(default_factory=list, repr=False)
    _hist: dict | None = field(default=None, repr=False, compare=False)

    @property
    def occupancy_hist(self) -> dict:
        """Exact time-weighted occupancy histogram (occupancy level ->
        simulated cycles spent at that level), built on first read:
        nothing on an experiment cell's path reads it."""
        if self._hist is None:
            self._hist = occupancy_histogram(self.ready_times, self.deq_times)
        return self._hist

    @property
    def mean_occupancy(self) -> float:
        """Time-weighted mean occupancy while the queue was non-empty."""
        total = sum(self.occupancy_hist.values())
        if total <= 0:
            return 0.0
        return sum(k * v for k, v in self.occupancy_hist.items()) / total


@dataclass
class SimResult:
    """Outcome of one machine run."""

    cycles: float                   # makespan (max core finish time)
    core_times: list[float]
    core_stats: list[CoreStats]
    arrays: dict[str, np.ndarray]
    scalars: dict[str, float | int]  # primary-core live-out registers
    queue_stats: list[QueueStat]
    total_instrs: int
    #: races found by the (optional) happens-before detector
    races: list = field(default_factory=list)

    @property
    def total_queue_stall(self) -> float:
        return sum(s.queue_stall for s in self.core_stats)

    @property
    def core_idle_frac(self) -> list[float]:
        """Each core's queue-stall cycles over its own finish time: the
        share of its time it sat idle on queues (0 for a core that took
        no time)."""
        return [
            (s.queue_stall / t) if t > 0 else 0.0
            for t, s in zip(self.core_times, self.core_stats)
        ]

    @property
    def imbalance(self) -> float:
        """The gang's idle-fraction spread (:func:`idle_spread`)."""
        return idle_spread(self.core_idle_frac)


def idle_spread(idle_frac) -> float:
    """Spread (max - min) of per-core idle fractions; 0 below two cores.

    In the gang protocol every core's timeline ends near the makespan
    (secondaries wait for STOP, the primary waits for done tokens), so
    finish times carry no signal, but a straggler is *busy* while
    everyone else *stalls*.  A convoy therefore shows up as one core
    with a near-zero idle fraction and the rest with large ones, and
    this spread is the guard's IMBALANCE trigger and the adaptive
    runtime's migration trigger.
    """
    if len(idle_frac) < 2:
        return 0.0
    return max(idle_frac) - min(idle_frac)


class Machine:
    def __init__(
        self,
        programs: list[Program],
        memory: SharedMemory,
        params: MachineParams | None = None,
        preload_regs: dict[int, dict[str, float | int]] | None = None,
        detect_races: bool = False,
        faults=None,
        obs=None,
        controller=None,
    ) -> None:
        self.params = params or MachineParams()
        self.memory = memory
        self.queues: dict[QueueId, HwQueue] = {}
        #: optional runtime controller (repro.runtime.adaptive): an
        #: object with ``on_round(machine)`` called once per scheduling
        #: round and ``on_stuck(machine) -> bool`` consulted before a
        #: deadlock is declared — returning True (it changed something,
        #: e.g. grew a queue) buys one more round, and a round after a
        #: rescue that again runs no core declares the deadlock.
        self.controller = controller
        self._depth_overrides = {
            key: depth for key, depth in self.params.queue_depths
        }
        #: optional FaultInjector (see :mod:`repro.faults`): wired into
        #: every queue and consulted for per-core latency scaling.
        self.faults = faults
        self.race_detector = None
        if detect_races:
            from .race import RaceDetector

            self.race_detector = RaceDetector(n_cores=len(programs))
        #: the observability bus (repro.obs.events.EventBus) the cores
        #: emit into; a disabled bus, or a HostBus (whose simulator
        #: emitters do nothing), is treated exactly like None so the
        #: hot loop never pays for observers that cannot hear.
        self.obs = (obs if obs is not None and obs.enabled
                    and not isinstance(obs, HostBus) else None)
        # The cores resolve queues through the machine's parts, not a
        # bound method: a Machine <-> Core cycle is freed only by the
        # cyclic GC, and would keep each finished run's queue histories
        # alive until then.
        queues = partial(_resolve_queue, self.queues, self._depth_overrides,
                         self.params, self.faults)
        self.cores = [
            Core(
                cid=i,
                program=prog,
                lat=(
                    faults.latencies_for(i, self.params.latencies)
                    if faults is not None
                    else self.params.latencies
                ),
                memory=memory,
                queues=queues,
                cache_lines=self.params.cache_lines,
                line_elems=self.params.line_elems,
            )
            for i, prog in enumerate(programs)
        ]
        for cid, regs in (preload_regs or {}).items():
            self.cores[cid].regs.update(regs)
        if self.race_detector is not None:
            for core in self.cores:
                core.race = self.race_detector
        if self.obs is not None:
            for core in self.cores:
                core.obs = self.obs

    def run(self, live_out: list[str] | None = None, primary: int = 0) -> SimResult:
        self.memory.open()
        try:
            total = self._run_cores()
            self._check_drained(total)
        finally:
            self.memory.close()
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
                QueueStat(q.qid, q.n_deq, q.max_outstanding,
                          depth=q.depth,
                          stall_full=q.stall_full,
                          stall_empty=q.stall_empty,
                          ready_times=q.ready_times,
                          deq_times=q.deq_times)
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

    def _run_cores(self) -> int:
        """Run every core to its halt, in rounds of one slice per
        runnable core; returns the instructions executed."""
        total = 0
        budget = self.params.slice_budget
        cores = self.cores
        rescued = False
        while True:
            progressed = False
            for core in cores:
                if core.halted:
                    continue
                b = core.blocked
                if b is not None:
                    q = b.queue
                    if b.kind == "entry":
                        if q.n_enq <= b.index:
                            continue
                    # a slot wait also clears when the queue *grew* under
                    # the blocked producer (live reconfiguration)
                    elif q.n_deq <= b.index and q.n_enq - q.depth >= q.n_deq:
                        continue
                total += core.run_slice(budget)
                progressed = True
                if total > self.params.max_instrs:
                    raise BudgetExceeded(
                        f"instruction budget exceeded ({total} instrs)",
                        partial=self._partial_stats(total),
                    )
            if all(c.halted for c in cores):
                return total
            if not progressed:
                # Last chance: the runtime controller may rescue a
                # capacity deadlock by *growing* a blocked queue (grows
                # are monotone-safe — capacity wait-for edges can only
                # relax).  A controller that changed nothing, or whose
                # rescue freed no core for a round, leaves the deadlock
                # to stand.
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

    def _partial_stats(self, total: int) -> PartialStats:
        return PartialStats(
            total_instrs=total,
            core_times=[c.time for c in self.cores],
            core_instrs=[c.stats.instrs for c in self.cores],
            core_halted=[c.halted for c in self.cores],
            queue_stats=[
                QueueStat(q.qid, q.n_deq, q.max_outstanding)
                for q in self.queues.values()
            ],
        )

    def _check_drained(self, total: int = 0) -> None:
        leftovers = [q for q in self.queues.values() if q.outstanding]
        if leftovers:
            detail = ", ".join(
                f"{q.qid!r}:{q.outstanding} left" for q in leftovers
            )
            err = SimError(f"unbalanced communication at halt: {detail}")
            err.partial = self._partial_stats(total)
            raise err

    def _blocked_transfers(self) -> tuple[BlockedTransfer, ...]:
        out = []
        for core in self.cores:
            b = core.blocked
            if core.halted or b is None:
                continue
            ins = core.program.functions[core.fn].instrs[core.pc]
            if ins.op == "deq":
                tag = ins.dst or "?"
            elif isinstance(ins.a, str):
                tag = ins.a
            else:
                tag = repr(ins.a)
            qid = b.queue.qid
            out.append(BlockedTransfer(
                core=core.cid,
                kind=b.kind,
                queue=(qid.src, qid.dst, qid.vclass.value),
                index=b.index,
                tag=tag,
            ))
        return tuple(out)

    def _deadlock_report(self) -> str:
        lines = ["deadlock: no core can make progress"]
        for core in self.cores:
            if core.halted:
                lines.append(f"  core {core.cid}: halted @ {core.time:.0f}")
                continue
            b = core.blocked
            fn = core.program.functions[core.fn]
            where = f"{fn.name}:{core.pc} {fn.instrs[core.pc]!r}"
            if b is None:
                lines.append(f"  core {core.cid}: runnable?! at {where}")
            else:
                lines.append(
                    f"  core {core.cid}: waiting {b.kind}#{b.index} of "
                    f"{b.queue.qid!r} since {b.since:.0f} at {where}"
                )
        for q in self.queues.values():
            lines.append(
                f"  {q.qid!r}: enq={q.n_enq} deq={q.n_deq} depth={q.depth}"
            )
        return "\n".join(lines)


def _resolve_queue(queues: dict, depth_overrides: dict, params: MachineParams,
                   faults, qid: QueueId) -> HwQueue:
    """The machine's queue for ``qid``, created on first use, so a run's
    queue statistics list only the queues it touched."""
    q = queues.get(qid)
    if q is None:
        depth = depth_overrides.get(
            (qid.src, qid.dst, qid.vclass.value), params.queue_depth
        )
        q = queues[qid] = HwQueue(
            qid=qid,
            depth=depth,
            transfer_latency=params.queue_latency,
            injector=faults,
        )
    return q
