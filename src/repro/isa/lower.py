"""Lowering: compiler plans → per-core machine programs.

This is where the remaining paper transformations materialise:

* **Outlining (§III-C, Fig 5)** — every non-primary partition becomes a
  separate function ``F<pid>`` in its core's program; the primary
  partition stays inline in ``main``.
* **Communication insertion (§III-D, Fig 6)** — planned transfers
  become ``enq``/``deq`` instructions on the right hardware queue.
* **Branch replication (§III-E, Fig 7)** — every run of same-predicate
  items is wrapped in (replicated) conditional jumps testing the
  locally held condition registers, outermost condition first
  (short-circuit, so inner conditions are only tested on paths where
  they were actually computed).
* **Live-variable copy-out (§III-F, Fig 8)** — after the loop, each
  secondary partition enqueues the live-out temporaries it owns to the
  primary.
* **Runtime threads (§III-G, Fig 9)** — secondary cores run a driver
  loop that dequeues a function pointer, dispatches, and returns to
  waiting; the primary sends the pointer and the arguments, and
  collects per-thread completion tokens as the barrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..compiler.comm import Transfer
from ..compiler.fibers import Op
from ..compiler.pipeline import ParallelPlan
from ..compiler.schedule import EmitItem, PartitionSchedule
from ..ir.nodes import BinOp, Call, Const, Expr, Load, Select, UnOp, VarRef
from ..ir.stmts import PredChain
from ..ir.types import VClass
from .instructions import Imm, Instr, Operand, QueueId
from .program import Function, Program

#: function-pointer value the driver interprets as "terminate" (§III-G).
STOP = -1


class LowerError(RuntimeError):
    pass


@dataclass
class LoweredKernel:
    """Per-core programs for one transformed kernel."""

    plan: ParallelPlan
    programs: list[Program]          # index == pid == core id
    primary_params: list[str]        # registers the loader must preload
    #: per secondary pid: parameter registers it receives via queues,
    #: in transfer order (trip count first).
    secondary_params: dict[int, list[str]]
    #: live-out temp -> owning pid
    liveout_owner: dict[str, int]
    #: §III-G flavour: "static" (fiber p pinned to core p) or
    #: "stealing" (every secondary carries the full fiber table and the
    #: primary dispatches from preloaded ``__fib<core>`` registers).
    runtime_mode: str = "static"
    #: stealing mode: secondary fiber pid -> function-table index in
    #: every secondary core's program (empty in static mode).
    fiber_table: dict[int, int] = field(default_factory=dict)
    #: stealing mode: secondary core id -> dispatch register the loader
    #: preloads on the primary (empty in static mode).
    dispatch_regs: dict[int, str] = field(default_factory=dict)
    #: the protocol checker's depth-free pass per placement, filled by
    #: :func:`repro.check.check_kernel`.  Not an ``__init__`` field, so
    #: a ``dataclasses.replace`` copy (a mutant) starts with none.
    check_passes: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def n_cores(self) -> int:
        return len(self.programs)

    def identity_placement(self) -> dict[int, int]:
        """The compile-time placement: core ``s`` runs fiber ``s``."""
        return {s: s for s in range(self.n_cores)}

    def dispatch_preload(
        self, placement: dict[int, int] | None = None
    ) -> dict[str, int]:
        """Primary-core register preload realizing ``placement``
        (core -> fiber pid; secondary cores only; identity default).

        Static-mode kernels have no dispatch registers and return ``{}``
        — their placement is burned into the programs.
        """
        if not self.dispatch_regs:
            return {}
        placement = placement or self.identity_placement()
        out: dict[str, int] = {}
        seen: set[int] = set()
        for s, reg in self.dispatch_regs.items():
            fiber = placement.get(s, s)
            if fiber not in self.fiber_table:
                raise LowerError(
                    f"placement assigns core {s} unknown fiber {fiber}"
                )
            if fiber in seen:
                raise LowerError(
                    f"placement assigns fiber {fiber} to two cores"
                )
            seen.add(fiber)
            out[reg] = self.fiber_table[fiber]
        return out


class _FnEmitter:
    """Accumulates instructions for one function."""

    def __init__(self, name: str, pid: int):
        self.name = name
        self.pid = pid
        self.instrs: list[Instr] = []
        self._label_counter = 0
        self._scratch = 0

    def emit(self, **kw) -> Instr:
        ins = Instr(**kw)
        self.instrs.append(ins)
        return ins

    def fresh_label(self, base: str) -> str:
        self._label_counter += 1
        return f"{base}_{self._label_counter}"

    def fresh_reg(self, base: str) -> str:
        self._scratch += 1
        return f"__{base}{self._scratch}"

    def build(self) -> Function:
        return Function(self.name, self.instrs)


# ----------------------------------------------------------------------
# Expression-op lowering
# ----------------------------------------------------------------------

def _leaf_operand(fe: _FnEmitter, leaf: Expr, sid: int) -> Operand:
    if isinstance(leaf, Const):
        return Imm(leaf.value)
    if isinstance(leaf, VarRef):
        return leaf.name
    if isinstance(leaf, Load):
        idx = _leaf_operand(fe, leaf.index, sid)
        dst = fe.fresh_reg("ld")
        fe.emit(op="load", dst=dst, a=idx, array=leaf.array.name, sid=sid)
        return dst
    raise LowerError(f"not a leaf: {leaf!r}")


def _operand_of(fe: _FnEmitter, child: Expr, sid: int) -> Operand:
    if child.is_leaf:
        return _leaf_operand(fe, child, sid)
    # interior node: its value register was written by its own op
    name = f"v{sid}_{child.nid}"
    return name


def _emit_op(fe: _FnEmitter, op: Op) -> None:
    sid = op.sid
    if op.kind == "expr":
        node = op.node
        dst = op.value_name
        if isinstance(node, BinOp):
            a = _operand_of(fe, node.lhs, sid)
            b = _operand_of(fe, node.rhs, sid)
            is_f = node.lhs.dtype.is_float or node.rhs.dtype.is_float
            fe.emit(op="bin", fn=node.op, dst=dst, a=a, b=b, is_float=is_f, sid=sid)
        elif isinstance(node, UnOp):
            a = _operand_of(fe, node.operand, sid)
            fe.emit(
                op="un", fn=node.op, dst=dst, a=a,
                is_float=node.dtype.is_float, sid=sid,
            )
        elif isinstance(node, Call):
            args = [_operand_of(fe, c, sid) for c in node.args]
            pads = args + [None] * (3 - len(args))
            fe.emit(
                op="call", fn=node.fn, dst=dst,
                a=pads[0], b=pads[1], c=pads[2],
                is_float=node.dtype.is_float, sid=sid,
            )
        elif isinstance(node, Select):
            cond = _operand_of(fe, node.cond, sid)
            tv = _operand_of(fe, node.a, sid)
            fv = _operand_of(fe, node.b, sid)
            fe.emit(
                op="select", dst=dst, a=tv, b=fv, c=cond,
                is_float=node.dtype.is_float, sid=sid,
            )
        else:  # pragma: no cover - defensive
            raise LowerError(f"cannot lower node {node!r}")
    elif op.kind == "move":
        src = op.stmt.expr
        if isinstance(src, Load):
            idx = _leaf_operand(fe, src.index, sid)
            fe.emit(op="load", dst=op.writes, a=idx, array=src.array.name, sid=sid)
        else:
            fe.emit(
                op="mov", dst=op.writes, a=_leaf_operand(fe, src, sid),
                is_float=(op.stmt.dtype.is_float if op.stmt.dtype else False),
                sid=sid,
            )
    elif op.kind == "store":
        st = op.stmt
        val = _operand_of(fe, st.expr, sid)
        idx = _leaf_operand(fe, st.index, sid)
        fe.emit(op="store", array=st.array.name, a=idx, b=val, sid=sid)
    else:  # pragma: no cover - defensive
        raise LowerError(f"unknown op kind {op.kind}")


def _emit_comm(fe: _FnEmitter, item: EmitItem) -> None:
    t: Transfer = item.transfer
    q = QueueId(t.src_pid, t.dst_pid, t.vclass)
    if item.kind == "enq":
        src: Operand = Imm(1) if t.kind == "token" else t.reg
        fe.emit(op="enq", queue=q, a=src, sid=t.producer_op.sid)
    else:
        fe.emit(op="deq", queue=q, dst=t.reg, sid=t.producer_op.sid)


# ----------------------------------------------------------------------
# Guarded segment emission (§III-E)
# ----------------------------------------------------------------------

def _emit_items(fe: _FnEmitter, items: list[EmitItem]) -> None:
    i = 0
    n = len(items)
    while i < n:
        pred = items[i].pred
        j = i
        while j < n and items[j].pred == pred:
            j += 1
        run = items[i:j]
        if pred:
            skip = fe.fresh_label("Lskip")
            for cond, want in pred:
                # outermost first; short-circuit so inner conditions are
                # only tested when the outer ones held (they are defined
                # on exactly those paths).
                fe.emit(op=("fjp" if want else "tjp"), a=cond, label=skip)
            for it in run:
                _emit_item(fe, it)
            fe.emit(op="lab", label=skip)
        else:
            for it in run:
                _emit_item(fe, it)
        i = j


def _emit_item(fe: _FnEmitter, item: EmitItem) -> None:
    if item.kind == "op":
        _emit_op(fe, item.op)
    else:
        _emit_comm(fe, item)


def _emit_loop(fe: _FnEmitter, plan: ParallelPlan, sched: PartitionSchedule) -> None:
    loop = plan.loop
    top = fe.fresh_label("Ltop")
    exit_ = fe.fresh_label("Lexit")
    fe.emit(op="mov", dst=loop.index, a=Imm(0))
    fe.emit(op="lab", label=top)
    fe.emit(op="bin", fn="lt", dst="__lc", a=loop.index, b=loop.trip)
    fe.emit(op="fjp", a="__lc", label=exit_)
    _emit_items(fe, sched.items)
    fe.emit(op="bin", fn="add", dst=loop.index, a=loop.index, b=Imm(1))
    fe.emit(op="jp", label=top)
    fe.emit(op="lab", label=exit_)


# ----------------------------------------------------------------------
# Interface computation
# ----------------------------------------------------------------------

def _partition_reads(sched: PartitionSchedule) -> set[str]:
    from ..compiler.schedule import _reads_of_op  # shared helper

    reads: set[str] = set()
    writes: set[str] = set()
    for it in sched.items:
        if it.kind == "op":
            reads |= _reads_of_op(it.op) - writes
            if it.op.writes is not None:
                writes.add(it.op.writes)
        elif it.kind == "deq":
            writes.add(it.transfer.reg)
        for cond, _ in it.pred:
            if cond not in writes:
                reads.add(cond)
    return reads - writes


def _needed_params(plan: ParallelPlan, sched: PartitionSchedule) -> list[str]:
    loop = plan.loop
    param_names = set(loop.param_names())
    needed: list[str] = []
    locally_written = {
        it.op.writes
        for it in sched.items
        if it.kind == "op" and it.op.writes is not None
    }
    deq_regs = {it.transfer.reg for it in sched.items if it.kind == "deq"}
    for name in sorted(_partition_reads(sched)):
        if name in (loop.index, loop.trip):
            continue
        if name in deq_regs:
            continue
        if name in param_names:
            needed.append(name)
            continue
        if name in locally_written:
            continue
        raise LowerError(
            f"partition {sched.pid} reads {name!r} which is neither a "
            "parameter, a dequeued value, nor locally defined"
        )
    # carried temps that are params AND locally written still need their
    # initial value delivered:
    for name in sorted(param_names):
        if name in locally_written and name not in needed:
            reads_anywhere = name in _partition_reads_incl_writes(sched)
            if reads_anywhere:
                needed.append(name)
    return sorted(set(needed))


def _partition_reads_incl_writes(sched: PartitionSchedule) -> set[str]:
    from ..compiler.schedule import _reads_of_op

    reads: set[str] = set()
    for it in sched.items:
        if it.kind == "op":
            reads |= _reads_of_op(it.op)
        for cond, _ in it.pred:
            reads.add(cond)
    return reads


# ----------------------------------------------------------------------
# Whole-kernel lowering
# ----------------------------------------------------------------------

def lower_plan(plan: ParallelPlan, runtime_mode: str | None = None) -> LoweredKernel:
    """Produce one :class:`Program` per partition/core.

    ``runtime_mode`` (default: the plan's compiler config) selects the
    §III-G flavour — see :class:`LoweredKernel`.
    """
    if runtime_mode is None:
        runtime_mode = getattr(plan.config, "runtime_mode", "static")
    if runtime_mode not in ("static", "stealing"):
        raise LowerError(f"unknown runtime mode {runtime_mode!r}")
    loop = plan.loop
    param_dtype = {p.name: p.dtype for p in loop.params}
    n_parts = len(plan.partitions)

    # live-out ownership: the partition holding the final defs (§III-F
    # cohesion in the pipeline guarantees uniqueness).
    liveout_owner: dict[str, int] = {}
    for name in loop.live_out:
        owner = None
        for sched in plan.schedules:
            for it in sched.items:
                if it.kind == "op" and it.op.writes == name:
                    owner = sched.pid
        if owner is None:
            owner = plan.primary_pid  # never assigned: pure parameter
        liveout_owner[name] = owner

    secondary_params: dict[int, list[str]] = {}
    for sched in plan.schedules:
        if sched.pid != plan.primary_pid:
            secondary_params[sched.pid] = _needed_params(plan, sched)

    if runtime_mode == "stealing":
        return _lower_stealing(
            plan, loop, param_dtype, n_parts, liveout_owner, secondary_params,
        )

    programs: list[Program] = []
    for sched in plan.schedules:
        pid = sched.pid
        if pid == plan.primary_pid:
            fe = _FnEmitter("main", pid)
            # §III-G dispatch: send function pointer then arguments.
            for s in range(n_parts):
                if s == plan.primary_pid:
                    continue
                gq = QueueId(pid, s, VClass.GPR)
                fe.emit(op="enq", queue=gq, a=Imm(1))  # F_s table index
                fe.emit(op="enq", queue=gq, a=loop.trip)
                for pname in secondary_params[s]:
                    vc = param_dtype[pname].vclass
                    fe.emit(op="enq", queue=QueueId(pid, s, vc), a=pname)
            _emit_loop(fe, plan, sched)
            # §III-F/G: collect live-outs, then completion tokens.
            for s in range(n_parts):
                if s == plan.primary_pid:
                    continue
                for name in sorted(loop.live_out):
                    if liveout_owner[name] == s:
                        vc = _liveout_vclass(plan, name, param_dtype)
                        fe.emit(op="deq", queue=QueueId(s, pid, vc), dst=name)
                fe.emit(op="deq", queue=QueueId(s, pid, VClass.GPR), dst=f"__done{s}")
            for s in range(n_parts):
                if s == plan.primary_pid:
                    continue
                fe.emit(op="enq", queue=QueueId(pid, s, VClass.GPR), a=Imm(STOP))
            fe.emit(op="halt")
            programs.append(Program(f"core{pid}", [fe.build()], entry=0))
        else:
            drv = _FnEmitter("driver", pid)
            top = drv.fresh_label("Ldrv")
            done = drv.fresh_label("Ldone")
            gq_in = QueueId(plan.primary_pid, pid, VClass.GPR)
            drv.emit(op="lab", label=top)
            drv.emit(op="deq", queue=gq_in, dst="__fn")
            drv.emit(op="bin", fn="eq", dst="__stop", a="__fn", b=Imm(STOP))
            drv.emit(op="tjp", a="__stop", label=done)
            drv.emit(op="callr", a="__fn")
            drv.emit(op="jp", label=top)
            drv.emit(op="lab", label=done)
            drv.emit(op="halt")

            fn = _FnEmitter(f"F{pid}", pid)
            fn.emit(op="deq", queue=gq_in, dst=loop.trip)
            for pname in secondary_params[pid]:
                vc = param_dtype[pname].vclass
                fn.emit(op="deq", queue=QueueId(plan.primary_pid, pid, vc), dst=pname)
            _emit_loop(fn, plan, sched)
            for name in sorted(loop.live_out):
                if liveout_owner[name] == pid:
                    vc = _liveout_vclass(plan, name, param_dtype)
                    fn.emit(
                        op="enq", queue=QueueId(pid, plan.primary_pid, vc), a=name
                    )
            fn.emit(op="enq", queue=QueueId(pid, plan.primary_pid, VClass.GPR), a=Imm(1))
            fn.emit(op="ret")
            programs.append(Program(f"core{pid}", [drv.build(), fn.build()], entry=0))

    primary_params = sorted({p.name for p in loop.params})
    return LoweredKernel(
        plan=plan,
        programs=programs,
        primary_params=primary_params,
        secondary_params=secondary_params,
        liveout_owner=liveout_owner,
    )


def _lower_stealing(
    plan: ParallelPlan,
    loop,
    param_dtype,
    n_parts: int,
    liveout_owner: dict[str, int],
    secondary_params: dict[int, list[str]],
) -> LoweredKernel:
    """Work-stealing §III-G variant (adaptive-runtime extension).

    Placement becomes an execute-time choice, under two invariants that
    keep every queue single-producer/single-consumer for *any*
    bijective secondary placement:

    * dispatch and STOP travel on per-**core** ``CTL`` channels
      ``(0 -> s, ctl)`` — whichever fiber core ``s`` runs, exactly one
      core consumes that channel;
    * all data stays on per-**fiber** GPR/FPR channels keyed by fiber
      pids (``0 -> p`` arguments, body transfers, ``p -> 0`` copy-out
      and done token) — fiber ``p`` runs on exactly one core, so each
      fiber-keyed queue has exactly one consumer and one producer.

    Every secondary core carries the full fiber table ``[driver, F_1,
    .., F_k]``; the primary enqueues the function-table index held in
    its preloaded ``__fib<s>`` register (identity placement unless the
    loader overrides it — see :meth:`LoweredKernel.dispatch_preload`).
    """
    primary = plan.primary_pid
    secondaries = sorted(
        sched.pid for sched in plan.schedules if sched.pid != primary
    )
    fiber_table = {p: 1 + rank for rank, p in enumerate(secondaries)}
    dispatch_regs = {s: f"__fib{s}" for s in secondaries}
    sched_by_pid = {sched.pid: sched for sched in plan.schedules}

    programs: list[Program] = [None] * n_parts  # type: ignore[list-item]

    fe = _FnEmitter("main", primary)
    for s in secondaries:
        cq = QueueId(primary, s, VClass.CTL)
        fe.emit(op="enq", queue=cq, a=dispatch_regs[s])
    for p in secondaries:
        gq = QueueId(primary, p, VClass.GPR)
        fe.emit(op="enq", queue=gq, a=loop.trip)
        for pname in secondary_params[p]:
            vc = param_dtype[pname].vclass
            fe.emit(op="enq", queue=QueueId(primary, p, vc), a=pname)
    _emit_loop(fe, plan, sched_by_pid[primary])
    for p in secondaries:
        for name in sorted(loop.live_out):
            if liveout_owner[name] == p:
                vc = _liveout_vclass(plan, name, param_dtype)
                fe.emit(op="deq", queue=QueueId(p, primary, vc), dst=name)
        fe.emit(op="deq", queue=QueueId(p, primary, VClass.GPR),
                dst=f"__done{p}")
    for s in secondaries:
        fe.emit(op="enq", queue=QueueId(primary, s, VClass.CTL), a=Imm(STOP))
    fe.emit(op="halt")
    programs[primary] = Program(f"core{primary}", [fe.build()], entry=0)

    for s in secondaries:
        drv = _FnEmitter("driver", s)
        top = drv.fresh_label("Ldrv")
        done = drv.fresh_label("Ldone")
        cq_in = QueueId(primary, s, VClass.CTL)
        drv.emit(op="lab", label=top)
        drv.emit(op="deq", queue=cq_in, dst="__fn")
        drv.emit(op="bin", fn="eq", dst="__stop", a="__fn", b=Imm(STOP))
        drv.emit(op="tjp", a="__stop", label=done)
        drv.emit(op="callr", a="__fn")
        drv.emit(op="jp", label=top)
        drv.emit(op="lab", label=done)
        drv.emit(op="halt")

        fns = [drv.build()]
        for p in secondaries:
            fn = _FnEmitter(f"F{p}", p)
            fn.emit(op="deq", queue=QueueId(primary, p, VClass.GPR),
                    dst=loop.trip)
            for pname in secondary_params[p]:
                vc = param_dtype[pname].vclass
                fn.emit(op="deq", queue=QueueId(primary, p, vc), dst=pname)
            _emit_loop(fn, plan, sched_by_pid[p])
            for name in sorted(loop.live_out):
                if liveout_owner[name] == p:
                    vc = _liveout_vclass(plan, name, param_dtype)
                    fn.emit(op="enq", queue=QueueId(p, primary, vc), a=name)
            fn.emit(op="enq", queue=QueueId(p, primary, VClass.GPR), a=Imm(1))
            fn.emit(op="ret")
            fns.append(fn.build())
        programs[s] = Program(f"core{s}", fns, entry=0)

    primary_params = sorted({p.name for p in loop.params})
    return LoweredKernel(
        plan=plan,
        programs=programs,
        primary_params=primary_params,
        secondary_params=secondary_params,
        liveout_owner=liveout_owner,
        runtime_mode="stealing",
        fiber_table=fiber_table,
        dispatch_regs=dispatch_regs,
    )


def _liveout_vclass(plan: ParallelPlan, name: str, param_dtype) -> VClass:
    for st in plan.body.stmts:
        if st.target == name:
            return st.dtype.vclass
    if name in param_dtype:
        return param_dtype[name].vclass
    raise LowerError(f"unknown live-out {name!r}")
