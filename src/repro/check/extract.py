"""Structured decompilation of lowered per-core programs.

The static verifier does not re-run the compiler's bookkeeping — it
reads the *artifact*: the per-core :class:`~repro.isa.program.Program`
objects that the machine will actually execute.  This module recovers
just enough structure from the linear instruction streams to reason
about the queue protocol:

* the single steady-state loop of each partition (``lab Ltop`` ..
  backward ``jp``), splitting every instruction into a *region* —
  ``pre`` (dispatch / argument delivery, executed once before the
  loop), ``body`` (executed once per iteration), ``post`` (copy-out,
  barrier tokens, STOP dispatch);
* the replicated-predicate guards (§III-E): forward ``fjp``/``tjp``
  branches to a ``lab`` inside the same region open a guard literal
  ``(cond, want)`` that closes at the label;
* the §III-G driver protocol on secondary cores: the driver's dequeue
  of the function index and the dispatched ``F`` function are inlined
  into one *effective* instruction sequence, so a secondary core's
  summary reads like a straight-line guarded program too.

The output is one :class:`CoreSummary` per core: an ordered list of
:class:`GInstr` (every executed instruction with its region and guard
chain) plus structural ``problems`` for anything that does not match
the shapes the lowerer can emit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.types import VClass
from ..isa.instructions import Imm, Instr, QueueId
from ..isa.program import Function, Program

__all__ = ["GInstr", "CoreSummary", "summarize_program", "summarize_all"]

#: function-pointer value the driver interprets as "terminate" (§III-G).
STOP = -1

#: guard literal: (condition register, value it must hold).
Literal = tuple[str, bool]

REGIONS = ("pre", "body", "post")


@dataclass(frozen=True)
class GInstr:
    """One effective (dynamic) instruction with recovered structure."""

    instr: Instr
    fn: int                      # function index within the program
    idx: int                     # instruction index within the function
    region: str                  # 'pre' | 'body' | 'post'
    pred: tuple[Literal, ...]    # guard chain, outermost first
    pos: int                     # position in the effective sequence

    @property
    def pred_key(self) -> frozenset:
        return frozenset(self.pred)

    @property
    def is_queue_op(self) -> bool:
        return self.instr.op in ("enq", "deq")

    @property
    def queue(self) -> QueueId | None:
        return self.instr.queue

    @property
    def tag(self) -> str | None:
        """The value name this queue op carries, when it names one."""
        ins = self.instr
        if ins.op == "deq":
            return ins.dst
        if ins.op == "enq":
            return ins.a if isinstance(ins.a, str) else None
        return None

    def describe(self) -> str:
        ins = self.instr
        where = f"core?{'' if self.fn < 0 else ''}fn{self.fn}:{self.idx}"
        guard = ""
        if self.pred:
            guard = " if " + " & ".join(
                f"{c}{'' if w else '=0'}" for c, w in self.pred
            )
        return f"[{self.region}] {ins!r}{guard} ({where})"


@dataclass
class CoreSummary:
    """Recovered structure of one core's program.

    ``ops`` is complete when the summary is built; nothing appends to
    it later, so its queue ops are listed and bucketed by (queue, kind)
    once, here, instead of on every lookup.
    """

    core: int
    ops: list[GInstr] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    is_driver: bool = False
    dispatch_fn: int | None = None   # function the driver dispatches
    #: the queue ops of ``ops``, in order.
    queue_ops: list[GInstr] = field(init=False, repr=False, compare=False)
    _buckets: dict[tuple[QueueId | None, str], list[GInstr]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.queue_ops = [g for g in self.ops if g.is_queue_op]
        self._buckets = {}
        for g in self.queue_ops:
            self._buckets.setdefault((g.queue, g.instr.op), []).append(g)

    def queue_ops_of(self, qid: QueueId, kind: str) -> list[GInstr]:
        """The ``kind`` (``enq``/``deq``) ops on ``qid``, in order."""
        return list(self._buckets.get((qid, kind), ()))


# ----------------------------------------------------------------------
# Linear scanning with guard recovery
# ----------------------------------------------------------------------

class _Seq:
    """Accumulates the effective instruction sequence for one core."""

    def __init__(self, core: int):
        self.core = core
        self.ops: list[GInstr] = []
        self.problems: list[str] = []

    def add(self, instr: Instr, fn: int, idx: int, region: str,
            pred: tuple[Literal, ...]) -> None:
        self.ops.append(GInstr(
            instr=instr, fn=fn, idx=idx, region=region, pred=pred,
            pos=len(self.ops),
        ))


def _scan_region(
    seq: _Seq,
    func: Function,
    fn_idx: int,
    lo: int,
    hi: int,
    region: str,
) -> None:
    """Scan ``func.instrs[lo:hi]`` recovering guard chains.

    A forward ``fjp``/``tjp`` whose target label lies inside ``[lo,
    hi)`` opens a guard literal until its label; a branch that leaves
    the region (the loop-exit test) is recorded as a plain
    condition-reading instruction.
    """
    stack: list[tuple[str, Literal]] = []  # (closing label, literal)
    for i in range(lo, hi):
        ins = func.instrs[i]
        if ins.op == "lab":
            while stack and stack[-1][0] == ins.label:
                stack.pop()
            continue
        pred = tuple(lit for _, lit in stack)
        if ins.op in ("fjp", "tjp"):
            target = func.labels.get(ins.label)
            if target is None:  # unreachable: Function validates labels
                seq.problems.append(
                    f"fn{fn_idx}:{i}: branch to unknown label {ins.label!r}"
                )
                continue
            if lo <= target < hi and target > i:
                # §III-E guard: fjp skips when cond is false, so the
                # guarded run executes when cond is true (and vice versa).
                seq.add(ins, fn_idx, i, region, pred)
                stack.append((ins.label, (ins.a, ins.op == "fjp")))
            elif target <= i:
                seq.problems.append(
                    f"fn{fn_idx}:{i}: unexpected backward conditional "
                    f"branch {ins!r}"
                )
            else:
                # leaves the region: the loop-exit test
                seq.add(ins, fn_idx, i, region, pred)
            continue
        if ins.op == "jp":
            # the backward loop jump is consumed by segmentation; a
            # forward jp is a shape the lowerer never emits.
            seq.problems.append(
                f"fn{fn_idx}:{i}: unexpected jp inside region {region!r}"
            )
            continue
        seq.add(ins, fn_idx, i, region, pred)
    if stack:
        seq.problems.append(
            f"fn{fn_idx}: guard(s) opened but never closed in "
            f"region {region!r}: {[lbl for lbl, _ in stack]}"
        )


def _find_loop(func: Function) -> tuple[int, int] | None | str:
    """Locate the steady-state loop: the unique backward ``jp``.

    Returns ``(top_idx, jp_idx)`` (indices of ``lab Ltop`` and the
    backward jump), ``None`` when the function is straight-line, or an
    error string when the shape is not one the lowerer emits.
    """
    backward = []
    for i, ins in enumerate(func.instrs):
        if ins.op == "jp":
            target = func.labels.get(ins.label)
            if target is not None and target < i:
                backward.append((target, i))
    if not backward:
        return None
    if len(backward) > 1:
        return f"{len(backward)} backward jumps (expected one loop)"
    return backward[0]


def _scan_function(seq: _Seq, func: Function, fn_idx: int,
                   region_map: tuple[str, str, str] = REGIONS) -> None:
    """Scan a whole function, splitting around its loop (if any)."""
    loop = _find_loop(func)
    if isinstance(loop, str):
        seq.problems.append(f"fn{fn_idx} ({func.name}): {loop}")
        loop = None
    if loop is None:
        _scan_region(seq, func, fn_idx, 0, len(func.instrs), region_map[0])
        return
    top, jp = loop
    _scan_region(seq, func, fn_idx, 0, top, region_map[0])
    _scan_region(seq, func, fn_idx, top + 1, jp, region_map[1])
    _scan_region(seq, func, fn_idx, jp + 1, len(func.instrs), region_map[2])


# ----------------------------------------------------------------------
# Driver protocol (§III-G) linking
# ----------------------------------------------------------------------

def _driver_shape(func: Function) -> tuple[int, int, int, int] | str:
    """Validate the driver loop shape; return key instruction indices
    ``(deq, eqtest, tjp, callr)`` or an error string."""
    deq = eq = tjp = callr = None
    for i, ins in enumerate(func.instrs):
        if ins.op == "deq" and deq is None:
            deq = i
        elif ins.op == "bin" and ins.fn == "eq" and eq is None:
            eq = i
        elif ins.op == "tjp" and tjp is None:
            tjp = i
        elif ins.op == "callr" and callr is None:
            callr = i
    if deq is None or callr is None or eq is None or tjp is None:
        return "driver missing deq/eq/tjp/callr protocol instructions"
    d, e, t, c = func.instrs[deq], func.instrs[eq], func.instrs[tjp], func.instrs[callr]
    if c.a != d.dst:
        return (
            f"driver dispatches register {c.a!r} but dequeues the "
            f"function index into {d.dst!r}"
        )
    if e.a != d.dst or not (isinstance(e.b, Imm) and e.b.value == STOP):
        return "driver STOP test does not compare the dequeued index to STOP"
    if t.a != e.dst:
        return "driver STOP branch does not test the STOP comparison"
    return (deq, eq, tjp, callr)


def _find_dispatch_fn(summaries: list[CoreSummary], core: int,
                      program: Program) -> tuple[int | None, str | None]:
    """Read the function index the primary dispatches to ``core`` from
    the already-summarized main-style cores' pre-region enqueues."""
    fn_imms: list[int] = []
    stop_seen = False
    for s in summaries:
        if s is None or s.is_driver:
            continue
        for g in s.ops:
            ins = g.instr
            if ins.op != "enq" or ins.queue is None:
                continue
            if ins.queue.dst != core or ins.queue.vclass is not VClass.GPR:
                continue
            if not isinstance(ins.a, Imm):
                continue
            v = ins.a.value
            if v == STOP:
                stop_seen = True
            elif g.region == "pre":
                fn_imms.append(int(v))
    if not fn_imms:
        return None, f"core {core}: no function-index dispatch found"
    if len(fn_imms) > 1:
        return None, (
            f"core {core}: {len(fn_imms)} pre-loop function dispatches "
            "(expected one)"
        )
    fn = fn_imms[0]
    if not (0 <= fn < len(program.functions)):
        return None, f"core {core}: dispatched function index {fn} out of range"
    if not stop_seen:
        return fn, f"core {core}: no STOP dispatch found (driver never exits)"
    return fn, None


def _summarize_driver(program: Program, core: int,
                      dispatch_fn: int) -> CoreSummary:
    seq = _Seq(core)
    drv = program.functions[program.entry]
    shape = _driver_shape(drv)
    if isinstance(shape, str):
        seq.problems.append(f"fn{program.entry} ({drv.name}): {shape}")
        # fall back to straight scanning so well-formedness still runs
        for fi, f in enumerate(program.functions):
            _scan_function(seq, f, fi)
        return CoreSummary(core=core, ops=seq.ops, problems=seq.problems,
                           is_driver=True, dispatch_fn=None)
    i_deq, i_eq, i_tjp, i_call = shape
    # First driver pass: dequeue the dispatch index, test, dispatch.
    for i in (i_deq, i_eq, i_tjp, i_call):
        seq.add(drv.instrs[i], program.entry, i, "pre", ())
    # The dispatched function body, with its own pre/body/post regions.
    _scan_function(seq, program.functions[dispatch_fn], dispatch_fn)
    # Second driver pass: dequeue STOP, test, take the exit branch, halt.
    for i in (i_deq, i_eq, i_tjp):
        seq.add(drv.instrs[i], program.entry, i, "post", ())
    halt = next(
        (i for i, ins in enumerate(drv.instrs) if ins.op == "halt"), None
    )
    if halt is None:
        seq.problems.append(f"fn{program.entry} ({drv.name}): driver has no halt")
    else:
        seq.add(drv.instrs[halt], program.entry, halt, "post", ())
    return CoreSummary(core=core, ops=seq.ops, problems=seq.problems,
                       is_driver=True, dispatch_fn=dispatch_fn)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def _is_driver_style(program: Program) -> bool:
    return any(
        ins.op == "callr"
        for ins in program.functions[program.entry].instrs
    )


def summarize_program(program: Program, core: int,
                      dispatch_fn: int | None = None) -> CoreSummary:
    """Summarize a single program (main-style unless ``dispatch_fn``)."""
    if dispatch_fn is not None:
        return _summarize_driver(program, core, dispatch_fn)
    seq = _Seq(core)
    _scan_function(seq, program.functions[program.entry], program.entry)
    return CoreSummary(core=core, ops=seq.ops, problems=seq.problems)


def summarize_all(
    programs: list[Program],
    dispatch: dict[int, int] | None = None,
) -> list[CoreSummary]:
    """Summarize every core, resolving §III-G driver dispatch from the
    main-style cores' enqueue streams.

    ``dispatch`` explicitly maps driver core id -> function-table index.
    Stealing-mode kernels need it: their dispatch index travels in a
    preloaded ``__fib<core>`` register, so it cannot be read off the
    instruction stream the way the static lowering's ``Imm`` can.
    """
    summaries: list[CoreSummary | None] = [None] * len(programs)
    drivers: list[int] = []
    for cid, prog in enumerate(programs):
        if _is_driver_style(prog):
            drivers.append(cid)
        else:
            summaries[cid] = summarize_program(prog, cid)
    for cid in drivers:
        if dispatch is not None and cid in dispatch:
            fn, problem = dispatch[cid], None
            if not (0 <= fn < len(programs[cid].functions)):
                fn, problem = None, (
                    f"core {cid}: dispatched function index "
                    f"{dispatch[cid]} out of range"
                )
        else:
            fn, problem = _find_dispatch_fn(summaries, cid, programs[cid])
        if fn is None:
            s = CoreSummary(core=cid, is_driver=True)
            s.problems.append(problem)
            summaries[cid] = s
            continue
        s = _summarize_driver(programs[cid], cid, fn)
        if problem:
            s.problems.append(problem)
        summaries[cid] = s
    return summaries  # type: ignore[return-value]
