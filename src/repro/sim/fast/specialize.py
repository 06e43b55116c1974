"""Specialize lowered Programs into compiled per-core Python closures.

The reference :class:`repro.sim.core.Core` interprets ISA dicts one
instruction per Python dispatch: every cycle pays operand decoding,
register-dict traffic and a chain of opcode string comparisons.  This
module removes all of it ahead of time, the same way the paper keeps
loop state in registers to make the dispatch cheap (SNIPPETS.md
Snippet 1, applied to the interpreter loop):

* each :class:`~repro.isa.program.Program` is translated **once** into
  Python source for a *generator* that simulates the whole core —
  instruction decode hoisted out of the cycle loop, operands bound
  into locals, per-op latencies folded into factory-bound constants
  and coalesced per straight-line segment;
* registers live in the generator frame as Python locals for the
  entire run (synced in once at the first slice, out once at halt);
  suspension points — slice budget, blocked queues — are ``yield``
  sites, so resuming a core is one ``generator.send`` instead of a
  dict round-trip (undefined-register reads surface as
  :class:`~repro.sim.core.SimError`, exactly like the reference);
* control flow becomes a block-dispatch loop: basic blocks start at
  function entries, jump targets, queue instructions (they double as
  suspend/resume points for the conservative dataflow replay) and
  call-return sites.

Semantics are *bit-identical* to the reference core: same values, same
simulated timestamps, same stall attribution, same failure modes.  The
only intentional difference is processing granularity — the slice
budget is checked at block boundaries instead of per instruction, so a
slice may overshoot by at most one straight-line block.  Simulated
time is processing-order independent by design (see
:mod:`repro.sim.machine`), so results are unaffected; the one
processing-order *statistic* (``QueueStat.max_outstanding``) is
already slice-budget-dependent in the reference and is excluded from
the differential contract.

Generated source is content-addressed: cached in-process by program
digest and persisted in the result store (record kind ``"src"``)
alongside compile artifacts, so a warm store performs zero fast-path
compilations.
"""

from __future__ import annotations

import math

from .. import core as _core_mod
from ... import ops as _ops
from ..core import Core, SimError, _Blocked
from ..memory import MemoryFault
from ...isa.instructions import Imm, QueueId
from ...isa.program import Program

#: bump when the generated code changes shape — invalidates every
#: cached ``src`` record without touching run/seq records.
CODEGEN_VERSION = 2

#: blocks per chunk in the two-level dispatch (keeps the comparison
#: chain short for programs with many blocks).
_DISPATCH_CHUNK = 8

_UNSET = object()

#: session counters: ``codegen`` counts actual source generations,
#: ``mem_hit`` in-process runner-cache hits, ``disk_hit`` store hits,
#: ``fallback`` specialized-mode machines that kept the reference core
#: because an obs bus, race detector or controller was attached.
_COUNTERS = {"codegen": 0, "mem_hit": 0, "disk_hit": 0, "fallback": 0}

#: in-process cache: program source digest -> make_runner factory.
_RUNNERS: dict[str, object] = {}


def counters() -> dict[str, int]:
    """Snapshot of the specialization counters."""
    return dict(_COUNTERS)


def reset_counters() -> None:
    for k in _COUNTERS:
        _COUNTERS[k] = 0


def count_fallback() -> None:
    """Record one specialized-mode machine left on the reference core."""
    _COUNTERS["fallback"] += 1


def clear_runner_cache() -> None:
    """Drop the in-process factory cache (tests simulate cold starts)."""
    _RUNNERS.clear()


def source_key(program: Program) -> str:
    """Content address of a program's generated source.

    Memoized on the program object — programs are immutable after
    lowering, and hashing the full dump on every core construction
    would dominate short simulations.
    """
    key = getattr(program, "_specialize_key", None)
    if key is None:
        from ...store.keys import SCHEMA_VERSION, stable_digest

        key = stable_digest(
            {
                "schema": SCHEMA_VERSION,
                "kind": "src",
                "codegen": CODEGEN_VERSION,
                "program": program.dump(),
            }
        )
        program._specialize_key = key
    return key


# -- code generation ----------------------------------------------------


def _queue_ids(program: Program) -> list[QueueId]:
    """Queue ids in first-appearance order (deterministic, so a source
    loaded from the store binds the same ``_QIDS`` indices)."""
    out: list[QueueId] = []
    seen = set()
    for fn in program.functions:
        for ins in fn.instrs:
            if ins.queue is not None and ins.queue not in seen:
                seen.add(ins.queue)
                out.append(ins.queue)
    return out


class _Gen:
    """Single-use source generator for one program."""

    def __init__(self, program: Program):
        self.program = program
        self.lines: list[str] = []
        self.regs: dict[str, str] = {}          # register name -> local
        self.arrays: dict[str, int] = {}        # array name -> index
        self.lats: dict[tuple, str] = {}        # latency key -> local
        self.lat_exprs: dict[str, str] = {}     # local -> factory expr
        self.combos: dict[tuple, str] = {}      # coalesced-cost -> local
        self.combo_exprs: dict[str, str] = {}
        self.qids = {q: i for i, q in enumerate(_queue_ids(program))}
        # pending straight-line costs, coalesced until the next point
        # that observes _t (queue op) or executed (block exit / yield)
        self._pend: dict[str, int] = {}
        self._pend_n = 0

    # -- small helpers --------------------------------------------------

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def reg(self, name: str) -> str:
        local = self.regs.get(name)
        if local is None:
            local = f"_r{len(self.regs)}"
            self.regs[name] = local
        return local

    def val(self, x) -> str:
        """Render an operand (register local or immediate literal)."""
        if isinstance(x, Imm):
            v = x.value
            if isinstance(v, float):
                if v != v:
                    return "_NAN"
                if v == math.inf:
                    return "_INF"
                if v == -math.inf:
                    return "(-_INF)"
            return f"({v!r})"
        return self.reg(x)

    def arr(self, name: str) -> int:
        idx = self.arrays.get(name)
        if idx is None:
            idx = len(self.arrays)
            self.arrays[name] = idx
        return idx

    def lat(self, key: tuple, expr: str) -> str:
        local = self.lats.get(key)
        if local is None:
            local = f"_c{len(self.lats)}"
            self.lats[key] = local
            self.lat_exprs[local] = expr
        return local

    def lat_bin(self, fn: str, is_float: bool) -> str:
        table = "float_bin" if is_float else "int_bin"
        return self.lat(("bin", fn, is_float), f"_lat.{table}[{fn!r}]")

    def lat_attr(self, attr: str) -> str:
        return self.lat(("attr", attr), f"_lat.{attr}")

    # -- cost coalescing ------------------------------------------------

    def cost(self, lat_local: str | None) -> None:
        """Account one instruction (optionally with a constant latency)
        into the pending straight-line segment."""
        if lat_local is not None:
            self._pend[lat_local] = self._pend.get(lat_local, 0) + 1
        self._pend_n += 1

    def flush(self, d: int) -> None:
        """Emit the pending segment costs.  Must precede anything that
        reads ``_t`` (queue timing) or ``executed`` (budget check at
        loop top, yields), i.e. every exit from straight-line code."""
        if self._pend:
            key = tuple(sorted(self._pend.items()))
            if len(key) == 1 and key[0][1] == 1:
                expr = key[0][0]
            else:
                expr = self.combos.get(key)
                if expr is None:
                    expr = f"_k{len(self.combos)}"
                    self.combos[key] = expr
                    self.combo_exprs[expr] = " + ".join(
                        f"{n} * {c}" if n > 1 else c for c, n in key
                    )
            self.emit(d, f"_t += {expr}")
            self._pend = {}
        if self._pend_n:
            self.emit(d, f"executed += {self._pend_n}")
            self._pend_n = 0

    def yield_site(self, d: int) -> None:
        """Emit the suspend protocol: flush stats/time, yield the slice
        count, reset per-slice state on resume."""
        e = self.emit
        e(d, "_tot += executed")
        e(d, "_st.instrs = _tot")
        e(d, "_st.queue_stall = _qstall")
        e(d, "_st.stall_full = _sfull")
        e(d, "_st.stall_empty = _sempty")
        e(d, "_st.stall_transfer = _stransfer")
        e(d, "_st.mem = _nmem + 0.0")
        e(d, "_st.enq_ops = _nenq")
        e(d, "_st.deq_ops = _ndeq")
        e(d, "_core.time = _t")
        e(d, "budget = yield executed")
        e(d, "executed = 0")
        e(d, "_core.blocked = None")

    # -- block structure ------------------------------------------------

    def leaders(self) -> dict[tuple[int, int], int]:
        """Map (function, pc) of every block entry to its block id."""
        entries: list[tuple[int, int]] = []
        for fidx, fn in enumerate(self.program.functions):
            pts = {0, len(fn.instrs)}
            for pc, ins in enumerate(fn.instrs):
                if ins.op in ("enq", "deq"):
                    pts.add(pc)
                elif ins.op == "callr":
                    pts.add(pc + 1)
                elif ins.op in ("jp", "fjp", "tjp"):
                    pts.add(fn.labels[ins.label])
            entries.extend((fidx, pc) for pc in sorted(pts))
        return {key: i for i, key in enumerate(entries)}

    # -- instruction bodies ---------------------------------------------

    def gen_bin(self, d: int, ins) -> None:
        a, b, dst = self.val(ins.a), self.val(ins.b), self.reg(ins.dst)
        fn, isf = ins.fn, ins.is_float
        if fn in ("add", "sub", "mul"):
            op = {"add": "+", "sub": "-", "mul": "*"}[fn]
            expr = f"{a} {op} {b}"
            expr = f"float({expr})" if isf else f"int({expr})"
        elif fn == "div":
            expr = (f"_FDIV(float({a}), float({b}))" if isf
                    else f"_IDIV(int({a}), int({b}))")
        elif fn == "mod":
            expr = (f"(_FMOD({a}, {b}) if {b} != 0.0 else _NAN)" if isf
                    else f"_IMOD(int({a}), int({b}))")
        elif fn in ("min", "max"):
            expr = f"{fn}({a}, {b})"
            expr = f"float({expr})" if isf else f"int({expr})"
        elif fn in ("lt", "le", "gt", "ge", "eq", "ne"):
            op = {"lt": "<", "le": "<=", "gt": ">",
                  "ge": ">=", "eq": "==", "ne": "!="}[fn]
            expr = f"int({a} {op} {b})"
        elif fn == "and":
            expr = f"int(bool({a}) and bool({b}))"
        elif fn == "or":
            expr = f"int(bool({a}) or bool({b}))"
        elif fn == "xor":
            expr = f"int(bool({a}) != bool({b}))"
        elif fn == "shl":
            expr = f"int({a}) << (int({b}) & 63)"
        elif fn == "shr":
            expr = f"int({a}) >> (int({b}) & 63)"
        else:  # pragma: no cover - lowering never emits others
            raise ValueError(f"unknown binop {fn}")
        self.emit(d, f"{dst} = {expr}")
        self.cost(self.lat_bin(fn, isf))

    def gen_instr(self, d: int, ins) -> None:
        """Emit one non-control, non-queue instruction."""
        op = ins.op
        if op == "bin":
            self.gen_bin(d, ins)
        elif op == "load":
            k = self.arr(ins.array)
            self.emit(d, f"_i = int({self.val(ins.a)})")
            self.emit(d, f"if _ab{k} is None:")
            self.emit(d + 1, f"raise KeyError({ins.array!r})")
            self.emit(d, f"if not 0 <= _i < _al{k}:")
            self.emit(d + 1,
                      f"raise _MemoryFault('load {ins.array}[%d] out of "
                      f"bounds (len %d)' % (_i, _al{k}))")
            self.emit(d, f"_v = _ab{k}[_i]")
            self.emit(d, f"{self.reg(ins.dst)} = float(_v) if _af{k} else int(_v)")
            self.emit(d, f"_t += _cacc({ins.array!r}, _i, _lat)")
            self.emit(d, "_nmem += 1")
            self.cost(None)
        elif op == "store":
            k = self.arr(ins.array)
            self.emit(d, f"_i = int({self.val(ins.a)})")
            self.emit(d, f"if _ab{k} is None:")
            self.emit(d + 1, f"raise KeyError({ins.array!r})")
            self.emit(d, f"if not 0 <= _i < _al{k}:")
            self.emit(d + 1,
                      f"raise _MemoryFault('store {ins.array}[%d] out of "
                      f"bounds (len %d)' % (_i, _al{k}))")
            self.emit(d, f"_ab{k}[_i] = {self.val(ins.b)}")
            self.emit(d, f"_ctouch({ins.array!r}, _i)")
            self.emit(d, "_nmem += 1")
            self.cost(self.lat_attr("store"))
        elif op == "call":
            args = ", ".join(
                self.val(x) for x in (ins.a, ins.b, ins.c) if x is not None
            )
            self.emit(d, f"{self.reg(ins.dst)} = _EC({ins.fn!r}, ({args},))")
            self.cost(self.lat(("call", ins.fn), f"_lat.call[{ins.fn!r}]"))
        elif op == "un":
            a, dst = self.val(ins.a), self.reg(ins.dst)
            if ins.fn == "neg":
                expr = f"float(-{a})" if ins.is_float else f"int(-{a})"
            else:
                expr = f"int(not {a})"
            self.emit(d, f"{dst} = {expr}")
            self.cost(self.lat_attr("unop"))
        elif op == "select":
            a, b, c = self.val(ins.a), self.val(ins.b), self.val(ins.c)
            expr = f"{a} if {c} else {b}"
            if ins.is_float:
                expr = f"float({expr})"
            self.emit(d, f"{self.reg(ins.dst)} = {expr}")
            self.cost(self.lat_attr("select"))
        elif op == "mov":
            self.emit(d, f"{self.reg(ins.dst)} = {self.val(ins.a)}")
            self.cost(self.lat_attr("mov"))
        else:  # pragma: no cover - control ops handled by gen_block
            raise ValueError(f"unexpected op {op}")

    def gen_queue_op(self, d: int, fidx: int, pc: int, ins) -> None:
        # queue timing reads _t, so the preceding segment must land first
        self.flush(d)
        k = self.qids[ins.queue]
        self.emit(d, f"_q = _qs[{k}]")
        self.emit(d, "if _q is None:")
        self.emit(d + 1, f"_q = _qs[{k}] = _queues(_QIDS[{k}])")
        # fast paths inline the HwQueue arithmetic (slot/entry checks,
        # timing, push/pop bookkeeping) verbatim; the method-call slow
        # path survives only for blocked waits and fault injection.
        if ins.op == "enq":
            self.emit(d, "_m = _q.n_enq")
            self.emit(d, "if _m - _q.depth >= _q.n_deq:")
            self.emit(d + 1, "while True:")
            self.emit(d + 2, "_w = _q.slot_blocker()")
            self.emit(d + 2, "if _w is None:")
            self.emit(d + 3, "break")
            self.emit(d + 2, '_core.blocked = _Blocked("slot", _q, _w, _t)')
            self.emit(d + 2, f"_core.fn = {fidx}; _core.pc = {pc}")
            self.yield_site(d + 2)
            self.emit(d + 1, "_m = _q.n_enq")
            self.emit(d, "_m -= _q.depth")
            self.emit(d, "_w = _q.deq_times[_m] - _t if _m >= 0 else 0.0")
            self.emit(d, "if _w < 0.0:")
            self.emit(d + 1, "_w = 0.0")
            self.emit(d, f"_comp = _t + _w + {self.lat_attr('enqueue')}")
            self.emit(d, "_qstall += _w")
            self.emit(d, "_sfull += _w")
            self.emit(d, "_q.stall_full += _w")
            self.emit(d, "if _q.injector is None:")
            self.emit(d + 1, f"_q.values.append({self.val(ins.a)})")
            self.emit(d + 1, "_q.ready_times.append(_comp + _q.transfer_latency)")
            self.emit(d + 1, "_q.n_enq += 1")
            self.emit(d + 1, "_o = _q.n_enq - _q.n_deq")
            self.emit(d + 1, "if _o > _q.max_outstanding:")
            self.emit(d + 2, "_q.max_outstanding = _o")
            self.emit(d, "else:")
            self.emit(d + 1,
                      f"_q.push({self.val(ins.a)}, _comp + _q.transfer_latency)")
            self.emit(d, "_t = _comp")
            self.emit(d, "_nenq += 1")
        else:  # deq
            self.emit(d, "_m = _q.n_deq")
            self.emit(d, "if _m >= _q.n_enq:")
            self.emit(d + 1, "while True:")
            self.emit(d + 2, "_w = _q.entry_blocker()")
            self.emit(d + 2, "if _w is None:")
            self.emit(d + 3, "break")
            self.emit(d + 2, '_core.blocked = _Blocked("entry", _q, _w, _t)')
            self.emit(d + 2, f"_core.fn = {fidx}; _core.pc = {pc}")
            self.yield_site(d + 2)
            self.emit(d + 1, "_m = _q.n_deq")
            self.emit(d, "_rdy = _q.ready_times[_m]")
            self.emit(d, "_w = _rdy - _t")
            self.emit(d, "if _w < 0.0:")
            self.emit(d + 1, "_w = 0.0")
            self.emit(d, f"_comp = _t + _w + {self.lat_attr('dequeue')}")
            self.emit(d, "_qstall += _w")
            self.emit(d, "_q.stall_empty += _w")
            self.emit(d, "if _w > 0.0:")
            self.emit(d + 1, "_e = _rdy - _q.transfer_latency - _t")
            self.emit(d + 1, "if _e < 0.0:")
            self.emit(d + 2, "_e = 0.0")
            self.emit(d + 1, "_sempty += _e")
            self.emit(d + 1, "_stransfer += _w - _e")
            self.emit(d, f"{self.reg(ins.dst)} = _q.values[_m]")
            self.emit(d, "_q.deq_times.append(_comp)")
            self.emit(d, "_q.n_deq = _m + 1")
            self.emit(d, "_t = _comp")
            self.emit(d, "_ndeq += 1")
        self.emit(d, "executed += 1")

    def goto(self, d: int, block: int) -> None:
        self.flush(d)
        self.emit(d, f"_b = {block}")
        self.emit(d, "continue")

    def gen_block(self, d: int, fidx: int, start: int,
                  entry: dict[tuple[int, int], int]) -> None:
        fn = self.program.functions[fidx]
        code = fn.instrs
        if start == len(code):
            self.emit(d, f"raise _SimError('core %d: fell off end of "
                         f"{fn.name}' % _cid)")
            return
        pc = start
        while True:
            if pc != start and (fidx, pc) in entry:
                self.goto(d, entry[(fidx, pc)])
                return
            ins = code[pc]
            op = ins.op
            if op == "lab":
                pc += 1  # zero-cost pseudo-instruction
                if pc == len(code):
                    self.goto(d, entry[(fidx, pc)])
                    return
                continue
            if op == "halt":
                self.flush(d)
                self.emit(d, "executed += 1")
                self.emit(d, "_core.halted = True")
                self.emit(d, "_tot += executed")
                self.emit(d, "_st.instrs = _tot")
                self.emit(d, "_st.queue_stall = _qstall")
                self.emit(d, "_st.stall_full = _sfull")
                self.emit(d, "_st.stall_empty = _sempty")
                self.emit(d, "_st.stall_transfer = _stransfer")
                self.emit(d, "_st.mem = _nmem + 0.0")
                self.emit(d, "_st.enq_ops = _nenq")
                self.emit(d, "_st.deq_ops = _ndeq")
                self.emit(d, "_core.time = _t")
                self.emit(d, "_loc = locals()")
                self.emit(d, "for _rn, _rl in _SYNC:")
                self.emit(d + 1, "if _rl in _loc:")
                self.emit(d + 2, "_regs[_rn] = _loc[_rl]")
                self.emit(d, "budget = yield executed")
                self.emit(d, "while True:")
                self.emit(d + 1, "budget = yield 0")
                return
            if op == "jp":
                self.cost(self.lat_attr("branch"))
                self.goto(d, entry[(fidx, fn.labels[ins.label])])
                return
            if op in ("fjp", "tjp"):
                cond = self.val(ins.a)
                self.cost(self.lat_attr("branch"))
                self.flush(d)
                taken = f"not {cond}" if op == "fjp" else cond
                self.emit(d, f"if {taken}:")
                self.emit(d + 1, f"_b = {entry[(fidx, fn.labels[ins.label])]}")
                self.emit(d + 1, "continue")
            elif op == "callr":
                tgt = self.val(ins.a)
                nfunc = len(self.program.functions)
                self.cost(self.lat_attr("branch"))
                self.flush(d)
                self.emit(d, f"_tgt = int({tgt})")
                self.emit(d, f"if not 0 <= _tgt < {nfunc}:")
                self.emit(d + 1, "raise _SimError('core %d: bad function "
                                 "index %d' % (_cid, _tgt))")
                self.emit(d, f"_frames.append(({fidx}, {pc + 1}))")
                self.emit(d, "_b = _FENTRY[_tgt]")
                self.emit(d, "continue")
                return
            elif op == "ret":
                self.cost(self.lat_attr("branch"))
                self.flush(d)
                self.emit(d, "if not _frames:")
                self.emit(d + 1, "raise _SimError('core %d: ret with empty "
                                 "stack' % _cid)")
                self.emit(d, "_rf, _rp = _frames.pop()")
                self.emit(d, "_b = _ENTRY[(_rf, _rp)]")
                self.emit(d, "continue")
                return
            elif op in ("enq", "deq"):
                # pc == start here (queue ops are always block leaders)
                self.gen_queue_op(d, fidx, pc, ins)
            else:
                self.gen_instr(d, ins)
            pc += 1
            if pc == len(code):
                self.goto(d, entry[(fidx, pc)])
                return

    # -- whole module ---------------------------------------------------

    def gen_dispatch(self, d: int, blocks: list[tuple[int, int]],
                     entry: dict[tuple[int, int], int]) -> None:
        """Two-level block dispatch: chunked range tests, then direct
        comparisons within the chunk."""
        n = len(blocks)
        chunks = [
            (lo, min(lo + _DISPATCH_CHUNK, n))
            for lo in range(0, n, _DISPATCH_CHUNK)
        ]
        nested = len(chunks) > 1
        for ci, (lo, hi) in enumerate(chunks):
            bd = d
            if nested:
                kw = "if" if ci == 0 else "elif"
                cond = f"_b < {hi}" if ci < len(chunks) - 1 else "True"
                self.emit(d, f"{kw} {cond}:")
                bd = d + 1
            for i in range(lo, hi):
                kw = "if" if i == lo else "elif"
                self.emit(bd, f"{kw} _b == {i}:")
                fidx, pc = blocks[i]
                self.gen_block(bd + 1, fidx, pc, entry)
            self.emit(bd, "else:")
            self.emit(bd + 1,
                      "raise _SimError('core %d: bad block %d' % (_cid, _b))")

    def generate(self) -> str:
        entry = self.leaders()
        blocks = sorted(entry, key=entry.get)
        body: list[str] = []
        saved, self.lines = self.lines, body
        self.gen_dispatch(4, blocks, entry)
        self.lines = saved
        # after gen: regs / arrays / lats / combos are complete
        e = self.emit
        fentry = tuple(entry[(f, 0)] for f in range(len(self.program.functions)))
        bfn = tuple(f for f, _ in blocks)
        bpc = tuple(p for _, p in blocks)
        e(0, f"# specialized from program {self.program.name!r} "
             f"(codegen v{CODEGEN_VERSION})")
        e(0, f"_ENTRY = {entry!r}")
        e(0, f"_BFN = {bfn!r}")
        e(0, f"_BPC = {bpc!r}")
        e(0, f"_FENTRY = {fentry!r}")
        e(0, f"_SYNC = {list(self.regs.items())!r}")
        e(0, "")
        e(0, "def make_runner(core):")
        e(1, "_core = core")
        e(1, "_cid = core.cid")
        e(1, "_lat = core.lat")
        e(1, "_cacc = core.cache.access")
        e(1, "_ctouch = core.cache.touch")
        e(1, "_queues = core.queues")
        e(1, "_arrays = core.memory.arrays")
        e(1, "_isf = core.memory.is_float")
        e(1, "_st = core.stats")
        for name, k in self.arrays.items():
            e(1, f"_ab{k} = _arrays.get({name!r})")
            e(1, f"_af{k} = _isf.get({name!r}, False)")
            e(1, f"_al{k} = 0 if _ab{k} is None else len(_ab{k})")
        for local, expr in self.lat_exprs.items():
            e(1, f"{local} = {expr}")
        for local, expr in self.combo_exprs.items():
            e(1, f"{local} = {expr}")
        e(1, f"_qs = [None] * {max(1, len(self.qids))}")
        e(1, "def _run():")
        e(2, "budget = yield  # primed before preload; state loads below")
        e(2, "_regs = _core.regs")
        e(2, "_frames = _core.frames")
        for name, local in self.regs.items():
            e(2, f"if {name!r} in _regs: {local} = _regs[{name!r}]")
        e(2, "_t = _core.time")
        e(2, "_b = _ENTRY[(_core.fn, _core.pc)]")
        e(2, "executed = 0")
        e(2, "_tot = 0")
        e(2, "_qstall = 0.0; _sfull = 0.0; _sempty = 0.0; _stransfer = 0.0")
        e(2, "_nmem = 0; _nenq = 0; _ndeq = 0")
        e(2, "_core.blocked = None")
        e(2, "try:")
        e(3, "while True:")
        e(4, "if executed >= budget:")
        e(5, "_core.fn = _BFN[_b]; _core.pc = _BPC[_b]")
        self.yield_site(5)
        self.lines.extend(body)
        e(2, "except UnboundLocalError as _exc:")
        e(3, "raise _SimError('core %d: read of undefined register (%s)'")
        e(3, "                % (_cid, _exc)) from None")
        e(1, "return _run")
        return "\n".join(self.lines) + "\n"


def generate_source(program: Program) -> str:
    """Translate one program to specialized ``make_runner`` source."""
    return _Gen(program).generate()


# -- factory cache (memory + content-addressed store) -------------------


def _namespace(program: Program) -> dict:
    return {
        "_Blocked": _Blocked,
        "_SimError": SimError,
        "_MemoryFault": MemoryFault,
        "_EC": _ops.eval_call,
        "_FDIV": _ops.fdiv,
        "_IDIV": _ops.idiv,
        "_IMOD": _ops.imod,
        "_FMOD": math.fmod,
        "_NAN": float("nan"),
        "_INF": float("inf"),
        "_QIDS": _queue_ids(program),
    }


def runner_factory(program: Program, store=_UNSET):
    """``make_runner`` factory for ``program``: generate or recall.

    Lookup order: in-process cache by source digest, then the
    content-addressed result store (kind ``"src"``), then codegen (and
    persist).  ``store=None`` disables the persistent layer.
    """
    digest = source_key(program)
    factory = _RUNNERS.get(digest)
    if factory is not None:
        _COUNTERS["mem_hit"] += 1
        return factory
    if store is _UNSET:
        from ...store.disk import default_store

        store = default_store()
    src = None
    if store is not None:
        src = store.get_src(digest)
        if src is not None:
            _COUNTERS["disk_hit"] += 1
    if src is None:
        src = generate_source(program)
        _COUNTERS["codegen"] += 1
        if store is not None:
            try:
                store.put_src(digest, program.name, src)
            except OSError:
                pass  # a full disk must not break simulation
    ns = _namespace(program)
    exec(compile(src, f"<specialized:{digest[:12]}>", "exec"), ns)
    factory = ns["make_runner"]
    _RUNNERS[digest] = factory
    return factory


class SpecializedCore(Core):
    """Drop-in :class:`~repro.sim.core.Core` running a compiled generator.

    Same constructor, attributes (``fn``/``pc``/``time``/``blocked``/
    ``stats``...) and ``run_slice`` contract as the reference core —
    the machine's scheduling, deadlock diagnostics and resume logic
    work unchanged.  ``run_slice`` *is* the generator's ``send``:
    registers persist in the generator frame between slices and are
    written back to ``regs`` at halt.  Used only on the
    observation-free hot path: the machine falls back to the reference
    core when an event bus, race detector or runtime controller is
    attached (those hooks need the per-instruction interpreter), and
    counts each such machine in ``counters()["fallback"]``.
    """

    def __init__(self, cid, program, lat, cache, memory, queues) -> None:
        super().__init__(cid, program, lat, cache, memory, queues)
        gen = runner_factory(program)(self)()
        gen.send(None)  # prime to the first yield; preload comes later
        self._gen = gen
        self.run_slice = gen.send  # shadows the method on this instance


# keep a reference so `_core` naming in generated code can't shadow the
# module accidentally (and for introspection/debugging).
_REFERENCE_CORE_MODULE = _core_mod
