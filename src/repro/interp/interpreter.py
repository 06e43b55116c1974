"""Reference interpreter for structured loops (sequential semantics).

Each call compiles the :class:`~repro.ir.stmts.Loop` into nested Python
closures bound to that run's copy of the
:class:`~repro.workload.Workload` arrays and its scalar environment,
then runs the trip loop over them.  Everything a node needs that does
not change during the run is resolved once at build time: its result
dtype and converter, and each array's buffer, length and bounds check.

All scalar arithmetic is delegated to :func:`repro.ops.eval_binop`,
:func:`~repro.ops.eval_unop` and :func:`~repro.ops.eval_call`, never to
the simulator's per-operator callables, so the oracle stays an
independent path to the same results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ir.nodes import BinOp, Call, Const, Expr, Load, Select, UnOp, VarRef
from ..ir.stmts import Assign, If, Loop, Stmt, Store
from ..ops import eval_binop, eval_call, eval_unop
from ..workload import Workload


@dataclass
class InterpResult:
    """Final machine-visible state after the loop."""

    arrays: dict[str, np.ndarray]
    scalars: dict[str, float | int]  # final values of live-out temps
    #: dynamic statistics (per whole run)
    stmt_execs: int = 0
    op_execs: int = 0
    loads: int = 0
    stores: int = 0
    env: dict[str, float | int] = field(default_factory=dict)


class _Builder:
    """Compiles one run's closures.

    Every node of an executed statement is evaluated exactly once (a
    select evaluates both arms, and nothing short-circuits), so the
    dynamic counters are tallied per block: ``blocks`` holds each
    block's static ``[stmts, ops, loads, stores]`` with a one-element
    list its closure bumps each time it runs.  The closures capture
    only the run's buffers, environment and their own children, never
    the builder, so they form no reference cycle.
    """

    def __init__(self, loop: Loop, arrays: dict[str, np.ndarray],
                 env: dict[str, float | int]):
        self.where = loop.name
        self.arrays = arrays
        self.env = env
        self.blocks: list[tuple[list[int], list[int]]] = []
        self.counts = [0, 0, 0, 0]

    # -- expressions ---------------------------------------------------
    def expr(self, e: Expr):
        if isinstance(e, Const):
            value = e.value
            return lambda: value
        if isinstance(e, VarRef):
            return self._var(e.name)
        if isinstance(e, Load):
            return self._load(e)
        self.counts[1] += 1
        dtype = e.dtype
        if isinstance(e, BinOp):
            op, lhs, rhs = e.op, self.expr(e.lhs), self.expr(e.rhs)
            return lambda: eval_binop(op, lhs(), rhs(), dtype)
        if isinstance(e, UnOp):
            op, operand = e.op, self.expr(e.operand)
            return lambda: eval_unop(op, operand(), dtype)
        if isinstance(e, Call):
            fn, args = e.fn, [self.expr(a) for a in e.args]
            return lambda: eval_call(fn, [a() for a in args])
        if isinstance(e, Select):
            a, b, cond = self.expr(e.a), self.expr(e.b), self.expr(e.cond)
            conv = float if dtype.is_float else int

            def select():
                # both arms first: select is a non-branching
                # instruction, matching the simulated core
                va, vb = a(), b()
                return conv(va if cond() else vb)

            return select
        raise TypeError(type(e))  # pragma: no cover

    def _var(self, name: str):
        env, where = self.env, self.where

        def var():
            try:
                return env[name]
            except KeyError:
                raise NameError(
                    f"{where}: read of undefined scalar {name!r}"
                ) from None

        return var

    def _load(self, e: Load):
        self.counts[2] += 1
        index = self.expr(e.index)
        name, where = e.array.name, self.where
        buf = self.arrays[name]
        n, item = len(buf), buf.item
        conv = float if e.array.dtype.is_float else int

        def load():
            i = int(index())
            if not 0 <= i < n:
                raise IndexError(f"{where}: {name}[{i}] out of bounds (len {n})")
            return conv(item(i))

        return load

    # -- statements -----------------------------------------------------
    def block(self, stmts: list[Stmt]):
        outer, self.counts = self.counts, [len(stmts), 0, 0, 0]
        fns = [self._stmt(s) for s in stmts]
        hits = [0]
        self.blocks.append((self.counts, hits))
        self.counts = outer

        def run():
            hits[0] += 1
            for f in fns:
                f()

        return run

    def _stmt(self, s: Stmt):
        if isinstance(s, Assign):
            return self._assign(s)
        if isinstance(s, Store):
            return self._store(s)
        if isinstance(s, If):
            cond = self.expr(s.cond)
            then, orelse = self.block(s.then), self.block(s.orelse)

            def branch():
                if cond():
                    then()
                else:
                    orelse()

            return branch
        raise TypeError(type(s))  # pragma: no cover - defensive

    def _assign(self, s: Assign):
        env, target, value = self.env, s.target, self.expr(s.expr)
        conv = float if s.dtype.is_float else int

        def assign():
            env[target] = conv(value())

        return assign

    def _store(self, s: Store):
        self.counts[3] += 1
        index, value = self.expr(s.index), self.expr(s.expr)
        name, where = s.array.name, self.where
        buf = self.arrays[name]
        n = len(buf)

        def store():
            i = int(index())
            if not 0 <= i < n:
                raise IndexError(
                    f"{where}: store {name}[{i}] out of bounds (len {n})"
                )
            buf[i] = value()

        return store

    def totals(self) -> list[int]:
        """``[stmt_execs, op_execs, loads, stores]`` of the blocks run."""
        out = [0, 0, 0, 0]
        for counts, (hits,) in self.blocks:
            for k in range(4):
                out[k] += hits * counts[k]
        return out


def run_loop(loop: Loop, workload: Workload) -> InterpResult:
    """Execute ``loop`` sequentially on (a copy of) ``workload``."""
    workload.validate_for(loop)
    arrays = {k: v.copy() for k, v in workload.arrays.items()}
    env: dict[str, float | int] = {}
    for p in loop.params:
        v = workload.scalars[p.name]
        env[p.name] = float(v) if p.dtype.is_float else int(v)
    builder = _Builder(loop, arrays, env)
    body = builder.block(loop.body)
    index = loop.index
    for i in range(int(env[loop.trip])):
        env[index] = i
        body()
    stmt_execs, op_execs, loads, stores = builder.totals()
    return InterpResult(
        arrays=arrays,
        scalars={v: env[v] for v in loop.live_out if v in env},
        stmt_execs=stmt_execs,
        op_execs=op_execs,
        loads=loads,
        stores=stores,
        env=dict(env),
    )
