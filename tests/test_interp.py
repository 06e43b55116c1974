"""Unit tests for the reference interpreter."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ops
from repro.interp import InterpResult, run_loop
from repro.ir import F64, I64, LoopBuilder, Select, VarRef, sqrt
from repro.ir.nodes import BinOp, Call, Const, Expr, Load, UnOp, iter_nodes
from repro.ir.stmts import Assign, If, Loop, Stmt, Store, walk_stmts
from repro.workload import Workload, random_workload

from .strategies import loops


def _wl(loop, trip, **scalars):
    return random_workload(loop, trip=trip, seed=1, scalars=scalars)


class _TreeWalker:
    """The tree-walking interpreter that ``run_loop`` replaced, kept as
    the reference its closures are checked against: it re-dispatches
    on every node and re-derives every dtype on every evaluation."""

    def __init__(self, loop: Loop, workload: Workload):
        workload.validate_for(loop)
        self.loop = loop
        self.arrays = {k: v.copy() for k, v in workload.arrays.items()}
        self.env: dict[str, float | int] = {}
        for p in loop.params:
            v = workload.scalars[p.name]
            self.env[p.name] = float(v) if p.dtype.is_float else int(v)
        self.stmt_execs = 0
        self.op_execs = 0
        self.nloads = 0
        self.nstores = 0

    def eval(self, e: Expr):
        if isinstance(e, Const):
            return e.value
        if isinstance(e, VarRef):
            try:
                return self.env[e.name]
            except KeyError:
                raise NameError(
                    f"{self.loop.name}: read of undefined scalar {e.name!r}"
                ) from None
        if isinstance(e, Load):
            self.nloads += 1
            idx = int(self.eval(e.index))
            buf = self.arrays[e.array.name]
            if not (0 <= idx < len(buf)):
                raise IndexError(
                    f"{self.loop.name}: {e.array.name}[{idx}] out of bounds "
                    f"(len {len(buf)})"
                )
            v = buf[idx]
            return float(v) if e.array.dtype.is_float else int(v)
        if isinstance(e, BinOp):
            self.op_execs += 1
            return ops.eval_binop(e.op, self.eval(e.lhs), self.eval(e.rhs), e.dtype)
        if isinstance(e, UnOp):
            self.op_execs += 1
            return ops.eval_unop(e.op, self.eval(e.operand), e.dtype)
        if isinstance(e, Call):
            self.op_execs += 1
            return ops.eval_call(e.fn, [self.eval(a) for a in e.args])
        if isinstance(e, Select):
            self.op_execs += 1
            a, b = self.eval(e.a), self.eval(e.b)
            v = a if self.eval(e.cond) else b
            return float(v) if e.dtype.is_float else int(v)
        raise TypeError(type(e))

    def exec_block(self, block: list[Stmt]) -> None:
        for s in block:
            self.stmt_execs += 1
            if isinstance(s, Assign):
                v = self.eval(s.expr)
                self.env[s.target] = float(v) if s.dtype.is_float else int(v)
            elif isinstance(s, Store):
                self.nstores += 1
                idx = int(self.eval(s.index))
                buf = self.arrays[s.array.name]
                if not (0 <= idx < len(buf)):
                    raise IndexError(
                        f"{self.loop.name}: store {s.array.name}[{idx}] out of "
                        f"bounds (len {len(buf)})"
                    )
                buf[idx] = self.eval(s.expr)
            elif isinstance(s, If):
                if self.eval(s.cond):
                    self.exec_block(s.then)
                else:
                    self.exec_block(s.orelse)
            else:
                raise TypeError(type(s))

    def run(self) -> InterpResult:
        for i in range(int(self.env[self.loop.trip])):
            self.env[self.loop.index] = i
            self.exec_block(self.loop.body)
        return InterpResult(
            arrays=self.arrays,
            scalars={v: self.env[v] for v in self.loop.live_out if v in self.env},
            stmt_execs=self.stmt_execs,
            op_execs=self.op_execs,
            loads=self.nloads,
            stores=self.nstores,
            env=dict(self.env),
        )


def _fields(res: InterpResult) -> dict:
    """Every ``InterpResult`` field, exactly: arrays by dtype and bytes,
    scalars by type and ``repr`` (so NaN equals NaN and -0.0 is not
    0.0) in their dict order."""

    def values(named):
        return [(k, type(v).__name__, repr(v)) for k, v in named.items()]

    return {
        "arrays": [(k, str(v.dtype), v.tobytes()) for k, v in res.arrays.items()],
        "scalars": values(res.scalars),
        "env": values(res.env),
        "counts": (res.stmt_execs, res.op_execs, res.loads, res.stores),
    }


def _outcome(run, loop, workload):
    """``run``'s result fields, or the type and message it raised."""
    try:
        return _fields(run(loop, workload))
    except (NameError, IndexError) as exc:
        return type(exc).__name__, str(exc)


def _reference(loop, workload):
    return _TreeWalker(loop, workload).run()


class TestBasics:
    def test_axpy(self):
        b = LoopBuilder("axpy")
        i = b.index
        x = b.array("x", F64)
        y = b.array("y", F64)
        a = b.param("a", F64)
        b.store(y, i, a * x[i] + y[i])
        loop = b.build()
        wl = _wl(loop, 16, a=2.0)
        res = run_loop(loop, wl)
        expect = 2.0 * wl.arrays["x"][:16] + wl.arrays["y"][:16]
        assert np.allclose(res.arrays["y"][:16], expect)
        # input workload untouched
        assert not np.allclose(wl.arrays["y"][:16], expect)

    def test_reduction(self):
        b = LoopBuilder("sum")
        x = b.array("x", F64)
        s = b.accumulator("s", F64)
        b.set(s, s + x[b.index])
        loop = b.build()
        wl = _wl(loop, 32, s=0.0)
        res = run_loop(loop, wl)
        assert math.isclose(res.scalars["s"], float(np.sum(wl.arrays["x"][:32])))

    def test_int_accumulator_stays_int(self):
        b = LoopBuilder("count")
        x = b.array("x", F64)
        c = b.accumulator("c", I64)
        with b.if_(x[b.index] > 1.0):
            b.set(c, c + 1)
        loop = b.build()
        res = run_loop(loop, _wl(loop, 20, c=0))
        assert isinstance(res.scalars["c"], int)

    def test_conditional_branches(self):
        b = LoopBuilder("clip")
        i = b.index
        x = b.array("x", F64)
        o = b.array("o", F64)
        with b.if_(x[i] > 1.0) as br:
            b.store(o, i, 1.0)
        with br.otherwise():
            b.store(o, i, x[i])
        loop = b.build()
        wl = _wl(loop, 16)
        res = run_loop(loop, wl)
        assert np.allclose(res.arrays["o"][:16], np.minimum(wl.arrays["x"][:16], 1.0))

    def test_select_evaluates_both_arms(self):
        b = LoopBuilder("sel")
        i = b.index
        x = b.array("x", F64)
        o = b.array("o", F64)
        # sqrt of a possibly negative value in the unused arm is fine
        # (non-trapping semantics)
        b.store(o, i, Select(x[i] > 0.0, sqrt(x[i]), 0.0))
        loop = b.build()
        wl = _wl(loop, 8)
        wl.arrays["x"][:4] = -1.0
        res = run_loop(loop, wl)
        assert np.all(res.arrays["o"][:4] == 0.0)

    def test_indirect_access(self):
        b = LoopBuilder("gather")
        i = b.index
        idx = b.array("idx", I64)
        x = b.array("x", F64)
        o = b.array("o", F64)
        b.store(o, i, x[idx[i]])
        loop = b.build()
        wl = _wl(loop, 12)
        res = run_loop(loop, wl)
        gathered = wl.arrays["x"][wl.arrays["idx"][:12]]
        assert np.allclose(res.arrays["o"][:12], gathered)


class TestErrors:
    """Each failure names the loop, and the first failing node in
    evaluation order wins: a store checks its index before it evaluates
    its value, and a select evaluates both arms before its condition."""

    def _raises(self, loop, exc_type):
        with pytest.raises(exc_type) as info:
            run_loop(loop, _wl(loop, 4))
        return str(info.value)

    def test_out_of_bounds_load(self):
        b = LoopBuilder("oob")
        x = b.array("x", F64)
        o = b.array("o", F64)
        b.store(o, b.index, x[b.index + 10_000])
        loop = b.build()
        assert self._raises(loop, IndexError) == (
            "oob: x[10000] out of bounds (len 68)")

    def test_out_of_bounds_store(self):
        b = LoopBuilder("oob2")
        o = b.array("o", F64)
        b.store(o, b.index + 10_000, 1.0)
        loop = b.build()
        assert self._raises(loop, IndexError) == (
            "oob2: store o[10000] out of bounds (len 68)")

    def test_missing_array_in_workload(self):
        b = LoopBuilder("k")
        o = b.array("o", F64)
        b.store(o, b.index, 1.0)
        loop = b.build()
        with pytest.raises(KeyError):
            run_loop(loop, Workload(arrays={}, scalars={"n": 4}))

    def test_undefined_scalar_read(self):
        b = LoopBuilder("k")
        o = b.array("o", F64)
        b.store(o, b.index, 1.0)
        loop = b.build()
        loop.body[0].expr = VarRef("ghost", F64)
        assert self._raises(loop, NameError) == (
            "k: read of undefined scalar 'ghost'")

    def test_store_index_fails_before_its_value(self):
        b = LoopBuilder("both")
        o = b.array("o", F64)
        b.store(o, b.index + 10_000, VarRef("ghost", F64))
        loop = b.build()
        assert self._raises(loop, IndexError) == (
            "both: store o[10000] out of bounds (len 68)")

    def test_select_arms_fail_before_its_condition(self):
        b = LoopBuilder("sel")
        x = b.array("x", F64)
        o = b.array("o", F64)
        b.store(o, b.index,
                Select(VarRef("ghost", I64), x[b.index + 10_000], 1.0))
        loop = b.build()
        assert self._raises(loop, IndexError) == (
            "sel: x[10000] out of bounds (len 68)")


class TestStats:
    def test_dynamic_counts(self, demo_loop):
        wl = random_workload(demo_loop, trip=10, seed=2, scalars={"s": 0.0})
        res = run_loop(demo_loop, wl)
        assert res.stmt_execs >= 10 * 4
        assert res.op_execs > 0 and res.loads > 0 and res.stores == 10

    def test_zero_trip(self, demo_loop):
        wl = random_workload(demo_loop, trip=0, seed=2, scalars={"s": 1.5})
        res = run_loop(demo_loop, wl)
        assert res.scalars["s"] == 1.5
        assert res.stmt_execs == 0


class TestMatchesTreeWalker:
    """``run_loop`` against the tree walker it replaced, field by field."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(loops(), st.integers(0, 24), st.integers(0, 2**16))
    def test_every_field_matches(self, loop, trip, seed):
        wl = random_workload(loop, trip=trip, seed=seed)
        assert _fields(run_loop(loop, wl)) == _fields(_reference(loop, wl))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(loops(), st.data())
    def test_first_failure_in_evaluation_order_matches(self, loop, data):
        """Poison up to two random leaves (a load runs out of bounds, a
        scalar read names nothing); whichever the tree walker reaches
        first must be the error ``run_loop`` raises, message and all."""
        exprs = [
            e for s in walk_stmts(loop.body)
            for e in ((s.cond,) if isinstance(s, If) else
                      (s.index, s.expr) if isinstance(s, Store) else (s.expr,))
        ]
        leaves = [n for e in exprs for n in iter_nodes(e)
                  if isinstance(n, Load)
                  or isinstance(n, VarRef) and n.name != loop.index]
        for _ in range(data.draw(st.integers(1, 2))):
            if not leaves:
                break
            node = data.draw(st.sampled_from(leaves))
            if isinstance(node, Load):
                node.index = Const(10_000 + data.draw(st.integers(0, 9)))
            else:
                node.name = "ghost"
        wl = random_workload(loop, trip=data.draw(st.integers(1, 6)), seed=3)
        assert _outcome(run_loop, loop, wl) == _outcome(_reference, loop, wl)

    def test_run_leaves_no_reference_cycle(self, demo_loop):
        """A run's buffers die with its result: nothing but the garbage
        collector's cycle pass could free a cycle, and it is off."""
        wl = random_workload(demo_loop, trip=16, seed=2, scalars={"s": 0.0})
        gc.collect()
        gc.disable()
        try:
            res = run_loop(demo_loop, wl)
            bufs = [weakref.ref(buf) for buf in res.arrays.values()]
            del res
            assert all(ref() is None for ref in bufs)
        finally:
            gc.enable()
