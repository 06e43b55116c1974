"""Unit + property tests for the shared scalar operator semantics.

These semantics are the contract between interpreter, constant folder
and simulator — including the IEEE-style non-trapping behaviour the
speculation pass depends on.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import ops
from repro.ir.types import BOOL, F64, I64

finite = st.floats(allow_nan=False, allow_infinity=False, width=64,
                   min_value=-1e12, max_value=1e12)
ints = st.integers(min_value=-(2**40), max_value=2**40)


class TestIntegerDivision:
    @pytest.mark.parametrize(
        "a,b,q,r",
        [(7, 2, 3, 1), (-7, 2, -3, -1), (7, -2, -3, 1), (-7, -2, 3, -1)],
    )
    def test_c_style_semantics(self, a, b, q, r):
        assert ops.idiv(a, b) == q
        assert ops.imod(a, b) == r

    def test_div_by_zero_non_trapping(self):
        assert ops.idiv(5, 0) == 0
        assert ops.imod(5, 0) == 0

    @given(ints, ints.filter(lambda x: x != 0))
    def test_div_mod_identity(self, a, b):
        assert ops.idiv(a, b) * b + ops.imod(a, b) == a


class TestFloatNonTrapping:
    def test_fdiv_by_zero(self):
        assert ops.fdiv(1.0, 0.0) == math.inf
        assert ops.fdiv(-1.0, 0.0) == -math.inf
        assert math.isnan(ops.fdiv(0.0, 0.0))

    def test_sqrt_negative_is_nan(self):
        assert math.isnan(ops.eval_call("sqrt", [-1.0]))

    def test_log_nonpositive(self):
        assert ops.eval_call("log", [0.0]) == -math.inf
        assert math.isnan(ops.eval_call("log", [-1.0]))

    def test_exp_overflow_saturates(self):
        assert ops.eval_call("exp", [1e6]) == math.inf

    def test_itrunc_of_nan_and_inf(self):
        assert ops.eval_call("itrunc", [float("nan")]) == 0
        assert ops.eval_call("itrunc", [math.inf]) == 0

    def test_fmod_zero_denominator(self):
        assert math.isnan(ops.eval_binop("mod", 1.0, 0.0, F64))


class TestBinops:
    @given(finite, finite)
    def test_add_matches_python(self, a, b):
        assert ops.eval_binop("add", a, b, F64) == a + b

    @given(finite, finite)
    def test_comparisons_are_ints(self, a, b):
        for op, fn in (("lt", a < b), ("le", a <= b), ("gt", a > b),
                       ("ge", a >= b), ("eq", a == b), ("ne", a != b)):
            v = ops.eval_binop(op, a, b, BOOL)
            assert v == int(fn) and isinstance(v, int)

    @given(ints, ints)
    def test_int_ops_stay_int(self, a, b):
        for op in ("add", "sub", "mul", "min", "max"):
            assert isinstance(ops.eval_binop(op, a, b, I64), int)

    def test_logical_short_truth_table(self):
        assert ops.eval_binop("and", 2, 3, BOOL) == 1
        assert ops.eval_binop("and", 2, 0, BOOL) == 0
        assert ops.eval_binop("or", 0, 0, BOOL) == 0
        assert ops.eval_binop("xor", 1, 1, BOOL) == 0
        assert ops.eval_binop("xor", 1, 0, BOOL) == 1

    def test_shifts_mask_amount(self):
        assert ops.eval_binop("shl", 1, 4, I64) == 16
        assert ops.eval_binop("shr", 256, 4, I64) == 16

    def test_float_result_coerced(self):
        v = ops.eval_binop("add", 1, 2, F64)
        assert isinstance(v, float)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            ops.eval_binop("nope", 1, 2, I64)


class TestUnopsAndCalls:
    def test_neg_and_not(self):
        assert ops.eval_unop("neg", 3.0, F64) == -3.0
        assert ops.eval_unop("not", 0, BOOL) == 1
        assert ops.eval_unop("not", 7, BOOL) == 0

    @given(finite)
    def test_abs_floor(self, x):
        assert ops.eval_call("abs", [x]) == abs(x)
        assert ops.eval_call("floor", [x]) == float(math.floor(x))

    @given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
    def test_sqrt_matches_math(self, x):
        assert ops.eval_call("sqrt", [x]) == math.sqrt(x)

    def test_i2f_itrunc_roundtrip(self):
        assert ops.eval_call("itrunc", [3.99]) == 3
        assert ops.eval_call("itrunc", [-3.99]) == -3
        assert ops.eval_call("i2f", [4]) == 4.0


class TestSimulatorOperators:
    """The simulator's per-operator callables (``BINOP_FNS``,
    ``UNOP_FNS``) against the interpreter's ``eval_binop``/``eval_unop``:
    same value and same type for every operator, both result classes and
    edge operands.  Values compare by ``repr``, so NaN, -0.0 and 1 vs 1.0
    all count; exceptions compare by type."""

    EDGES = [0.0, -0.0, 1.5, -2.5, 7.0, float("inf"), float("-inf"),
             float("nan"), 1e300, 0, 1, -1, 2, -7, 63, 64, 65, 200, 2**62]

    @staticmethod
    def _outcome(fn, *args):
        try:
            v = fn(*args)
        except Exception as exc:  # the interpreter's exception too
            return "raises", type(exc)
        return type(v), repr(v)

    def test_tables_cover_every_operator_and_class(self):
        from repro.ir import BINARY_OPS, UNARY_OPS

        classes = (False, True)
        assert set(ops.BINOP_FNS) == {
            (op, fl) for op in BINARY_OPS for fl in classes}
        assert set(ops.UNOP_FNS) == {
            (op, fl) for op in UNARY_OPS for fl in classes}

    @pytest.mark.parametrize("is_float", [False, True])
    def test_binops_match_eval_binop(self, is_float):
        from repro.ir import BINARY_OPS

        dtype = F64 if is_float else I64
        for op in sorted(BINARY_OPS):
            fn = ops.BINOP_FNS[op, is_float]
            for a in self.EDGES:
                for b in self.EDGES:
                    want = self._outcome(ops.eval_binop, op, a, b, dtype)
                    got = self._outcome(fn, a, b)
                    assert got == want, (op, is_float, a, b)

    @pytest.mark.parametrize("is_float", [False, True])
    def test_unops_match_eval_unop(self, is_float):
        dtype = F64 if is_float else I64
        for op in ("neg", "not"):
            fn = ops.UNOP_FNS[op, is_float]
            for a in self.EDGES:
                want = self._outcome(ops.eval_unop, op, a, dtype)
                assert self._outcome(fn, a) == want, (op, is_float, a)

    def test_decoded_core_calls_the_table(self):
        """A decoded ``bin``/``un`` record carries the table's callable
        and the latency table's cost."""
        from repro.analysis.cost import default_latencies
        from repro.isa import Function, Instr, Program
        from repro.sim.core import decode

        lat = default_latencies()
        for (op, fl), fn in ops.BINOP_FNS.items():
            table = lat.float_bin if fl else lat.int_bin
            if op not in table:
                continue  # no latency: the core fails as the reference does
            prog = Program("p", [Function("main", [
                Instr(op="bin", fn=op, dst="x", a="y", b="z", is_float=fl)])])
            rec = decode(prog, lat).bodies[0][0]
            assert rec[4] is fn and rec[5] == table[op], (op, fl)
        for (op, fl), fn in ops.UNOP_FNS.items():
            prog = Program("p", [Function("main", [
                Instr(op="un", fn=op, dst="x", a="y", is_float=fl)])])
            assert decode(prog, lat).bodies[0][0][3] is fn, (op, fl)
