"""Lower stage: emit :class:`repro.ir.LoopBuilder` calls for a loop.

Translates the AST body of an inferred loop nest into the mini-IR.  The
mapping is intentionally narrow so that the lowered program is
*bit-exact* with CPython's evaluation of the original function — every
construct whose IR semantics differ from Python (floor-division, ``%``,
bitwise integer ops, truthiness of numbers, chained comparisons) is
rejected with a :class:`~repro.frontend.errors.FrontendError` rather
than approximated:

========================  =========================================
Python                    IR
========================  =========================================
``+ - * `` / unary ``-``  ``BinOp add/sub/mul`` / ``UnOp neg``
``/``                     ``div`` (int operands promoted via ``i2f``
                          so the result is a float, as in Python)
``**`` / ``math.pow``     ``Call pow`` (float operands only)
``< <= > >= == !=``       comparison ``BinOp`` (single, unchained)
``and / or / not``        logical ops over *boolean* operands only
``a if c else b``         ``Select``
``math.sqrt/exp/log/...`` the matching intrinsic ``Call``
``abs, min, max``         ``Call abs`` / ``BinOp min/max`` (2 args)
``int(x)`` / ``float(x)`` ``itrunc`` / ``i2f``
``math.pi, math.e``       folded ``Const``
========================  =========================================

Subscript indices must be affine in the loop index with stride one and
a small non-negative offset (``x[i]``, ``x[i + 2]``), a constant, an
integer scalar, or an indirect load from an integer array
(``vals[cols[j]]``).  For any array that is *stored*, every one of its
subscripts must be structurally identical — stores and loads at
different offsets of one array alias across iterations, which the IR's
disjoint-array model cannot express.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

from ..analysis.alias import affine_of
from ..ir import (
    ArraySym,
    Call,
    Const,
    Expr,
    Load,
    LoopBuilder,
    Select,
    VarRef,
)
from ..ir.nodes import BinOp, UnOp
from ..ir.stmts import Loop
from ..ir.types import BOOL, F64, I64, DType
from ..ir.visitors import structurally_equal
from .errors import FrontendError
from .infer import LoopInfo

__all__ = ["lower", "MAX_OFFSET"]

#: Largest allowed constant subscript offset past the loop index.  The
#: workload generator sizes arrays with 64 elements of slack past the
#: trip count (see :func:`repro.workload.random_workload`), so stencils
#: reading ``a[i + k]`` stay in bounds for any ``k`` up to this cap.
MAX_OFFSET = 32

_MATH_FNS = {
    "sqrt": "sqrt",
    "exp": "exp",
    "log": "log",
    "sin": "sin",
    "cos": "cos",
    "floor": "floor",
    "fabs": "abs",
}

_MATH_CONSTS = {"pi": math.pi, "e": math.e, "tau": math.tau}

_CMP_OPS = {
    ast.Lt: "lt",
    ast.LtE: "le",
    ast.Gt: "gt",
    ast.GtE: "ge",
    ast.Eq: "eq",
    ast.NotEq: "ne",
}

_ARITH_OPS = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul"}


def lower(info: LoopInfo, name: str | None = None) -> Loop:
    """Lower an inferred loop nest to a :class:`repro.ir.stmts.Loop`."""
    return _Lowerer(info, name).run()


class _Lowerer:
    def __init__(self, info: LoopInfo, name: str | None) -> None:
        self.info = info
        self.nest = info.nest
        n = self.nest
        self.name = name if name is not None else f"frontend/{n.fn_name}"
        self.b = LoopBuilder(
            self.name,
            trip=n.trip,
            index=n.index,
            # the file's name only, as in KernelSpec.source: the loop
            # digest covers this field, so a path would key one file
            # differently in every checkout
            source=f"{Path(n.filename).name}:{n.fn_name}:{n.line}",
        )
        self.arrays: dict[str, ArraySym] = {}
        self.dtypes: dict[str, DType] = {n.index: I64, n.trip: I64}
        self.const_env: dict[str, float | int] = {}
        # array name -> [(is_store, index expr, ast node)]
        self.accesses: dict[str, list[tuple[bool, Expr, ast.AST]]] = {}

    def err(self, msg: str, node: ast.AST) -> FrontendError:
        return FrontendError(msg, filename=self.nest.filename, node=node)

    # -- declarations --------------------------------------------------
    def _declare(self) -> None:
        info, nest, b = self.info, self.nest, self.b
        for p in nest.params:
            if p == nest.trip:
                continue
            if p in info.arrays:
                self.arrays[p] = b.array(p, info.arrays[p])
            elif p in info.carried:
                b.accumulator(p, info.scalar_params[p])
                self.dtypes[p] = info.scalar_params[p]
            elif p in info.scalar_params:
                b.param(p, info.scalar_params[p])
                self.dtypes[p] = info.scalar_params[p]
            # unused params are simply not declared
        for pre in nest.pre:
            name = pre.name
            if name in info.carried:
                dt = info.scalar_dtype(name)
                b.accumulator(name, dt)
                self.dtypes[name] = dt
            elif name in info.pre_init:
                # read-only constant: folded into every use
                self.const_env[name] = pre.value
            # dead initialiser: body fully redefines it before reading

    # -- entry ---------------------------------------------------------
    def run(self) -> Loop:
        self._declare()
        self._block(self.nest.body)
        for out in self.info.live_out:
            self.b.live_out(out)
        self._check_aliasing()
        return self.b.build()

    # -- statements ----------------------------------------------------
    def _block(self, stmts: list[ast.stmt]) -> None:
        for s in stmts:
            if isinstance(s, ast.Assign):
                target = s.targets[0]
                value = self._expr(s.value)
                if isinstance(target, ast.Name):
                    self._assign(target.id, value, s)
                else:
                    assert isinstance(target, ast.Subscript)
                    self._store(target, value)
            elif isinstance(s, ast.AugAssign):
                op = type(s.op)
                if op not in _ARITH_OPS and op is not ast.Div:
                    raise self.err(
                        "only += -= *= /= augmented assignments are "
                        "supported", s,
                    )
                rhs = self._expr(s.value)
                if isinstance(s.target, ast.Name):
                    cur = self._name(ast.copy_location(
                        ast.Name(id=s.target.id, ctx=ast.Load()), s.target))
                    self._assign(
                        s.target.id, self._arith(op, cur, rhs, s), s)
                else:
                    assert isinstance(s.target, ast.Subscript)
                    cur = self._load(s.target)
                    self._store(s.target, self._arith(op, cur, rhs, s))
            elif isinstance(s, ast.If):
                cond = self._bool(s.test)
                with self.b.if_(cond) as br:
                    self._block(s.body)
                if s.orelse:
                    with br.otherwise():
                        self._block(s.orelse)
            elif isinstance(s, ast.Pass):
                pass
            else:  # pragma: no cover - infer rejects these first
                raise self.err("unsupported statement", s)

    def _assign(self, name: str, value: Expr, node: ast.AST) -> None:
        info = self.info
        if name in self.dtypes and name in info.carried | set(
                info.scalar_params):
            # re-assignment of an accumulator (or param-seeded carry)
            declared = self.dtypes[name]
            if declared == I64 and value.dtype != I64:
                raise self.err(
                    f"integer-seeded scalar {name!r} is updated with a "
                    "float value; seed it with `0.0` instead of `0`", node,
                )
            if declared == F64 and value.dtype == I64:
                value = Call("i2f", value)
            self.b.set(name, value)
            return
        want_int = name in info.int_scalars
        if want_int and value.dtype != I64:
            raise self.err(
                f"scalar {name!r} is used as a subscript index but is "
                "assigned a float value; wrap the expression in int()", node,
            )
        try:
            ref = self.b.let(name, value, I64 if want_int else None)
        except TypeError:
            raise self.err(
                f"scalar {name!r} is assigned both integer and float "
                "values; keep its type consistent", node,
            ) from None
        self.dtypes[name] = ref.dtype

    def _store(self, target: ast.Subscript, value: Expr) -> None:
        assert isinstance(target.value, ast.Name)
        arr_name = target.value.id
        sym = self.arrays[arr_name]
        idx = self._index(target.slice)
        self.accesses.setdefault(arr_name, []).append((True, idx, target))
        if sym.dtype == I64 and value.dtype != I64:
            raise self.err(
                f"array {arr_name!r} holds subscript indices (integers) but "
                "is stored a float value", target,
            )
        if sym.dtype == F64 and value.dtype == I64:
            value = Call("i2f", value)
        self.b.store(sym, idx, value)

    # -- expressions ---------------------------------------------------
    def _expr(self, e: ast.expr) -> Expr:
        if isinstance(e, ast.Constant):
            if isinstance(e.value, bool) or not isinstance(
                    e.value, (int, float)):
                raise self.err(
                    f"unsupported literal {e.value!r} (only int/float "
                    "numbers)", e,
                )
            return Const(e.value)
        if isinstance(e, ast.Name):
            return self._name(e)
        if isinstance(e, ast.Subscript):
            return self._load(e)
        if isinstance(e, ast.Attribute):
            return self._math_const(e)
        if isinstance(e, ast.UnaryOp):
            if isinstance(e.op, ast.USub):
                return UnOp("neg", self._expr(e.operand))
            if isinstance(e.op, ast.UAdd):
                return self._expr(e.operand)
            if isinstance(e.op, ast.Not):
                return UnOp("not", self._bool(e.operand))
            raise self.err(
                "bitwise ~ is not supported (IR logicals are boolean)", e)
        if isinstance(e, ast.BinOp):
            return self._binop(e)
        if isinstance(e, ast.Compare):
            return self._compare(e)
        if isinstance(e, ast.BoolOp):
            return self._boolop(e)
        if isinstance(e, ast.IfExp):
            return Select(
                self._bool(e.test), self._expr(e.body), self._expr(e.orelse))
        if isinstance(e, ast.Call):
            return self._call(e)
        raise self.err(
            f"unsupported expression: {type(e).__name__.lower()}", e)

    def _name(self, e: ast.Name) -> Expr:
        name = e.id
        if name in self.info.arrays:
            raise self.err(
                f"array {name!r} read without a subscript (whole-array "
                "operations are not supported)", e,
            )
        if name in self.const_env:
            return Const(self.const_env[name])
        if name not in self.dtypes:  # pragma: no cover - infer checks first
            raise self.err(f"unknown name {name!r}", e)
        return VarRef(name, self.dtypes[name])

    def _load(self, e: ast.Subscript) -> Expr:
        assert isinstance(e.value, ast.Name)
        arr_name = e.value.id
        sym = self.arrays[arr_name]
        idx = self._index(e.slice)
        self.accesses.setdefault(arr_name, []).append((False, idx, e))
        return Load(sym, idx)

    def _index(self, e: ast.expr) -> Expr:
        if isinstance(e, ast.Slice):
            raise self.err(
                "slicing is not supported (element subscripts only)", e)
        idx = self._expr(e)
        if idx.dtype.is_float:
            raise self.err(
                "subscript index has float type; wrap it in int()", e)
        aff = affine_of(idx, self.nest.index)
        if aff is not None:
            if aff.coeff == 1 and 0 <= aff.const <= MAX_OFFSET:
                return idx
            if aff.coeff == 0 and aff.const >= 0:
                return idx
            raise self.err(
                f"unsupported affine subscript (stride {aff.coeff}, offset "
                f"{aff.const}): only `i + k` with 0 <= k <= {MAX_OFFSET}, "
                "or a non-negative constant", e,
            )
        if self._opaque_index_ok(idx):
            return idx
        raise self.err(
            "non-affine subscript index: use `i + k`, a constant, an "
            "integer scalar, or an integer-array element (`x[cols[i]]`)", e,
        )

    def _opaque_index_ok(self, idx: Expr) -> bool:
        """Data-dependent subscripts the disambiguator treats as opaque:
        an integer scalar (`x[j]`), an integer-array element
        (`x[cols[i]]`), or either plus a small constant (`x[j + 1]`,
        table/spline neighbour lookups)."""
        if isinstance(idx, VarRef):
            return idx.dtype == I64 and idx.name != self.nest.trip
        if isinstance(idx, Load):
            return idx.array.dtype == I64
        if isinstance(idx, BinOp) and idx.op == "add":
            base, off = idx.lhs, idx.rhs
            if isinstance(base, Const):
                base, off = off, base
            return (
                isinstance(off, Const)
                and isinstance(off.value, int)
                and 0 <= off.value <= MAX_OFFSET
                and self._opaque_index_ok(base)
            )
        return False

    def _arith(self, op: type, lhs: Expr, rhs: Expr, node: ast.AST) -> Expr:
        if op is ast.Div:
            if not lhs.dtype.is_float and not rhs.dtype.is_float:
                lhs = Call("i2f", lhs)  # Python / always yields a float
            return BinOp("div", lhs, rhs)
        return BinOp(_ARITH_OPS[op], lhs, rhs)

    def _binop(self, e: ast.BinOp) -> Expr:
        op = type(e.op)
        if op in _ARITH_OPS or op is ast.Div:
            return self._arith(op, self._expr(e.left), self._expr(e.right), e)
        if op is ast.Pow:
            lhs, rhs = self._expr(e.left), self._expr(e.right)
            if not lhs.dtype.is_float and not rhs.dtype.is_float:
                raise self.err(
                    "integer ** integer is not supported (Python's exact "
                    "int pow has no IR equivalent); use a float base", e,
                )
            return Call("pow", lhs, rhs)
        if op is ast.Mod:
            raise self.err(
                "the % operator is not supported: Python's floor-mod "
                "differs from the IR's C-style remainder", e,
            )
        if op is ast.FloorDiv:
            raise self.err(
                "the // operator is not supported: Python's floor-division "
                "differs from the IR's truncating division", e,
            )
        if op in (ast.BitAnd, ast.BitOr, ast.BitXor, ast.LShift, ast.RShift):
            raise self.err(
                "bitwise integer operators are not supported (IR "
                "and/or/xor are boolean)", e,
            )
        raise self.err(
            f"unsupported binary operator {op.__name__}", e)

    def _compare(self, e: ast.Compare) -> Expr:
        if len(e.ops) != 1:
            raise self.err(
                "chained comparisons (`a < b < c`) are not supported; "
                "split with `and`", e,
            )
        op = type(e.ops[0])
        if op not in _CMP_OPS:
            raise self.err(
                f"unsupported comparison {op.__name__.lower()!r}", e)
        return BinOp(
            _CMP_OPS[op], self._expr(e.left), self._expr(e.comparators[0]))

    def _boolop(self, e: ast.BoolOp) -> Expr:
        op = "and" if isinstance(e.op, ast.And) else "or"
        parts = [self._bool(v) for v in e.values]
        out = parts[0]
        for p in parts[1:]:
            out = BinOp(op, out, p)
        return out

    def _bool(self, e: ast.expr) -> Expr:
        """Lower an expression required to be boolean (a condition)."""
        expr = self._expr(e)
        if expr.dtype != BOOL:
            raise self.err(
                "condition must be a comparison (Python truthiness of "
                "numbers is not supported); write e.g. `x != 0.0`", e,
            )
        return expr

    def _math_const(self, e: ast.Attribute) -> Expr:
        if isinstance(e.value, ast.Name) and e.value.id == "math" \
                and e.attr in _MATH_CONSTS:
            return Const(_MATH_CONSTS[e.attr])
        raise self.err(
            f"unsupported attribute {ast.unparse(e)!r}", e)

    def _call(self, e: ast.Call) -> Expr:
        if e.keywords:
            raise self.err("keyword arguments are not supported", e)
        fname = ast.unparse(e.func)
        args = [self._expr(a) for a in e.args]

        def arity(n: int) -> None:
            if len(args) != n:
                raise self.err(
                    f"{fname}() takes exactly {n} argument(s) here", e)

        if isinstance(e.func, ast.Attribute):
            base = e.func.value
            if isinstance(base, ast.Name) and base.id == "math":
                attr = e.func.attr
                if attr in _MATH_FNS:
                    arity(1)
                    return Call(_MATH_FNS[attr], args[0])
                if attr == "pow":
                    arity(2)
                    return Call("pow", args[0], args[1])
            raise self.err(f"call to unknown function {fname!r}", e)
        if not isinstance(e.func, ast.Name):
            raise self.err(f"call to unknown function {fname!r}", e)
        fn = e.func.id
        if fn == "abs":
            arity(1)
            return Call("abs", args[0])
        if fn in ("min", "max"):
            arity(2)
            return BinOp(fn, args[0], args[1])
        if fn == "int":
            arity(1)
            return Call("itrunc", args[0])
        if fn == "float":
            arity(1)
            return Call("i2f", args[0]) if args[0].dtype == I64 else args[0]
        raise self.err(f"call to unknown function {fn!r}", e)

    # -- aliasing ------------------------------------------------------
    def _check_aliasing(self) -> None:
        """Arrays with stores must use one structurally-identical
        subscript everywhere; mixed offsets alias across iterations."""
        for arr, uses in self.accesses.items():
            if not any(is_store for is_store, _, _ in uses):
                continue
            _, first, _ = uses[0]
            for _, idx, node in uses[1:]:
                if not structurally_equal(first, idx):
                    raise self.err(
                        f"aliasing subscripts: array {arr!r} is both stored "
                        "and accessed at a different index; every subscript "
                        "of a stored array must be identical", node,
                    )
