"""Shared scalar operator semantics.

The reference interpreter (:mod:`repro.interp`), the constant folder and
the machine simulator (:mod:`repro.sim`) must agree bit-for-bit on what
every operator computes; they all call into this module.  Values are
plain Python ``float``/``int`` (doubles and 64-bit-style integers);
boolean results are the integers 0/1, matching condition registers.

Floating-point semantics are IEEE-style non-trapping (div by zero gives
±inf/nan, sqrt of a negative gives nan), like the PowerPC A2 with traps
disabled.  This matters for the control-flow speculation transform
(§III-H): speculatively executed arms may evaluate expressions the
sequential program would have skipped, and must not crash doing so.
"""

from __future__ import annotations

import math

from .ir.types import DType

_INF = float("inf")
_NAN = float("nan")


def idiv(a: int, b: int) -> int:
    """C-style truncating integer division (0 on division by zero, like
    the A2's non-trapping integer divide which leaves boundedly
    undefined results; we pick 0 deterministically)."""
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def imod(a: int, b: int) -> int:
    """C-style remainder (sign follows the dividend)."""
    if b == 0:
        return 0
    return a - idiv(a, b) * b


def fdiv(a: float, b: float) -> float:
    """IEEE division: non-trapping."""
    if b == 0.0:
        if a == 0.0 or a != a:
            return _NAN
        return _INF if (a > 0) == (not math.copysign(1.0, b) < 0) else -_INF
    return a / b


def eval_binop(op: str, a, b, dtype: DType):
    """Apply binary ``op``; ``dtype`` is the *result* type of the node."""
    if op == "add":
        r = a + b
    elif op == "sub":
        r = a - b
    elif op == "mul":
        r = a * b
    elif op == "div":
        return fdiv(float(a), float(b)) if dtype.is_float else idiv(int(a), int(b))
    elif op == "mod":
        if dtype.is_float:
            return math.fmod(a, b) if b != 0.0 else _NAN
        return imod(int(a), int(b))
    elif op == "min":
        r = min(a, b)
    elif op == "max":
        r = max(a, b)
    elif op == "lt":
        return int(a < b)
    elif op == "le":
        return int(a <= b)
    elif op == "gt":
        return int(a > b)
    elif op == "ge":
        return int(a >= b)
    elif op == "eq":
        return int(a == b)
    elif op == "ne":
        return int(a != b)
    elif op == "and":
        return int(bool(a) and bool(b))
    elif op == "or":
        return int(bool(a) or bool(b))
    elif op == "xor":
        return int(bool(a) != bool(b))
    elif op == "shl":
        return int(a) << (int(b) & 63)
    elif op == "shr":
        return int(a) >> (int(b) & 63)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown binop {op}")
    return float(r) if dtype.is_float else int(r)


# -- per-operator callables for the simulator's decoded core -------------
#
# One callable per (operator, result class), so a decoded ``bin``/``un``
# instruction calls its operator directly instead of dispatching on the
# operator name every time it executes.  Each returns the same value and
# type as ``eval_binop``/``eval_unop`` with the matching ``dtype``,
# which stay the interpreter's independent path (``tests/test_ops.py``
# ties the two together).

#: operators whose result does not depend on the result class.
_CLASSLESS = {
    "lt": lambda a, b: 1 if a < b else 0,
    "le": lambda a, b: 1 if a <= b else 0,
    "gt": lambda a, b: 1 if a > b else 0,
    "ge": lambda a, b: 1 if a >= b else 0,
    "eq": lambda a, b: 1 if a == b else 0,
    "ne": lambda a, b: 1 if a != b else 0,
    "and": lambda a, b: 1 if a and b else 0,
    "or": lambda a, b: 1 if a or b else 0,
    "xor": lambda a, b: 1 if bool(a) != bool(b) else 0,
    "shl": lambda a, b: int(a) << (int(b) & 63),
    "shr": lambda a, b: int(a) >> (int(b) & 63),
}

#: ``(op, is_float) -> f(a, b)``: ``eval_binop(op, a, b, F64 if is_float
#: else I64)`` without the operator-name dispatch.
BINOP_FNS = {
    **{(op, fl): f for op, f in _CLASSLESS.items() for fl in (False, True)},
    ("add", True): lambda a, b: float(a + b),
    ("add", False): lambda a, b: int(a + b),
    ("sub", True): lambda a, b: float(a - b),
    ("sub", False): lambda a, b: int(a - b),
    ("mul", True): lambda a, b: float(a * b),
    ("mul", False): lambda a, b: int(a * b),
    ("div", True): lambda a, b: fdiv(float(a), float(b)),
    ("div", False): lambda a, b: idiv(int(a), int(b)),
    ("mod", True): lambda a, b: math.fmod(a, b) if b != 0.0 else _NAN,
    ("mod", False): lambda a, b: imod(int(a), int(b)),
    ("min", True): lambda a, b: float(min(a, b)),
    ("min", False): lambda a, b: int(min(a, b)),
    ("max", True): lambda a, b: float(max(a, b)),
    ("max", False): lambda a, b: int(max(a, b)),
}

#: ``(op, is_float) -> f(a)``, likewise for ``eval_unop``.
UNOP_FNS = {
    ("neg", True): lambda a: float(-a),
    ("neg", False): lambda a: int(-a),
    ("not", True): lambda a: 0 if a else 1,
    ("not", False): lambda a: 0 if a else 1,
}


def eval_unop(op: str, a, dtype: DType):
    if op == "neg":
        return float(-a) if dtype.is_float else int(-a)
    if op == "not":
        return int(not a)
    raise ValueError(f"unknown unop {op}")  # pragma: no cover


def eval_call(fn: str, args):
    if fn == "sqrt":
        x = float(args[0])
        return math.sqrt(x) if x >= 0.0 else _NAN
    if fn == "exp":
        try:
            return math.exp(args[0])
        except OverflowError:
            return _INF
    if fn == "log":
        x = float(args[0])
        if x > 0.0:
            return math.log(x)
        return -_INF if x == 0.0 else _NAN
    if fn == "sin":
        return math.sin(args[0])
    if fn == "cos":
        return math.cos(args[0])
    if fn == "abs":
        return abs(args[0])
    if fn == "floor":
        return float(math.floor(float(args[0])))
    if fn == "itrunc":
        x = float(args[0])
        if x != x or x in (_INF, -_INF):
            return 0  # deterministic non-trapping conversion
        return int(x)
    if fn == "i2f":
        return float(args[0])
    if fn == "pow":
        try:
            return math.pow(args[0], args[1])
        except (ValueError, OverflowError):
            return _NAN
    raise ValueError(f"unknown intrinsic {fn}")  # pragma: no cover
