"""The shared loop grammar behind property tests and the fuzzer.

One generator, two entropy sources: ``tests/strategies.py`` drives it
with Hypothesis draws (shrinking-friendly property tests), while
:class:`RandomDraw` drives it with a seeded :class:`random.Random`
(replayable campaigns with no test-framework dependency at runtime).
Keeping a single grammar means "the fuzzer uses the tests'
loop grammar" is true by construction rather than by imitation.

Every generated loop is well formed by design: in-bounds accesses for
the default :func:`repro.workload.random_workload` sizing, denominators
bounded away from zero, sqrt over non-negative values.
"""

from __future__ import annotations

import random

from ..ir import F64, LoopBuilder, as_expr, fabs, sqrt
from ..ir.codec import decode_loop, encode_loop
from ..ir.nodes import BinOp, Const, Expr, fmax, fmin, iter_nodes
from ..ir.stmts import Assign, If, Loop, Store

__all__ = ["Draw", "RandomDraw", "build_loop", "mutate_loop"]


class Draw:
    """Entropy-source interface the grammar consumes."""

    def integers(self, lo: int, hi: int) -> int:  # inclusive bounds
        raise NotImplementedError

    def booleans(self) -> bool:
        raise NotImplementedError

    def sampled_from(self, seq):
        raise NotImplementedError

    def floats(self, lo: float, hi: float) -> float:
        raise NotImplementedError


class RandomDraw(Draw):
    """Seeded ``random.Random`` backend (deterministic, replayable)."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def integers(self, lo: int, hi: int) -> int:
        return self.rng.randint(lo, hi)

    def booleans(self) -> bool:
        return self.rng.random() < 0.5

    def sampled_from(self, seq):
        return seq[self.rng.randrange(len(seq))]

    def floats(self, lo: float, hi: float) -> float:
        # round for printable, exactly JSON-round-trippable artifacts
        return round(self.rng.uniform(lo, hi), 6)


def _leaf(draw: Draw, arrays, scalars, i):
    choice = draw.integers(0, 3)
    if choice == 0 and scalars:
        return draw.sampled_from(scalars)
    if choice == 1:
        return draw.floats(-2.0, 2.0)
    arr = draw.sampled_from(arrays)
    if draw.booleans():
        return arr[i]
    return arr[i + draw.integers(0, 3)]


def _expr(draw: Draw, arrays, scalars, i, depth: int) -> Expr:
    if depth <= 0:
        return as_expr(_leaf(draw, arrays, scalars, i))
    op = draw.sampled_from(
        ["add", "sub", "mul", "safe_div", "min", "max", "sqrt", "abs"]
    )
    a = _expr(draw, arrays, scalars, i, depth - 1)
    if op == "sqrt":
        return sqrt(fabs(a) + 0.25)
    if op == "abs":
        return fabs(a)
    c = _expr(draw, arrays, scalars, i, depth - 1)
    if op == "add":
        return a + c
    if op == "sub":
        return a - c
    if op == "mul":
        return a * c
    if op == "min":
        return fmin(a, c)
    if op == "max":
        return fmax(a, c)
    # safe division: denominator bounded away from zero
    return a / (fabs(c) + 0.5)


#: BinOps whose operand order never changes the value (IEEE add/mul
#: are commutative for non-NaN inputs; min/max likewise).
_COMMUTATIVE = ("add", "mul", "min", "max")

#: magnitude ceiling for mutated float constants: keeps index chains
#: like ``j = int(a[i] * c)`` (array values < 2.0) inside the
#: ``trip + 64`` slack that random_workload allocates.
_CONST_CAP = 16.0


def _walk_stmts(stmts):
    for s in stmts:
        yield s
        if isinstance(s, If):
            yield from _walk_stmts(s.then)
            yield from _walk_stmts(s.orelse)


def mutate_loop(
    draw: Draw,
    loop: Loop,
    name: str | None = None,
    *,
    allow_const: bool = True,
) -> Loop:
    """A structure-preserving variant of ``loop`` for corpus fuzzing.

    Applies 1-3 small mutations to a deep copy: swapping the operands
    of a commutative BinOp, or rescaling a float constant.  The result
    is a *new* program — the differential oracle compares interpreter
    against simulator on it, so value changes are fine; what a mutation
    must never do is manufacture a false finding, hence the guard
    rails: float constants only (integer constants feed subscript
    arithmetic, where a change could run an access out of bounds),
    sign-preserving scale factors capped at ``|v| <= 16`` (index
    chains stay inside the workload slack), and never zero or negation
    (denominators stay bounded away from zero).  ``allow_const=False``
    restricts to operand swaps, which are value-preserving — the
    fallback when a const mutation pushed the program non-finite
    (NaN never compares equal, so it would read as a miscompile).
    """
    out = decode_loop(encode_loop(loop))  # private deep copy
    out.name = name if name is not None else f"{loop.name}-mut"
    swaps: list[BinOp] = []
    consts: list[Const] = []
    for s in _walk_stmts(out.body):
        if isinstance(s, If):
            exprs = [s.cond]
        elif isinstance(s, Store):
            exprs = [s.expr]  # never the index: bounds are sacred
        elif isinstance(s, Assign):
            exprs = [s.expr]
        else:  # pragma: no cover - no other stmt kinds today
            continue
        for e in exprs:
            for node in iter_nodes(e):
                if isinstance(node, BinOp) and node.op in _COMMUTATIVE:
                    swaps.append(node)
                elif (
                    isinstance(node, Const)
                    and node.dtype.is_float
                    and node.value != 0.0
                ):
                    consts.append(node)
    if not allow_const:
        consts = []
    sites: list[tuple[str, object]] = [("swap", n) for n in swaps]
    sites += [("const", n) for n in consts]
    if not sites:
        return out  # renamed copy: still a valid (if dull) trial
    for _ in range(draw.integers(1, 3)):
        kind, node = draw.sampled_from(sites)
        if kind == "swap":
            node.lhs, node.rhs = node.rhs, node.lhs
        else:
            factor = draw.sampled_from([0.5, 1.5, 2.0])
            v = node.value * factor
            if abs(v) > _CONST_CAP:
                v = node.value * 0.5
            node.value = v
    return out


def build_loop(draw: Draw, name: str = "fuzz") -> Loop:
    """A random well-formed loop with 2-10 statements."""
    b = LoopBuilder(name, trip="n")
    i = b.index
    n_arrays = draw.integers(2, 4)
    arrays = [b.array(f"a{k}", F64) for k in range(n_arrays)]
    out = b.array("out", F64)
    p = b.param("p", F64)
    scalars = [p]
    use_acc = draw.booleans()
    if use_acc:
        acc = b.accumulator("acc", F64)

    n_stmts = draw.integers(1, 5)
    for k in range(n_stmts):
        e = _expr(draw, arrays, scalars, i, draw.integers(1, 3))
        t = b.let(f"t{k}", e)
        scalars.append(t)

    if draw.booleans():
        cond = _expr(draw, arrays, scalars, i, 1) > 0.5
        with b.if_(cond) as br:
            tv = b.let(None, _expr(draw, arrays, scalars, i, 2))
            b.store(out, i, tv)
        with br.otherwise():
            fv = b.let(None, _expr(draw, arrays, scalars, i, 1))
            b.store(out, i, fv * 0.5)
    else:
        b.store(out, i, _expr(draw, arrays, scalars, i, 2))

    if use_acc:
        b.set(acc, acc + scalars[-1] if len(scalars) > 1 else acc + p)
    return b.build()
