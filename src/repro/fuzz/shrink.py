"""Delta-debugging shrinker for fuzzer findings.

Greedy structural minimization over the *structured* IR: remove
statements, flatten conditionals, substitute expressions by their
subterms — accepting a candidate only when the caller's ``probe``
reproduces the exact outcome signature of the original finding.
Working at the IR level (not on generator entropy) keeps every
candidate well formed and makes the result directly readable: the
minimal loop IS the repro.
"""

from __future__ import annotations

from typing import Callable

from ..ir.nodes import ArraySym, Const, Expr, Load, VarRef
from ..ir.stmts import Assign, If, Loop, Stmt, Store, walk_stmts

__all__ = ["shrink_loop", "loop_size"]

Probe = Callable[[Loop], str]


def loop_size(loop: Loop) -> int:
    """Statement count (Ifs and their arms included)."""
    return len(list(walk_stmts(loop.body)))


# ----------------------------------------------------------------------
# Rebuilding after a structural edit
# ----------------------------------------------------------------------

def _names_in(e: Expr, vars_: set[str], arrays: set[str]) -> None:
    if isinstance(e, VarRef):
        vars_.add(e.name)
    elif isinstance(e, Load):
        arrays.add(e.array.name)
        _names_in(e.index, vars_, arrays)
    for c in e.children():
        _names_in(c, vars_, arrays)


def _rebuild(loop: Loop, body: list[Stmt]) -> Loop:
    """A copy of ``loop`` with ``body``, dropping now-unused arrays,
    params and unassigned live-outs so shrinking compounds."""
    vars_: set[str] = set()
    arrays: set[str] = set()
    assigned: set[str] = set()
    for s in walk_stmts(body):
        if isinstance(s, Assign):
            assigned.add(s.target)
            _names_in(s.expr, vars_, arrays)
        elif isinstance(s, Store):
            arrays.add(s.array.name)
            _names_in(s.index, vars_, arrays)
            _names_in(s.expr, vars_, arrays)
        elif isinstance(s, If):
            _names_in(s.cond, vars_, arrays)
    live_out = [v for v in loop.live_out if v in assigned]
    params = [
        p for p in loop.params
        if p.name == loop.trip or p.name in vars_ or p.name in live_out
    ]
    return Loop(
        name=loop.name,
        index=loop.index,
        trip=loop.trip,
        body=body,
        arrays=[a for a in loop.arrays if a.name in arrays],
        params=params,
        live_out=live_out,
        source=loop.source,
    )


# ----------------------------------------------------------------------
# Candidate generation
# ----------------------------------------------------------------------

def _at(new: Stmt, old: Stmt) -> Stmt:
    """``new``, placed on ``old``'s line: a rebuilt statement keeps the
    line the §III-B proximity term saw."""
    new.line = old.line
    return new


def _stmt_removals(body: list[Stmt]):
    """Every body with one statement removed or one If simplified,
    smallest-effect edits last so big cuts are tried first."""
    for j in range(len(body)):
        if len(body) > 1:
            yield body[:j] + body[j + 1:]
    for j, s in enumerate(body):
        if not isinstance(s, If):
            continue
        yield body[:j] + s.then + body[j + 1:]       # keep then-arm
        yield body[:j] + s.orelse + body[j + 1:]     # keep else-arm
        for arm_name in ("then", "orelse"):
            arm = getattr(s, arm_name)
            for i in range(len(arm)):
                new_arm = arm[:i] + arm[i + 1:]
                kw = {
                    "then": s.then, "orelse": s.orelse, arm_name: new_arm,
                }
                yield body[:j] + [_at(If(s.cond, kw["then"], kw["orelse"]), s)] \
                    + body[j + 1:]


def _subexprs(e: Expr):
    for c in e.children():
        yield c
        yield from _subexprs(c)


def _expr_substitutions(body: list[Stmt]):
    """Replace one statement's expression by a same-typed subterm."""
    for j, s in enumerate(body):
        if isinstance(s, Assign):
            for sub in _subexprs(s.expr):
                if sub.dtype == s.dtype:
                    yield body[:j] + [_at(Assign(s.target, sub, s.dtype), s)] \
                        + body[j + 1:]
        elif isinstance(s, Store):
            for sub in _subexprs(s.expr):
                if sub.dtype == s.expr.dtype:
                    yield body[:j] + [_at(Store(s.array, s.index, sub), s)] \
                        + body[j + 1:]


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------

def shrink_loop(
    loop: Loop,
    probe: Probe,
    *,
    max_probes: int = 400,
) -> tuple[Loop, int]:
    """Minimize ``loop`` while ``probe`` keeps returning the original
    signature.  Returns ``(minimal_loop, probes_spent)``.

    The probe must be deterministic; candidates that raise are simply
    rejected (an edit can make a loop the pipeline refuses).
    """
    target = probe(loop)
    cur = loop
    spent = 0
    improved = True
    while improved and spent < max_probes:
        improved = False
        for gen in (_stmt_removals, _expr_substitutions):
            for body in gen(cur.body):
                if not body:
                    continue
                if spent >= max_probes:
                    break
                cand = _rebuild(cur, list(body))
                spent += 1
                try:
                    sig = probe(cand)
                except Exception:
                    continue
                if sig == target:
                    cur = cand
                    improved = True
                    break
            if improved:
                break
    return cur, spent
