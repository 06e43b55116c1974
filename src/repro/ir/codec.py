"""A complete encoding of a loop as plain data, and its content address.

:func:`encode_loop` records everything of a structured
:class:`~repro.ir.stmts.Loop` that the compiler, the interpreter or the
simulator reads: every node with its dtype, each statement's ``line``
(lines feed the §III-B proximity term) and each array's length, alias
group and miss rate (alias groups decide the dependence edges, miss
rates the profile-fed compute-time estimate).  :func:`decode_loop`
rebuilds the loop from it, so a decoded loop compiles to the same
programs as the loop that was encoded.

The encoding is a tree: a leaf node shared by two expressions is
written twice and decodes as two nodes.  Nothing in the compiler keys
on that sharing; every registered kernel and a batch of fuzz-grammar
loops compile to identical programs after a round trip.

:func:`loop_digest` is the SHA-256 of the encoding's canonical JSON and
the only identity of a loop in the program: it is the loop part of the
store key (:func:`repro.store.keys.kernel_run_key`) and of the compile,
oracle and store-key memos (:mod:`repro.memo`).
"""

from __future__ import annotations

import hashlib
import json

from .nodes import ArraySym, BinOp, Call, Const, Expr, Load, Select, UnOp, VarRef
from .stmts import Assign, If, Loop, ScalarParam, Stmt, Store
from .types import DType

__all__ = ["encode_loop", "decode_loop", "loop_digest"]


def _enc_expr(e: Expr) -> dict:
    if isinstance(e, Const):
        return {"k": "const", "v": e.value, "dtype": e.dtype.value}
    if isinstance(e, VarRef):
        return {"k": "var", "name": e.name, "dtype": e.dtype.value}
    if isinstance(e, Load):
        return {"k": "load", "array": e.array.name,
                "index": _enc_expr(e.index)}
    if isinstance(e, BinOp):
        return {"k": "bin", "op": e.op, "lhs": _enc_expr(e.lhs),
                "rhs": _enc_expr(e.rhs)}
    if isinstance(e, UnOp):
        return {"k": "un", "op": e.op, "operand": _enc_expr(e.operand)}
    if isinstance(e, Call):
        return {"k": "call", "fn": e.fn,
                "args": [_enc_expr(a) for a in e.args]}
    if isinstance(e, Select):
        return {"k": "select", "cond": _enc_expr(e.cond),
                "a": _enc_expr(e.a), "b": _enc_expr(e.b)}
    raise TypeError(f"cannot encode expression {e!r}")


def _dec_expr(d: dict, arrays: dict[str, ArraySym]) -> Expr:
    k = d["k"]
    if k == "const":
        return Const(d["v"], DType(d["dtype"]))
    if k == "var":
        return VarRef(d["name"], DType(d["dtype"]))
    if k == "load":
        return Load(arrays[d["array"]], _dec_expr(d["index"], arrays))
    if k == "bin":
        return BinOp(d["op"], _dec_expr(d["lhs"], arrays),
                     _dec_expr(d["rhs"], arrays))
    if k == "un":
        return UnOp(d["op"], _dec_expr(d["operand"], arrays))
    if k == "call":
        return Call(d["fn"], *[_dec_expr(a, arrays) for a in d["args"]])
    if k == "select":
        return Select(_dec_expr(d["cond"], arrays),
                      _dec_expr(d["a"], arrays),
                      _dec_expr(d["b"], arrays))
    raise ValueError(f"unknown expression kind {k!r}")


def _enc_stmt(s: Stmt) -> dict:
    if isinstance(s, Assign):
        d = {"k": "assign", "target": s.target,
             "expr": _enc_expr(s.expr), "dtype": s.dtype.value}
    elif isinstance(s, Store):
        d = {"k": "store", "array": s.array.name,
             "index": _enc_expr(s.index), "expr": _enc_expr(s.expr)}
    elif isinstance(s, If):
        d = {"k": "if", "cond": _enc_expr(s.cond),
             "then": [_enc_stmt(x) for x in s.then],
             "orelse": [_enc_stmt(x) for x in s.orelse]}
    else:
        raise TypeError(f"cannot encode statement {s!r}")
    d["line"] = s.line
    return d


def _dec_stmt(d: dict, arrays: dict[str, ArraySym]) -> Stmt:
    k = d["k"]
    if k == "assign":
        s = Assign(d["target"], _dec_expr(d["expr"], arrays),
                   DType(d["dtype"]))
    elif k == "store":
        s = Store(arrays[d["array"]], _dec_expr(d["index"], arrays),
                  _dec_expr(d["expr"], arrays))
    elif k == "if":
        s = If(_dec_expr(d["cond"], arrays),
               [_dec_stmt(x, arrays) for x in d["then"]],
               [_dec_stmt(x, arrays) for x in d["orelse"]])
    else:
        raise ValueError(f"unknown statement kind {k!r}")
    s.line = d.get("line", 0)  # fuzz artifacts saved before lines were kept
    return s


def encode_loop(loop: Loop) -> dict:
    return {
        "name": loop.name,
        "index": loop.index,
        "trip": loop.trip,
        "arrays": [
            {"name": a.name, "dtype": a.dtype.value, "length": a.length,
             "alias_group": a.alias_group, "miss_rate": a.miss_rate}
            for a in loop.arrays
        ],
        "params": [
            {"name": p.name, "dtype": p.dtype.value} for p in loop.params
        ],
        "live_out": list(loop.live_out),
        "source": loop.source,
        "body": [_enc_stmt(s) for s in loop.body],
    }


def decode_loop(d: dict) -> Loop:
    arrays = {
        a["name"]: ArraySym(
            a["name"], DType(a["dtype"]), a.get("length"),
            a.get("alias_group"), a.get("miss_rate", 0.02),
        )
        for a in d["arrays"]
    }
    return Loop(
        name=d["name"],
        index=d["index"],
        trip=d["trip"],
        body=[_dec_stmt(s, arrays) for s in d["body"]],
        arrays=list(arrays.values()),
        params=[ScalarParam(p["name"], DType(p["dtype"]))
                for p in d["params"]],
        live_out=list(d["live_out"]),
        source=d.get("source", ""),
    )


def loop_digest(loop: Loop) -> str:
    """SHA-256 hex digest of ``loop``'s canonical encoding.

    Computed on first use and kept on the loop, the way the simulator
    keeps a program's decode (:func:`repro.sim.core.decode`).  That is
    sound because nothing mutates a loop once it has been digested:
    spec loops are never mutated, :func:`repro.fuzz.gen.mutate_loop`
    edits only its own fresh decode, and the shrinker and speculation
    build new statements.
    """
    digest = loop.__dict__.get("_digest")
    if digest is None:
        blob = json.dumps(encode_loop(loop), sort_keys=True,
                          separators=(",", ":"))
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        loop.__dict__["_digest"] = digest
    return digest
