"""Replayable JSON repro artifacts for fuzzer findings.

A finding is only useful if someone else can replay it: the artifact
records the (shrunk) loop as data — a recursive encoding of the
structured IR — plus the configuration cell and the outcome signature
the replay must reproduce.  ``repro fuzz --replay file.json`` decodes
and re-probes it; tests assert the signature is stable.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..ir.nodes import (
    ArraySym,
    BinOp,
    Call,
    Const,
    Expr,
    Load,
    Select,
    UnOp,
    VarRef,
)
from ..ir.stmts import Assign, If, Loop, ScalarParam, Stmt, Store
from ..ir.types import DType

__all__ = [
    "encode_loop",
    "decode_loop",
    "save_artifact",
    "load_artifact",
]

SCHEMA = 1


# ----------------------------------------------------------------------
# Expression / statement codec
# ----------------------------------------------------------------------

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
    # lines feed the §III-B proximity term: without them a decoded loop
    # can compile to different programs than the loop that was encoded
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
    s.line = d.get("line", 0)  # artifacts saved before lines were kept
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


# ----------------------------------------------------------------------
# Artifact envelope
# ----------------------------------------------------------------------

def save_artifact(
    path: str | Path,
    loop: Loop,
    *,
    signature: str,
    seed: int,
    trial: int,
    trip: int,
    n_cores: int,
    queue_depth: int,
    speculation: bool,
    inject: str | None = None,
    note: str = "",
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": SCHEMA,
        "kind": "fuzz-repro",
        "signature": signature,
        "seed": seed,
        "trial": trial,
        "trip": trip,
        "config": {
            "n_cores": n_cores,
            "queue_depth": queue_depth,
            "speculation": speculation,
            "inject": inject,
        },
        "note": note,
        "loop": encode_loop(loop),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_artifact(path: str | Path) -> dict:
    payload = json.loads(Path(path).read_text())
    if payload.get("kind") != "fuzz-repro":
        raise ValueError(f"{path}: not a fuzz repro artifact")
    if payload.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unsupported artifact schema {payload.get('schema')}"
        )
    payload["loop"] = decode_loop(payload["loop"])
    return payload
