"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.compiler import CompilerConfig
from repro.interp import run_loop
from repro.ir import F64, I64, BinOp, Call, LoopBuilder, Select, sqrt
from repro.runtime import compile_loop, execute_kernel
from repro.sim import MachineParams
from repro.workload import random_workload


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_store(tmp_path_factory):
    """Point the persistent result store at a per-session temp dir so
    tests never read or pollute the user's real cache."""
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-store"))
    yield


@pytest.fixture(autouse=True)
def _cold_memos():
    """Start every test with empty process memos, so no test sees a
    kernel, oracle result or key another test computed (a memo hit
    would bypass whatever the test patched)."""
    from repro.experiments.common import clear_cache

    clear_cache()
    yield


def build_demo_loop():
    """Mixed kernel: arithmetic, indirect load, conditional with stores
    in both arms, and a reduction accumulator."""
    b = LoopBuilder("demo", trip="n")
    i = b.index
    x = b.array("x", F64)
    y = b.array("y", F64)
    z = b.array("z", F64)
    idx = b.array("idx", I64)
    a = b.param("a", F64)
    s = b.accumulator("s", F64)
    t = b.let("t", a * x[i] + y[i] * y[i] + x[idx[i]] * 0.5)
    u = b.let("u", x[i] * z[i] - y[i] / (x[i] + 1.5))
    with b.if_(t > u) as br:
        b.store(z, i, sqrt(t) + u * u)
    with br.otherwise():
        b.store(z, i, t - u)
    b.set(s, s + t)
    return b.build()


def build_straightline_loop():
    """No conditionals, no reductions: the simplest partitionable body."""
    b = LoopBuilder("line", trip="n")
    i = b.index
    x = b.array("x", F64)
    y = b.array("y", F64)
    out = b.array("out", F64)
    c = b.param("c", F64)
    t1 = b.let("t1", x[i] * x[i] + c)
    t2 = b.let("t2", y[i] * y[i] - c)
    b.store(out, i, t1 * t2 + t1 / (t2 * t2 + 1.0))
    return b.build()


def build_branchy_loop():
    """Nested conditionals with cross-branch definitions."""
    b = LoopBuilder("branchy", trip="n")
    i = b.index
    x = b.array("x", F64)
    out = b.array("out", F64)
    th = b.param("th", F64)
    v = b.let("v", x[i] - th)
    with b.if_(v > 0.0) as br:
        w = b.let("w", v * v)
        with b.if_(w > 1.0) as inner:
            u = b.let("u", w - 1.0)
        with inner.otherwise():
            u = b.let("u", w * 0.5)
    with br.otherwise():
        w = b.let("w", -v)
        u = b.let("u", w + 0.25)
    b.store(out, i, u + w)
    return b.build()


def build_every_node_loop():
    """One loop that reaches every expression node, operator and
    intrinsic of the IR: int and float arrays and assignments, int
    division and remainder by zero, non-finite intrinsics, a select
    with mixed-type arms and nested conditionals."""
    b = LoopBuilder("every-node", trip="n")
    i = b.index
    x = b.array("x", F64)
    k = b.array("k", I64)
    o = b.array("o", F64)
    m = b.array("m", I64)
    a = b.param("a", F64)
    c = b.accumulator("c", I64)
    s = b.accumulator("s", F64)
    j = b.let("j", k[i])
    z = b.let("z", j - j)
    r = b.let("r", x[j] * a - x[i] / (x[i] + 1.0))
    q = b.let("q", (j + 3) * 2 - (j / 3) + j % 5 + j / z + j % z)
    h = b.let("h", BinOp("min", j, 40) + BinOp("max", j, 7) + (j << 3) + (j >> 1))
    f = b.let("f", r % 0.7 + r / (r - r) + BinOp("min", r, a) + BinOp("max", r, q))
    g = b.let("g", (j < 9) + (j <= 9) + (j > 9) + (j >= 9) + j.eq(9) + j.ne(9))
    lg = b.let("lg", ((r > 0.5) & (j < 64)) + ((r < 0.1) | (j > 60)) + ((j > 3) ^ (r > 1.0)))
    u = b.let("u", -r + -j + ~j + ~r)
    w = b.let(
        "w",
        sqrt(r) + sqrt(-r) + Call("exp", r) + Call("exp", 1000.0 + r)
        + Call("log", r) + Call("log", r - r) + Call("log", -r)
        + Call("sin", r) + Call("cos", r) + Call("abs", -r) + Call("floor", r)
        + Call("pow", r, a) + Call("pow", -r, 0.5) + Call("pow", 10.0 + r, 400.0),
    )
    n = b.let("n", Call("abs", -j) + Call("itrunc", r * 10.0)
              + Call("itrunc", r / (r - r)) + Call("itrunc", Call("log", -r)))
    e = b.let("e", Call("i2f", j) + Select(j > 60, j, r) + Select(g, r, a))
    b.let("jf", j + 0, F64)
    b.let("ri", r * 100.0, I64)
    with b.if_(j > 32) as br:
        b.store(o, i, j)
        with b.if_(r > 1.0) as inner:
            b.set(c, c + q + h)
        with inner.otherwise():
            b.store(m, i, n + g)
    with br.otherwise():
        b.store(o, i, f + w + e)
        b.store(m, i, q - lg + u)
    b.set(s, s + e + u)
    return b.build()


def assert_equivalent(
    loop,
    n_cores: int,
    trip: int = 40,
    seed: int = 5,
    config: CompilerConfig | None = None,
    machine: MachineParams | None = None,
    scalars=None,
):
    """Compile+simulate ``loop`` and compare bit-exactly against the
    reference interpreter.  Returns (SimResult, InterpResult)."""
    wl = random_workload(loop, trip=trip, seed=seed, scalars=scalars)
    ref = run_loop(loop, wl)
    kern = compile_loop(loop, n_cores, config)
    res = execute_kernel(kern, wl, machine)
    for name, buf in ref.arrays.items():
        assert np.array_equal(buf, res.arrays[name]), (
            f"{loop.name}@{n_cores}c: array {name} differs "
            f"(max abs diff {np.max(np.abs(buf - res.arrays[name]))})"
        )
    for name, v in ref.scalars.items():
        assert name in res.scalars, f"live-out {name} missing"
        assert res.scalars[name] == v, (
            f"{loop.name}@{n_cores}c: scalar {name}: {res.scalars[name]} != {v}"
        )
    return res, ref


@pytest.fixture
def demo_loop():
    return build_demo_loop()


@pytest.fixture
def straightline_loop():
    return build_straightline_loop()


@pytest.fixture
def branchy_loop():
    return build_branchy_loop()
