"""The simulator against its reference (``tests/sim_reference.py``).

The production slice loop does each load, store, enqueue and dequeue in
place on lists; the reference calls the old queue, cache and memory
methods for each and stores into the NumPy arrays.  On random
fuzz-grammar loops, at 1, 2 and 4 cores, with random queue depth,
latency and slice size, both machines must agree on every ``SimResult``
field, every register, every queue's history, the obs event stream, the
fault injector's log and — when a run fails — the failure's type,
message and diagnostics, and the memory it leaves behind.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import CompilerConfig
from repro.faults import FaultInjector, FaultPlan
from repro.isa import Function, Imm, Instr, Program
from repro.kernels import get_kernel
from repro.obs.events import EventBus
from repro.runtime import compile_loop
from repro.sim import DeadlockError, Machine, MachineParams, SharedMemory
from repro.workload import random_workload

from .sim_reference import RefMachine
from .strategies import loops


def _floats(xs) -> list:
    return [repr(x) for x in xs]


def _arrays(arrays) -> dict:
    return {name: (str(buf.dtype), buf.tobytes())
            for name, buf in sorted(arrays.items())}


def _result(res) -> dict:
    """Every field of a ``SimResult``: floats by ``repr``, arrays by
    dtype and bytes, histograms item by item."""
    return {
        "cycles": repr(res.cycles),
        "core_times": _floats(res.core_times),
        "total_instrs": res.total_instrs,
        "cores": [
            [s.instrs, s.enq_ops, s.deq_ops, repr(s.queue_stall), repr(s.mem),
             repr(s.stall_full), repr(s.stall_empty), repr(s.stall_transfer)]
            for s in res.core_stats
        ],
        "queues": [
            [repr(q.qid), q.n_transfers, q.max_outstanding, q.depth,
             [(k, repr(v)) for k, v in q.occupancy_hist.items()],
             repr(q.stall_full), repr(q.stall_empty)]
            for q in res.queue_stats
        ],
        "arrays": _arrays(res.arrays),
        "scalars": {k: (type(v).__name__, repr(v))
                    for k, v in sorted(res.scalars.items())},
        "races": [str(r) for r in res.races],
    }


def _failure(exc) -> tuple:
    """A failure's type, message and diagnostics."""
    out = [type(exc).__name__, str(exc)]
    if isinstance(exc, DeadlockError):
        out.append(exc.blocked)
    p = getattr(exc, "partial", None)
    if p is not None:
        out.append((p.total_instrs, _floats(p.core_times), p.core_instrs,
                    p.core_halted,
                    [(repr(q.qid), q.n_transfers, q.max_outstanding)
                     for q in p.queue_stats]))
    return tuple(out)


def _machine_state(m) -> dict:
    """What the run left in the machine: every core's registers and
    position, every queue's history."""
    return {
        "cores": [
            (c.fn, c.pc, repr(c.time), c.halted, list(c.frames),
             sorted((k, type(v).__name__, repr(v)) for k, v in c.regs.items()))
            for c in m.cores
        ],
        "queues": sorted(
            (repr(q.qid), q.n_enq, q.n_deq, q.depth, q.max_outstanding,
             [repr(v) for v in q.values], _floats(q.ready_times),
             _floats(q.deq_times), repr(q.stall_full), repr(q.stall_empty))
            for q in m.queues.values()
        ),
    }


def _run(machine_cls, kernel, loop, wl, params, *, plan, races, drop,
         shrink) -> dict:
    arrays = {k: v.copy() for k, v in wl.arrays.items()}
    if shrink is not None:
        name, n = shrink
        arrays[name] = arrays[name][:n].copy()
    preload = {p.name: (float(wl.scalars[p.name]) if p.dtype.is_float
                        else int(wl.scalars[p.name]))
               for p in loop.params if p.name != drop}
    preload.update(kernel.dispatch_preload(None))
    bus, events = EventBus(), []
    bus.subscribe(events.append)
    injector = FaultInjector(plan) if plan is not None else None
    m = machine_cls(kernel.programs, SharedMemory(arrays), params,
                    preload_regs={0: preload}, detect_races=races,
                    faults=injector, obs=bus)
    try:
        outcome = ("ok", _result(m.run(live_out=loop.live_out)))
    except Exception as exc:  # compared by type and message
        outcome = _failure(exc)
    return {
        "outcome": outcome,
        "memory": _arrays(arrays),
        "machine": _machine_state(m),
        "events": [(ev.kind, repr(ev.ts), ev.core, repr(ev.queue), ev.name,
                    repr(ev.value), repr(ev.dur), repr(ev.stall))
                   for ev in events],
        "faults": [repr(e) for e in injector.events] if injector else [],
    }


@st.composite
def _cases(draw):
    loop = draw(loops())
    n_cores = draw(st.sampled_from([1, 2, 4]))
    stealing = n_cores > 1 and draw(st.booleans())
    #: at most one planted failure besides the deadlocks a small queue
    #: depth and the losses a fault plan can cause on their own
    fail = draw(st.sampled_from(
        [None, None, None, "budget", "undefined", "out-of-bounds"]))
    params = MachineParams(
        queue_depth=draw(st.integers(1, 20)),
        queue_latency=draw(st.integers(0, 40)),
        slice_budget=draw(st.sampled_from([100_000, 37, 5, 1])),
        cache_lines=draw(st.sampled_from([1024, 16, 3, 2])),
        line_elems=draw(st.sampled_from([8, 4, 1])),
        max_instrs=(draw(st.integers(1, 400)) if fail == "budget"
                    else 500_000_000),
    )
    plan = None
    if draw(st.booleans()):
        probs = st.sampled_from([0.0, 0.2, 1.0])
        plan = FaultPlan(
            seed=draw(st.integers(0, 2**16)),
            jitter_prob=draw(probs), drop_prob=draw(probs),
            corrupt_prob=draw(probs), stall_prob=draw(probs),
            stall_cycles=draw(st.integers(1, 60)),
            slow_cores=(1,) if n_cores > 1 and draw(st.booleans()) else (),
            slow_factor=2.0,
        )
    wl = random_workload(loop, trip=draw(st.integers(0, 12)),
                         seed=draw(st.integers(0, 2**16)),
                         scalars={"acc": 0.0})
    shrink = drop = None
    if fail == "out-of-bounds":
        name = draw(st.sampled_from(sorted(wl.arrays)))
        shrink = (name, draw(st.integers(0, 3)))
    elif fail == "undefined" and loop.params:
        drop = draw(st.sampled_from([p.name for p in loop.params]))
    return dict(
        loop=loop, n_cores=n_cores, stealing=stealing, params=params,
        plan=plan, wl=wl, races=draw(st.booleans()), drop=drop,
        shrink=shrink,
    )


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(_cases())
def test_machine_matches_reference(case):
    loop = case["loop"]
    config = CompilerConfig(runtime_mode="stealing") if case["stealing"] else None
    kernel = compile_loop(loop, case["n_cores"], config)
    kw = dict(plan=case["plan"], races=case["races"], drop=case["drop"],
              shrink=case["shrink"])
    got = _run(Machine, kernel, loop, case["wl"], case["params"], **kw)
    want = _run(RefMachine, kernel, loop, case["wl"], case["params"], **kw)
    assert got == want


@pytest.mark.parametrize("kind, params, planted", [
    ("BudgetExceeded", MachineParams(max_instrs=50, slice_budget=5), {}),
    ("MemoryFault", MachineParams(), {"shrink": ("afp", 2)}),
    ("SimError", MachineParams(), {"drop": "n"}),
    ("DeadlockError", MachineParams(),
     {"plan": FaultPlan(seed=1, drop_prob=1.0)}),
], ids=["budget", "out-of-bounds", "undefined", "dropped"])
def test_planted_failures_match_reference(kind, params, planted):
    """Each failure the property plants, on one Table I kernel: both
    machines fail the same way, with the same diagnostics."""
    spec = get_kernel("umt2k-1")
    loop, wl = spec.loop(), spec.workload(trip=6)
    kernel = compile_loop(loop, 2)
    kw = dict(dict(plan=None, races=True, drop=None, shrink=None), **planted)
    got = _run(Machine, kernel, loop, wl, params, **kw)
    assert got["outcome"][0] == kind
    assert got == _run(RefMachine, kernel, loop, wl, params, **kw)


def test_memory_is_written_back_when_a_run_raises():
    """A run that dies keeps the stores it made before the failure,
    exactly as the reference's in-place NumPy stores do."""
    prog = Program("core0", [Function("main", [
        Instr(op="store", a=Imm(0), b=Imm(2.5), array="o"),
        Instr(op="store", a=Imm(5), b=Imm(1.0), array="o"),
        Instr(op="halt"),
    ])])
    out = {}
    for cls in (Machine, RefMachine):
        buf = np.zeros(3)
        m = cls([prog], SharedMemory({"o": buf}))
        try:
            m.run()
        except RuntimeError as exc:
            out[cls.__name__] = (str(exc), buf.tolist())
    assert out["Machine"] == out["RefMachine"] == (
        "store o[5] out of bounds (len 3)", [2.5, 0.0, 0.0])
