"""Property-based end-to-end tests on randomly generated loops.

For any well-formed loop the compiler accepts, the parallel simulated
execution must match the interpreter bit-for-bit, queues must balance,
and the §III-G protocol must terminate — under random core counts and
machine parameters.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import CompilerConfig
from repro.interp import run_loop
from repro.runtime import compile_loop, execute_kernel
from repro.sim import MachineParams
from repro.workload import random_workload

from .strategies import loops

_slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _assert_same(loop, n_cores, config=None, machine=None, trip=12, seed=3):
    wl = random_workload(loop, trip=trip, seed=seed, scalars={"acc": 0.0})
    ref = run_loop(loop, wl)
    kern = compile_loop(loop, n_cores, config)
    res = execute_kernel(kern, wl, machine)
    for name, buf in ref.arrays.items():
        assert np.array_equal(buf, res.arrays[name]), name
    for name, v in ref.scalars.items():
        assert res.scalars.get(name) == v, name
    return res


@_slow
@given(loops(), st.integers(2, 4))
def test_random_loop_parallel_equivalence(loop, n_cores):
    _assert_same(loop, n_cores)


@_slow
@given(loops())
def test_random_loop_speculation_equivalence(loop):
    _assert_same(loop, 3, CompilerConfig(speculation=True))


@_slow
@given(loops(), st.sampled_from([1, 3, 25]))
def test_random_loop_latency_invariance(loop, latency):
    res = _assert_same(loop, 2, machine=MachineParams(queue_latency=latency))
    assert res.cycles > 0


@_slow
@given(loops())
def test_random_loop_queue_discipline(loop):
    """All queues drain; per-queue enq == deq counts (invariant 2)."""
    from repro.sim import Machine, SharedMemory

    wl = random_workload(loop, trip=8, seed=1, scalars={"acc": 0.0})
    kern = compile_loop(loop, 3)
    mem = SharedMemory({k: v.copy() for k, v in wl.arrays.items()})
    preload = {0: {p.name: (float(wl.scalars[p.name]) if p.dtype.is_float
                            else int(wl.scalars[p.name]))
                   for p in loop.params}}
    m = Machine(kern.programs, mem, preload_regs=preload)
    m.run(live_out=loop.live_out)
    for q in m.queues.values():
        assert q.n_enq == q.n_deq
        assert q.outstanding == 0


@_slow
@given(loops())
def test_random_loop_seq_sim_matches_interp(loop):
    """Even the single-core lowered program matches the interpreter."""
    _assert_same(loop, 1)


@_slow
@given(loops())
def test_random_loop_stealing_equivalence(loop):
    """The work-stealing flavour (``callr`` dispatch through the fiber
    table) matches the interpreter too."""
    _assert_same(loop, 3, CompilerConfig(runtime_mode="stealing"),
                 trip=10, seed=2)
