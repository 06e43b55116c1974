"""Compile-and-run helpers: the shortest path from a Loop to a SimResult."""

from __future__ import annotations

from ..compiler.config import CompilerConfig
from ..compiler.pipeline import ParallelPlan, parallelize
from ..ir.codec import loop_digest
from ..ir.stmts import Loop
from ..isa.lower import LoweredKernel, lower_plan
from ..memo import COMPILE, content_key
from ..sim.machine import Machine, MachineParams, SimResult
from ..sim.memory import SharedMemory
from ..workload import Workload


def compile_loop(
    loop: Loop,
    n_cores: int,
    config: CompilerConfig | None = None,
    obs=None,
    check: bool = True,
) -> LoweredKernel:
    """Run the full compiler pipeline and lower to machine programs.

    ``obs`` (a :class:`repro.obs.events.EventBus`) records wall-clock
    spans for every pipeline pass, lowering included.

    ``check`` runs the mandatory static protocol verification
    (:mod:`repro.check`) over the lowered artifact and raises
    :class:`~repro.check.ProtocolError` on rejection; callers that
    re-verify against specific machine parameters (the guard's
    pre-flight, the fuzzer) pass ``check=False`` to avoid paying twice.

    Kernels are memoised per process (:data:`repro.memo.COMPILE`) on
    the loop's digest (:func:`repro.ir.codec.loop_digest`), ``n_cores``,
    the content of every config field and ``check``.  A hit returns the
    kernel the miss built, shared with every other caller, also one
    passing an equal loop object: nothing may mutate it.  A miss that
    differs from an earlier compile only in its profile workload reuses
    that compile's code graph and candidate partitionings
    (:func:`repro.compiler.pipeline.parallelize`).
    """
    key = (loop_digest(loop), n_cores,
           content_key(config or CompilerConfig()), check)
    return COMPILE.get(
        key, lambda: _compile(loop, n_cores, config, obs, check), obs,
    )


def _compile(
    loop: Loop, n_cores: int, config: CompilerConfig | None, obs, check: bool,
) -> LoweredKernel:
    from ..obs.events import span

    plan = parallelize(loop, n_cores, config, obs=obs)
    # the §III-I selection lowered the plan if it profiled it
    kernel, plan.lowered = plan.lowered, None
    if kernel is None:
        with span(obs, "lower"):
            kernel = lower_plan(plan)
    if check:
        from ..check import ProtocolError, check_kernel

        with span(obs, "check"):
            report = check_kernel(kernel)
        if not report.ok:
            raise ProtocolError(report)
    return kernel


def execute_kernel(
    kernel: LoweredKernel,
    workload: Workload,
    params: MachineParams | None = None,
    detect_races: bool = False,
    faults=None,
    obs=None,
    placement: dict[int, int] | None = None,
    controller=None,
) -> SimResult:
    """Run a lowered kernel on (a copy of) ``workload``.

    The primary core's registers are preloaded with all scalar
    parameters — it plays the role of the original function's context;
    secondary cores receive what they need through the §III-G argument
    transfer encoded in their programs.

    ``placement`` (stealing-mode kernels only) maps secondary core ->
    fiber pid; it is realized purely through the primary's preloaded
    ``__fib<core>`` dispatch registers — no recompilation.  Static-mode
    kernels reject a non-identity placement loudly.  ``controller`` is
    the optional live-reconfiguration hook forwarded to the
    :class:`~repro.sim.machine.Machine`.
    """
    loop = kernel.plan.loop
    workload.validate_for(loop)
    if placement is not None and not kernel.dispatch_regs:
        if any(placement.get(s, s) != s for s in range(kernel.n_cores)):
            raise ValueError(
                "static-mode kernel cannot be re-placed at execute time; "
                "compile with runtime_mode='stealing'"
            )
        placement = None
    memory = SharedMemory({k: v.copy() for k, v in workload.arrays.items()})
    preload: dict[int, dict[str, float | int]] = {0: {}}
    for p in loop.params:
        v = workload.scalars[p.name]
        preload[0][p.name] = float(v) if p.dtype.is_float else int(v)
    preload[0].update(kernel.dispatch_preload(placement))
    machine = Machine(
        kernel.programs, memory, params,
        preload_regs=preload, detect_races=detect_races,
        faults=faults, obs=obs, controller=controller,
    )
    return machine.run(live_out=loop.live_out, primary=0)
