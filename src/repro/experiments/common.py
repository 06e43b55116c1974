"""Shared experiment harness.

``run_kernel`` runs one kernel in one configuration and returns a
:class:`KernelRun` with cycles, speedup vs. the sequential baseline,
compile-time statistics and the verdict on the result.  The cell
itself is compiled, protocol-checked, simulated and verified against
the reference interpreter by :func:`repro.runtime.guard.guarded_run`,
the one place a result is judged (an experiment that produces wrong
answers is not a result).

Finished runs live in two tiers under one content-addressed key
(:func:`store_key_for`: the kernel's loop digest, the compiler and
machine configuration, and the workload ``(trip, seed)`` recipe): the
process memo :data:`repro.memo.RUNS` and the persistent store
(:mod:`repro.store`).  :func:`recall` reads both.  A warm store makes
every experiment idempotent — zero compile/simulate calls on re-run.
A cell that is computed still shares its pure stages (compiled kernel,
interpreter oracle, store key) with earlier cells through the other
bounded memos of :mod:`repro.memo`.
``run_table1_grid`` additionally fans whole kernel × config matrices
out over the :mod:`repro.store.sweep` worker pool.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .. import memo
from ..compiler import CompilerConfig
from ..compiler.pipeline import PlanStats
from ..ir.codec import loop_digest
from ..kernels import KernelSpec, table1_kernels
from ..runtime import compile_loop, execute_kernel
from ..runtime.guard import FailureKind, GuardPolicy, guarded_run
from ..sim import MachineParams

log = logging.getLogger(__name__)

#: default evaluation trip count (large enough to amortise the §III-G
#: startup overhead, as the paper requires of its kernels).
DEFAULT_TRIP = 64

_UNSET = object()


@dataclass(frozen=True)
class ExpConfig:
    """One experiment cell: compiler + machine configuration."""

    n_cores: int = 4
    queue_latency: int = 5
    queue_depth: int = 20
    speculation: bool = False
    throughput_heuristic: bool = False
    multi_pair_merge: bool = False
    max_expr_height: int = 2
    trip: int = DEFAULT_TRIP
    seed: int = 0
    #: queue latency the compiler plans against (E10 varies this
    #: independently of the machine's true ``queue_latency``).
    assumed_queue_latency: int = 5
    #: route the cell through the adaptive runtime (guarded_run with
    #: the adapt rung enabled: work-stealing placement + self-tuned
    #: queue depths, every dynamic config checker-verified).  The
    #: compiler emits the stealing protocol, so the store digest of an
    #: adaptive cell differs from its static twin by construction.
    adaptive: bool = False

    def compiler(self, profile_workload=None) -> CompilerConfig:
        return CompilerConfig(
            max_expr_height=self.max_expr_height,
            speculation=self.speculation,
            throughput_heuristic=self.throughput_heuristic,
            multi_pair_merge=self.multi_pair_merge,
            assumed_queue_latency=self.assumed_queue_latency,
            runtime_mode="stealing" if self.adaptive else "static",
            profile_workload=profile_workload,
        )

    def machine(self) -> MachineParams:
        return MachineParams(
            queue_depth=self.queue_depth,
            queue_latency=self.queue_latency,
        )


@dataclass
class KernelRun:
    kernel: str
    config: ExpConfig
    seq_cycles: float
    par_cycles: float
    correct: bool
    deadlocked: bool
    stats: PlanStats | None
    queue_stall: float = 0.0
    instrs: int = 0
    #: guard-taxonomy kind (str) when the parallel run failed, else None
    #: (see :class:`repro.runtime.guard.FailureKind`).
    failure: str | None = None
    #: True when no verified parallel result exists and the cell's
    #: trustworthy data came from the sequential path only.
    fallback: bool = False
    #: escalation rung that served the result on adaptive cells
    #: ("first-try" | "static" | "adaptive" | ... | "fallback");
    #: None on static cells.
    resolved_by: str | None = None

    @property
    def speedup(self) -> float:
        if self.deadlocked or self.par_cycles <= 0:
            return 0.0
        return self.seq_cycles / self.par_cycles


#: empties every memo of :mod:`repro.memo`, finished runs included.
clear_cache = memo.clear


def seed_cache(key: str, run: KernelRun) -> None:
    """Insert a run computed elsewhere (a sweep or serve worker
    process) under its store key."""
    memo.RUNS.put(key, run)


def recall(key: str, store) -> tuple[str | None, KernelRun | None]:
    """The finished run under store key ``key`` and the tier it came
    from: ``("l1", run)`` from the process memo, ``("l2", run)`` from
    ``store`` (promoted into the memo), or ``(None, None)``."""
    run = memo.RUNS.lookup(key)
    if run is not None:
        return "l1", run
    if store is not None:
        run = store.get_run(key)
        if run is not None:
            memo.RUNS.put(key, run)
            return "l2", run
    return None, None


def _workload_recipe(spec: KernelSpec) -> dict:
    return {"scalars": dict(spec.scalars), "specs": dict(spec.specs)}


def store_key_for(spec: KernelSpec, config: ExpConfig) -> str:
    """Content-addressed key of one grid cell's run record.

    Memoised per process on the spec's loop digest, its seed and
    workload recipe (:meth:`KernelSpec.recipe_key`) and the config's
    content (:data:`repro.memo.STORE_KEY`), each a content address, so
    equal cells share an entry whichever spec objects they come from.
    """
    from ..store.keys import kernel_run_key

    loop = spec.loop()
    key = (loop_digest(loop), spec.recipe_key(), memo.content_key(config))
    return memo.STORE_KEY.get(key, lambda: kernel_run_key(
        loop,
        config.n_cores,
        config.compiler(),
        config.machine(),
        config.trip,
        spec.seed + config.seed,
        workload=_workload_recipe(spec),
    ))


def _seq_store_key(spec: KernelSpec, config: ExpConfig, loop, seq_cfg) -> str:
    from ..store.keys import kernel_run_key

    return kernel_run_key(
        loop, 1, seq_cfg, config.machine(), config.trip,
        spec.seed + config.seed,
        workload=_workload_recipe(spec), kind="seq",
    )


def _task_event(obs, name: str, t0: float, status: str) -> None:
    if obs is not None and obs.enabled:
        import time as _time

        obs.emit_task(name, t0, _time.perf_counter(), status)


def run_kernel(
    spec: KernelSpec, config: ExpConfig, store=_UNSET, obs=None,
) -> KernelRun:
    """Run (or recall) one grid cell.

    A cell that :func:`recall` finds in neither the process memo nor
    ``store`` is run by :func:`~repro.runtime.guard.guarded_run`: a
    static cell gets one attempt, an adaptive cell the guard's full
    escalation ladder.  This function adds the sequential baseline and
    records the guard's verdict, so a failed cell — compile error,
    protocol rejection, deadlock, wrong answer — comes back as a
    :class:`KernelRun` with ``failure`` set, never as an exception.
    A run enters the memo only once it is durable in ``store``.  Both
    tiers are read under :func:`store_key_for`, so a spec whose loop
    differs from another's in anything the compiler reads — a dtype, a
    statement line, an alias group, a miss rate — gets its own run.

    ``obs`` is the opt-in observability hook: when an enabled
    :class:`repro.obs.events.EventBus` is passed, the cell emits a
    ``task`` lifecycle event (status ``cached`` / ``ok`` / a failure
    kind) and the compile + simulate stages emit their pass spans and
    simulator events into the same bus.
    """
    import time as _time

    if store is _UNSET:
        from ..store.disk import default_store

        store = default_store()

    t0 = _time.perf_counter()
    task = f"{spec.name}:c{config.n_cores}"
    digest = store_key_for(spec, config)
    tier, hit = recall(digest, store)
    if hit is not None:
        if tier == "l1" and store is not None and store.get_run(digest) is None:
            # The memo says "computed"; the caller needs "durable in
            # *this* store".  After a gc/clear, or when resuming a
            # different store root in a warm process, the record may
            # be absent — rewrite it so run_kernel's contract (return
            # implies a durable record) holds for crash recovery.
            store.put_run(digest, hit)
        _task_event(obs, task, t0, "cached")
        return hit

    loop = spec.loop()
    wl = spec.workload(trip=config.trip, seed=spec.seed + config.seed)

    # Sequential baseline: memoised and stored under its own key, so
    # the record under the baseline key is never a parallel KernelRun.
    seq_cfg = CompilerConfig(max_expr_height=config.max_expr_height)
    seq_digest = _seq_store_key(spec, config, loop, seq_cfg)

    def baseline() -> float:
        cycles = store.get_seq(seq_digest) if store is not None else None
        if cycles is None:
            k1 = compile_loop(loop, 1, seq_cfg)
            cycles = execute_kernel(k1, wl, config.machine()).cycles
            if store is not None:
                store.put_seq(seq_digest, spec.name, cycles)
        return cycles

    seq_cycles = memo.SEQ.get(seq_digest, baseline)

    # A static cell gets one attempt, so a deadlock is recorded as a
    # deadlock; an adaptive cell climbs the guard's whole ladder.  The
    # record keeps the shape it always had: compile statistics on
    # static cells only, the serving rung on adaptive cells only.
    g = guarded_run(
        loop, wl, config.n_cores,
        config=config.compiler(profile_workload=wl),
        params=config.machine(),
        policy=(GuardPolicy(adapt=True) if config.adaptive
                else GuardPolicy(max_attempts=1)),
        obs=obs,
    )
    failure = g.failure_kinds[-1].value if g.degraded and g.failures else None
    run = KernelRun(
        kernel=spec.name,
        config=config,
        seq_cycles=seq_cycles,
        par_cycles=g.sim.cycles if g.sim is not None else float("inf"),
        correct=not g.degraded,
        deadlocked=g.degraded and FailureKind.DEADLOCK in g.failure_kinds,
        stats=None if config.adaptive else g.stats,
        queue_stall=g.sim.total_queue_stall if g.sim is not None else 0.0,
        instrs=g.sim.total_instrs if g.sim is not None else 0,
        failure=failure,
        fallback=failure is not None,
        resolved_by=g.resolved_by if config.adaptive else None,
    )
    if store is not None:
        store.put_run(digest, run)
    memo.RUNS.put(digest, run)
    _task_event(obs, task, t0, failure or "ok")
    return run


def geomean(values: Iterable[float], label: str = "") -> float:
    """Geometric mean of the positive values.

    Non-positive entries (deadlocked kernels report speedup 0) cannot
    enter a geometric mean; they are excluded, and the exclusion is
    logged so deadlocks never silently inflate an average.
    """
    all_vals = list(values)
    vals = [v for v in all_vals if v > 0]
    dropped = len(all_vals) - len(vals)
    if dropped:
        log.warning(
            "geomean%s: dropped %d non-positive value(s) of %d",
            f" ({label})" if label else "", dropped, len(all_vals),
        )
    if not vals:
        return 0.0
    return float(np.exp(np.mean(np.log(vals))))


def amean(values: Iterable[float]) -> float:
    vals = list(values)
    return float(np.mean(vals)) if vals else 0.0


def run_table1(config: ExpConfig, store=_UNSET, obs=None) -> list[KernelRun]:
    return [
        run_kernel(spec, config, store=store, obs=obs)
        for spec in table1_kernels()
    ]


def run_table1_grid(
    configs: Sequence[ExpConfig],
    *,
    workers: int | str | None = None,
    store=_UNSET,
) -> Mapping[ExpConfig, list[KernelRun]]:
    """Run the 18 Table-I kernels under every config as one sweep grid.

    With ``workers`` (or ``$REPRO_WORKERS``) set, the whole matrix is
    scheduled over the :mod:`repro.store.sweep` pool; otherwise cells
    run serially in-process.  Results are identical either way.
    """
    from ..store.sweep import run_grid

    if store is _UNSET:
        from ..store.disk import default_store

        store = default_store()
    specs = table1_kernels()
    grid = run_grid(specs, list(configs), workers=workers, store=store)
    return {cfg: [grid[(s.name, cfg)] for s in specs] for cfg in configs}
