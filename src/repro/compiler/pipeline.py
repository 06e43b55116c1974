"""End-to-end compilation pipeline: ``parallelize(loop, n_cores)``.

Pass order (paper §III):

1. optional control-flow speculation (§III-H);
2. normalization — compound-expression splitting, predicate chains
   (§III-A preprocessing, §III-E analysis);
3. fiber extraction + code-graph construction (§III-A, §III-B);
4. cohesion for live-out temporaries (§III-F needs a unique source
   partition per live-out value);
5. merging down to ``n_cores`` partitions (§III-B);
6. communication planning (§III-D/E) and per-partition scheduling;
7. statistics (the Table III columns).

The result is a :class:`ParallelPlan`, which :mod:`repro.isa.lower`
turns into per-core machine programs (outlined functions + the §III-G
runtime protocol).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.normalize import normalize
from ..ir.printer import fmt_loop
from ..ir.stmts import FlatBody, Loop
from ..obs.events import span
from .codegraph import CodeGraph, build_code_graph
from .comm import CommPlan, plan_communication
from .config import CompilerConfig
from .merge import MergeWork, Partition, load_balance_ratio, merge_partitions
from .schedule import PartitionSchedule, schedule_all
from .speculation import apply_speculation

__all__ = ["ParallelPlan", "PlanStats", "parallelize", "sequential_plan"]


@dataclass
class PlanStats:
    """Per-kernel compile-time statistics (paper Table III), and the
    §III-B merge's counted work (:class:`~repro.compiler.merge.MergeWork`)."""

    initial_fibers: int
    data_deps: int
    load_balance: float
    com_ops: int
    queues_used: int
    hw_queues_used: int
    n_partitions: int
    merge_rounds: int
    merge_affinity_evals: int
    merge_pairs_examined: int
    partition_costs: list[float] = field(default_factory=list)
    partition_ops: list[int] = field(default_factory=list)

    def as_row(self) -> dict:
        return {
            "initial_fibers": self.initial_fibers,
            "data_deps": self.data_deps,
            "load_balance": round(self.load_balance, 2),
            "com_ops": self.com_ops,
            "queues": self.queues_used,
        }


@dataclass
class ParallelPlan:
    """Everything needed to emit and simulate the transformed kernel."""

    loop: Loop
    body: FlatBody
    n_cores: int
    config: CompilerConfig
    graph: CodeGraph
    partitions: list[Partition]
    schedules: list[PartitionSchedule]
    comm: CommPlan
    stats: PlanStats

    @property
    def primary_pid(self) -> int:
        """The partition the primary core runs inline (§III-G)."""
        return 0


def parallelize(
    loop: Loop,
    n_cores: int,
    config: CompilerConfig | None = None,
    obs=None,
) -> ParallelPlan:
    """Transform a sequential loop into an ``n_cores``-way fine-grained
    parallel plan.

    With ``config.speculation`` the §III-H transform is applied as a
    *code version*: when profiling is enabled the speculated and
    non-speculated variants are both compiled and the faster one is
    kept — the multi-version + dynamic-feedback scheme of §III-I
    (limitation 1).
    """
    if n_cores < 1:
        raise ValueError("n_cores must be >= 1")
    config = config or CompilerConfig()

    if config.speculation:
        with span(obs, "speculate"):
            spec_loop = apply_speculation(loop)
        plan_spec = _compile_one(spec_loop, n_cores, config, obs)
        if fmt_loop(spec_loop) == fmt_loop(loop) or not config.autotune:
            return plan_spec
        plan_base = _compile_one(loop, n_cores, config, obs)
        with span(obs, "profile-versions"):
            c_spec = _profile_plan(plan_spec, config)
            c_base = _profile_plan(plan_base, config)
        return plan_spec if c_spec <= c_base else plan_base
    return _compile_one(loop, n_cores, config, obs)


def _compile_one(
    work: Loop,
    n_cores: int,
    config: CompilerConfig,
    obs=None,
) -> ParallelPlan:
    with span(obs, "normalize"):
        body = normalize(work, max_height=config.max_expr_height)
    with span(obs, "codegraph"):
        graph = build_code_graph(body)

    # §III-F: each live-out temporary needs a single source partition so
    # the copy-out at loop exit has one sender.
    fs = graph.fiberset
    for name in work.live_out:
        group = {
            fs.fiber_of(fs.root_op[st.sid]).fid
            for st in body.stmts
            if st.target == name
        }
        if len(group) > 1:
            graph.cohesion.append(group)

    counted = MergeWork()
    with span(obs, "merge"):
        merged = merge_partitions(graph, n_cores, config, counted)
    candidates = [merged]
    if config.refine and len(merged) > 1:
        from .refine import refine_partitions

        with span(obs, "refine"):
            refined = refine_partitions(graph, merged, config)
        if _assignment_of(refined) != _assignment_of(merged):
            candidates.append(refined)
        # NOTE: adding a communication-averse candidate (refined against
        # a pessimistic latency) lifts the Fig 12 average to the paper's
        # 2.05 but flattens the Fig 13 sensitivity curve the paper
        # emphasises — the compiler becomes smarter than the one under
        # study.  We keep the faithful pipeline here; experiment E10
        # quantifies what the extra candidate would buy.

    if config.max_queues is not None:
        with span(obs, "queue-limit"):
            candidates = [
                _enforce_queue_limit(c, graph, body, config.max_queues)
                for c in candidates
            ]

    partitions = candidates[0]
    with span(obs, "comm"):
        comm = plan_communication(graph, partitions, body)
    with span(obs, "schedule"):
        schedules = schedule_all(partitions, graph, comm)
    if len(candidates) > 1 and config.autotune:
        with span(obs, "autotune"):
            best = None
            for cand in candidates:
                c_comm = plan_communication(graph, cand, body)
                c_sched = schedule_all(cand, graph, c_comm)
                cand_plan = _bare_plan(work, body, n_cores, config, graph,
                                       cand, c_sched, c_comm)
                cycles = _profile_plan(cand_plan, config)
                if best is None or cycles < best[0]:
                    best = (cycles, cand, c_comm, c_sched)
            _, partitions, comm, schedules = best

    stats = PlanStats(
        initial_fibers=fs.n_initial_fibers,
        data_deps=graph.n_data_deps,
        load_balance=load_balance_ratio(partitions),
        com_ops=comm.n_com_ops,
        queues_used=comm.queues_used,
        hw_queues_used=comm.hw_queues_used,
        n_partitions=len(partitions),
        merge_rounds=counted.rounds,
        merge_affinity_evals=counted.affinity_evals,
        merge_pairs_examined=counted.pairs_examined,
        partition_costs=[p.cost for p in partitions],
        partition_ops=[p.n_compute_ops for p in partitions],
    )
    return ParallelPlan(
        loop=work,
        body=body,
        n_cores=n_cores,
        config=config,
        graph=graph,
        partitions=partitions,
        schedules=schedules,
        comm=comm,
        stats=stats,
    )


def _assignment_of(partitions: list[Partition]) -> frozenset:
    return frozenset(p.fids for p in partitions)


def _enforce_queue_limit(
    partitions: list[Partition],
    graph: CodeGraph,
    body: FlatBody,
    max_queues: int,
) -> list[Partition]:
    """§II queue-count constraint: while the plan needs more directed
    core pairs than available, fuse the pair of partitions exchanging
    the most transfers (removing their queues entirely)."""
    parts = partitions
    while len(parts) > 1:
        comm = plan_communication(graph, parts, body)
        if comm.queues_used <= max_queues:
            return parts
        traffic: dict[tuple[int, int], int] = {}
        for t in comm.transfers:
            key = (min(t.src_pid, t.dst_pid), max(t.src_pid, t.dst_pid))
            traffic[key] = traffic.get(key, 0) + 1
        (a, b), _ = max(traffic.items(), key=lambda kv: (kv[1], -kv[0][0], -kv[0][1]))
        merged_ops = sorted(
            [*parts[a].ops, *parts[b].ops], key=lambda o: o.rank
        )
        fused = Partition(
            pid=0,
            fids=parts[a].fids | parts[b].fids,
            ops=merged_ops,
            cost=parts[a].cost + parts[b].cost,
            n_compute_ops=parts[a].n_compute_ops + parts[b].n_compute_ops,
        )
        remaining = [p for i, p in enumerate(parts) if i not in (a, b)] + [fused]
        remaining.sort(key=lambda p: min(op.rank for op in p.ops))
        parts = [
            Partition(
                pid=i, fids=p.fids, ops=p.ops, cost=p.cost,
                n_compute_ops=p.n_compute_ops,
            )
            for i, p in enumerate(remaining)
        ]
    return parts


def _bare_plan(
    loop: Loop,
    body: FlatBody,
    n_cores: int,
    config: CompilerConfig,
    graph: CodeGraph,
    partitions: list[Partition],
    schedules: list[PartitionSchedule],
    comm: CommPlan,
) -> ParallelPlan:
    stats = PlanStats(
        initial_fibers=0, data_deps=0, load_balance=1.0, com_ops=0,
        queues_used=0, hw_queues_used=0, n_partitions=len(partitions),
        merge_rounds=0, merge_affinity_evals=0, merge_pairs_examined=0,
    )
    return ParallelPlan(
        loop=loop, body=body, n_cores=n_cores, config=config, graph=graph,
        partitions=partitions, schedules=schedules, comm=comm, stats=stats,
    )


def _profile_plan(plan: ParallelPlan, config: CompilerConfig) -> float:
    """Simulate a short synthetic profile run of one candidate plan and
    return its cycle count (infinity on deadlock/failure).

    This is the §III-I "profile directed feedback mechanism": the
    compiler cannot statically predict execution time, so it measures.
    """
    # local imports: isa/runtime import compiler.pipeline at module load
    from ..isa.lower import lower_plan
    from ..runtime.exec import execute_kernel
    from ..sim.machine import MachineParams
    from ..workload import random_workload

    try:
        kern = lower_plan(plan)
        if config.profile_workload is not None:
            wl = config.profile_workload.copy()
            wl.scalars[plan.loop.trip] = config.autotune_trip
        else:
            wl = random_workload(plan.loop, trip=config.autotune_trip, seed=7)
        res = execute_kernel(
            kern, wl,
            MachineParams(queue_latency=config.assumed_queue_latency),
        )
        return res.cycles
    except Exception:
        return float("inf")


def sequential_plan(loop: Loop, config: CompilerConfig | None = None) -> ParallelPlan:
    """Single-partition plan: the sequential baseline lowered through
    the same back end (no queues, no speculation)."""
    cfg = config or CompilerConfig()
    base = CompilerConfig(
        max_expr_height=cfg.max_expr_height,
        weights=cfg.weights,
        cost=cfg.cost,
    )
    return parallelize(loop, 1, base)
