"""End-to-end compilation pipeline: ``parallelize(loop, n_cores)``.

Pass order (paper §III):

1. optional control-flow speculation (§III-H);
2. normalization — compound-expression splitting, predicate chains
   (§III-A preprocessing, §III-E analysis);
3. fiber extraction + code-graph construction (§III-A, §III-B);
4. cohesion for live-out temporaries (§III-F needs a unique source
   partition per live-out value);
5. merging down to ``n_cores`` partitions (§III-B), then refinement
   and the queue limit: the candidate partitionings;
6. per candidate: communication planning (§III-D/E), per-partition
   scheduling and statistics (the Table III columns);
7. profile-directed selection among the candidates (§III-I): each is
   lowered and profiled once, and the winner's kernel is kept.

Steps 2–4 read the loop and ``max_expr_height`` only, step 5 also the
core count and the rest of the config; step 7 alone reads the profile
workload.  Steps 2–4 and 5 are memoised per process on exactly those
inputs (:data:`repro.memo.CODEGRAPH`, :data:`repro.memo.PARTITIONS`),
so nothing after them may mutate the shared body or code graph.

The result is a :class:`ParallelPlan`, which :mod:`repro.isa.lower`
turns into per-core machine programs (outlined functions + the §III-G
runtime protocol).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..ir.codec import loop_digest
from ..ir.normalize import normalize
from ..ir.printer import fmt_loop
from ..ir.stmts import FlatBody, Loop
from ..memo import CODEGRAPH, PARTITIONS, config_digest
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
    #: the kernel the §III-I selection lowered this plan to for its
    #: profile run, if it ran one.  :func:`repro.runtime.exec.compile_loop`
    #: serves it instead of lowering the plan again, and clears the
    #: field so that the kernel's plan does not refer back to it.
    lowered: object | None = field(default=None, repr=False, compare=False)

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

    Only the §III-I profile selection reads the workload.  What comes
    before it is memoised per process on what it reads
    (:data:`repro.memo.CODEGRAPH`, :data:`repro.memo.PARTITIONS`), so a
    compile that differs in its profile workload alone re-runs only the
    selection.  When the selection profiled the plan it returns, the
    kernel it lowered to do so rides along in ``plan.lowered``.
    """
    if n_cores < 1:
        raise ValueError("n_cores must be >= 1")
    config = config or CompilerConfig()

    if config.speculation:
        with span(obs, "speculate"):
            spec_loop = apply_speculation(loop)
        spec = _compile_one(spec_loop, n_cores, config, obs)
        if fmt_loop(spec_loop) == fmt_loop(loop) or not config.autotune:
            return spec.served()
        base = _compile_one(loop, n_cores, config, obs)
        with span(obs, "profile-versions"):
            c_spec = spec.profile(config, obs)
            c_base = base.profile(config, obs)
        return (spec if c_spec <= c_base else base).served()
    return _compile_one(loop, n_cores, config, obs).served()


@dataclass
class _Selected:
    """The plan a selection picked, with the kernel and profile cycles
    of its profile run when it had one."""

    plan: ParallelPlan
    kernel: object | None = None
    cycles: float | None = None

    def profile(self, config: CompilerConfig, obs) -> float:
        """The plan's profile cycles, running the profile on first use."""
        if self.cycles is None:
            self.cycles, self.kernel = _profile_plan(self.plan, config, obs)
        return self.cycles

    def served(self) -> ParallelPlan:
        self.plan.lowered = self.kernel
        return self.plan


def _code_graph(work: Loop, max_height: int, obs) -> tuple[FlatBody, CodeGraph]:
    """Normalize ``work`` and build its code graph, with §III-F
    cohesion for live-out temporaries: workload- and core-independent,
    so memoised on (loop digest, height) and shared read-only."""

    def build() -> tuple[FlatBody, CodeGraph]:
        with span(obs, "normalize"):
            body = normalize(work, max_height=max_height)
        with span(obs, "codegraph"):
            graph = build_code_graph(body)
        # §III-F: each live-out temporary needs a single source
        # partition so the copy-out at loop exit has one sender.
        fs = graph.fiberset
        for name in work.live_out:
            group = {
                fs.fiber_of(fs.root_op[st.sid]).fid
                for st in body.stmts
                if st.target == name
            }
            if len(group) > 1:
                graph.cohesion.append(group)
        return body, graph

    return CODEGRAPH.get((loop_digest(work), max_height), build, obs)


def _candidates(
    work: Loop,
    body: FlatBody,
    graph: CodeGraph,
    n_cores: int,
    config: CompilerConfig,
    obs,
) -> tuple[list[list[Partition]], MergeWork]:
    """The §III-B merge, its refinement and the queue limit: the
    candidate partitionings the selection chooses among, and the
    merge's counted work.  Memoised without the profile workload, as
    fiber-id sets and costs rebuilt against the shared ``graph``."""

    def build() -> tuple[tuple, MergeWork]:
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
            # NOTE: adding a communication-averse candidate (refined
            # against a pessimistic latency) lifts the Fig 12 average to
            # the paper's 2.05 but flattens the Fig 13 sensitivity curve
            # the paper emphasises — the compiler becomes smarter than
            # the one under study.  We keep the faithful pipeline here;
            # experiment E10 quantifies what the extra candidate would
            # buy.

        if config.max_queues is not None:
            with span(obs, "queue-limit"):
                candidates = [
                    _enforce_queue_limit(c, graph, body, config.max_queues)
                    for c in candidates
                ]
        compact = tuple(
            tuple((p.fids, p.cost) for p in parts) for parts in candidates
        )
        return compact, counted

    key = (loop_digest(work), n_cores,
           config_digest(replace(config, profile_workload=None)))
    compact, counted = PARTITIONS.get(key, build, obs)
    return [_rebuild(parts, graph) for parts in compact], counted


def _rebuild(parts: tuple, graph: CodeGraph) -> list[Partition]:
    """Partitions from their ``(fids, cost)`` pairs, in pid order."""
    fs = graph.fiberset
    pid_of = {fid: pid for pid, (fids, _) in enumerate(parts) for fid in fids}
    ops: list[list] = [[] for _ in parts]
    for op in sorted(fs.ops, key=lambda o: o.rank):
        ops[pid_of[fs.fiber_of(op).fid]].append(op)
    return [
        Partition(
            pid=pid, fids=fids, ops=ops[pid], cost=cost,
            n_compute_ops=sum(1 for o in ops[pid] if o.kind == "expr"),
        )
        for pid, (fids, cost) in enumerate(parts)
    ]


def _compile_one(
    work: Loop,
    n_cores: int,
    config: CompilerConfig,
    obs=None,
) -> _Selected:
    body, graph = _code_graph(work, config.max_expr_height, obs)
    candidates, counted = _candidates(work, body, graph, n_cores, config, obs)
    n_data_deps = graph.n_data_deps

    def plan_of(partitions: list[Partition]) -> ParallelPlan:
        with span(obs, "comm"):
            comm = plan_communication(graph, partitions, body)
        with span(obs, "schedule"):
            schedules = schedule_all(partitions, graph, comm)
        stats = PlanStats(
            initial_fibers=graph.fiberset.n_initial_fibers,
            data_deps=n_data_deps,
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
            loop=work, body=body, n_cores=n_cores, config=config,
            graph=graph, partitions=partitions, schedules=schedules,
            comm=comm, stats=stats,
        )

    if len(candidates) == 1 or not config.autotune:
        return _Selected(plan_of(candidates[0]))
    # §III-I: profile each candidate once, keep the first fastest
    best = None
    for partitions in candidates:
        cand = _Selected(plan_of(partitions))
        cycles = cand.profile(config, obs)
        if best is None or cycles < best.cycles:
            best = cand
    return best


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


def _profile_plan(
    plan: ParallelPlan, config: CompilerConfig, obs=None,
) -> tuple[float, object | None]:
    """Lower one candidate plan, simulate a short synthetic profile run
    of it and return its cycle count and the kernel: infinity on
    deadlock or failure, and no kernel if the lowering itself failed.

    This is the §III-I "profile directed feedback mechanism": the
    compiler cannot statically predict execution time, so it measures.
    A failed run loses the selection and, on an enabled ``obs`` bus,
    is counted as one ``profile-failed`` guard event.
    """
    # local imports: isa/runtime import compiler.pipeline at module load
    from ..isa.lower import lower_plan
    from ..runtime.exec import execute_kernel
    from ..sim.machine import MachineParams
    from ..workload import random_workload

    kern = None
    try:
        with span(obs, "lower"):
            kern = lower_plan(plan)
        if config.profile_workload is not None:
            wl = config.profile_workload.copy()
            wl.scalars[plan.loop.trip] = config.autotune_trip
        else:
            wl = random_workload(plan.loop, trip=config.autotune_trip, seed=7)
        with span(obs, "autotune"):
            res = execute_kernel(
                kern, wl,
                MachineParams(queue_latency=config.assumed_queue_latency),
            )
        return res.cycles, kern
    except Exception as exc:
        if obs is not None:
            obs.emit_guard("profile-failed", 0, note=type(exc).__name__)
        return float("inf"), kern


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
