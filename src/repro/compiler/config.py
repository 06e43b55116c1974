"""Compiler configuration knobs.

Defaults correspond to the configuration the paper evaluates in Fig 12 /
Table III; the ablation experiments (E5–E9 in DESIGN.md) vary these.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.cost import CostModel


@dataclass
class MergeWeights:
    """Relative weights of the §III-B affinity heuristics."""

    #: "higher affinity to node pairs with greater number of dependence
    #: edges between them"
    dep_edges: float = 1.0
    #: "higher affinity to node pairs with smaller compute time"
    small_time: float = 0.6
    #: "higher affinity to node pairs whose code sections have greater
    #: proximity in the serial source code"
    proximity: float = 0.3


@dataclass
class CompilerConfig:
    """Options for :func:`repro.compiler.pipeline.parallelize`."""

    #: op-height bound for compound-expression splitting (§III-A).
    max_expr_height: int = 2
    #: affinity heuristic weights (§III-B).
    weights: MergeWeights = field(default_factory=MergeWeights)
    #: merge several disjoint best pairs per step instead of one
    #: ("faster compilation ... useful when there are a large number of
    #: fibers", §III-B).
    multi_pair_merge: bool = False
    #: constrain partitioning to unidirectional dependences between any
    #: two final nodes — the "throughput heuristic" the paper found to
    #: cost 11% on average (§III-B).
    throughput_heuristic: bool = False
    #: §II: "When the number of available queues is limited, we can
    #: constrain the partitioning so that compiled code uses at most a
    #: specific number of queues."  Counts directed core pairs (the
    #: paper's Table III metric); None = unconstrained.
    max_queues: int | None = None
    #: apply rollback-free control-flow speculation (§III-H, Fig 14).
    speculation: bool = False
    #: refine partitions with the static-makespan hill climber (the
    #: profile-directed-feedback analog of §III-I limitation 3).
    refine: bool = True
    #: profile-directed candidate selection: simulate a short synthetic
    #: run of each candidate partitioning (merged vs. refined) and keep
    #: the faster one — the paper's "profile directed feedback
    #: mechanism" (§III-I limitation 3).
    autotune: bool = True
    #: iterations of the autotune profile run.
    autotune_trip: int = 12
    #: representative input for the profile runs (the paper's profiling
    #: data came from real application runs on Blue Gene).  ``None``
    #: falls back to a synthetic random workload.
    profile_workload: object | None = None
    #: queue transfer latency the *compiler* assumes when estimating
    #: schedules (the machine's actual latency may differ — Fig 13
    #: varies the hardware while compiled code stays fixed).
    assumed_queue_latency: int = 5
    #: cost model (fixed op latencies + profile-fed memory latencies).
    cost: CostModel = field(default_factory=CostModel)
    #: deterministic tie-breaking seed for the merge ordering.
    seed: int = 0
    #: §III-G runtime flavour of the lowered artifact.  ``"static"``
    #: pins fiber ``p`` to core ``p`` at compile time (the paper's
    #: dispatch: one ``Imm`` function index per secondary).  With
    #: ``"stealing"`` every secondary core carries the *full* fiber
    #: table and the primary dispatches a function index read from a
    #: preloaded ``__fib<core>`` register, so the fiber→core placement
    #: becomes an execute-time choice (the adaptive runtime migrates
    #: fibers by re-preloading those registers — no recompile).
    runtime_mode: str = "static"
