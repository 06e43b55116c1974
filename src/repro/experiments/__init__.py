"""Experiment suite: one module per paper table/figure + ablations.

See DESIGN.md §4 for the experiment index.  Every experiment asserts
simulated-vs-interpreted equivalence before reporting a number.
"""

from . import (
    ablation_adaptive,
    ablation_multipair,
    ablation_queue_depth,
    ablation_throughput,
    chaos,
    chaos_serve,
    fig12_speedup,
    fig13_latency,
    fig14_speculation,
    imbalance,
    table1_hotloops,
    table2_apps,
    table3_stats,
)
from .common import (
    DEFAULT_TRIP,
    ExpConfig,
    KernelRun,
    amean,
    geomean,
    run_kernel,
    run_table1,
    run_table1_grid,
)

#: experiment id -> (module, paper artifact)
REGISTRY = {
    "E1": (table1_hotloops, "Table I + §IV taxonomy"),
    "E2": (fig12_speedup, "Figure 12"),
    "E3": (table2_apps, "Table II"),
    "E4": (table3_stats, "Table III"),
    "E5": (fig13_latency, "Figure 13"),
    "E6": (fig14_speculation, "Figure 14"),
    "E7": (ablation_throughput, "§III-B throughput heuristic"),
    "E8": (ablation_queue_depth, "queue-depth sweep (extension)"),
    "E9": (ablation_multipair, "§III-B multi-pair merge"),
    "E10": (ablation_adaptive, "latency-adaptive compilation (extension)"),
    "E11": (chaos, "fault-injection campaign (robustness extension)"),
    "E12": (chaos_serve, "chaos-serve campaign (crash-safety extension)"),
    "E13": (imbalance, "imbalance chaos campaign (adaptive extension)"),
}


#: experiment id -> why its ``run()`` takes no trip count.
TRIP_FREE = {
    "E1": "a static characterization",
    "E12": "a crash-safety campaign that sizes its own cells",
}


def run_experiment(eid: str, trip: int = DEFAULT_TRIP):
    """Run one registered experiment; returns its result object.

    The one place that knows which ids take ``trip``: the CLI's
    ``experiment`` command (``all`` included) dispatches here.
    """
    mod = REGISTRY[eid][0]
    return mod.run() if eid in TRIP_FREE else mod.run(trip=trip)


__all__ = [
    "ExpConfig", "KernelRun", "REGISTRY", "TRIP_FREE", "amean", "geomean",
    "run_experiment", "run_kernel", "run_table1", "run_table1_grid",
]
