"""E9 — §III-B multi-pair merge variant.

"We have also implemented a different version of the merge algorithm
that chooses multiple node pairs to merge at each step ... This version
allows faster compilation, and becomes useful when there are a large
number of fibers to process."

We measure the performance impact of the coarser merge decisions, and
the compile-time saving as the merge's counted work on the largest
kernels (where the paper says the variant "becomes useful"): selection
rounds, live pairs examined by selection and pair affinities computed
(:class:`~repro.compiler.merge.MergeWork`).  The counts come from the
compile statistics of the grid's own 4-core runs, so they are exact and
a warm store answers them without a merge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .common import ExpConfig, amean, run_table1_grid

#: the kernels with the most fibers in the paper's Table III (irs-5 390,
#: irs-1 208, sphot-2 478).
LARGE = ("irs-5", "irs-1", "sphot-2")

#: counted merge work: (key, report label); ``PlanStats`` holds each
#: count as ``merge_<key>``.
WORK = (
    ("rounds", "rounds"),
    ("pairs_examined", "pairs examined"),
    ("affinity_evals", "affinity evaluations"),
)


@dataclass
class MultiPairResult:
    rows: list[dict]
    avg_single: float
    avg_multi: float
    #: per large kernel in the grid: its initial fibers and, for each
    #: variant, the merge's counted work by ``WORK`` key
    merge_work: list[dict]


def run(trip: int = 64) -> MultiPairResult:
    cs = ExpConfig(n_cores=4, trip=trip)
    cm = ExpConfig(n_cores=4, trip=trip, multi_pair_merge=True)
    grid = run_table1_grid([cs, cm])
    single, multi = grid[cs], grid[cm]
    rows = []
    for a, b in zip(single, multi):
        rows.append(
            {
                "kernel": a.kernel,
                "single": round(a.speedup, 2),
                "multi": round(b.speedup, 2),
            }
        )

    by_kernel = {a.kernel: (a, b) for a, b in zip(single, multi)}
    merge_work = []
    for name in LARGE:
        if name not in by_kernel:
            continue
        row = {"kernel": name,
               "fibers": by_kernel[name][0].stats.initial_fibers}
        for variant, cell in zip(("single", "multi"), by_kernel[name]):
            row[variant] = {key: getattr(cell.stats, f"merge_{key}")
                            for key, _ in WORK}
        merge_work.append(row)

    return MultiPairResult(
        rows=rows,
        avg_single=round(amean(r.speedup for r in single), 2),
        avg_multi=round(amean(r.speedup for r in multi), 2),
        merge_work=merge_work,
    )


def format_result(res: MultiPairResult) -> str:
    lines = [
        "Ablation — multi-pair merge variant (4 cores)",
        f"{'kernel':10s} {'single':>7s} {'multi':>7s}",
    ]
    for r in res.rows:
        lines.append(f"{r['kernel']:10s} {r['single']:7.2f} {r['multi']:7.2f}")
    kernels = ", ".join(w["kernel"] for w in res.merge_work) or "none"
    totals = ", ".join(
        f"{sum(w['single'][key] for w in res.merge_work):,}/"
        f"{sum(w['multi'][key] for w in res.merge_work):,} {label}"
        for key, label in WORK
    )
    lines.append(
        f"average: single={res.avg_single} multi={res.avg_multi}; "
        f"merge work on {kernels} (single/multi): {totals}"
    )
    return "\n".join(lines)
