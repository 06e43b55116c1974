#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 bench/compare.py A_DIR B_DIR

Each directory holds ``bench/run.py --out`` files of one commit (the
parent in A, the change in B); runs are paired in file-name order, so
name them by the order they ran in.  For every (workload, metric) the
report gives each side's median and quartiles, the fraction of pairs
the change won, and a verdict by the rules of a small noisy sandbox:

* ``improved``: the change won at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the distance
  between the parent's quartiles;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``, and the runs resolve
  that: the spread is within the bound, or the change lost nine tenths
  of the pairs;
* ``unresolved``: either side's spread (quartile distance over the
  parent's median) exceeds the bound, unless every run of the change
  reads better than every run of the parent;
* ``unchanged``: otherwise.

Per-layer metrics have no bound; they are ``improved`` or ``regressed``
by the pair rule alone, else ``unchanged``.  The exit code is 1 when
any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Verdict:
    verdict: str
    median_a: float
    median_b: float
    quartiles_a: tuple[float, float]
    quartiles_b: tuple[float, float]
    won: float


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def judge(a: list[float], b: list[float], better: str,
          bound: float | None) -> Verdict:
    """Verdict for parent runs ``a`` against change runs ``b`` (paired
    in order)."""
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    qa, qb = _quartiles(a), _quartiles(b)
    deltas = [sign * (y - x) for x, y in zip(a, b)]  # > 0: change worse
    n = len(deltas)
    won = sum(d < 0 for d in deltas) / n
    lost = sum(d > 0 for d in deltas) / n
    gap = abs(mb - ma)
    iqr_a = qa[1] - qa[0]
    result = Verdict("unchanged", ma, mb, qa, qb, won)
    if won >= 0.9 and gap > iqr_a and sign * (mb - ma) < 0:
        result.verdict = "improved"
    elif bound is None:
        if lost >= 0.9 and gap > iqr_a:
            result.verdict = "regressed"
    else:
        scale = abs(ma) or 1.0
        worse = sign * (mb - ma) / scale
        spread = max(iqr_a, qb[1] - qb[0]) / scale
        all_better = all(sign * (y - x) < 0 for x in a for y in b)
        if worse > bound and (spread <= bound or lost >= 0.9):
            result.verdict = "regressed"
        elif worse > bound or (spread > bound and not all_better):
            result.verdict = "unresolved"
    return result


def load_runs(directory: Path) -> list[dict]:
    return [json.loads(p.read_text())["workloads"]
            for p in sorted(directory.glob("*.json"))]


def compare(runs_a: list[dict], runs_b: list[dict], spec: dict) -> list[tuple]:
    """``(workload, metric, unit, Verdict)`` rows for every metric both
    sides report."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    n = min(len(runs_a), len(runs_b))
    for workload in runs_a[0]:
        names = runs_a[0][workload]["metrics"]
        for name in names:
            try:
                a = [r[workload]["metrics"][name]["value"] for r in runs_a[:n]]
                b = [r[workload]["metrics"][name]["value"] for r in runs_b[:n]]
            except KeyError:
                continue
            m = metrics[name]
            rows.append((workload, name, m["unit"],
                         judge(a, b, m["better"], m.get("bound"))))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="parent results directory")
    ap.add_argument("b", type=Path, help="change results directory")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    if not runs_a or not runs_b:
        print("compare: each directory needs at least one result file",
              file=sys.stderr)
        return 2
    rows = compare(runs_a, runs_b, spec)
    print(f"{min(len(runs_a), len(runs_b))} pair(s)")
    print(f"{'workload':11s} {'metric':34s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'won':>5s}  verdict")
    for workload, name, unit, v in rows:
        print(f"{workload:11s} {name:34s} "
              f"{v.median_a:10.4g} [{v.quartiles_a[0]:9.4g}, {v.quartiles_a[1]:9.4g}] "
              f"{v.median_b:10.4g} [{v.quartiles_b[0]:9.4g}, {v.quartiles_b[1]:9.4g}] "
              f"{v.won:5.2f}  {v.verdict} ({unit})")
    return 1 if any(v.verdict == "regressed" for *_, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
