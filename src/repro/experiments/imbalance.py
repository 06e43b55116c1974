"""E13 — imbalance chaos campaign (adaptive-runtime extension).

Skews the machine with seeded ``slowdown`` fault plans (one or two
cores run a scaled latency table) and runs every tier-1 kernel cell
twice over the *same* plan: once under the plain guard (static
placement, fixed queue depths) and once with the adaptive rung enabled
(:class:`~repro.runtime.guard.GuardPolicy` ``adapt=True`` — work-
stealing placement, self-tuned queue depths, every dynamic
configuration re-verified by :mod:`repro.check` before it runs).

The campaign proves three properties at once:

* **adaptation pays** — on imbalanced cells the adaptive runtime beats
  the static cycle count (and by guard construction can never lose:
  when the measured-probe ladder finds no better configuration, the
  verified static answer is served unchanged);
* **every dynamic configuration is verified** — each placement/depth
  candidate the runtime considered carries a checker verdict, and the
  campaign requires all of them to have passed;
* **zero silent corruption** — both the static and the adaptive answer
  of every cell are re-verified against a *fresh* reference-interpreter
  run, independently of the guard's own verification.

``ImbalanceResult.ok`` is the campaign gate; ``repro chaos-adapt``
exits non-zero when it is False.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..faults import FaultPlan
from ..interp import run_loop
from ..kernels import get_kernel
from ..runtime.guard import GuardPolicy, guarded_run
from ..sim import MachineParams

#: tier-1 kernels spanning the applications' loop structure; every one
#: must show at least one cell where adaptation strictly wins.
DEFAULT_KERNELS = ("umt2k-1", "lammps-1", "irs-1", "sphot-2")

#: (name, slow cores, latency factor); the actual FaultPlan seed is
#: derived per cell so campaigns are deterministic yet decorrelated.
SKEW_SCENARIOS = (
    ("balanced", (), 1.0),
    ("slow1x3", (1,), 3.0),
    ("slow2x4", (2,), 4.0),
    ("slow13x2", (1, 3), 2.5),
)

#: instruction watchdog (slowdowns lengthen runs in cycles, not
#: instructions, but the chaos convention keeps a budget anyway).
IMB_MAX_INSTRS = 20_000_000

OUTCOMES = ("adapted", "static-kept", "balanced", "degraded", "unchecked",
            "silent")


@dataclass
class ImbalanceCell:
    """One (kernel, skew scenario) cell: static vs. adaptive."""

    kernel: str
    scenario: str
    skewed: bool                   # scenario injects a slowdown
    seed: int
    static_cycles: float
    adaptive_cycles: float
    imbalance: float               # idle-fraction spread, static run
    resolved_by: str | None        # rung that served the adaptive cell
    migrated: bool                 # placement changed from identity
    depth_actions: int             # committed queue-depth retunes
    checks: int                    # dynamic configurations verified
    checks_ok: bool                # ... and all verdicts passed
    correct: bool                  # independent bit-exactness, both paths
    outcome: str                   # one of OUTCOMES

    @property
    def gain(self) -> float:
        """Fractional cycle reduction of adaptive over static."""
        if self.static_cycles <= 0 or self.adaptive_cycles <= 0:
            return 0.0
        return self.static_cycles / self.adaptive_cycles - 1.0

    def row(self, *, trip: int, cores: int) -> dict:
        """The cell's row of ``repro chaos-adapt --json``."""
        return {
            "kernel": self.kernel,
            "scenario": self.scenario,
            "cores": cores,
            "trip": trip,
            "static_cycles": self.static_cycles,
            "adaptive_cycles": self.adaptive_cycles,
            "gain": round(self.gain, 4),
            "imbalance": round(self.imbalance, 4),
            "resolved_by": self.resolved_by,
            "migrated": self.migrated,
            "depth_actions": self.depth_actions,
            "checks": self.checks,
            "checks_ok": self.checks_ok,
            "outcome": self.outcome,
        }


@dataclass
class ImbalanceResult:
    cells: list[ImbalanceCell]
    counts: dict[str, int]
    total_checks: int

    @property
    def silent(self) -> int:
        return self.counts.get("silent", 0)

    @property
    def all_checks_ok(self) -> bool:
        return all(c.checks_ok for c in self.cells)

    @property
    def never_worse(self) -> bool:
        """Adaptive never serves a slower verified result than static."""
        return all(
            c.adaptive_cycles <= c.static_cycles
            for c in self.cells
            if np.isfinite(c.static_cycles) and np.isfinite(c.adaptive_cycles)
        )

    @property
    def wins_per_kernel(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.cells:
            out.setdefault(c.kernel, 0)
            if c.outcome == "adapted" and c.gain > 0:
                out[c.kernel] += 1
        return out

    @property
    def mean_skewed_gain(self) -> float:
        gains = [c.gain for c in self.cells if c.skewed]
        return float(np.mean(gains)) if gains else 0.0

    @property
    def ok(self) -> bool:
        """The campaign gate (``repro chaos-adapt`` exit status)."""
        return (
            self.silent == 0
            and self.all_checks_ok
            and self.never_worse
            and all(n >= 1 for n in self.wins_per_kernel.values())
            and self.mean_skewed_gain > 0.0
        )


def _independent_correct(g, ref) -> bool:
    """Re-verify a guarded result against a fresh interpreter run."""
    return all(
        np.array_equal(buf, g.arrays.get(a)) for a, buf in ref.arrays.items()
    ) and all(g.scalars.get(s) == v for s, v in ref.scalars.items())


def _classify(cell: dict) -> str:
    if not cell["correct"]:
        return "silent"
    if not cell["checks_ok"]:
        return "unchecked"
    if cell["degraded"]:
        return "degraded"
    if cell["resolved_by"] == "adaptive":
        return "adapted"
    if cell["resolved_by"] == "static":
        return "static-kept"
    return "balanced"


def run(
    trip: int = 48,
    seed: int = 13,
    kernels: tuple[str, ...] = DEFAULT_KERNELS,
    scenarios=SKEW_SCENARIOS,
    n_cores: int = 4,
    policy: GuardPolicy | None = None,
) -> ImbalanceResult:
    """Run the kernel × skew matrix; deterministic for a given seed."""
    params = MachineParams(max_instrs=IMB_MAX_INSTRS)
    adaptive_policy = policy or GuardPolicy(adapt=True)
    cells: list[ImbalanceCell] = []
    counts = {k: 0 for k in OUTCOMES}
    total_checks = 0
    for ki, name in enumerate(kernels):
        spec = get_kernel(name)
        loop = spec.loop()
        wl = spec.workload(trip=trip)
        ref = run_loop(loop, wl)
        for si, (sname, slow_cores, factor) in enumerate(scenarios):
            cell_seed = seed + 947 * ki + 7877 * si
            plan = None
            if slow_cores:
                plan = FaultPlan(seed=cell_seed, slow_cores=tuple(slow_cores),
                                 slow_factor=factor)
            gs = guarded_run(loop, wl, n_cores, params=params,
                             fault_plan=plan)
            ga = guarded_run(loop, wl, n_cores, params=params,
                             fault_plan=plan, policy=adaptive_policy)
            ar = ga.adaptive
            checks = list(getattr(ar, "checks", ()) or ())
            total_checks += len(checks)
            raw = {
                "correct": (_independent_correct(gs, ref)
                            and _independent_correct(ga, ref)),
                "checks_ok": all(v.ok for v in checks),
                "degraded": gs.degraded or ga.degraded,
                "resolved_by": ga.resolved_by,
            }
            outcome = _classify(raw)
            counts[outcome] += 1
            cells.append(ImbalanceCell(
                kernel=name, scenario=sname, skewed=bool(slow_cores),
                seed=cell_seed,
                static_cycles=gs.cycles if gs.cycles is not None
                else float("inf"),
                adaptive_cycles=ga.cycles if ga.cycles is not None
                else float("inf"),
                imbalance=gs.sim.imbalance if gs.sim is not None else 0.0,
                resolved_by=ga.resolved_by,
                migrated=bool(getattr(ar, "migrated", False)),
                depth_actions=len([
                    a for a in getattr(ar, "actions", ()) or ()
                    if a.kind in ("grow", "shrink", "rescue-grow")
                ]),
                checks=len(checks),
                checks_ok=raw["checks_ok"],
                correct=raw["correct"],
                outcome=outcome,
            ))
    return ImbalanceResult(cells=cells, counts=counts,
                           total_checks=total_checks)


def format_result(res: ImbalanceResult) -> str:
    lines = [
        "E13 — imbalance chaos: static vs. adaptive under skewed cores",
        f"{'kernel':10s} {'scenario':9s} {'static':>8s} {'adaptive':>8s} "
        f"{'gain':>6s} {'imb':>5s} {'via':10s} {'mig':3s} {'dq':>3s} "
        f"{'chk':>3s} outcome",
    ]
    for c in res.cells:
        lines.append(
            f"{c.kernel:10s} {c.scenario:9s} {c.static_cycles:8.0f} "
            f"{c.adaptive_cycles:8.0f} {c.gain * 100:5.1f}% "
            f"{c.imbalance:5.2f} {str(c.resolved_by):10s} "
            f"{'yes' if c.migrated else ' - ':3s} {c.depth_actions:3d} "
            f"{c.checks:3d} {c.outcome}"
        )
    lines.append("")
    lines.append(
        "summary: "
        + "  ".join(f"{k}={res.counts.get(k, 0)}" for k in OUTCOMES)
        + f"  (dynamic configs verified: {res.total_checks})"
    )
    lines.append(
        f"mean gain on skewed cells: {res.mean_skewed_gain * 100:.1f}%  "
        f"never-worse: {'yes' if res.never_worse else 'NO'}  "
        "wins/kernel: "
        + " ".join(f"{k}={n}" for k, n in res.wins_per_kernel.items())
    )
    lines.append(
        f"silent corruption: {res.silent}"
        + ("  — SAFETY INVARIANT HOLDS" if res.silent == 0
           else "  — SAFETY INVARIANT VIOLATED")
    )
    lines.append("campaign gate: " + ("PASS" if res.ok else "FAIL"))
    return "\n".join(lines)
