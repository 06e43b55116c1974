"""Adaptive runtime: imbalance-aware scheduling with verified reconfig.

The static pipeline commits to one configuration — fiber ``p`` on core
``p``, every queue at the same depth — at compile time.  That is the
right default on the uniform machine of the paper's §V evaluation, but
it degrades badly when the machine is *not* uniform: a slowed core (a
fault-injection campaign, a thermally throttled tile) turns the gang
into a convoy, and an undersized queue turns a latency blip into a
capacity deadlock that the guard can only answer with the sequential
fallback.

This module adds a measured escalation ladder *before* that fallback:

* **self-tuning queue depths** — per-queue capacities grow on sustained
  full-stall pressure and shrink on starvation, at epoch boundaries;
  mid-run the :class:`QueueController` may *grow* (never shrink) a
  queue live, which is safe by construction: FIFO contents are
  depth-independent (value-safety) and capacity wait-for edges only
  relax when depth increases (deadlock-monotonicity);
* **fiber migration** — the work-stealing §III-G lowering
  (``CompilerConfig.runtime_mode = "stealing"``) makes fiber→core
  placement an execute-time register preload, so the runtime re-places
  the heaviest fiber onto the fastest core between epochs without
  recompiling;
* **verified reconfiguration** — every dynamically chosen
  configuration (placement × per-queue depths) is re-verified by
  :func:`repro.check.check_kernel` *before* it runs; a rejected
  configuration is never executed, and the verdict is recorded in the
  run's provenance.  Live grows go through the same gate: the
  controller statically re-checks the candidate depth map before
  touching the machine.

Adaptation is feedback-driven, not model-driven: each epoch probes a
truncated run under the candidate configuration and commits only if
the measured probe improves on the incumbent, so the adaptive path can
never be talked into a worse configuration by a misread signal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

from ..compiler.config import CompilerConfig
from ..ir.stmts import Loop
from ..sim.machine import MachineParams, SimResult, idle_spread
from ..workload import Workload
from .exec import compile_loop, execute_kernel

log = logging.getLogger(__name__)

__all__ = [
    "AdaptivePolicy",
    "AdaptiveSignals",
    "AdaptAction",
    "CheckVerdict",
    "EpochReport",
    "AdaptiveRun",
    "QueueController",
    "plan_placement",
    "tune_depths",
    "adaptive_run",
]


@dataclass(frozen=True)
class AdaptivePolicy:
    """Knobs for the epoch loop and the live controller."""

    #: iterations per probe epoch (clamped to the workload's trip).
    probe_trip: int = 8
    #: maximum adaptation epochs before the final full run.
    epochs: int = 2
    #: relative probe-cycle improvement a *migration* must show to
    #: commit (depth-only changes commit on no-regression).
    min_gain: float = 0.02
    #: multiplier for pressure-driven depth growth.
    grow_scale: int = 2
    #: allow epoch-boundary shrinking of starved queues.
    shrink_enabled: bool = True
    min_queue_depth: int = 2
    max_queue_depth: int = 4096
    #: consecutive scheduler rounds a producer must sit slot-blocked
    #: before the live controller grows that queue.
    sustained_rounds: int = 3
    #: makespan-spread threshold that triggers a migration attempt.
    imbalance_threshold: float = 0.25


# ----------------------------------------------------------------------
# Signals: what the runtime reads off a (probe) run
# ----------------------------------------------------------------------

@dataclass
class AdaptiveSignals:
    """Imbalance/pressure metrics extracted from one ``SimResult``."""

    cycles: float
    core_times: list[float]
    core_instrs: list[int]
    core_busy: list[float]           # time - queue_stall
    core_idle_frac: list[float]      # SimResult.core_idle_frac
    core_cpi: list[float]            # busy cycles per instruction
    #: (src, dst, vclass) -> producer full-stall cycles (simulated time)
    queue_full_stall: dict[tuple, float]
    #: (src, dst, vclass) -> (max_outstanding, depth)
    queue_extent: dict[tuple, tuple[int, int]]

    @classmethod
    def from_result(cls, res: SimResult) -> "AdaptiveSignals":
        times = list(res.core_times)
        instrs = [s.instrs for s in res.core_stats]
        busy = [t - s.queue_stall for t, s in zip(times, res.core_stats)]
        cpi = [b / n if n else 0.0 for b, n in zip(busy, instrs)]
        full_stall: dict[tuple, float] = {}
        extent: dict[tuple, tuple[int, int]] = {}
        for qs in res.queue_stats:
            key = (qs.qid.src, qs.qid.dst, qs.qid.vclass.value)
            full_stall[key] = qs.stall_full
            extent[key] = (qs.max_outstanding, qs.depth)
        return cls(
            cycles=res.cycles, core_times=times, core_instrs=instrs,
            core_busy=busy, core_idle_frac=res.core_idle_frac, core_cpi=cpi,
            queue_full_stall=full_stall, queue_extent=extent,
        )

    @property
    def imbalance(self) -> float:
        """Spread of per-core idle fractions
        (:func:`~repro.sim.machine.idle_spread`)."""
        return idle_spread(self.core_idle_frac)


# ----------------------------------------------------------------------
# Decisions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AdaptAction:
    """One reconfiguration decision, for provenance."""

    kind: str        # 'grow' | 'shrink' | 'migrate' | 'rescue-grow'
    target: str      # queue key or 'placement'
    before: object
    after: object
    reason: str

    def describe(self) -> str:
        return f"{self.kind} {self.target}: {self.before} -> {self.after} ({self.reason})"


@dataclass(frozen=True)
class CheckVerdict:
    """One static re-verification of a dynamic configuration."""

    what: str
    ok: bool
    categories: tuple = ()


@dataclass
class EpochReport:
    """One adaptation epoch: probe, decide, verify, commit-or-revert."""

    index: int
    probe_cycles: float
    imbalance: float
    actions: list[AdaptAction] = field(default_factory=list)
    check_ok: bool | None = None     # None: no new config proposed
    committed: bool = False


def plan_placement(
    signals: AdaptiveSignals, placement: dict[int, int]
) -> dict[int, int]:
    """Greedy rebalancing swap: straggler's fiber <-> lightest core's.

    One probe cannot separate a fiber's intrinsic weight from its
    core's speed (busy time measures their product), so instead of
    solving the assignment analytically the planner proposes the single
    most promising swap — move the fiber off the *busiest* secondary
    core onto the *least busy* one and vice versa — and lets the caller
    probe it.  A bad proposal costs one rejected probe, never a worse
    committed configuration; repeated committed swaps walk toward the
    balanced assignment (primary stays pinned to core 0).
    """
    secondaries = [s for s in placement if s != 0]
    if len(secondaries) < 2:
        return dict(placement)
    straggler = max(secondaries, key=lambda s: signals.core_busy[s])
    lightest = min(secondaries, key=lambda s: signals.core_busy[s])
    new = dict(placement)
    if straggler != lightest:
        new[straggler], new[lightest] = new[lightest], new[straggler]
    return new


def tune_depths(
    signals: AdaptiveSignals,
    current: dict[tuple, int],
    base_depth: int,
    policy: AdaptivePolicy,
) -> tuple[dict[tuple, int], list[AdaptAction]]:
    """Propose per-queue depth overrides from observed pressure.

    Grow queues whose producer lost *simulated time* to full-stall
    (hitting capacity in replay processing order alone is run-ahead,
    not pressure), shrink queues whose peak occupancy never used a
    quarter of their slots.  Returns the *complete* new override map
    and the action list (empty = converged).
    """
    out = dict(current)
    actions: list[AdaptAction] = []
    for key, (peak, depth) in sorted(signals.queue_extent.items()):
        depth = depth or current.get(key, base_depth)
        stalled = signals.queue_full_stall.get(key, 0.0)
        if stalled > 0.0 and peak >= depth:
            new = min(policy.max_queue_depth, depth * policy.grow_scale)
            if new > depth:
                out[key] = new
                actions.append(AdaptAction(
                    "grow", str(key), depth, new,
                    f"full-stalled {stalled:.0f}cy (peak {peak}/{depth})",
                ))
        elif (policy.shrink_enabled and depth > policy.min_queue_depth
              and peak <= depth // 4):
            new = max(policy.min_queue_depth, max(2, 2 * peak))
            if new < depth:
                out[key] = new
                actions.append(AdaptAction(
                    "shrink", str(key), depth, new,
                    f"starved (peak {peak}/{depth})",
                ))
    return out, actions


# ----------------------------------------------------------------------
# Live controller: in-run growth with pre-verified candidates
# ----------------------------------------------------------------------

class QueueController:
    """Machine-attached controller: grows queues live, never shrinks.

    ``verify`` is a callback ``depth_map -> bool`` that statically
    re-checks a candidate configuration (the adaptive runtime binds it
    to :func:`repro.check.check_kernel` with the active placement); a
    candidate that fails verification is *not* applied — on ``on_stuck``
    that means the deadlock stands and fails loudly.
    """

    def __init__(self, policy: AdaptivePolicy | None = None, verify=None):
        self.policy = policy or AdaptivePolicy()
        self.verify = verify
        self.actions: list[AdaptAction] = []
        #: BlockedTransfer tuple captured at the last rescue attempt,
        #: for cross-checking against the static capacity-cycle report.
        self.last_blocked: tuple = ()
        self._streak: dict[tuple, int] = {}
        self._last_stall: dict[tuple, float] = {}

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _key(q) -> tuple:
        return (q.qid.src, q.qid.dst, q.qid.vclass.value)

    def _depth_map(self, machine) -> dict[tuple, int]:
        return {self._key(q): q.depth for q in machine.queues.values()}

    def _grow(self, machine, targets, reason: str) -> bool:
        """Verify-then-apply a doubling of ``targets``; False if the
        candidate is rejected or nothing can grow."""
        candidate = self._depth_map(machine)
        grows = []
        for q in targets:
            key = self._key(q)
            new = min(self.policy.max_queue_depth,
                      q.depth * self.policy.grow_scale)
            if new > q.depth:
                candidate[key] = new
                grows.append((q, key, new))
        if not grows:
            return False
        if self.verify is not None and not self.verify(candidate):
            log.warning("controller: candidate depth map rejected by the "
                        "static checker; not applied")
            return False
        for q, key, new in grows:
            old = q.depth
            q.grow(new)
            self.actions.append(AdaptAction(
                "rescue-grow" if reason == "deadlock-rescue" else "grow",
                str(key), old, new, reason,
            ))
        return True

    # -- Machine protocol ----------------------------------------------
    def on_round(self, machine) -> None:
        """Grow queues accumulating *simulated-time* full-stall for
        ``sustained_rounds`` consecutive scheduling rounds.

        A producer merely slot-blocked in replay processing order (the
        consumer just hasn't been processed yet) carries no signal —
        only growth of the queue's ``stall_full`` clock does.
        """
        stalling: dict[tuple, object] = {}
        for q in machine.queues.values():
            key = self._key(q)
            if q.stall_full > self._last_stall.get(key, 0.0):
                stalling[key] = q
            self._last_stall[key] = q.stall_full
        for key in list(self._streak):
            if key not in stalling:
                del self._streak[key]
        ripe = []
        for key, q in stalling.items():
            n = self._streak.get(key, 0) + 1
            self._streak[key] = n
            if n >= self.policy.sustained_rounds:
                ripe.append(q)
        if ripe and self._grow(machine, ripe, "sustained full-stall"):
            for q in ripe:
                self._streak.pop(self._key(q), None)

    def on_stuck(self, machine) -> bool:
        """Deadlock rescue: grow every slot-blocked queue (capacity
        edges only relax), if the checker accepts the result."""
        self.last_blocked = machine._blocked_transfers()
        targets = [
            core.blocked.queue
            for core in machine.cores
            if not core.halted and core.blocked is not None
            and core.blocked.kind == "slot"
        ]
        if not targets:
            return False  # entry-blocked cycle: growth cannot help
        return self._grow(machine, targets, "deadlock-rescue")


# ----------------------------------------------------------------------
# The epoch loop
# ----------------------------------------------------------------------

@dataclass
class AdaptiveRun:
    """Outcome of one adaptive execution, with full provenance."""

    result: SimResult
    placement: dict[int, int]
    queue_depths: dict[tuple, int]     # committed overrides (pre-run)
    final_depths: dict[tuple, int]     # observed at run end (live grows)
    epochs: list[EpochReport]
    checks: list[CheckVerdict]
    controller_actions: list[AdaptAction]
    baseline_probe_cycles: float
    final_probe_cycles: float
    injected: list = field(default_factory=list)
    kernel: object = None

    @property
    def migrated(self) -> bool:
        return any(s != f for s, f in self.placement.items())

    @property
    def actions(self) -> list[AdaptAction]:
        out = [a for e in self.epochs for a in e.actions]
        return out + list(self.controller_actions)

    @property
    def all_checks_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def describe(self) -> str:
        lines = [
            f"adaptive: {len(self.epochs)} epoch(s), "
            f"probe {self.baseline_probe_cycles:.0f} -> "
            f"{self.final_probe_cycles:.0f} cycles, "
            f"placement {self.placement}",
        ]
        for e in self.epochs:
            state = ("committed" if e.committed
                     else "rejected" if e.check_ok is False
                     else "reverted" if e.actions else "converged")
            lines.append(
                f"  epoch {e.index}: probe {e.probe_cycles:.0f}cy "
                f"imbalance {e.imbalance:.2f} "
                f"{len(e.actions)} action(s) [{state}]"
            )
            lines += [f"    {a.describe()}" for a in e.actions]
        for a in self.controller_actions:
            lines.append(f"  live: {a.describe()}")
        lines.append(
            f"  {len(self.checks)} config check(s), "
            f"{'all ok' if self.all_checks_ok else 'REJECTIONS RECORDED'}"
        )
        return "\n".join(lines)


def adaptive_run(
    loop: Loop,
    workload: Workload,
    n_cores: int = 4,
    *,
    config: CompilerConfig | None = None,
    params: MachineParams | None = None,
    policy: AdaptivePolicy | None = None,
    fault_plan=None,
    obs=None,
) -> AdaptiveRun:
    """Probe -> decide -> verify -> commit epochs, then the full run.

    Compiles the work-stealing flavour of the kernel (forcing
    ``runtime_mode="stealing"`` onto ``config`` if needed), adapts the
    configuration over measured probe epochs, and executes the full
    workload under the committed configuration with the live
    :class:`QueueController` attached.  Every configuration that runs —
    probes included — passed :func:`repro.check.check_kernel` first.
    """
    from ..check import ProtocolError, check_kernel

    policy = policy or AdaptivePolicy()
    base = params or MachineParams()
    cfg = config or CompilerConfig()
    if getattr(cfg, "runtime_mode", "static") != "stealing":
        cfg = replace(cfg, runtime_mode="stealing")

    kernel = compile_loop(loop, n_cores, cfg, obs=obs, check=False)
    placement = kernel.identity_placement()
    depths: dict[tuple, int] = {}
    checks: list[CheckVerdict] = []
    injected: list = []

    def _check(what: str, pl, dm) -> bool:
        report = check_kernel(
            kernel, queue_depth=base.queue_depth,
            placement=pl, queue_depths=dm or None,
        )
        checks.append(CheckVerdict(what, report.ok, tuple(report.categories)))
        return report.ok

    if not _check("initial identity configuration", placement, depths):
        # the artifact itself is broken; same contract as compile_loop
        report = check_kernel(kernel, queue_depth=base.queue_depth,
                              placement=placement)
        raise ProtocolError(report)

    trip = workload.trip(loop)
    probe_trip = max(1, min(trip, policy.probe_trip))

    def _injector():
        if fault_plan is None:
            return None
        from ..faults import FaultInjector

        return FaultInjector(fault_plan)

    def _probe(pl, dm) -> SimResult:
        pw = workload.copy()
        pw.scalars[loop.trip] = probe_trip
        pp = replace(base, queue_depths=tuple(sorted(dm.items())))
        inj = _injector()
        res = execute_kernel(kernel, pw, pp, faults=inj, placement=pl)
        if inj is not None:
            injected.extend(inj.events)
        return res

    sig = AdaptiveSignals.from_result(_probe(placement, depths))
    baseline_probe = sig.cycles
    epochs: list[EpochReport] = []

    for e in range(policy.epochs):
        epoch = EpochReport(index=e, probe_cycles=sig.cycles,
                            imbalance=sig.imbalance)
        epochs.append(epoch)
        new_depths, depth_actions = tune_depths(
            sig, depths, base.queue_depth, policy,
        )
        migrating = (sig.imbalance >= policy.imbalance_threshold
                     and n_cores > 2)
        new_placement = (
            plan_placement(sig, placement) if migrating else placement
        )
        if new_placement == placement:
            migrating = False
        epoch.actions = list(depth_actions)
        if migrating:
            epoch.actions.append(AdaptAction(
                "migrate", "placement", dict(placement), dict(new_placement),
                f"imbalance {sig.imbalance:.2f} >= "
                f"{policy.imbalance_threshold:.2f}",
            ))
        if not epoch.actions:
            break  # converged

        epoch.check_ok = _check(
            f"epoch {e} candidate", new_placement, new_depths,
        )
        if not epoch.check_ok:
            log.warning("adaptive: epoch %d candidate rejected by the "
                        "static checker; keeping incumbent", e)
            break

        probe2 = AdaptiveSignals.from_result(
            _probe(new_placement, new_depths)
        )
        threshold = (
            sig.cycles * (1.0 - policy.min_gain) if migrating
            else sig.cycles
        )
        if probe2.cycles <= threshold:
            epoch.committed = True
            placement, depths, sig = new_placement, new_depths, probe2
        else:
            log.info("adaptive: epoch %d candidate measured worse "
                     "(%.0f > %.0f cycles); reverting", e,
                     probe2.cycles, sig.cycles)
            break

    # Final full run under the committed configuration, with the live
    # controller bound to the same checker gate.
    def _verify_live(depth_map: dict[tuple, int]) -> bool:
        return _check("live grow candidate", placement, depth_map)

    controller = QueueController(policy, verify=_verify_live)
    final_params = replace(base, queue_depths=tuple(sorted(depths.items())))
    inj = _injector()
    res = execute_kernel(
        kernel, workload, final_params, faults=inj, obs=obs,
        placement=placement, controller=controller,
    )
    if inj is not None:
        injected.extend(inj.events)
    final_depths = {
        (qs.qid.src, qs.qid.dst, qs.qid.vclass.value): qs.depth
        for qs in res.queue_stats
    }
    return AdaptiveRun(
        result=res,
        placement=placement,
        queue_depths=depths,
        final_depths=final_depths,
        epochs=epochs,
        checks=checks,
        controller_actions=controller.actions,
        baseline_probe_cycles=baseline_probe,
        final_probe_cycles=sig.cycles,
        injected=injected,
        kernel=kernel,
    )
