"""Guarded execution: every caller gets a correct answer, always.

The system's core safety invariant is *every run is either bit-exact
or fails loudly; never silently wrong*.  The simulator holds up its
half — deadlock detection, instruction budgets, drain checks, and the
reference-interpreter verification in :mod:`repro.verify` turn every
known failure mode into an exception or a ``correct=False``.  This
module holds up the other half: :func:`guarded_run` wraps
``compile_loop``/``execute_kernel`` so that a failure *degrades*
instead of propagating:

1. classify the failure into the :class:`FailureKind` taxonomy and
   record a :class:`FailureReport` (with the machine's partial
   statistics when available);
2. with ``GuardPolicy.adapt`` enabled, *adapt* first: hand the kernel
   to :func:`repro.runtime.adaptive.adaptive_run` (work-stealing
   placement, self-tuned queue depths, every dynamic configuration
   re-verified by :mod:`repro.check` before it runs) — this also
   fires on a run that *succeeded* but left the gang imbalanced
   (:class:`FailureKind.IMBALANCE`), recovering throughput before
   anything is lost;
3. retry with *relaxed* parameters where that can plausibly help — a
   deadlock retries with deeper queues (undersized queues are a real
   deadlock cause, §II), a budget trip retries with a larger budget;
   deterministic failures without an active fault plan are not
   retried (a byte-identical rerun cannot succeed);
4. after bounded retries, fall back to the sequential reference
   interpreter — the result the transformation was required to
   preserve in the first place — and say so in the provenance.

The escalation ladder is therefore ``adapt -> relax -> sequential``,
and the return value always carries a correct ``arrays``/``scalars``
state plus the full record of *how* it was obtained — including
*which* rung resolved the failure (``resolved_by`` /
``FailureReport.resolution``).

Every experiment, sweep and serve cell runs through
:func:`guarded_run` (see :func:`repro.experiments.common.run_kernel`),
and so do the CLI's ``kernels run``, ``trace`` and ``profile`` and the
simulator leg of the ingest oracle, so this module is the one place a
simulated result is judged.  Two callers stay outside on purpose: the
fuzz probe (:func:`repro.fuzz.campaign.probe_loop`) must simulate
artifacts the checker rejects, and the chaos and imbalance campaigns
judge the guard itself against their own interpreter call.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field, replace

from ..compiler.pipeline import PlanStats
from ..interp import run_loop
from ..ir.codec import loop_digest
from ..ir.stmts import Loop
from ..memo import ORACLE, content_key
from ..obs.events import span
from ..sim import (
    BudgetExceeded,
    DeadlockError,
    MachineParams,
    MemoryFault,
    PartialStats,
    SimError,
    SimResult,
)
from ..verify import verify_result
from ..workload import Workload
from .exec import compile_loop, execute_kernel

log = logging.getLogger(__name__)


class FailureKind(enum.Enum):
    """Taxonomy of guarded-execution failures."""

    DEADLOCK = "deadlock"            # DeadlockError: mis-paired/undersized queues
    BUDGET = "budget"                # BudgetExceeded: runaway execution
    SIM_ERROR = "sim-error"          # SimError: drain imbalance, bad dispatch...
    MEMORY_FAULT = "memory-fault"    # MemoryFault: out-of-bounds access
    VERIFY_MISMATCH = "verify-mismatch"  # ran to completion, wrong answer
    COMPILE_ERROR = "compile-error"  # the compiler pipeline itself raised
    PROTOCOL = "protocol"            # static checker rejected the artifact
    STORE = "store-error"            # durable store write failed (ENOSPC/EIO)
    IMBALANCE = "imbalance"          # ran correctly but the gang convoyed

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: kinds whose retry gets *relaxed* machine parameters; all other kinds
#: are deterministic reruns and only retried under active fault plans.
_RELAXABLE = frozenset({FailureKind.DEADLOCK, FailureKind.BUDGET})

#: what a simulated attempt may raise; each maps to a FailureKind.
_SIM_FAILURES = (DeadlockError, BudgetExceeded, MemoryFault, SimError)


def classify_failure(exc: BaseException) -> FailureKind:
    """Map an exception from the compile/execute path to the taxonomy."""
    from ..check import ProtocolError
    from ..store.disk import StoreWriteError

    if isinstance(exc, ProtocolError):
        return FailureKind.PROTOCOL
    if isinstance(exc, StoreWriteError):
        # a full/broken disk is an infrastructure failure, not a
        # compute bug: serving turns it into structured load-shedding.
        return FailureKind.STORE
    if isinstance(exc, DeadlockError):
        return FailureKind.DEADLOCK
    if isinstance(exc, BudgetExceeded):
        return FailureKind.BUDGET
    if isinstance(exc, MemoryFault):
        return FailureKind.MEMORY_FAULT
    if isinstance(exc, SimError):
        return FailureKind.SIM_ERROR
    return FailureKind.COMPILE_ERROR


@dataclass
class FailureReport:
    """One failed parallel attempt, with enough context to diagnose."""

    kind: FailureKind
    message: str
    attempt: int                     # 1-based attempt number
    queue_depth: int                 # machine params of the failed attempt
    max_instrs: int
    partial: PartialStats | None = None
    #: which escalation rung resolved this failure, once known:
    #: "adaptive" | "deeper-queues" | "larger-budget" | "retry" | None
    #: (None = unresolved, or resolved only by the sequential fallback).
    resolution: str | None = None

    def describe(self) -> str:
        extra = f"; progress: {self.partial.format()}" if self.partial else ""
        head = self.message.splitlines()[0] if self.message else ""
        fixed = f" [resolved by {self.resolution}]" if self.resolution else ""
        return (
            f"attempt {self.attempt}: {self.kind.value} "
            f"(depth={self.queue_depth}, budget={self.max_instrs}) "
            f"{head}{extra}{fixed}"
        )


@dataclass(frozen=True)
class GuardPolicy:
    """Bounded-retry policy for :func:`guarded_run`."""

    #: total parallel attempts (including the first).
    max_attempts: int = 3
    #: queue-depth multiplier applied after a deadlock.
    depth_scale: int = 4
    #: instruction-budget multiplier applied after a budget trip.
    budget_scale: int = 8
    #: cap so relaxation cannot grow without bound.
    max_queue_depth: int = 4096
    #: enable the adaptive rung of the ladder (work-stealing placement
    #: + self-tuned queue depths, each configuration checker-verified
    #: before it runs) ahead of parameter relaxation.
    adapt: bool = False
    #: per-core idle-fraction spread past which a *successful* run is
    #: still reported as IMBALANCE and handed to the adaptive runtime.
    imbalance_threshold: float = 0.4


@dataclass
class GuardedRun:
    """Outcome of a guarded execution.  ``arrays``/``scalars`` are
    always a correct final state; ``source`` says where it came from."""

    arrays: dict
    scalars: dict
    source: str                      # "parallel" | "fallback"
    attempts: int                    # parallel attempts made
    failures: list[FailureReport] = field(default_factory=list)
    cycles: float | None = None      # simulated cycles (parallel only)
    sim: SimResult | None = None     # the verified parallel result
    injected: list = field(default_factory=list)  # FaultEvents, all attempts
    #: escalation rung that produced the served result: "first-try" |
    #: "static" | "adaptive" | "deeper-queues" | "larger-budget" |
    #: "retry" | "fallback".
    resolved_by: str | None = None
    #: AdaptiveRun provenance when the adaptive rung ran (win or lose).
    adaptive: object | None = None
    #: compile-time statistics of the compiled plan (None when the
    #: compiler itself failed).
    stats: PlanStats | None = None

    @property
    def degraded(self) -> bool:
        return self.source == "fallback"

    @property
    def failure_kinds(self) -> list[FailureKind]:
        return [f.kind for f in self.failures]

    def describe(self) -> str:
        via = f" via {self.resolved_by}" if self.resolved_by else ""
        lines = [
            f"source: {self.source}{via} after {self.attempts} "
            "parallel attempt(s)"
        ]
        lines += ["  " + f.describe() for f in self.failures]
        if self.injected:
            lines.append(f"  faults injected: {len(self.injected)}")
        return "\n".join(lines)


def guarded_run(
    loop: Loop,
    workload: Workload,
    n_cores: int = 4,
    *,
    config=None,
    params: MachineParams | None = None,
    policy: GuardPolicy | None = None,
    fault_plan=None,
    obs=None,
    detect_races: bool = False,
) -> GuardedRun:
    """Compile + execute ``loop`` with graceful sequential fallback.

    The compiled kernel is checked by :mod:`repro.check` at the
    machine's queue depth, and every completed run is verified against
    the reference interpreter.

    ``fault_plan`` (a :class:`~repro.faults.FaultPlan`) arms fault
    injection: a fresh injector is created per attempt so the seeded
    fault sequence replays identically on retries, and every injected
    event is aggregated into the result's ``injected`` log.

    ``obs`` (a :class:`repro.obs.events.EventBus`) receives one
    ``guard`` event per failed attempt (named by its
    :class:`FailureKind`) and a final ``parallel``/``fallback`` event,
    and is forwarded to the compile and execute stages.

    ``detect_races`` arms the simulator's happens-before race detector
    on every parallel attempt; the served ``sim.races`` lists what it
    found.
    """
    policy = policy or GuardPolicy()
    base = params or MachineParams()
    if obs is not None and not obs.enabled:
        obs = None
    # The reference interpreter is both the verification oracle and the
    # fallback answer, so the guarantee costs one sequential execution
    # per (loop content, workload content) and process; cells that
    # differ only in cores or machine share it.
    ref = ORACLE.get((loop_digest(loop), content_key(workload)),
                     lambda: _read_only(run_loop(loop, workload)), obs)

    failures: list[FailureReport] = []
    injected: list = []
    stats = None

    def _served(res, attempt: int, rung: str, adaptive=None) -> GuardedRun:
        if obs is not None:
            obs.emit_guard("parallel", attempt,
                           note="adaptive" if rung == "adaptive" else None)
        return GuardedRun(
            arrays=res.arrays, scalars=dict(res.scalars), source="parallel",
            attempts=attempt, failures=failures, cycles=res.cycles, sim=res,
            injected=injected, resolved_by=rung, adaptive=adaptive,
            stats=stats,
        )

    def _fallback(attempts: int) -> GuardedRun:
        if obs is not None:
            obs.emit_guard("fallback", attempts)
        return GuardedRun(
            arrays=ref.arrays, scalars=dict(ref.scalars), source="fallback",
            attempts=attempts, failures=failures, injected=injected,
            resolved_by="fallback", stats=stats,
        )

    def _reject(kind: FailureKind, message: str, note=None) -> GuardedRun:
        """No runnable parallel artifact: sequential fallback without
        retries, with the diagnosis attached."""
        failures.append(FailureReport(
            kind=kind, message=message, attempt=0,
            queue_depth=base.queue_depth, max_instrs=base.max_instrs,
        ))
        log.warning("guard: %s; sequential fallback without retries",
                    failures[-1].describe())
        if obs is not None:
            obs.emit_guard(kind.value, 0, note=note)
        return _fallback(0)

    try:
        # checked explicitly below against the *actual* machine params
        kernel = compile_loop(loop, n_cores, config, obs=obs, check=False)
    except Exception as exc:  # compiler bug: no parallel path exists
        return _reject(FailureKind.COMPILE_ERROR,
                       f"{type(exc).__name__}: {exc}")
    stats = kernel.plan.stats

    # Static protocol pre-flight (repro.check): a rejected artifact is
    # *known* broken — retrying cannot help, and running it can only
    # reproduce the predicted failure slowly.
    from ..check import check_kernel

    with span(obs, "check"):
        report = check_kernel(kernel, queue_depth=base.queue_depth)
    if not report.ok:
        return _reject(FailureKind.PROTOCOL, report.describe(),
                      note=", ".join(report.categories))

    def _try_adaptive(attempt: int):
        """Adaptive rung: returns a verified AdaptiveRun or None, and
        appends a FailureReport when the rung itself failed."""
        from .adaptive import AdaptivePolicy, adaptive_run

        try:
            ar = adaptive_run(
                loop, workload, n_cores, config=config, params=base,
                policy=AdaptivePolicy(
                    imbalance_threshold=policy.imbalance_threshold,
                ),
                fault_plan=fault_plan, obs=obs,
            )
        except Exception as exc:
            failures.append(FailureReport(
                kind=classify_failure(exc),
                message=f"adaptive rung: {type(exc).__name__}: {exc}",
                attempt=attempt, queue_depth=base.queue_depth,
                max_instrs=base.max_instrs,
                partial=getattr(exc, "partial", None),
            ))
            return None
        injected.extend(ar.injected)
        if verify_result(ref, ar.result):
            return ar
        failures.append(FailureReport(
            kind=FailureKind.VERIFY_MISMATCH,
            message="adaptive result differs from the reference interpreter",
            attempt=attempt, queue_depth=base.queue_depth,
            max_instrs=base.max_instrs,
        ))
        return None

    #: relaxation rung applied before the upcoming attempt; becomes the
    #: failure's ``resolution`` when that attempt succeeds.
    pending_rung = "first-try"
    adapt_tried = False
    cur = base
    attempt = 0
    while attempt < policy.max_attempts:
        attempt += 1
        injector = None
        if fault_plan is not None:
            from ..faults import FaultInjector

            injector = FaultInjector(fault_plan)
        try:
            res = execute_kernel(kernel, workload, cur, faults=injector,
                                 obs=obs, detect_races=detect_races)
        except _SIM_FAILURES as exc:
            if injector is not None:
                injected.extend(injector.events)
            relax_kind = classify_failure(exc)
            failures.append(FailureReport(
                kind=relax_kind, message=str(exc), attempt=attempt,
                queue_depth=cur.queue_depth, max_instrs=cur.max_instrs,
                partial=getattr(exc, "partial", None),
            ))
        else:
            if injector is not None:
                injected.extend(injector.events)
            if verify_result(ref, res):
                resolved = pending_rung
                adaptive_prov = None
                if failures and resolved != "first-try":
                    failures[-1].resolution = resolved
                # IMBALANCE rung: correct but convoyed — adapt before
                # serving, keep the static answer if adaptation loses.
                imb = res.imbalance
                if (policy.adapt and not adapt_tried
                        and imb >= policy.imbalance_threshold):
                    adapt_tried = True
                    imb_report = FailureReport(
                        kind=FailureKind.IMBALANCE,
                        message=(
                            f"run verified but idle-fraction spread "
                            f"{imb:.2f} >= {policy.imbalance_threshold:.2f}"
                        ),
                        attempt=attempt, queue_depth=cur.queue_depth,
                        max_instrs=cur.max_instrs,
                    )
                    failures.append(imb_report)
                    if obs is not None:
                        obs.emit_guard(FailureKind.IMBALANCE.value, attempt,
                                       note=f"spread {imb:.2f}")
                    ar = _try_adaptive(attempt)
                    if ar is not None and ar.result.cycles < res.cycles:
                        imb_report.resolution = "adaptive"
                        return _served(ar.result, attempt, "adaptive", ar)
                    resolved = "static"
                    adaptive_prov = ar  # provenance even when it lost
                return _served(res, attempt, resolved, adaptive_prov)
            relax_kind = FailureKind.VERIFY_MISMATCH
            failures.append(FailureReport(
                kind=relax_kind,
                message="simulated result differs from the reference "
                        "interpreter",
                attempt=attempt,
                queue_depth=cur.queue_depth, max_instrs=cur.max_instrs,
            ))

        log.warning("guard: %s", failures[-1].describe())
        if obs is not None:
            obs.emit_guard(relax_kind.value, attempt,
                           note=failures[-1].message.splitlines()[0]
                           if failures[-1].message else None)
        # Adaptive rung first: self-tuned depths can clear a capacity
        # deadlock and stealing placement a straggler-driven budget trip
        # — and each dynamic configuration is checker-verified before
        # it runs, unlike a blind parameter bump.
        if (policy.adapt and not adapt_tried and relax_kind in _RELAXABLE):
            adapt_tried = True
            failed_report = failures[-1]
            ar = _try_adaptive(attempt)
            if ar is not None:
                failed_report.resolution = "adaptive"
                return _served(ar.result, attempt, "adaptive", ar)
        if relax_kind is FailureKind.DEADLOCK:
            if cur.queue_depth >= policy.max_queue_depth:
                break
            cur = replace(
                cur,
                queue_depth=min(
                    policy.max_queue_depth,
                    cur.queue_depth * policy.depth_scale,
                ),
            )
            pending_rung = "deeper-queues"
        elif relax_kind is FailureKind.BUDGET:
            cur = replace(cur, max_instrs=cur.max_instrs * policy.budget_scale)
            pending_rung = "larger-budget"
        elif fault_plan is None:
            # deterministic failure, identical rerun cannot succeed
            break
        else:
            pending_rung = "retry"

    log.warning(
        "guard: %d parallel attempt(s) failed; serving sequential fallback",
        attempt,
    )
    return _fallback(attempt)


def _read_only(ref):
    """Flag a shared oracle result's arrays non-writeable."""
    for buf in ref.arrays.values():
        buf.flags.writeable = False
    return ref
