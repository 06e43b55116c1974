"""Tests for the guarded runtime: failure classification, bounded
retry with relaxed parameters, and the sequential fallback.

The safety contract under test: ``guarded_run`` always returns a
correct final state, whatever happens to the parallel path."""

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.interp import run_loop
from repro.kernels import get_kernel
from repro.runtime import guard as G
from repro.runtime.guard import (
    FailureKind,
    GuardPolicy,
    classify_failure,
    guarded_run,
)
from repro.sim import (
    BudgetExceeded,
    DeadlockError,
    MachineParams,
    MemoryFault,
    SimError,
)

TRIP = 12


def _case(name="umt2k-1", trip=TRIP):
    spec = get_kernel(name)
    loop = spec.loop()
    return loop, spec.workload(trip=trip)


def _assert_matches_reference(loop, wl, g):
    ref = run_loop(loop, wl)
    for a, buf in ref.arrays.items():
        assert np.array_equal(buf, g.arrays[a]), a
    for s, v in ref.scalars.items():
        assert g.scalars[s] == v, s


class TestClassify:
    def test_taxonomy_mapping(self):
        assert classify_failure(DeadlockError("x")) is FailureKind.DEADLOCK
        assert classify_failure(BudgetExceeded("x")) is FailureKind.BUDGET
        assert classify_failure(MemoryFault("x")) is FailureKind.MEMORY_FAULT
        assert classify_failure(SimError("x")) is FailureKind.SIM_ERROR
        assert classify_failure(RuntimeError("x")) is FailureKind.COMPILE_ERROR


class TestCleanPath:
    def test_parallel_first_try(self):
        loop, wl = _case()
        g = guarded_run(loop, wl, 2)
        assert g.source == "parallel" and not g.degraded
        assert g.attempts == 1 and not g.failures
        assert g.cycles is not None and g.cycles > 0
        assert g.injected == []
        _assert_matches_reference(loop, wl, g)

    def test_describe_mentions_source(self):
        loop, wl = _case()
        text = guarded_run(loop, wl, 2).describe()
        assert "parallel" in text and "1 parallel attempt" in text


class TestFaultedPaths:
    def test_drop_degrades_loudly(self):
        loop, wl = _case()
        g = guarded_run(loop, wl, 4,
                        fault_plan=FaultPlan.single("drop", seed=1))
        # a dropped transfer may never produce a silently-wrong answer
        assert g.failures, "dropped transfers must surface as failures"
        assert all(
            k in (FailureKind.DEADLOCK, FailureKind.SIM_ERROR,
                  FailureKind.BUDGET)
            for k in g.failure_kinds
        )
        assert len(g.injected) > 0
        _assert_matches_reference(loop, wl, g)

    def test_corrupt_detected_never_silent(self):
        loop, wl = _case("lammps-1")
        g = guarded_run(loop, wl, 4,
                        fault_plan=FaultPlan.single("corrupt", seed=2))
        assert g.failures
        assert len(g.injected) > 0
        _assert_matches_reference(loop, wl, g)

    def test_timing_faults_masked(self):
        loop, wl = _case()
        g = guarded_run(loop, wl, 4,
                        fault_plan=FaultPlan.single("jitter", seed=3))
        assert g.source == "parallel" and not g.failures
        assert len(g.injected) > 0  # faults fired, answer still bit-exact
        _assert_matches_reference(loop, wl, g)

    def test_retries_bounded_by_policy(self):
        loop, wl = _case()
        pol = GuardPolicy(max_attempts=2)
        g = guarded_run(loop, wl, 4, policy=pol,
                        fault_plan=FaultPlan.single("drop", seed=1))
        assert g.attempts <= 2


class TestRelaxation:
    def test_deadlock_retries_with_deeper_queues(self, monkeypatch):
        loop, wl = _case()
        seen_depths = []

        def _always_deadlock(kernel, workload, params, faults=None, obs=None,
                             detect_races=False):
            seen_depths.append(params.queue_depth)
            raise DeadlockError("synthetic deadlock")

        monkeypatch.setattr(G, "execute_kernel", _always_deadlock)
        g = guarded_run(loop, wl, 2, params=MachineParams(queue_depth=20))
        assert g.source == "fallback" and g.degraded
        assert seen_depths == [20, 80, 320]
        assert [f.queue_depth for f in g.failures] == [20, 80, 320]
        _assert_matches_reference(loop, wl, g)

    def test_depth_relaxation_capped(self, monkeypatch):
        loop, wl = _case()

        def _always_deadlock(kernel, workload, params, faults=None, obs=None,
                             detect_races=False):
            raise DeadlockError("synthetic deadlock")

        monkeypatch.setattr(G, "execute_kernel", _always_deadlock)
        pol = GuardPolicy(max_attempts=10, max_queue_depth=100)
        g = guarded_run(loop, wl, 2, params=MachineParams(queue_depth=20),
                        policy=pol)
        # 20 -> 80 -> 100(cap) then stop: no attempt beyond the cap
        assert [f.queue_depth for f in g.failures] == [20, 80, 100]

    def test_budget_retries_with_larger_budget(self, monkeypatch):
        loop, wl = _case()
        budgets = []

        def _always_budget(kernel, workload, params, faults=None, obs=None,
                           detect_races=False):
            budgets.append(params.max_instrs)
            raise BudgetExceeded("synthetic budget trip")

        monkeypatch.setattr(G, "execute_kernel", _always_budget)
        g = guarded_run(loop, wl, 2, params=MachineParams(max_instrs=1000))
        assert budgets == [1000, 8000, 64000]
        assert g.source == "fallback"

    def test_deterministic_failure_not_retried(self, monkeypatch):
        loop, wl = _case()
        calls = []

        def _always_simerror(kernel, workload, params, faults=None, obs=None,
                             detect_races=False):
            calls.append(1)
            raise SimError("synthetic invariant violation")

        monkeypatch.setattr(G, "execute_kernel", _always_simerror)
        g = guarded_run(loop, wl, 2)  # no fault plan: rerun is identical
        assert len(calls) == 1 and g.attempts == 1
        assert g.failure_kinds == [FailureKind.SIM_ERROR]
        assert g.source == "fallback"
        _assert_matches_reference(loop, wl, g)

    def test_wrong_answer_is_verify_mismatch(self, monkeypatch):
        """A run that completes with a wrong answer is a verify mismatch:
        deterministic, so not retried, and served from the fallback."""
        from repro.runtime.exec import execute_kernel as real_execute

        loop, wl = _case()

        def _wrong(kernel, workload, params, **kw):
            res = real_execute(kernel, workload, params, **kw)
            name = sorted(res.arrays)[0]
            res.arrays[name] = res.arrays[name] + 1.0
            return res

        monkeypatch.setattr(G, "execute_kernel", _wrong)
        g = guarded_run(loop, wl, 2)
        assert g.failure_kinds == [FailureKind.VERIFY_MISMATCH]
        assert g.attempts == 1 and g.source == "fallback"
        _assert_matches_reference(loop, wl, g)

    def test_compile_error_falls_back_immediately(self, monkeypatch):
        loop, wl = _case()

        def _broken_compile(loop_, n_cores, config=None, obs=None):
            raise RuntimeError("synthetic compiler bug")

        monkeypatch.setattr(G, "compile_loop", _broken_compile)
        g = guarded_run(loop, wl, 2)
        assert g.source == "fallback" and g.attempts == 0
        assert g.failure_kinds == [FailureKind.COMPILE_ERROR]
        _assert_matches_reference(loop, wl, g)

    def test_protocol_rejection_skips_retries(self, monkeypatch):
        # a statically-rejected artifact is known broken: zero parallel
        # attempts, straight to the sequential fallback with diagnosis
        from repro.check import mutate_kernel
        from repro.runtime.exec import compile_loop

        loop, wl = _case()

        def _miscompile(loop_, n_cores, config=None, obs=None, check=True):
            kern = compile_loop(loop_, n_cores, config, check=False)
            return mutate_kernel(kern, "drop-enq") or kern

        monkeypatch.setattr(G, "compile_loop", _miscompile)
        g = guarded_run(loop, wl, 4)
        assert g.source == "fallback" and g.attempts == 0
        assert g.failure_kinds == [FailureKind.PROTOCOL]
        assert "count-mismatch" in g.failures[0].message
        _assert_matches_reference(loop, wl, g)

    def test_protocol_classified_from_exception(self):
        from repro.check import ProtocolError, check_kernel, mutate_kernel
        from repro.runtime.exec import compile_loop

        loop, _ = _case()
        bad = mutate_kernel(compile_loop(loop, 4, check=False), "drop-enq")
        exc = ProtocolError(check_kernel(bad))
        assert classify_failure(exc) is FailureKind.PROTOCOL

    def test_protocol_provenance_round_trips_store_record(self):
        # FailureKind.PROTOCOL must survive the store's run envelope
        # without a schema bump
        from repro.experiments.common import ExpConfig, KernelRun
        from repro.store.records import decode_run, encode_run

        run = KernelRun(
            kernel="umt2k-1", config=ExpConfig(n_cores=4, trip=TRIP),
            seq_cycles=100.0, par_cycles=float("inf"),
            correct=True, deadlocked=False, stats=None,
            failure=FailureKind.PROTOCOL.value, fallback=True,
        )
        back = decode_run(encode_run("k" * 64, run))
        assert back is not None
        assert back.failure == "protocol" and back.fallback

    def test_first_try_resolution_recorded(self):
        loop, wl = _case()
        g = guarded_run(loop, wl, 2)
        assert g.resolved_by == "first-try"
        assert "via first-try" in g.describe()

    def test_deeper_queues_resolution_recorded(self, monkeypatch):
        # fail once with a deadlock, then let the real machine run: the
        # retry that succeeds must stamp the failure it resolved
        from repro.runtime.exec import execute_kernel as real_execute

        loop, wl = _case()
        calls = []

        def _flaky(kernel, workload, params, faults=None, obs=None,
                   detect_races=False):
            calls.append(params.queue_depth)
            if len(calls) == 1:
                raise DeadlockError("synthetic transient deadlock")
            return real_execute(kernel, workload, params, faults=faults,
                                obs=obs, detect_races=detect_races)

        monkeypatch.setattr(G, "execute_kernel", _flaky)
        g = guarded_run(loop, wl, 2, params=MachineParams(queue_depth=20),
                        fault_plan=FaultPlan(seed=0))
        assert g.source == "parallel" and g.resolved_by == "deeper-queues"
        assert calls == [20, 80]
        assert g.failures[0].resolution == "deeper-queues"
        assert "[resolved by deeper-queues]" in g.failures[0].describe()
        _assert_matches_reference(loop, wl, g)

    def test_failure_report_carries_partial_stats(self):
        loop, wl = _case()
        # a guaranteed-drop plan deadlocks the machine mid-flight, so the
        # report must carry the machine's progress snapshot
        g = guarded_run(loop, wl, 4, policy=GuardPolicy(max_attempts=1),
                        fault_plan=FaultPlan(seed=0, drop_prob=1.0))
        assert g.failures
        rep = g.failures[0]
        assert rep.partial is not None
        assert "progress:" in rep.describe()


class TestAdaptiveLadder:
    """The adapt rung of the adapt -> relax -> sequential ladder."""

    PLAN = FaultPlan(seed=7, slow_cores=(1,), slow_factor=3.0)

    def test_imbalance_rung_fires_and_wins(self):
        # a 3x-slowed core convoys the gang: the run verifies but is
        # reported as IMBALANCE, and the adaptive rung beats static
        loop, wl = _case(trip=16)
        g = guarded_run(loop, wl, 4, policy=GuardPolicy(adapt=True),
                        fault_plan=self.PLAN)
        assert g.source == "parallel" and not g.degraded
        assert g.failure_kinds == [FailureKind.IMBALANCE]
        assert g.resolved_by == "adaptive"
        assert g.failures[0].resolution == "adaptive"
        assert g.adaptive is not None and g.adaptive.all_checks_ok
        gs = guarded_run(loop, wl, 4, fault_plan=self.PLAN)
        assert g.cycles < gs.cycles
        _assert_matches_reference(loop, wl, g)

    def test_imbalance_not_reported_without_adapt(self):
        loop, wl = _case(trip=16)
        g = guarded_run(loop, wl, 4, fault_plan=self.PLAN)
        assert FailureKind.IMBALANCE not in g.failure_kinds
        assert g.resolved_by == "first-try" and g.adaptive is None

    def test_balanced_run_does_not_escalate(self):
        loop, wl = _case(trip=16)
        g = guarded_run(loop, wl, 4, policy=GuardPolicy(adapt=True))
        assert g.failure_kinds == [] and g.resolved_by == "first-try"
        assert g.adaptive is None

    def test_losing_adaptation_keeps_static_with_provenance(self, monkeypatch):
        # force the adaptive result to always lose on cycles: the guard
        # must serve the static answer but keep the AdaptiveRun record
        import repro.runtime.adaptive as A

        loop, wl = _case(trip=16)
        real = A.adaptive_run

        def _slow_adaptive(*a, **kw):
            ar = real(*a, **kw)
            ar.result.cycles = float("inf")
            return ar

        monkeypatch.setattr(A, "adaptive_run", _slow_adaptive)
        g = guarded_run(loop, wl, 4, policy=GuardPolicy(adapt=True),
                        fault_plan=self.PLAN)
        assert g.source == "parallel" and g.resolved_by == "static"
        assert g.failure_kinds == [FailureKind.IMBALANCE]
        assert g.failures[0].resolution is None  # nothing resolved it
        assert g.adaptive is not None  # provenance even when it lost
        _assert_matches_reference(loop, wl, g)

    def test_adaptive_resolves_deadlock_rung(self, monkeypatch):
        # static execution deadlocks deterministically; the adaptive
        # rung (fired before parameter relaxation) returns a verified
        # answer, so the failure is resolved by "adaptive"
        import repro.runtime.adaptive as A

        loop, wl = _case()
        ref = run_loop(loop, wl)

        def _always_deadlock(kernel, workload, params, faults=None, obs=None,
                             detect_races=False):
            raise DeadlockError("synthetic deadlock")

        class _FakeResult:
            arrays = ref.arrays
            scalars = dict(ref.scalars)
            cycles = 123.0

        class _FakeAdaptiveRun:
            result = _FakeResult()
            injected = []

        monkeypatch.setattr(G, "execute_kernel", _always_deadlock)
        monkeypatch.setattr(A, "adaptive_run",
                            lambda *a, **kw: _FakeAdaptiveRun())
        g = guarded_run(loop, wl, 4, policy=GuardPolicy(adapt=True))
        assert g.source == "parallel" and g.resolved_by == "adaptive"
        assert g.attempts == 1  # no relaxation retries were needed
        assert g.failure_kinds == [FailureKind.DEADLOCK]
        assert g.failures[0].resolution == "adaptive"
        _assert_matches_reference(loop, wl, g)

    def test_adaptive_rung_failure_falls_through_to_relaxation(
            self, monkeypatch):
        # if the adaptive rung itself dies, the ladder continues to
        # parameter relaxation and ultimately the sequential fallback
        import repro.runtime.adaptive as A

        loop, wl = _case()
        depths = []

        def _always_deadlock(kernel, workload, params, faults=None, obs=None,
                             detect_races=False):
            depths.append(params.queue_depth)
            raise DeadlockError("synthetic deadlock")

        def _broken_adaptive(*a, **kw):
            raise SimError("adaptive rung exploded")

        monkeypatch.setattr(G, "execute_kernel", _always_deadlock)
        monkeypatch.setattr(A, "adaptive_run", _broken_adaptive)
        g = guarded_run(loop, wl, 2, params=MachineParams(queue_depth=20),
                        policy=GuardPolicy(adapt=True))
        assert g.source == "fallback" and g.resolved_by == "fallback"
        assert depths == [20, 80, 320]  # relaxation still happened
        assert FailureKind.SIM_ERROR in g.failure_kinds  # rung's failure
        _assert_matches_reference(loop, wl, g)
