"""Tests for the static queue-protocol verifier (repro.check).

Two obligations, mirroring the ISSUE acceptance bar:

* **soundness on real output** — zero false positives over tier-1
  kernels across the cores × depth × speculation matrix (the checker
  runs inside ``compile_loop`` by default, so a false positive would
  break every pipeline user);
* **sensitivity to planted bugs** — each of the five classic protocol
  bugs (dropped transfer, swapped enqueue order, unbalanced
  conditional arm, capacity cycle, use-before-deque) is rejected with
  the *expected* diagnostic category, and the static deadlock cycle is
  cross-checked against the dynamic machine's blocked-transfer set.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check import (
    CATEGORIES,
    EXPECTED_CATEGORY,
    MUTATIONS,
    CheckReport,
    ProtocolError,
    build_capacity_cycle_programs,
    check_kernel,
    check_programs,
    mutate_kernel,
    prediction_verdict,
)
from repro.check.extract import REGIONS, summarize_all
from repro.check.verifier import _find_cycle
from repro.compiler import CompilerConfig
from repro.ir.types import VClass
from repro.isa.instructions import Imm, Instr, QueueId
from repro.isa.program import Function, Program
from repro.kernels import all_kernels, get_kernel
from repro.runtime import compile_loop
from repro.sim import DeadlockError, Machine, MachineParams
from repro.sim.memory import SharedMemory

#: tier-1 subset spanning all structural classes (dense arithmetic,
#: stencil, conditional, transcendental, reduction); the full corpus
#: runs under ``repro check`` in CI.
KERNELS = ("lammps-1", "lammps-2", "irs-1", "umt2k-1", "umt2k-5", "sphot-2")

MATRIX = [
    (n, depth, spec)
    for n in (2, 4)
    for depth in (4, 20)
    for spec in (False, True)
]


def _kern(name, n_cores=4, speculation=False):
    loop = get_kernel(name).loop()
    return compile_loop(
        loop, n_cores, CompilerConfig(speculation=speculation), check=False
    )


class TestZeroFalsePositives:
    @pytest.mark.parametrize("name", KERNELS)
    def test_tier1_kernels_verify_across_matrix(self, name):
        loop = get_kernel(name).loop()
        for n, depth, spec in MATRIX:
            kern = compile_loop(
                loop, n, CompilerConfig(speculation=spec), check=False
            )
            report = check_kernel(kern, queue_depth=depth)
            assert report.ok, (
                f"{name} cores={n} depth={depth} spec={spec}:\n"
                + report.describe()
            )

    def test_report_counts_traffic(self):
        report = check_kernel(_kern("umt2k-1"))
        assert report.ok and not report.diagnostics
        assert report.n_cores == 4
        assert report.n_queues > 0 and report.n_body_transfers > 0
        assert "verified" in report.describe()

    def test_check_is_mandatory_pipeline_stage(self):
        # default compile_loop runs the checker; check=False skips it
        loop = get_kernel("umt2k-1").loop()
        kern = compile_loop(loop, 4)
        assert check_kernel(kern).ok


class TestMutations:
    """Each planted protocol bug must be rejected with its category."""

    def _first_applicable(self, mutation):
        for spec in all_kernels():
            kern = compile_loop(spec.loop(), 4, check=False)
            bad = mutate_kernel(kern, mutation)
            if bad is not None:
                return spec.name, bad
        pytest.fail(f"no kernel offers a site for {mutation!r}")

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutation_rejected_with_expected_category(self, mutation):
        name, bad = self._first_applicable(mutation)
        report = check_kernel(bad)
        assert not report.ok, f"{mutation} on {name} not flagged"
        assert EXPECTED_CATEGORY[mutation] in report.categories, (
            f"{mutation} on {name}: got {report.categories}, "
            f"expected {EXPECTED_CATEGORY[mutation]}\n" + report.describe()
        )

    def test_mutations_apply_broadly(self):
        # every mutation finds sites in a healthy share of the corpus,
        # so the sensitivity test is not a single-kernel fluke
        counts = {m: 0 for m in MUTATIONS}
        for spec in all_kernels():
            kern = compile_loop(spec.loop(), 4, check=False)
            for m in MUTATIONS:
                if mutate_kernel(kern, m) is not None:
                    counts[m] += 1
        assert all(c >= 3 for c in counts.values()), counts

    def test_unknown_mutation_rejected(self):
        kern = _kern("umt2k-1")
        with pytest.raises(ValueError, match="unknown mutation"):
            mutate_kernel(kern, "bit-rot")

    def test_categories_are_known(self):
        assert set(EXPECTED_CATEGORY.values()) <= set(CATEGORIES)


class TestCapacityCycle:
    """Fifth bug class: deadlock from finite queue capacity alone."""

    DEPTH = 4

    def test_static_rejection_at_depth(self):
        report = check_programs(
            build_capacity_cycle_programs(self.DEPTH),
            queue_depth=self.DEPTH,
        )
        assert not report.ok
        assert "deadlock-cycle" in report.categories
        diag = next(d for d in report.diagnostics
                    if d.category == "deadlock-cycle")
        assert diag.cycle and diag.cycle_queues

    def test_clean_at_sufficient_depth(self):
        report = check_programs(
            build_capacity_cycle_programs(self.DEPTH),
            queue_depth=self.DEPTH + 1,
        )
        assert report.ok, report.describe()

    def test_static_cycle_matches_dynamic_blocked_set(self):
        progs = build_capacity_cycle_programs(self.DEPTH)
        report = check_programs(progs, queue_depth=self.DEPTH)
        diag = next(d for d in report.diagnostics
                    if d.category == "deadlock-cycle")

        machine = Machine(
            progs, SharedMemory({}),
            MachineParams(queue_depth=self.DEPTH),
        )
        with pytest.raises(DeadlockError) as exc:
            machine.run()
        blocked = exc.value.blocked
        assert blocked, "DeadlockError must carry the blocked transfers"
        # precise blocked set: every stuck core, with queue + kind + tag
        assert {b.core for b in blocked} == {0, 1}
        assert all(b.kind in ("entry", "slot") for b in blocked)
        assert all(b.format() for b in blocked)
        # the statically reported cycle names the same hardware queues
        # the machine is actually wedged on
        dynamic_queues = {b.queue for b in blocked}
        static_queues = set(diag.cycle_queues)
        assert dynamic_queues <= static_queues, (
            f"dynamic {dynamic_queues} vs static {static_queues}"
        )

    def test_real_kernels_never_capacity_deadlock(self):
        # rank-ordered §III-D plans cannot produce capacity cycles;
        # document that the fifth bug class needs the hand-built pair
        report = check_kernel(_kern("lammps-1"), queue_depth=1)
        assert report.ok, report.describe()


class TestDynamicConfigurations:
    """Placement-aware verification: the checker models the exact
    configuration the adaptive runtime chose (fiber placement +
    per-queue depth overrides), not just the compile-time default."""

    def _steal(self, name="umt2k-1", n_cores=4):
        return compile_loop(
            get_kernel(name).loop(), n_cores,
            CompilerConfig(runtime_mode="stealing"),
        )

    def _rolled(self, kern):
        fibers = sorted(kern.dispatch_regs)
        return {0: 0, **dict(zip(fibers, fibers[1:] + fibers[:1]))}

    @pytest.mark.parametrize("name", ("umt2k-1", "irs-1", "sphot-2"))
    def test_stealing_kernels_verify_under_any_placement(self, name):
        kern = self._steal(name)
        for placement in (None, self._rolled(kern)):
            rep = check_kernel(kern, placement=placement)
            assert rep.ok, rep.describe()

    def test_per_queue_depth_overrides_accepted(self):
        kern = self._steal()
        fibers = sorted(kern.dispatch_regs)
        depths = {(0, f, "fpr"): 2 for f in fibers}
        rep = check_kernel(kern, placement=self._rolled(kern),
                           queue_depths=depths)
        assert rep.ok, rep.describe()

    def test_static_kernel_rejects_nonidentity_placement(self):
        kern = compile_loop(get_kernel("umt2k-1").loop(), 4)
        with pytest.raises(ValueError, match="stealing"):
            check_kernel(kern, placement={0: 0, 1: 2, 2: 1, 3: 3})
        # identity placement on a static kernel is fine
        assert check_kernel(kern, placement={c: c for c in range(4)}).ok

    def test_stealing_placement_bijectivity_enforced(self):
        from repro.isa.lower import LowerError

        kern = self._steal()
        fibers = sorted(kern.dispatch_regs)
        with pytest.raises(LowerError):
            check_kernel(kern, placement={f: fibers[0] for f in fibers})

    def test_execution_matches_checked_configuration(self):
        # the configuration the checker blessed is the one the machine
        # actually runs: rolled placement executes bit-exact
        from repro.interp import run_loop
        from repro.runtime.exec import execute_kernel

        spec = get_kernel("umt2k-1")
        loop = spec.loop()
        wl = spec.workload(trip=12)
        kern = compile_loop(loop, 4, CompilerConfig(runtime_mode="stealing"))
        placement = self._rolled(kern)
        assert check_kernel(kern, placement=placement).ok
        res = execute_kernel(kern, wl, placement=placement)
        ref = run_loop(loop, wl)
        for a, buf in ref.arrays.items():
            assert np.array_equal(buf, res.arrays[a]), a


class TestProtocolError:
    def test_carries_report(self):
        report = check_kernel(mutate_kernel(_kern("umt2k-1"), "drop-enq"))
        err = ProtocolError(report)
        assert err.report is report
        assert "count-mismatch" in str(err)

    def test_compile_loop_raises_on_planted_bug(self, monkeypatch):
        # simulate a miscompile: lowering emits a broken kernel, the
        # mandatory check stage must refuse it before simulation
        import repro.isa.lower as L
        import repro.runtime.exec as E

        loop = get_kernel("umt2k-1").loop()
        real = E.lower_plan

        def bad_lower(*a, **kw):
            return _break(real(*a, **kw))

        def _break(kernel):
            return mutate_kernel(kernel, "drop-enq") or kernel

        # the selection's lowering and the compile's own
        monkeypatch.setattr(L, "lower_plan", bad_lower)
        monkeypatch.setattr(E, "lower_plan", bad_lower)
        with pytest.raises(ProtocolError) as exc:
            compile_loop(loop, 4)
        assert "count-mismatch" in exc.value.report.categories


class TestPrediction:
    def test_timing_faults_predict_no_failures(self):
        assert prediction_verdict("jitter", 5, []) == "yes"
        assert prediction_verdict("stall", 5, ["deadlock"]) == "no"

    def test_drop_must_fail(self):
        assert prediction_verdict("drop", 3, ["deadlock"]) == "yes"
        assert prediction_verdict("drop", 3, []) == "no"
        assert prediction_verdict("drop", 3, ["verify-mismatch"]) == "no"

    def test_corrupt_may_fail(self):
        assert prediction_verdict("corrupt", 2, []) == "yes"
        assert prediction_verdict("corrupt", 2, ["verify-mismatch"]) == "yes"

    def test_unfired_plan_abstains(self):
        assert prediction_verdict("drop", 0, []) == "-"


# ----------------------------------------------------------------------
# The deadlock scan over one body copy, against the K-unrolled graph
# ----------------------------------------------------------------------

def _key(q):
    return (q.src, q.dst, q.vclass.value)


@st.composite
def protocol_programs(draw):
    """Random balanced protocol programs: 2-3 cores, GPR queues between
    random core pairs, 0-4 transfers per queue in each of ``pre``,
    ``body`` and ``post``, and each core's transfers of a region in a
    random order (FIFO-consistent, since a queue's enqueues carry its
    running count and its dequeues fill fresh registers).  The body
    sits in a ``lab``/backward ``jp`` loop.  Returns the programs and
    their queues."""
    n = draw(st.integers(2, 3))
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1,
                           max_size=len(pairs), unique=True))
    queues = [QueueId(s, d, VClass.GPR) for s, d in sorted(chosen)]
    counts = {q: [draw(st.integers(0, 4)) for _ in REGIONS] for q in queues}
    sent = {q: 0 for q in queues}
    programs = []
    for core in range(n):
        regs = 0
        parts = []
        for r in range(len(REGIONS)):
            ops = []
            for q in queues:
                if q.src == core:
                    ops += [("enq", q)] * counts[q][r]
                if q.dst == core:
                    ops += [("deq", q)] * counts[q][r]
            instrs = []
            for op, q in draw(st.permutations(ops)):
                if op == "enq":
                    instrs.append(Instr(op="enq", queue=q, a=Imm(sent[q])))
                    sent[q] += 1
                else:
                    instrs.append(Instr(op="deq", queue=q, dst=f"r{regs}"))
                    regs += 1
            parts.append(instrs)
        pre, body, post = parts
        instrs = (pre + [Instr(op="lab", label="top")] + body
                  + [Instr(op="jp", label="top")] + post
                  + [Instr(op="halt")])
        programs.append(Program(f"core{core}", [Function("main", instrs)]))
    return programs, queues


def _unrolled_reference(programs, depth, overrides, extra_iters=0):
    """Reference deadlock scan over ``K`` unrolled body copies, with
    ``K = max(2, min(64, max_q d_q // c_q + 2))`` over the queues with
    body traffic (plus ``extra_iters``): a depth-sized unrolling in
    which every queue wraps its capacity.  Returns the queues along the
    cycle found, or None."""
    summaries = summarize_all(programs)
    queues = sorted({g.queue for s in summaries for g in s.queue_ops},
                    key=_key)
    depths = {q: overrides.get(_key(q), depth) for q in queues}
    per_iter = {q: 0 for q in queues}
    for s in summaries:
        for g in s.queue_ops:
            if g.region == "body" and g.instr.op == "enq":
                per_iter[g.queue] += 1
    body = [(depths[q], c) for q, c in per_iter.items() if c > 0]
    k = max(2, min(64, max(d // c + 2 for d, c in body))) if body else 1
    k += extra_iters

    node_queue, succ = [], []
    enqs = {q: [] for q in queues}
    deqs = {q: [] for q in queues}
    for s in summaries:
        copies = ([g for g in s.queue_ops if g.region == "pre"]
                  + [g for _ in range(k) for g in s.queue_ops
                     if g.region == "body"]
                  + [g for g in s.queue_ops if g.region == "post"])
        chain = []
        for g in copies:
            nid = len(succ)
            succ.append([])
            node_queue.append(_key(g.queue))
            (enqs if g.instr.op == "enq" else deqs)[g.queue].append(nid)
            chain.append(nid)
        for a, b in zip(chain, chain[1:]):
            succ[a].append(b)
    for q in queues:
        es, ds, d = enqs[q], deqs[q], depths[q]
        for m in range(min(len(es), len(ds))):
            succ[es[m]].append(ds[m])
        for m in range(d, len(es)):
            if m - d < len(ds):
                succ[ds[m - d]].append(es[m])
    cycle = _find_cycle(succ)
    return None if cycle is None else {node_queue[n] for n in cycle}


def _scan_verdict(programs, depth, overrides):
    report = check_programs(programs, queue_depth=depth,
                            queue_depths=overrides or None)
    assert set(report.categories) <= {"deadlock-cycle"}, report.describe()
    if report.ok:
        return None
    (diag,) = report.diagnostics
    return set(diag.cycle_queues)


class TestOneIterationScan:
    """Scanning ``pre``, one body copy and ``post`` gives the verdict
    of the ``K``-unrolled graph, and the verdict is monotone in
    depth (see the ``repro.check.verifier`` docstring)."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(protocol_programs(), st.data())
    def test_verdict_matches_unrolled_graph(self, case, data):
        programs, queues = case
        accepted = []
        for depth in range(1, 7):
            got = _scan_verdict(programs, depth, {})
            for extra in (0, 3):
                assert got == _unrolled_reference(
                    programs, depth, {}, extra
                ), (depth, extra)
            accepted.append(got is None)
        # accepted at depth d -> accepted at d + 1
        assert all(b for a, b in zip(accepted, accepted[1:]) if a), accepted

        if not data.draw(st.booleans(), label="per-queue depths"):
            return
        overrides = {
            _key(q): data.draw(st.integers(1, 6), label=repr(q))
            for q in data.draw(st.lists(st.sampled_from(queues),
                                        min_size=1, unique=True))
        }
        depth = data.draw(st.integers(1, 6), label="default depth")
        got = _scan_verdict(programs, depth, overrides)
        assert got == _unrolled_reference(programs, depth, overrides)
        if got is None:
            for key in overrides:
                deeper = {**overrides, key: overrides[key] + 1}
                assert _scan_verdict(programs, depth, deeper) is None
            assert _scan_verdict(programs, depth + 1, overrides) is None


class TestKernelPass:
    """``check_kernel`` keeps each kernel's depth-free pass per
    placement and scans on every call."""

    def _steal(self):
        return compile_loop(
            get_kernel("umt2k-1").loop(), 4,
            CompilerConfig(runtime_mode="stealing"), check=False,
        )

    def _rolled(self, kern):
        fibers = sorted(kern.dispatch_regs)
        return {0: 0, **dict(zip(fibers, fibers[1:] + fibers[:1]))}

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutant_of_a_checked_kernel_is_checked_afresh(self, mutation):
        for spec in all_kernels():
            kern = compile_loop(spec.loop(), 4, check=False)
            assert check_kernel(kern).ok
            bad = mutate_kernel(kern, mutation)
            if bad is None:
                continue
            report = check_kernel(bad)
            assert EXPECTED_CATEGORY[mutation] in report.categories, (
                f"{mutation} on {spec.name}:\n" + report.describe()
            )
            assert check_kernel(kern).ok
            return
        pytest.fail(f"no kernel offers a site for {mutation!r}")

    def test_every_call_returns_a_fresh_report(self):
        bad = mutate_kernel(_kern("umt2k-1"), "drop-enq")
        first = check_kernel(bad, queue_depth=4)
        first.diagnostics.clear()
        again = check_kernel(bad, queue_depth=8)
        assert again is not first and again.queue_depth == 8
        assert "count-mismatch" in again.categories

    def test_placement_is_validated_on_every_call(self):
        from repro.isa.lower import LowerError

        kern = self._steal()
        assert check_kernel(kern).ok  # identity placement now kept
        fibers = sorted(kern.dispatch_regs)
        for _ in range(2):
            with pytest.raises(LowerError):
                check_kernel(kern, placement={f: fibers[0] for f in fibers})
        assert len(kern.check_passes) == 1

        static = _kern("umt2k-1")
        assert check_kernel(static).ok
        with pytest.raises(ValueError, match="stealing"):
            check_kernel(static, placement={0: 0, 1: 2, 2: 1, 3: 3})

    def test_extracts_once_per_placement(self, monkeypatch):
        import repro.check.verifier as V

        calls = []

        def counting(*a, **kw):
            calls.append(1)
            return summarize_all(*a, **kw)

        monkeypatch.setattr(V, "summarize_all", counting)
        kern = self._steal()
        for depth in range(1, 21):
            assert check_kernel(kern, queue_depth=depth).ok
        assert len(calls) == 1
        for depth in range(1, 21):
            assert check_kernel(kern, queue_depth=depth,
                                placement=self._rolled(kern)).ok
        assert len(calls) == 2

    def test_threads_share_one_kernel(self):
        import sys
        import threading
        from dataclasses import replace

        # a kernel whose verdict turns with depth (deadlock below 5),
        # beside a stealing kernel under two placements
        def capacity():
            return replace(_kern("umt2k-1", n_cores=2),
                           programs=build_capacity_cycle_programs(4))

        steal, cap = self._steal(), capacity()
        fibers = sorted(steal.dispatch_regs)
        configs = [
            ("steal", depth, placement, depths)
            for depth in (1, 2, 4, 20)
            for placement in (None, self._rolled(steal))
            for depths in (None, {(0, f, "fpr"): 1 for f in fibers})
        ] + [("cap", depth, None, None) for depth in range(1, 9)]
        fresh = {"steal": self._steal, "cap": capacity}
        serial = [
            check_kernel(fresh[k](), queue_depth=d, placement=p,
                         queue_depths=q)
            for k, d, p, q in configs
        ]
        assert [r.ok for r in serial if r.n_cores == 2] == [False] * 8
        assert ["deadlock-cycle" in r.categories
                for r in serial if r.n_cores == 2] == [True] * 4 + [False] * 4
        kernels = {"steal": steal, "cap": cap}
        n = len(configs)
        results: dict[int, list] = {}
        start = threading.Barrier(8)

        def worker(tid):
            start.wait()
            order = configs[tid:] + configs[:tid]
            got = [check_kernel(kernels[k], queue_depth=d, placement=p,
                                queue_depths=q) for k, d, p, q in order]
            results[tid] = got[n - tid:] + got[:n - tid]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,))
                       for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert sorted(results) == list(range(8))
        for got in results.values():
            assert got == serial
        assert len(steal.check_passes) == 2 and len(cap.check_passes) == 1
