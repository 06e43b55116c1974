"""The compile split at the §III-I profile selection: the code-graph and
partition stages run once per what they read, a new workload re-runs
only the selection, and a memoised compile equals a cold one."""

from __future__ import annotations

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.compiler.pipeline as P
import repro.compiler.refine as R
import repro.isa.lower as L
import repro.runtime.exec as X
from repro import memo
from repro.compiler import CompilerConfig
from repro.kernels import get_kernel, table1_kernels
from repro.obs.events import EventBus, EventLog
from repro.obs.metrics import MetricsCollector, MetricsRegistry
from repro.runtime import compile_loop
from repro.workload import random_workload

from .strategies import loops

TRIP = 16
#: a Table-I kernel with two candidate partitionings at 4 cores
KERNEL = "lammps-2"


def _count(monkeypatch, module, name, calls: Counter) -> None:
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _signature(kernel) -> tuple:
    """What a compile produced: its statistics, its partitions (fiber
    ids, cost, op ranks) and every core's program."""
    plan = kernel.plan
    parts = [(p.pid, sorted(p.fids), repr(p.cost), p.n_compute_ops,
              [op.rank for op in p.ops]) for p in plan.partitions]
    return plan.stats, parts, [prog.dump() for prog in kernel.programs]


def _config(spec, seed: int) -> CompilerConfig:
    return CompilerConfig(
        profile_workload=spec.workload(trip=TRIP, seed=spec.seed + seed))


class TestStageCounts:
    def test_core_counts_share_one_code_graph(self, monkeypatch):
        calls = Counter()
        _count(monkeypatch, P, "normalize", calls)
        _count(monkeypatch, P, "build_code_graph", calls)
        spec = get_kernel(KERNEL)
        for cores in (1, 2, 4):
            compile_loop(spec.loop(), cores, _config(spec, 0))
        assert calls == {"normalize": 1, "build_code_graph": 1}
        assert memo.stats()["codegraph"] == {
            "hits": 2, "misses": 1, "entries": 1}
        # a hit on an enabled bus is one pass event, and no pass ran
        bus, log = EventBus(), EventLog()
        bus.subscribe(log)
        compile_loop(spec.loop(), 3, _config(spec, 0), obs=bus)
        names = [e.name for e in log.by_kind("pass")]
        assert names.count("memo:codegraph") == 1
        assert "normalize" not in names and "codegraph" not in names

    def test_new_seed_reruns_only_the_selection(self, monkeypatch):
        calls = Counter()
        _count(monkeypatch, P, "merge_partitions", calls)
        _count(monkeypatch, R, "refine_partitions", calls)
        _count(monkeypatch, L, "lower_plan", calls)
        _count(monkeypatch, X, "lower_plan", calls)
        _count(monkeypatch, X, "execute_kernel", calls)
        spec = get_kernel(KERNEL)
        kernels = [compile_loop(spec.loop(), 4, _config(spec, seed))
                   for seed in (0, 1)]
        assert kernels[0] is not kernels[1]
        # two candidates, each lowered and profiled once per seed; the
        # winner is served as lowered for its profile run
        assert calls == {"merge_partitions": 1, "refine_partitions": 1,
                         "lower_plan": 4, "execute_kernel": 4}
        assert memo.stats()["partitions"] == {
            "hits": 1, "misses": 1, "entries": 1}


class TestProfileFailure:
    def test_failed_profile_loses_and_is_counted_once(self, monkeypatch):
        spec = get_kernel(KERNEL)
        real = X.execute_kernel
        runs = Counter()

        def first_fails(kernel, *args, **kwargs):
            runs["profile"] += 1
            if runs["profile"] == 1:
                raise RuntimeError("synthetic profile failure")
            return real(kernel, *args, **kwargs)

        monkeypatch.setattr(X, "execute_kernel", first_fails)
        bus = EventBus()
        collector = MetricsCollector(MetricsRegistry())
        bus.subscribe(collector)
        kernel = compile_loop(spec.loop(), 4, _config(spec, 0), obs=bus)
        assert runs["profile"] == 2
        assert collector.registry.value("guard.profile-failed") == 1
        # the other candidate won: the refined partitioning
        body, graph = P._code_graph(spec.loop(), 2, None)
        candidates, _ = P._candidates(
            spec.loop(), body, graph, 4, _config(spec, 0), None)
        assert len(candidates) == 2
        assert P._assignment_of(kernel.plan.partitions) == \
            P._assignment_of(candidates[1])


class TestMemoisedEqualsCold:
    def test_table1_every_core_count_and_two_seeds(self):
        cells = [(spec, cores, seed) for spec in table1_kernels()
                 for cores in (1, 2, 4) for seed in (0, 1)]
        warm = {}
        for spec, cores, seed in cells:
            kernel = compile_loop(spec.loop(), cores, _config(spec, seed))
            warm[spec.name, cores, seed] = _signature(kernel)
        assert memo.stats()["codegraph"]["misses"] == len(table1_kernels())
        for spec, cores, seed in cells:
            memo.clear()
            kernel = compile_loop(spec.loop(), cores, _config(spec, seed))
            assert _signature(kernel) == warm[spec.name, cores, seed], (
                spec.name, cores, seed)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(loops(), st.integers(1, 4), st.integers(0, 2**16),
       st.integers(0, 2**16))
def test_memoised_compile_equals_cold_on_random_loops(loop, cores, s0, s1):
    def config(seed):
        return CompilerConfig(profile_workload=random_workload(
            loop, trip=TRIP, seed=seed, scalars={"acc": 0.0}))

    memo.clear()
    compile_loop(loop, cores, config(s0))
    warm = _signature(compile_loop(loop, cores, config(s1)))
    memo.clear()
    assert _signature(compile_loop(loop, cores, config(s1))) == warm
