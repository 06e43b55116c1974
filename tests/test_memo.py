"""Per-process stage memos: what they share, what they never share."""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import repro.runtime.exec as E
import repro.runtime.guard as G
from repro import memo
from repro.compiler import CompilerConfig
from repro.experiments import common as C
from repro.experiments.common import ExpConfig, run_kernel, run_table1_grid
from repro.ir.codec import decode_loop, encode_loop, loop_digest
from repro.kernels import get_kernel, table1_kernels
from repro.obs.events import EventBus, EventLog
from repro.runtime import compile_loop, guarded_run

TRIP = 16


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper counting calls per
    (loop name, core count or None)."""
    real = getattr(module, name)
    calls: Counter = Counter()

    def counted(loop, *args, **kwargs):
        cores = args[0] if args and isinstance(args[0], int) else None
        calls[(loop.name, cores)] += 1
        return real(loop, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestCounts:
    def test_machine_only_grid_compiles_and_interprets_once(self, monkeypatch):
        # Fig 13 shape: only the machine's queue latency varies, so
        # each kernel compiles once at 4 cores, once for the 1-core
        # baseline, and runs the interpreter oracle once.
        specs = table1_kernels()[:3]
        monkeypatch.setattr(C, "table1_kernels", lambda: specs)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        compiles = _counting(monkeypatch, E, "parallelize")
        oracles = _counting(monkeypatch, G, "run_loop")
        cfgs = [ExpConfig(queue_latency=lat, trip=24) for lat in (5, 20)]
        grid = run_table1_grid(cfgs, store=None)
        assert all(r.correct for cfg in cfgs for r in grid[cfg])
        names = [s.name for s in specs]
        assert compiles == Counter(
            {(n, c): 1 for n in names for c in (4, 1)})
        assert oracles == Counter({(n, None): 1 for n in names})


class TestNoFalseSharing:
    BASE = ExpConfig(n_cores=2, trip=TRIP)

    @pytest.mark.parametrize("change, missed, shared", [
        ({"seed": 1}, ("compile", "oracle"), ()),
        ({"assumed_queue_latency": 20}, ("compile",), ("oracle",)),
        ({"max_expr_height": 3}, ("compile",), ("oracle",)),
        ({"throughput_heuristic": True}, ("compile",), ("oracle",)),
        # the positive control: a machine-only change shares both
        ({"queue_latency": 20}, (), ("compile", "oracle")),
    ])
    def test_cell_differing_in_one_input(self, change, missed, shared):
        spec = get_kernel("umt2k-2")
        first = run_kernel(spec, self.BASE, store=None)
        before = memo.stats()
        second = run_kernel(spec, replace(self.BASE, **change), store=None)
        after = memo.stats()
        assert first.correct and second.correct
        for stage in missed:
            assert after[stage]["misses"] > before[stage]["misses"], stage
        for stage in shared:
            assert after[stage]["hits"] > before[stage]["hits"], stage
            if stage == "oracle":
                assert after[stage]["misses"] == before[stage]["misses"]

    def test_compile_key_covers_profile_workload_and_check(self):
        spec = get_kernel("umt2k-2")
        loop = spec.loop()
        wl0, wl1 = spec.workload(trip=TRIP, seed=0), spec.workload(trip=TRIP, seed=1)
        k0 = compile_loop(loop, 2, CompilerConfig(profile_workload=wl0))
        assert compile_loop(loop, 2, CompilerConfig(profile_workload=wl0.copy())) is k0
        assert compile_loop(loop, 2, CompilerConfig(profile_workload=wl1)) is not k0
        assert compile_loop(loop, 2, CompilerConfig(profile_workload=wl0),
                            check=False) is not k0
        assert compile_loop(loop, 4, CompilerConfig(profile_workload=wl0)) is not k0

    def test_store_key_covers_kind_and_config_content(self):
        spec = get_kernel("umt2k-2")
        # equal ExpConfigs whose fields print differently key differently
        lat20 = C.store_key_for(spec, replace(self.BASE, queue_latency=20))
        lat20f = C.store_key_for(spec, replace(self.BASE, queue_latency=20.0))
        assert lat20f != lat20
        C.clear_cache()
        assert C.store_key_for(spec, replace(self.BASE, queue_latency=20.0)) == lat20f

    def test_scalars_keyed_by_type_and_exact_value(self):
        assert memo.content_key(1) != memo.content_key(1.0)
        assert memo.content_key(0.0) != memo.content_key(-0.0)
        assert memo.content_key(True) != memo.content_key(1)
        a = np.arange(4, dtype=np.float64)
        assert memo.content_key(a) == memo.content_key(a.copy())
        assert memo.content_key(a) != memo.content_key(a.astype(np.int64))
        b = a.copy()
        b[3] = 7.0
        assert memo.content_key(a) != memo.content_key(b)


class TestSharedResultsAreReadOnly:
    def test_memoised_oracle_arrays_refuse_writes(self, monkeypatch):
        spec = get_kernel("umt2k-2")
        loop, wl = spec.loop(), spec.workload(trip=TRIP)

        def no_compiler(*a, **kw):
            raise RuntimeError("compiler down")

        # a compile failure serves the oracle's own result as fallback
        monkeypatch.setattr(G, "compile_loop", no_compiler)
        g = guarded_run(loop, wl, 2)
        assert g.degraded and g.arrays
        for buf in g.arrays.values():
            assert not buf.flags.writeable
            with pytest.raises(ValueError):
                buf[0] = buf[0]
        # the caller's workload stays writeable
        assert all(buf.flags.writeable for buf in wl.arrays.values())


class TestLoopIdentity:
    @pytest.mark.parametrize("flavour", [
        {"speculation": True},
        {"throughput_heuristic": True},
        {"multi_pair_merge": True},
        {"adaptive": True},
        {"max_expr_height": 1},
        {"max_expr_height": 3},
    ])
    def test_cell_leaves_the_spec_loop_untouched(self, flavour):
        spec = get_kernel("umt2k-2")
        loop = spec.loop()
        assert spec.loop() is loop
        before = json.dumps(encode_loop(loop), sort_keys=True)
        kept = loop_digest(loop)
        run = run_kernel(spec, ExpConfig(n_cores=4, trip=TRIP, **flavour),
                         store=None)
        assert run.correct
        assert spec.loop() is loop
        assert json.dumps(encode_loop(loop), sort_keys=True) == before
        # the digest kept on the loop still names its content
        assert loop_digest(loop) == kept
        assert loop_digest(decode_loop(encode_loop(loop))) == kept

    def test_replaced_spec_builds_its_own_loop(self):
        spec = get_kernel("umt2k-2")
        assert replace(spec, seed=3).loop() is not spec.loop()

    def test_specs_sharing_a_loop_keep_their_seeds(self):
        # the store-key memo names the spec's seed and recipe, so a loop
        # shared by two specs never stands for either one's workload
        shared = get_kernel("umt2k-2").build()
        spec = replace(get_kernel("umt2k-2"), build=lambda: shared)
        other = replace(spec, seed=3)
        assert spec.loop() is shared and other.loop() is shared
        cfg = ExpConfig(n_cores=2, trip=TRIP)
        assert C.store_key_for(spec, cfg) != C.store_key_for(other, cfg)
        first = run_kernel(spec, cfg, store=None)
        second = run_kernel(other, cfg, store=None)
        assert second is not first
        assert memo.stats()["oracle"]["entries"] == 2  # two workloads
        C.clear_cache()
        alone = run_kernel(replace(get_kernel("umt2k-2"), seed=3), cfg,
                           store=None)
        assert first.correct and second.correct
        assert (second.seq_cycles, second.par_cycles, second.instrs) == (
            alone.seq_cycles, alone.par_cycles, alone.instrs)


class TestRunTier:
    def test_spec_with_another_loop_gets_its_own_run(self, tmp_path):
        # same kernel name, lammps-1's loop and workload recipe: the run
        # tier is keyed by content, so the name must not recall
        # umt2k-1's run, nor write it under the new loop's key
        from repro.store.disk import ResultStore

        store = ResultStore(tmp_path / "store")
        spec, donor = get_kernel("umt2k-1"), get_kernel("lammps-1")
        imp = replace(spec, build=donor.build, specs=donor.specs,
                      scalars=donor.scalars)
        cfg = ExpConfig(n_cores=2, trip=16)
        first = run_kernel(spec, cfg, store=store)
        run = run_kernel(imp, cfg, store=store)
        assert first.seq_cycles == 727
        assert run is not first and run.seq_cycles == 4167
        stored = store.get_run(C.store_key_for(imp, cfg))
        assert stored.seq_cycles == 4167
        assert stored.par_cycles == run.par_cycles


class TestMemo:
    def test_hit_on_enabled_bus_emits_one_pass_event(self):
        loop = get_kernel("umt2k-1").loop()
        compile_loop(loop, 2)
        bus, log = EventBus(), EventLog()
        bus.subscribe(log)
        compile_loop(loop, 2, obs=bus)
        assert [e.name for e in log.by_kind("pass")] == ["memo:compile"]

    def test_clear_empties_every_memo(self):
        run_kernel(get_kernel("umt2k-1"), ExpConfig(n_cores=2, trip=TRIP),
                   store=None)
        assert all(s["entries"] for s in memo.stats().values())
        C.clear_cache()
        assert memo.stats() == {
            stage: {"hits": 0, "misses": 0, "entries": 0}
            for stage in ("compile", "oracle", "store_key", "runs", "seq")
        }

    def test_bounded_lru(self):
        m = memo.Memo("t", 2)
        for k in (1, 2, 1, 3):
            m.get(k, lambda k=k: k * 10)
        assert m.stats() == {"hits": 1, "misses": 3, "entries": 2}
        assert m.get(1, lambda: "recomputed") == 10  # kept: used recently
        assert m.get(2, lambda: "recomputed") == "recomputed"  # evicted

    def test_threads_share_one_memo(self):
        # a lost counter update would break hits + misses == lookups
        m = memo.Memo("t", 8)
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait(timeout=10)
            for i in range(400):
                m.get(i % 4, lambda i=i: i % 4)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        s = m.stats()
        assert s["hits"] + s["misses"] == 8 * 400
        assert s["entries"] == 4
        assert all(m.get(k, lambda: None) == k for k in range(4))
