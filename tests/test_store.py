"""Tests for the persistent result store and the parallel sweep engine.

Covers the ISSUE-1 checklist: hit/miss round-trips, key sensitivity to
IR / config / machine / workload changes, corrupted-record recovery,
concurrent writers, sequential-baseline record hygiene, and the sweep
engine's serial/parallel equivalence and fallbacks.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os

import pytest

from repro.experiments import common as C
from repro.experiments.common import (
    ExpConfig,
    KernelRun,
    clear_cache,
    run_kernel,
    store_key_for,
)
from repro.ir.codec import decode_loop, encode_loop, loop_digest
from repro.kernels import get_kernel, table1_kernels
from repro.runtime import guard as G
from repro.store import ResultStore, kernel_run_key, run_grid
from repro.store import records
from repro.store.keys import SCHEMA_VERSION, stable_digest
from repro.store.sweep import _estimate_cycles, resolve_workers

TRIP = 12


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Each test starts with a cold in-process memo (persistent-store
    behaviour is what's under test here)."""
    clear_cache()
    yield
    clear_cache()


def _synthetic_run(**overrides) -> KernelRun:
    base = dict(
        kernel="synthetic",
        config=ExpConfig(n_cores=2, trip=TRIP),
        seq_cycles=1000.0,
        par_cycles=400.0,
        correct=True,
        deadlocked=False,
        stats=None,
        queue_stall=12.5,
        instrs=77,
    )
    base.update(overrides)
    return KernelRun(**base)


def _assert_runs_equal(a: KernelRun, b: KernelRun) -> None:
    for f in dataclasses.fields(KernelRun):
        assert getattr(a, f.name) == getattr(b, f.name), f.name


class TestKeys:
    def test_deterministic(self):
        spec = get_kernel("umt2k-1")
        cfg = ExpConfig(n_cores=2, trip=TRIP)
        k1 = store_key_for(spec, cfg)
        # a copy of the spec builds its own loop: an independent key,
        # once the store-key memo no longer holds the first one
        clear_cache()
        k2 = store_key_for(dataclasses.replace(spec), cfg)
        assert k1 is not k2  # no memo self-comparison
        assert k1 == k2

    def test_key_changes_with_ir(self):
        cfg = ExpConfig(n_cores=2, trip=TRIP)
        k1 = store_key_for(get_kernel("umt2k-1"), cfg)
        k2 = store_key_for(get_kernel("lammps-1"), cfg)
        assert k1 != k2
        assert loop_digest(get_kernel("umt2k-1").loop()) != loop_digest(
            get_kernel("lammps-1").loop()
        )

    @pytest.mark.parametrize(
        "change",
        [
            {"speculation": True},
            {"throughput_heuristic": True},
            {"multi_pair_merge": True},
            {"max_expr_height": 3},
            {"assumed_queue_latency": 20},
            {"queue_latency": 50},
            {"queue_depth": 4},
            {"n_cores": 4},
            {"trip": TRIP + 1},
            {"seed": 1},
            {"adaptive": True},
        ],
    )
    def test_key_changes_with_config(self, change):
        spec = get_kernel("umt2k-1")
        base = ExpConfig(n_cores=2, trip=TRIP)
        varied = dataclasses.replace(base, **change)
        assert store_key_for(spec, base) != store_key_for(spec, varied)

    def test_key_changes_with_schema_and_kind(self):
        spec = get_kernel("umt2k-1")
        cfg = ExpConfig(n_cores=2, trip=TRIP)
        loop = spec.loop()
        run_key = kernel_run_key(
            loop, cfg.n_cores, cfg.compiler(), cfg.machine(), cfg.trip, 0
        )
        seq_key = kernel_run_key(
            loop, cfg.n_cores, cfg.compiler(), cfg.machine(), cfg.trip, 0,
            kind="seq",
        )
        assert run_key != seq_key

    def test_stable_digest_handles_collections(self):
        assert stable_digest({"b": 1, "a": 2}) == stable_digest({"a": 2, "b": 1})
        assert stable_digest([1, 2]) != stable_digest([2, 1])

    def test_schema_is_v3_for_loop_digests(self):
        # keys name the loop by its digest since v3 (v2 added the
        # adaptive fields), so records keyed by printed IR read as misses
        assert SCHEMA_VERSION == 3


def _lammps1_copy(edit=None):
    """A codec copy of lammps-1's loop, its encoding changed by ``edit``."""
    doc = encode_loop(get_kernel("lammps-1").loop())
    if edit is not None:
        edit(doc)
    return decode_loop(doc)


#: one edit for each thing of a loop the compiler reads and the printed
#: IR of schema v2 left out of the key
_EDITS = {
    "dtype": lambda doc: doc["body"][1].update(dtype="i64"),
    "line": lambda doc: doc["body"][1].update(line=20),
    "miss_rate": lambda doc: doc["arrays"][1].update(miss_rate=0.5),
    "alias_group": lambda doc: [a.update(alias_group="one")
                                for a in doc["arrays"]],
}


class TestKeyCompleteness:
    CFG = ExpConfig(n_cores=4, trip=32)

    @staticmethod
    def _spec(loop):
        return dataclasses.replace(get_kernel("lammps-1"), build=lambda: loop)

    def test_copies_differing_in_one_thing_get_distinct_keys(self):
        original = store_key_for(get_kernel("lammps-1"), self.CFG)
        # an unedited copy has the same content, so the same key
        assert store_key_for(self._spec(_lammps1_copy()), self.CFG) == original
        keys = {name: store_key_for(self._spec(_lammps1_copy(edit)), self.CFG)
                for name, edit in _EDITS.items()}
        assert original not in keys.values()
        assert len(set(keys.values())) == len(keys), keys

    def test_warm_store_runs_the_alias_copy(self, store):
        warm = run_kernel(get_kernel("lammps-1"), self.CFG, store=store)
        copy = self._spec(_lammps1_copy(_EDITS["alias_group"]))
        run = run_kernel(copy, self.CFG, store=store)
        assert run.correct
        assert (warm.par_cycles, run.par_cycles) == (5127, 7293)


class TestRoundTrip:
    def test_hit_miss_roundtrip(self, store):
        run = _synthetic_run()
        key = "ab" + "0" * 62
        assert store.get_run(key) is None  # miss
        assert store.misses == 1
        store.put_run(key, run)
        got = store.get_run(key)
        assert store.hits == 1
        _assert_runs_equal(run, got)

    def test_roundtrip_preserves_stats_and_inf(self, store):
        real = run_kernel(
            get_kernel("umt2k-1"), ExpConfig(n_cores=2, trip=TRIP), store=store
        )
        assert real.stats is not None
        key = store_key_for(get_kernel("umt2k-1"), ExpConfig(n_cores=2, trip=TRIP))
        _assert_runs_equal(real, store.get_run(key))
        # deadlocked records carry par_cycles = inf through JSON
        dead = _synthetic_run(par_cycles=float("inf"), deadlocked=True, correct=False)
        store.put_run("cd" + "0" * 62, dead)
        back = store.get_run("cd" + "0" * 62)
        assert back.par_cycles == float("inf") and back.deadlocked
        assert back.speedup == 0.0

    def test_resolved_by_round_trips(self, store):
        run = _synthetic_run(resolved_by="adaptive")
        store.put_run("ef" + "0" * 62, run)
        back = store.get_run("ef" + "0" * 62)
        _assert_runs_equal(run, back)
        assert back.resolved_by == "adaptive"
        # absent provenance stays None, not ""
        store.put_run("f0" + "0" * 62, _synthetic_run())
        assert store.get_run("f0" + "0" * 62).resolved_by is None

    def test_warm_hit_skips_all_computation(self, store, monkeypatch):
        spec = get_kernel("umt2k-1")
        cfg = ExpConfig(n_cores=2, trip=TRIP)
        first = run_kernel(spec, cfg, store=store)
        clear_cache()

        def boom(*a, **k):
            raise AssertionError("computed on a warm store")

        # the harness computes the sequential baseline, the guard the cell
        for name in ("compile_loop", "execute_kernel"):
            monkeypatch.setattr(C, name, boom)
        for name in ("compile_loop", "execute_kernel", "run_loop"):
            monkeypatch.setattr(G, name, boom)
        again = run_kernel(spec, cfg, store=store)
        _assert_runs_equal(first, again)

    def test_seq_baseline_stored_as_seq_record(self, store):
        """Regression for the run_kernel bug that seeded the sequential
        cache slot with the *parallel* KernelRun: the baseline must be
        a dedicated 'seq' record, never a run record."""
        spec = get_kernel("umt2k-1")
        run_kernel(spec, ExpConfig(n_cores=2, trip=TRIP), store=store)
        kinds = sorted(
            json.loads(p.read_text())["kind"] for p in store._record_paths()
        )
        assert kinds == ["run", "seq"]
        # the seq cycles are reused across core counts (no recompute of
        # the baseline), and the parallel record keeps its own config
        run4 = run_kernel(spec, ExpConfig(n_cores=4, trip=TRIP), store=store)
        run2 = run_kernel(spec, ExpConfig(n_cores=2, trip=TRIP), store=store)
        assert run2.config.n_cores == 2 and run4.config.n_cores == 4
        assert run2.seq_cycles == run4.seq_cycles

    def test_store_none_still_works(self):
        run = run_kernel(
            get_kernel("umt2k-1"), ExpConfig(n_cores=2, trip=TRIP), store=None
        )
        assert run.correct and run.speedup > 0


class TestRobustness:
    def test_corrupted_record_is_miss_and_recovers(self, store):
        spec = get_kernel("umt2k-1")
        cfg = ExpConfig(n_cores=2, trip=TRIP)
        first = run_kernel(spec, cfg, store=store)
        key = store_key_for(spec, cfg)
        store._path(key).write_text("{this is not json", encoding="utf-8")
        assert store.get_run(key) is None
        clear_cache()
        again = run_kernel(spec, cfg, store=store)  # recomputes + rewrites
        _assert_runs_equal(first, again)
        _assert_runs_equal(first, store.get_run(key))

    def test_schema_mismatch_is_miss(self, store):
        key = "ef" + "0" * 62
        store.put_run(key, _synthetic_run())
        envelope = json.loads(store._path(key).read_text())
        envelope["schema"] = SCHEMA_VERSION + 999
        store._path(key).write_text(json.dumps(envelope))
        assert store.get_run(key) is None

    def test_wrong_kind_and_junk_payload_are_misses(self, store):
        key = "0f" + "0" * 62
        store.put(key, {"schema": SCHEMA_VERSION, "kind": "seq",
                        "payload": {"cycles": 10.0}})
        assert store.get_run(key) is None  # seq record under run lookup
        store.put(key, {"schema": SCHEMA_VERSION, "kind": "run",
                        "payload": {"kernel": "x"}})  # missing fields
        assert store.get_run(key) is None
        assert records.decode_run({"schema": SCHEMA_VERSION, "kind": "run",
                                   "payload": None}) is None

    def test_record_with_retired_config_field_is_miss_and_recovers(
            self, store):
        """Records written while ``ExpConfig`` still had ``sim_mode``
        carry it in ``payload.config``: such a record reads as a
        counted miss, never an exception, and the recompute overwrites
        it at the same key (keys never covered that field)."""
        spec = get_kernel("umt2k-1")
        cfg = ExpConfig(n_cores=2, trip=TRIP)
        first = run_kernel(spec, cfg, store=store)
        key = store_key_for(spec, cfg)
        envelope = json.loads(store._path(key).read_text())
        envelope["payload"]["config"]["sim_mode"] = "reference"
        store._path(key).write_text(json.dumps(envelope))
        hits, misses = store.hits, store.misses
        assert store.get_run(key) is None
        assert (store.hits, store.misses) == (hits, misses + 1)
        clear_cache()
        again = run_kernel(spec, cfg, store=store)  # recomputes + rewrites
        _assert_runs_equal(first, again)
        rewritten = json.loads(store._path(key).read_text())
        assert "sim_mode" not in rewritten["payload"]["config"]
        _assert_runs_equal(first, store.get_run(key))

    def test_atomic_writes_leave_no_temp_files(self, store):
        for i in range(8):
            store.put_run(f"{i:02d}" + "1" * 62, _synthetic_run())
        assert list(store._tmp_paths()) == []

    def test_gc_removes_stale_and_tmp(self, store):
        good = "aa" + "0" * 62
        store.put_run(good, _synthetic_run())
        stale = store._path("bb" + "0" * 62)
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_text('{"schema": -1, "kind": "run"}')
        junk = store._path("cc" + "0" * 62)
        junk.parent.mkdir(parents=True, exist_ok=True)
        junk.write_text("garbage")
        # mkstemp-style hidden name — the shape put() actually leaves behind
        (store.root / "aa" / ".aa000000-x1y2z3.tmp").write_text("partial")
        (store.root / "aa" / "orphan.tmp").write_text("partial")
        # age them past TMP_GRACE: fresh temp files are live writers
        # mid-put and gc deliberately leaves those alone
        import os
        import time

        old = time.time() - 3600
        for name in (".aa000000-x1y2z3.tmp", "orphan.tmp"):
            os.utime(store.root / "aa" / name, (old, old))
        report = store.gc()
        assert report.removed_stale == 2 and report.removed_tmp == 2
        assert store.get_run(good) is not None

    def test_stats_and_clear(self, store):
        store.put_run("aa" + "0" * 62, _synthetic_run())
        store.put_seq("bb" + "0" * 62, "umt2k-1", 123.0)
        st = store.stats()
        assert st.run_records == 1 and st.seq_records == 1
        assert st.records == 2 and st.total_bytes > 0
        assert store.clear() == 2
        assert store.stats().records == 0


def _hammer_same_key(root: str, key: str, n: int) -> None:
    s = ResultStore(root)
    for i in range(n):
        s.put_run(key, _synthetic_run(instrs=i))


class TestConcurrency:
    def test_concurrent_writers_same_key(self, store):
        key = "dd" + "0" * 62
        procs = [
            multiprocessing.Process(
                target=_hammer_same_key, args=(str(store.root), key, 40)
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        _hammer_same_key(str(store.root), key, 40)  # parent joins the race
        for p in procs:
            p.join()
            assert p.exitcode == 0
        got = store.get_run(key)  # never torn: one complete valid record
        assert got is not None and got.kernel == "synthetic"
        assert list(store._tmp_paths()) == []


class TestSweep:
    def test_parallel_matches_serial_bit_exact(self, tmp_path):
        specs = [get_kernel("umt2k-1"), get_kernel("lammps-1")]
        configs = [ExpConfig(n_cores=2, trip=TRIP), ExpConfig(n_cores=4, trip=TRIP)]
        par = run_grid(
            specs, configs, workers=2, store=ResultStore(tmp_path / "par")
        )
        clear_cache()
        ser = run_grid(
            specs, configs, workers=0, store=ResultStore(tmp_path / "ser")
        )
        assert set(par) == set(ser) and len(par) == 4
        for cell in ser:
            _assert_runs_equal(ser[cell], par[cell])

    def test_grid_serial_no_store(self):
        specs = [get_kernel("umt2k-1")]
        cfg = ExpConfig(n_cores=2, trip=TRIP)
        grid = run_grid(specs, [cfg], workers=0, store=None)
        assert grid[("umt2k-1", cfg)].correct

    def test_pool_failure_falls_back_to_serial(self, tmp_path, monkeypatch):
        import repro.store.sweep as sweep

        class _NoPoolCtx:
            def Pool(self, *a, **k):
                raise OSError("no pool for you")

        monkeypatch.setattr(
            sweep.multiprocessing, "get_context", lambda *a, **k: _NoPoolCtx()
        )
        specs = [get_kernel("umt2k-1"), get_kernel("lammps-1")]
        cfg = ExpConfig(n_cores=2, trip=TRIP)
        grid = run_grid(
            specs, [cfg], workers=4, store=ResultStore(tmp_path / "s")
        )
        assert len(grid) == 2 and all(r.correct for r in grid.values())

    def test_longest_job_first_estimates(self, store):
        spec = get_kernel("umt2k-1")
        cfg = ExpConfig(n_cores=2, trip=TRIP)
        assert _estimate_cycles(store, spec, cfg) == float("inf")  # unknown first
        run = run_kernel(spec, cfg, store=store)
        assert _estimate_cycles(store, spec, cfg) == run.par_cycles
        assert _estimate_cycles(None, spec, cfg) == float("inf")

    def test_resolve_workers(self, monkeypatch):
        assert resolve_workers(0) == 0
        assert resolve_workers(3) == 3
        assert resolve_workers("auto") >= 1
        assert resolve_workers(-1) >= 1
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 0
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5
        with pytest.raises(ValueError, match="auto"):
            resolve_workers("abc")
        monkeypatch.setenv("REPRO_WORKERS", "garbage")
        assert resolve_workers(None) == 0  # bad env degrades to serial

    def test_resolve_workers_strict_negatives(self, monkeypatch):
        # explicit arguments: only -1 means "auto"; anything else is an error
        with pytest.raises(ValueError, match="-1 for auto"):
            resolve_workers(-2)
        with pytest.raises(ValueError, match="-1 for auto"):
            resolve_workers("-7")
        # the env path stays lenient: negatives degrade to auto with a warning
        monkeypatch.setenv("REPRO_WORKERS", "-3")
        assert resolve_workers(None) >= 1


class TestHarnessIntegration:
    def test_geomean_logs_dropped_values(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.experiments.common"):
            val = C.geomean([2.0, 0.0, 8.0], label="unit-test")
        assert val == 4.0
        assert any("dropped 1 non-positive" in r.message for r in caplog.records)
        assert C.geomean([0.0]) == 0.0

    def test_default_store_env_control(self, tmp_path, monkeypatch):
        from repro.store.disk import default_store

        monkeypatch.setenv("REPRO_CACHE", "0")
        assert default_store() is None
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envstore"))
        s = default_store()
        assert s is not None and s.root == tmp_path / "envstore"
        assert default_store() is s  # stable while the root is unchanged
