"""Tests for the persistent result store and the parallel sweep engine.

Covers the ISSUE-1 checklist: hit/miss round-trips, key sensitivity to
IR / config / machine / workload changes, corrupted-record recovery,
concurrent writers, sequential-baseline record hygiene, and the sweep
engine's serial/parallel equivalence and fallbacks.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import multiprocessing
import os
from typing import Any, Mapping

import numpy as np
import pytest

from repro.analysis.cost import CostModel, LatencyTable, default_latencies
from repro.compiler import CompilerConfig
from repro.experiments import common as C
from repro.experiments.common import (
    ExpConfig,
    KernelRun,
    clear_cache,
    run_kernel,
    store_key_for,
)
from repro.ir.codec import decode_loop, encode_loop, loop_digest
from repro.ir.types import DType, VClass
from repro.kernels import all_kernels, get_kernel, table1_kernels
from repro.runtime import guard as G
from repro.store import ResultStore, kernel_run_key, run_grid
from repro.store import records
from repro.sim import MachineParams
from repro.store.keys import _EXCLUDED_FIELDS, SCHEMA_VERSION, _plain, stable_digest
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


def _reference_plain(obj: Any) -> Any:
    """The reflective canonicaliser keys were first built with: the
    reference :func:`repro.store.keys._plain` must match byte for byte."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: dict[str, Any] = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            if f.name in _EXCLUDED_FIELDS:
                continue
            out[f.name] = _reference_plain(getattr(obj, f.name))
        return out
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, Mapping):
        return {str(k): _reference_plain(v)
                for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [_reference_plain(v) for v in obj]
        return sorted(items, key=repr) if isinstance(obj, (set, frozenset)) else items
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    return repr(obj)


def _key_doc(spec, compiler: CompilerConfig, machine: MachineParams) -> dict:
    """The document :func:`kernel_run_key` digests, for ``spec``."""
    return {
        "schema": SCHEMA_VERSION, "kind": "run",
        "loop": loop_digest(spec.loop()), "n_cores": 4,
        "compiler": compiler, "machine": machine, "trip": TRIP,
        "seed": spec.seed, "workload": C._workload_recipe(spec),
    }


class _Colour(enum.Enum):
    RED = 1
    BLUE = "b"


def _canonical_documents() -> dict[str, Any]:
    """Key documents the goldens never build, and synthetic ones that
    reach every branch of the canonicaliser."""
    lat = default_latencies()
    slow = LatencyTable(
        float_bin={**lat.float_bin, "div": 31}, call={**lat.call, "exp": 55},
        load_miss=90, enqueue=2,
    )
    spec = get_kernel("umt2k-1")
    docs = {
        "stealing+depths": _key_doc(
            spec, CompilerConfig(runtime_mode="stealing"),
            MachineParams(queue_depths=(((0, 1, "gpr"), 3), ((2, 0, "fpr"), 7)))),
        "speculation+multi-pair+throughput": _key_doc(
            spec, CompilerConfig(speculation=True, multi_pair_merge=True,
                                 throughput_heuristic=True, max_queues=3),
            MachineParams(queue_depth=4, queue_latency=50)),
        "latency-table": _key_doc(
            spec, CompilerConfig(cost=CostModel(lat=slow, miss_rates={"x": 0.25}),
                                 profile_workload=spec.workload(trip=TRIP)),
            MachineParams(latencies=slow, cache_lines=64)),
        "synthetic": {
            "set": {3, 1, 2}, "frozenset": frozenset({"b", "a", "c"}),
            "tuple": (1, (2.5, None), [True]), "enum": [_Colour.RED, _Colour.BLUE,
                                                        DType.F64, VClass.FPR],
            "numpy": [np.float64(1.5), np.int64(-3), np.bool_(True), np.float32(0.1)],
            "keys": {2: "int", "1": "str", 1: "int, same str", (0, 1): "tuple",
                     None: "none", DType.I64: "enum"},
            "mixed-set": {1, "1", (2, 3), None},
            "type": CompilerConfig, "other": range(3),
        },
    }
    for k in all_kernels():
        docs[f"recipe/{k.name}"] = C._workload_recipe(k)
    return docs


def _canonical(plain: Any) -> str:
    return json.dumps(plain, sort_keys=True, separators=(",", ":"))


def test_canonical_json_matches_reflective_reference():
    docs = _canonical_documents()
    assert len(docs) == 4 + len(all_kernels())
    for name, doc in docs.items():
        assert _canonical(_plain(doc)) == _canonical(_reference_plain(doc)), name


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

    def test_latency_sweep_shares_one_seq_record_per_kernel(self, store):
        """The baseline's key leaves the queue parameters out: one 'seq'
        record per kernel serves every latency and depth, and its cycles
        are what the 1-core kernel takes on each of those machines."""
        specs = [get_kernel("umt2k-1"), get_kernel("lammps-1")]
        latencies = (5, 20, 50, 100)
        runs = {
            (spec.name, lat): run_kernel(
                spec, ExpConfig(n_cores=4, queue_latency=lat, trip=TRIP),
                store=store)
            for spec in specs for lat in latencies
        }
        seq_records = [
            envelope for envelope in (
                json.loads(path.read_text())
                for path in store._record_paths())
            if envelope["kind"] == "seq"]
        assert sorted(r["kernel"] for r in seq_records) == sorted(
            spec.name for spec in specs)
        seq = {r["kernel"]: r["payload"]["cycles"] for r in seq_records}
        for spec in specs:
            k1 = C.compile_loop(spec.loop(), 1, CompilerConfig())
            wl = spec.workload(trip=TRIP, seed=spec.seed)
            for lat in latencies:
                assert runs[spec.name, lat].seq_cycles == seq[spec.name]
                direct = C.execute_kernel(
                    k1, wl, MachineParams(queue_latency=lat, queue_depth=1))
                assert direct.cycles == seq[spec.name]

    def test_default_cell_keeps_its_seq_key(self):
        spec, cfg = get_kernel("umt2k-1"), ExpConfig(trip=TRIP)
        seq_cfg = CompilerConfig(max_expr_height=cfg.max_expr_height)
        old = kernel_run_key(
            spec.loop(), 1, seq_cfg, cfg.machine(), TRIP, spec.seed,
            workload=C._workload_recipe(spec), kind="seq")
        assert C._seq_store_key(spec, cfg, spec.loop(), seq_cfg) == old

    def test_seq_baseline_with_a_queue_fails_loudly(self, store, monkeypatch):
        compile_loop = C.compile_loop
        monkeypatch.setattr(
            C, "compile_loop",
            lambda loop, n_cores, cfg=None: compile_loop(loop, 2, cfg))
        with pytest.raises(ValueError, match="baseline uses a queue"):
            run_kernel(get_kernel("umt2k-1"), ExpConfig(n_cores=2, trip=TRIP),
                       store=store)
        assert not any(
            json.loads(p.read_text())["kind"] == "seq"
            for p in store._record_paths())


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

    def test_record_without_merge_counts_is_miss_and_recovers(self, store):
        """Records written before ``PlanStats`` counted the merge's work
        lack ``merge_*`` in ``payload.stats``: such a record reads as a
        counted miss, and the recompute overwrites it at the same key."""
        spec = get_kernel("umt2k-1")
        cfg = ExpConfig(n_cores=2, trip=TRIP)
        first = run_kernel(spec, cfg, store=store)
        assert first.stats.merge_rounds > 0
        key = store_key_for(spec, cfg)
        envelope = json.loads(store._path(key).read_text())
        for field in ("merge_rounds", "merge_affinity_evals",
                      "merge_pairs_examined"):
            del envelope["payload"]["stats"][field]
        store._path(key).write_text(json.dumps(envelope))
        hits, misses = store.hits, store.misses
        assert store.get_run(key) is None
        assert (store.hits, store.misses) == (hits, misses + 1)
        clear_cache()
        again = run_kernel(spec, cfg, store=store)  # recomputes + rewrites
        _assert_runs_equal(first, again)
        rewritten = json.loads(store._path(key).read_text())
        assert rewritten["payload"]["stats"]["merge_rounds"] == (
            first.stats.merge_rounds)
        _assert_runs_equal(first, store.get_run(key))

    def test_memo_hit_tests_existence_and_rewrites_a_missing_record(
            self, store, monkeypatch):
        """A run-memo hit asks the store whether the record exists and
        reads nothing; a record that is gone is written again."""
        spec = get_kernel("umt2k-1")
        cfg = ExpConfig(n_cores=2, trip=TRIP)
        first = run_kernel(spec, cfg, store=store)
        key = store_key_for(spec, cfg)
        reads = []
        monkeypatch.setattr(store, "get", lambda k: reads.append(k))
        assert run_kernel(spec, cfg, store=store) is first
        assert reads == [] and store.has(key)
        store._path(key).unlink()
        assert not store.has(key)
        assert run_kernel(spec, cfg, store=store) is first
        assert reads == [] and store.has(key)
        monkeypatch.undo()
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

    def test_warm_grid_reads_each_record_once(self, store, monkeypatch):
        """The longest-job-first sort reads a stored run into the run
        memo, so the cell itself is a memo hit: one read per cell."""
        specs = [get_kernel("umt2k-1"), get_kernel("lammps-1")]
        cfgs = [ExpConfig(n_cores=c, trip=TRIP) for c in (2, 4)]
        cold = run_grid(specs, cfgs, workers=0, store=store)
        clear_cache()
        reads = []
        get = store.get
        monkeypatch.setattr(store, "get", lambda k: reads.append(k) or get(k))
        warm = run_grid(specs, cfgs, workers=0, store=store)
        assert sorted(reads) == sorted(
            store_key_for(s, c) for s in specs for c in cfgs)
        for cell, run in cold.items():
            _assert_runs_equal(run, warm[cell])

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
