"""Differential battery for the fast simulator back end.

``sim_mode="specialized"`` (compiled per-core generator closures)
promises *bit-identical* results to the reference interpreter core:
same arrays, same scalars, same cycle counts, same stall attribution.
These tests enforce the contract three ways — property-based random
loops (the Hypothesis/fuzz shared grammar), the full seeded kernel
corpus (paper Table I + ingested frontend loops, ``simslow``), and
targeted unit tests for the caching, divergence-classification and
bench plumbing around the back end.

One deliberate carve-out: under *fault injection* the injector draws
from a single RNG stream in enqueue processing order, and the
specialized core processes at block granularity — so the fault
sequence (and thus the result) may legitimately differ between back
ends.  What must still hold: value-preserving faults never change
computed values, and every back end is deterministic under a fixed
fault seed.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import CompilerConfig
from repro.compiler.config import SIM_MODES
from repro.faults import FaultInjector, FaultPlan
from repro.fuzz import results_equal, run_campaign
from repro.interp import run_loop
from repro.ir import F64, LoopBuilder
from repro.kernels import corpus_kernels, frontend_kernels, get_kernel
from repro.runtime import compile_loop, execute_kernel
from repro.runtime.guard import FailureKind, classify_failure
from repro.sim import SimDivergence, SimError
from repro.sim.fast import (
    clear_runner_cache,
    counters,
    reset_counters,
    source_key,
)
from repro.workload import random_workload

from .strategies import loops

_slow = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _outcome(kern, wl, mode, faults=None):
    """(failure-kind, result) of one run: fast legs must match both."""
    try:
        return None, execute_kernel(kern, wl, faults=faults, sim_mode=mode)
    except Exception as exc:
        return classify_failure(exc).value, None


# ----------------------------------------------------------------------
# Property-based differential tests (shared fuzz grammar)
# ----------------------------------------------------------------------


@_slow
@given(loops(), st.integers(2, 4))
def test_specialized_matches_reference(loop, n_cores):
    kern = compile_loop(loop, n_cores)
    wl = random_workload(loop, trip=12, seed=3)
    ref_kind, ref = _outcome(kern, wl, "reference")
    fast_kind, fast = _outcome(kern, wl, "specialized")
    assert fast_kind == ref_kind
    if ref is not None:
        assert results_equal(ref, fast)
        assert fast.cycles == ref.cycles


@_slow
@given(loops())
def test_stealing_kernel_specialized(loop):
    """The stealing-protocol dispatch preamble specializes too."""
    kern = compile_loop(loop, 3, CompilerConfig(runtime_mode="stealing"))
    wl = random_workload(loop, trip=10, seed=2)
    ref_kind, ref = _outcome(kern, wl, "reference")
    fast_kind, fast = _outcome(kern, wl, "specialized")
    assert fast_kind == ref_kind
    if ref is not None:
        assert results_equal(ref, fast)


@_slow
@given(loops(), st.sampled_from(["jitter", "stall", "slowdown"]))
def test_specialized_value_preserving_faults(loop, kind):
    """Timing-only faults on the fast path never corrupt values, and a
    fixed fault seed is exactly reproducible."""
    kern = compile_loop(loop, 3)
    wl = random_workload(loop, trip=10, seed=2)
    ref = run_loop(loop, wl)
    runs = []
    for _ in range(2):
        inj = FaultInjector(FaultPlan.single(kind, seed=5))
        kind_, res = _outcome(kern, wl, "specialized", faults=inj)
        runs.append((kind_, res))
    assert runs[0][0] == runs[1][0]
    if runs[0][1] is not None:
        assert results_equal(runs[0][1], runs[1][1])
        for name, buf in ref.arrays.items():
            assert np.array_equal(buf, runs[0][1].arrays[name]), name


def test_specialized_drop_faults_deterministic():
    """Lossy faults may deadlock or corrupt — but deterministically."""
    spec = get_kernel("umt2k-1")
    kern = compile_loop(spec.loop(), 2)
    wl = spec.workload(trip=16)
    outs = []
    for _ in range(2):
        inj = FaultInjector(FaultPlan.single("drop", seed=9))
        outs.append(_outcome(kern, wl, "specialized", faults=inj))
    assert outs[0][0] == outs[1][0]
    if outs[0][1] is not None:
        assert results_equal(outs[0][1], outs[1][1])


# ----------------------------------------------------------------------
# Seeded corpus equivalence (paper Table I++ and the frontend corpus)
# ----------------------------------------------------------------------


@pytest.mark.simslow
@pytest.mark.parametrize("n_cores", [2, 4])
def test_full_corpus_cross_mode_equivalence(n_cores):
    """Both back ends agree on every corpus kernel: bit-exact
    arrays/scalars, identical cycle counts and stall attribution."""
    specs = corpus_kernels() + frontend_kernels()
    assert len(corpus_kernels()) >= 51
    for spec in specs:
        loop = spec.loop()
        kern = compile_loop(loop, n_cores)
        wl = spec.workload(trip=16)
        ref = execute_kernel(kern, wl, sim_mode="reference")
        fast = execute_kernel(kern, wl, sim_mode="specialized")
        assert results_equal(ref, fast), f"{spec.name}@{n_cores}c specialized"
        assert fast.cycles == ref.cycles, f"{spec.name}@{n_cores}c cycles"


# ----------------------------------------------------------------------
# Runner cache: codegen happens once, then memory/store recall
# ----------------------------------------------------------------------


def _unique_loop(tag: float):
    """A loop no other test compiles (unique digest => cold cache)."""
    b = LoopBuilder(f"simfast{int(tag * 4)}", trip="n")
    i = b.index
    x = b.array("x", F64)
    out = b.array("out", F64)
    b.store(out, i, x[i] * tag + 1.25)
    return b.build()


def test_runner_cache_and_store_roundtrip():
    loop = _unique_loop(3.0)
    kern = compile_loop(loop, 2)
    wl = random_workload(loop, trip=8, seed=0)
    n_unique = len({source_key(p) for p in kern.programs})
    clear_runner_cache()
    reset_counters()
    r1 = execute_kernel(kern, wl, sim_mode="specialized")
    c = counters()
    assert c["codegen"] == n_unique
    assert c["disk_hit"] == 0
    # same process: every core construction is an in-memory hit
    r2 = execute_kernel(kern, wl, sim_mode="specialized")
    c = counters()
    assert c["codegen"] == n_unique
    assert c["mem_hit"] >= len(kern.programs)
    # simulated cold process, warm store: sources come back from the
    # content-addressed src records — zero regeneration
    clear_runner_cache()
    r3 = execute_kernel(kern, wl, sim_mode="specialized")
    c = counters()
    assert c["codegen"] == n_unique
    assert c["disk_hit"] == n_unique
    ref = execute_kernel(kern, wl, sim_mode="reference")
    for r in (r1, r2, r3):
        assert results_equal(ref, r)


def test_specialize_without_store(monkeypatch):
    """A disabled store degrades to pure in-process codegen."""
    monkeypatch.setenv("REPRO_CACHE", "0")
    loop = _unique_loop(7.0)
    kern = compile_loop(loop, 2)
    wl = random_workload(loop, trip=8, seed=0)
    clear_runner_cache()
    reset_counters()
    res = execute_kernel(kern, wl, sim_mode="specialized")
    c = counters()
    assert c["codegen"] >= 1
    assert c["disk_hit"] == 0
    ref = execute_kernel(kern, wl, sim_mode="reference")
    assert results_equal(ref, res)


def test_specialized_fallback_under_obs_is_counted():
    """An enabled obs bus keeps the reference core, and says so."""
    from repro.obs.events import EventBus

    spec = get_kernel("umt2k-1")
    kern = compile_loop(spec.loop(), 2)
    wl = spec.workload(trip=8)
    reset_counters()
    res = execute_kernel(kern, wl, obs=EventBus(), sim_mode="specialized")
    c = counters()
    assert c["fallback"] == 1
    assert c["codegen"] + c["mem_hit"] + c["disk_hit"] == 0
    assert results_equal(execute_kernel(kern, wl, sim_mode="reference"), res)


def test_warm_experiment_zero_fast_path_compilations(tmp_path):
    """Regression for the experiment pipeline: a warm store serves a
    specialized-mode cell as a pure record hit — zero codegen, zero
    source loads, zero simulation."""
    from repro.experiments import common as C
    from repro.store.disk import ResultStore

    store = ResultStore(tmp_path / "estore")
    spec = get_kernel("umt2k-1")
    cfg = C.ExpConfig(n_cores=2, trip=12, seed=17, sim_mode="specialized")
    C.clear_cache()
    clear_runner_cache()
    reset_counters()
    cold = C.run_kernel(spec, cfg, store=store)
    c = counters()
    assert cold.correct
    assert c["codegen"] + c["disk_hit"] > 0  # the cold run specialized
    C.clear_cache()
    clear_runner_cache()
    reset_counters()
    warm = C.run_kernel(spec, cfg, store=store)
    assert counters() == {
        "codegen": 0, "mem_hit": 0, "disk_hit": 0, "fallback": 0,
    }
    assert warm.par_cycles == cold.par_cycles
    # a forced recompute (new seed) simulates again, but the generated
    # sources are already content-addressed — still zero codegen
    C.clear_cache()
    clear_runner_cache()
    reset_counters()
    C.run_kernel(spec, dataclasses.replace(cfg, seed=18), store=store)
    c = counters()
    assert c["codegen"] == 0
    assert c["disk_hit"] > 0


def test_sim_mode_excluded_from_store_keys():
    """All back ends are bit-exact by contract, so warm caches are
    shared: the mode must not perturb the record digest."""
    from repro.experiments.common import ExpConfig, store_key_for

    spec = get_kernel("umt2k-1")
    keys = {
        store_key_for(spec, ExpConfig(n_cores=2, trip=8, sim_mode=m))
        for m in SIM_MODES
    }
    assert len(keys) == 1


# ----------------------------------------------------------------------
# Divergence is loud: classification and the run_kernel blame bisect
# ----------------------------------------------------------------------


def test_sim_divergence_classification():
    assert FailureKind.SIM_DIVERGENCE.value == "sim-divergence"
    assert classify_failure(SimDivergence("x")) is FailureKind.SIM_DIVERGENCE
    # subclass ordering: a plain SimError keeps its own kind
    assert classify_failure(SimError("x")) is not FailureKind.SIM_DIVERGENCE


def test_run_kernel_flags_fast_path_divergence(monkeypatch):
    """A fast back end returning a wrong answer must be reported as
    sim-divergence (fast-path bug), never as a generic mismatch."""
    from repro.experiments import common as C

    real = C.execute_kernel

    def corrupting(kernel, workload, params=None, **kw):
        res = real(kernel, workload, params, **kw)
        if kw.get("sim_mode") != "reference" and kernel.n_cores > 1:
            name = sorted(res.arrays)[0]
            res.arrays[name] = res.arrays[name] + 1.0
        return res

    monkeypatch.setattr(C, "execute_kernel", corrupting)
    spec = get_kernel("umt2k-1")
    C.clear_cache()
    run = C.run_kernel(
        spec,
        C.ExpConfig(n_cores=2, trip=10, seed=91, sim_mode="specialized"),
        store=None,
    )
    C.clear_cache()
    assert not run.correct
    assert run.failure == FailureKind.SIM_DIVERGENCE.value


def test_run_kernel_keeps_verify_mismatch_when_reference_agrees(monkeypatch):
    """If the reference back end is just as wrong, it is a genuine
    verify mismatch — the bisect must not cry divergence."""
    from repro.experiments import common as C

    real = C.execute_kernel

    def corrupting_all(kernel, workload, params=None, **kw):
        res = real(kernel, workload, params, **kw)
        if kernel.n_cores > 1:
            name = sorted(res.arrays)[0]
            res.arrays[name] = res.arrays[name] + 1.0
        return res

    monkeypatch.setattr(C, "execute_kernel", corrupting_all)
    spec = get_kernel("umt2k-1")
    C.clear_cache()
    run = C.run_kernel(
        spec,
        C.ExpConfig(n_cores=2, trip=10, seed=92, sim_mode="specialized"),
        store=None,
    )
    C.clear_cache()
    assert not run.correct
    assert run.failure == FailureKind.VERIFY_MISMATCH.value


# ----------------------------------------------------------------------
# results_equal itself, mode validation, fuzz legs, bench plumbing
# ----------------------------------------------------------------------


def test_results_equal_discriminates():
    spec = get_kernel("umt2k-1")
    kern = compile_loop(spec.loop(), 2)
    wl = spec.workload(trip=8)
    a = execute_kernel(kern, wl)
    b = execute_kernel(kern, wl)
    assert results_equal(a, b)
    b.cycles += 1.0
    assert not results_equal(a, b)
    b.cycles = a.cycles
    assert results_equal(a, b)
    # the one processing-order statistic is excluded from the contract
    b.queue_stats[0].max_outstanding += 5
    assert results_equal(a, b)
    name = sorted(b.arrays)[0]
    b.arrays[name] = b.arrays[name] + 1.0
    assert not results_equal(a, b)


def test_unknown_sim_mode_rejected():
    spec = get_kernel("umt2k-1")
    kern = compile_loop(spec.loop(), 2)
    for mode in ("warp", "batched"):
        with pytest.raises(ValueError, match="sim_mode"):
            execute_kernel(kern, spec.workload(trip=8), sim_mode=mode)


def test_serve_request_carries_sim_mode():
    from repro.serve.protocol import BadRequest, parse_request

    req = parse_request(
        {"op": "run", "kernel": "umt2k-1", "sim_mode": "specialized"}
    )
    assert req.exp_config_kwargs()["sim_mode"] == "specialized"
    assert parse_request({"op": "health"}).sim_mode == "reference"
    for mode in ("warp", "batched"):
        with pytest.raises(BadRequest):
            parse_request(
                {"op": "run", "kernel": "umt2k-1", "sim_mode": mode}
            )


def test_fuzz_rejects_unknown_sim_modes(tmp_path, capsys):
    """A retired mode on the fuzz flag or in a saved artifact is a
    usage error (exit 2), never a traceback from the machine."""
    from repro.cli import main
    from repro.fuzz import save_artifact

    assert main(["fuzz", "--trials", "1", "--sim-modes", "batched"]) == 2
    assert "batched" in capsys.readouterr().out
    art = save_artifact(
        tmp_path / "old.json", get_kernel("umt2k-1").loop(),
        signature="ok", seed=0, trial=0, trip=8, n_cores=2,
        queue_depth=4, speculation=False, sim_modes=["batched"],
    )
    assert main(["fuzz", "--replay", str(art)]) == 2
    assert "batched" in capsys.readouterr().out


def test_fuzz_campaign_fast_legs_clean(tmp_path):
    """Fixed-seed campaign with the fast leg armed finds nothing."""
    res = run_campaign(
        seed=5, trials=8, trip=10, out_dir=tmp_path,
        sim_modes=("specialized",),
    )
    assert res.trials == 8
    assert res.findings == []


def test_bench_sim_roundtrip(tmp_path):
    from repro.sim.fast import bench as B

    res = B.run_bench(trip=48, n_cores=2, repeats=1,
                      kernels=["umt2k-1", "irs-3"])
    assert [r.kernel for r in res.rows] == ["umt2k-1", "irs-3"]
    assert res.geomean > 0
    assert "geomean" in res.format()
    doc = B.bench_doc(res, floor=1.5)
    path = tmp_path / "BENCH_sim.json"
    B.write_bench(path, doc)
    assert B.load_floor(path) == 1.5
    assert B.load_floor(tmp_path / "missing.json") == B.DEFAULT_FLOOR
