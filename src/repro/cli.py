"""Command-line interface: ``python -m repro <command>``.

Commands
--------

* ``kernels list`` — list registered kernels (optionally by app/
  category/origin);
* ``kernels show <kernel>`` — print the kernel IR and its flat
  normalized form;
* ``kernels run <kernel>`` — compile, check, simulate and verify one
  kernel through the guard, print speedup and statistics (exit 1 with
  the guard's diagnosis when the cell fails);
* ``ingest <file.py>`` — lower counted Python loops into the IR via
  :mod:`repro.frontend`, register them under ``frontend/`` and prove
  each against the differential python/interpreter/simulator oracle;
* ``profile <kernel>`` — per-core stall attribution + queue pressure
  of a guarded run; ``--out F`` also exports the run as Chrome
  trace-event JSON (open in https://ui.perfetto.dev);
* ``experiment <id>`` — run one paper artifact (E1..E13) or ``all``;
* ``chaos`` — seeded fault-injection campaign over tier-1 kernels
  through the guarded runtime (resilience table, exit 1 on any
  silent corruption);
* ``chaos-adapt`` — imbalance chaos campaign (E13): skewed-core fault
  plans run static vs. adaptive (work-stealing placement, self-tuned
  queue depths, checker-verified reconfiguration); exit 1 unless
  adaptation wins on imbalanced cells with zero silent corruption;
* ``chaos-serve`` — crash-safety campaign against the serving stack
  (E12): worker kills, daemon SIGKILL mid-sweep + journal resume,
  torn/garbage NDJSON, disk-full store writes; exit 1 on any
  lost ack or duplicate compute;
* ``check`` — static queue-protocol verification of lowered kernels
  across a cores × depth × speculation matrix (exit 1 on rejection);
* ``fuzz`` — seeded differential fuzzing campaign with shrinking and
  replayable JSON artifacts (``--replay`` re-probes a saved finding;
  ``--corpus frontend`` mutates ingested real-loop IR instead of
  drawing from the grammar);
* ``sweep`` — run a kernel × core-count grid through the parallel
  sweep engine and the persistent result store; ``--journal`` arms
  the write-ahead journal and ``--resume`` replays a crashed one,
  re-dispatching only the missing cells;
* ``serve`` — run the async compile-and-simulate daemon (NDJSON over
  TCP: run/sweep/metrics/health endpoints, the process run memo over
  the disk store, singleflight coalescing, priority admission, rate
  limits, journaled computes on supervised worker processes, one per
  usable CPU, graceful SIGTERM drain);
* ``loadgen`` — zipf-distributed synthetic-client load campaign
  (cold + warm phases) against a daemon or an in-process service;
  enforces the coalescing/durability invariants (exit 1 on
  violation), optionally under an armed fault plan (``--chaos``);
* ``cache {stats,clear,gc}`` — inspect / maintain the result store
  (stats counts its records by kind and their size; serve's cache-tier
  counters are on the daemon's ``metrics`` endpoint);
* ``characterize`` — run the §IV classifier over the corpus
  (``--namespace frontend`` characterizes the ingested loops instead).
"""

from __future__ import annotations

import argparse
import os
import sys

#: default evaluation trip count for ``experiment`` (matches
#: :data:`repro.experiments.common.DEFAULT_TRIP`).
_DEFAULT_TRIP = 64

#: mirrors :data:`repro.experiments.chaos.DEFAULT_KERNELS` — the CLI
#: keeps heavyweight imports lazy, so the help text repeats the names
#: (a test asserts the two stay in sync).
_CHAOS_DEFAULT_KERNELS = ("lammps-1", "irs-1", "umt2k-1", "sphot-2")

#: mirrors :data:`repro.faults.SERVE_FAULT_KINDS` (same lazy-import
#: rationale; a test asserts the two stay in sync).
_SERVE_FAULT_KINDS = ("compute-crash", "store-enospc", "store-eio")

#: mirrors :data:`repro.experiments.imbalance.DEFAULT_KERNELS` (same
#: lazy-import rationale; a test asserts the two stay in sync).
_ADAPT_DEFAULT_KERNELS = ("umt2k-1", "lammps-1", "irs-1", "sphot-2")


def _unknown_kernel(name: str) -> int:
    print(f"unknown kernel {name!r}; see `python -m repro kernels list`")
    return 2


def _cmd_list(args) -> int:
    from .kernels import all_kernels

    for spec in all_kernels():
        if args.app and spec.app != args.app:
            continue
        if args.category and spec.category != args.category:
            continue
        if args.origin and spec.origin != args.origin:
            continue
        print(
            f"{spec.name:26s} {spec.app:8s} {spec.origin:10s} "
            f"{spec.category:17s} {spec.pct_time:5.1f}%  {spec.source}"
        )
    return 0


def _cmd_show(args) -> int:
    from .ir import fmt_flat, fmt_loop, normalize
    from .kernels import get_kernel

    try:
        spec = get_kernel(args.kernel)
    except KeyError:
        return _unknown_kernel(args.kernel)
    loop = spec.loop()
    print(fmt_loop(loop))
    print()
    print(fmt_flat(normalize(loop, max_height=args.height)))
    return 0


def _guarded_cell(args, log=None):
    """Compile, check, simulate and verify ``args.kernel`` through
    :func:`~repro.runtime.guard.guarded_run` with one attempt — the
    path every experiment cell takes — for ``kernels run`` and
    ``profile``.  ``log`` (an :class:`~repro.obs.events.EventLog`), when
    given, records the cell's events.  Returns ``(spec, guarded, seq_cycles)``,
    or an exit code: 2 for an unknown kernel, 1 for a degraded cell
    (compile error, checker rejection, simulator failure, wrong
    answer), whose diagnosis is printed."""
    from .compiler import CompilerConfig
    from .kernels import get_kernel
    from .obs.events import EventBus
    from .runtime import compile_loop, execute_kernel
    from .runtime.guard import GuardPolicy, guarded_run
    from .sim import MachineParams

    try:
        spec = get_kernel(args.kernel)
    except KeyError:
        return _unknown_kernel(args.kernel)
    loop = spec.loop()
    wl = spec.workload(trip=args.trip)
    machine = MachineParams(
        queue_latency=args.latency, queue_depth=args.depth
    )
    config = CompilerConfig(
        speculation=args.speculate,
        throughput_heuristic=getattr(args, "throughput", False),
        max_queues=getattr(args, "max_queues", None),
        profile_workload=wl,
    )
    bus = None
    if log is not None:
        bus = EventBus()
        bus.subscribe(log)
    seq = execute_kernel(compile_loop(loop, 1), wl, machine)
    g = guarded_run(
        loop, wl, args.cores, config=config, params=machine,
        policy=GuardPolicy(max_attempts=1), obs=bus,
        detect_races=getattr(args, "races", False),
    )
    if g.degraded:
        print(f"kernel       : {spec.name} ({spec.source})")
        print(f"FAILED       : {g.describe()}")
        return 1
    return spec, g, seq.cycles


def _cmd_run(args) -> int:
    cell = _guarded_cell(args)
    if isinstance(cell, int):
        return cell
    spec, g, seq_cycles = cell
    res, st = g.sim, g.stats
    print(f"kernel       : {spec.name} ({spec.source})")
    print(f"cores        : {args.cores}  (partitions: {st.n_partitions})")
    print(f"fibers       : {st.initial_fibers}  data deps: {st.data_deps}")
    print(f"load balance : {st.load_balance:.2f}")
    print(f"com ops/iter : {st.com_ops}  queues: {st.queues_used}")
    print(f"sequential   : {seq_cycles:12.0f} cycles")
    print(f"parallel     : {res.cycles:12.0f} cycles")
    print(f"speedup      : {seq_cycles / res.cycles:12.2f}x")
    print(f"queue stall  : {res.total_queue_stall:12.0f} core-cycles")
    print("bit-exact    : True")  # the guard verified it
    if args.races:
        print(f"races        : {len(res.races)}")
        for r in res.races:
            print(f"  {r}")
    return 1 if args.races and res.races else 0


def _cmd_profile(args) -> int:
    from .obs.events import EventLog
    from .obs.report import format_profile, profile_result
    from .obs.timeline import write_chrome_trace

    log = EventLog() if args.out else None
    cell = _guarded_cell(args, log)
    if isinstance(cell, int):
        return cell
    spec, g, seq_cycles = cell
    prof = profile_result(
        g.sim, kernel=spec.name, trip=args.trip, queue_depth=args.depth,
        stats=g.stats, seq_cycles=seq_cycles,
    )
    print(format_profile(prof))
    if log is not None:
        write_chrome_trace(args.out, log.events)
        print(f"trace        : {args.out}  ({len(log.events)} events, "
              f"{log.dropped} dropped; https://ui.perfetto.dev)")
    return 0


def _cmd_experiment(args) -> int:
    from .experiments import REGISTRY, TRIP_FREE, run_experiment
    from .store.sweep import WORKERS_ENV, resolve_workers

    caller = os.environ.get(WORKERS_ENV)
    if args.workers is not None:
        try:
            resolve_workers(args.workers)
        except ValueError as exc:
            print(f"--workers: {exc}")
            return 2
        os.environ[WORKERS_ENV] = args.workers
    try:
        trip = args.trip if args.trip is not None else _DEFAULT_TRIP
        ids = list(REGISTRY) if args.id == "all" else [args.id.upper()]
        for eid in ids:
            if eid not in REGISTRY:
                print(f"unknown experiment {eid!r}; known: {list(REGISTRY)}")
                return 2
            mod, title = REGISTRY[eid]
            print(f"===== {eid}: {title} =====")
            if eid in TRIP_FREE and args.trip is not None:
                print(f"note: {eid} is {TRIP_FREE[eid]}; --trip is ignored")
            print(mod.format_result(run_experiment(eid, trip)))
            print()
        return 0
    finally:
        # the grids read --workers from the environment; the caller's
        # value comes back with the command
        if caller is None:
            os.environ.pop(WORKERS_ENV, None)
        else:
            os.environ[WORKERS_ENV] = caller


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _cmd_sweep(args) -> int:
    from .experiments.common import ExpConfig
    from .kernels import get_kernel, table1_kernels
    from .store.disk import default_store
    from .store.journal import new_journal_path
    from .store.sweep import resume_journals, run_grid

    if args.resume is not None:
        store = default_store()
        if store is None:
            print("--resume needs a persistent store ($REPRO_CACHE_DIR)")
            return 2
        rc, _ = resume_journals(
            store, None if args.resume == "auto" else [args.resume],
            workers=args.workers, timeout=args.timeout, retries=args.retries,
        )
        return rc

    if args.kernels == "all":
        specs = table1_kernels()
    else:
        try:
            specs = [get_kernel(name.strip()) for name in args.kernels.split(",")]
        except KeyError as exc:
            return _unknown_kernel(exc.args[0])
    try:
        cores = _parse_int_list(args.cores)
    except ValueError:
        print(f"--cores expects a comma-separated list of integers, got {args.cores!r}")
        return 2
    configs = [
        ExpConfig(
            n_cores=n,
            trip=args.trip,
            seed=args.seed,
            queue_latency=args.latency,
            queue_depth=args.depth,
            speculation=args.speculate,
        )
        for n in cores
    ]
    from .store.sweep import resolve_workers

    try:
        resolve_workers(args.workers)
    except ValueError as exc:
        print(f"--workers: {exc}")
        return 2
    store = default_store()
    journal = None
    if args.journal is not None:
        if store is None:
            print("--journal needs a persistent store ($REPRO_CACHE_DIR)")
            return 2
        journal = (new_journal_path(store.root) if args.journal == "auto"
                   else args.journal)
        print(f"journal      : {journal}")
    grid = run_grid(
        specs, configs,
        workers=args.workers, timeout=args.timeout, retries=args.retries,
        store=store, journal=journal,
    )

    head = " ".join(f"{f'{n}-core':>8s}" for n in cores)
    print(f"{'kernel':12s} {head}  correct")
    bad = 0
    for spec in specs:
        runs = [grid[(spec.name, cfg)] for cfg in configs]
        cells = " ".join(
            f"{r.speedup:8.2f}" if not r.deadlocked else f"{'dead':>8s}"
            for r in runs
        )
        ok = all(r.correct or r.deadlocked for r in runs)
        bad += 0 if ok else 1
        print(f"{spec.name:12s} {cells}  {'yes' if ok else 'NO'}")
    if store is not None:
        print(
            f"store        : {store.hits} hits / {store.misses} misses / "
            f"{store.writes} writes  ({store.root})"
        )
    return 0 if bad == 0 else 1


def _cmd_chaos(args) -> int:
    from .experiments import chaos
    from .faults import FAULT_KINDS
    from .kernels import get_kernel

    kernels = chaos.DEFAULT_KERNELS
    if args.kernels:
        try:
            kernels = tuple(
                get_kernel(name.strip()).name for name in args.kernels.split(",")
            )
        except KeyError as exc:
            return _unknown_kernel(exc.args[0])
    faults = tuple(FAULT_KINDS)
    if args.faults:
        faults = tuple(tok.strip() for tok in args.faults.split(",") if tok.strip())
        bad = [f for f in faults if f not in FAULT_KINDS]
        if bad:
            print(f"unknown fault kind(s) {bad}; known: {list(FAULT_KINDS)}")
            return 2
    res = chaos.run(
        trip=args.trip, seed=args.seed, kernels=kernels, faults=faults,
        n_cores=args.cores, intensity=args.intensity,
    )
    print(chaos.format_result(res))
    return 0 if res.silent == 0 else 1


def _cmd_chaos_adapt(args) -> int:
    import json as _json

    from .experiments import imbalance
    from .kernels import get_kernel

    kernels = imbalance.DEFAULT_KERNELS
    if args.kernels:
        try:
            kernels = tuple(
                get_kernel(name.strip()).name for name in args.kernels.split(",")
            )
        except KeyError as exc:
            return _unknown_kernel(exc.args[0])
    scenarios = imbalance.SKEW_SCENARIOS
    if args.scenarios:
        wanted = [tok.strip() for tok in args.scenarios.split(",") if tok.strip()]
        known = {s[0]: s for s in imbalance.SKEW_SCENARIOS}
        bad = [s for s in wanted if s not in known]
        if bad:
            print(f"unknown scenario(s) {bad}; known: {sorted(known)}")
            return 2
        scenarios = tuple(known[s] for s in wanted)
    res = imbalance.run(
        trip=args.trip, seed=args.seed, kernels=kernels,
        scenarios=scenarios, n_cores=args.cores,
    )
    print(imbalance.format_result(res))
    if args.json:
        doc = {
            "cells": [c.row(trip=args.trip, cores=args.cores)
                      for c in res.cells],
            "counts": res.counts,
            "total_checks": res.total_checks,
            "ok": res.ok,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"json         : wrote {args.json}")
    return 0 if res.ok else 1


def _cmd_chaos_serve(args) -> int:
    from .experiments import chaos_serve

    scenarios = chaos_serve.SCENARIOS
    if args.scenarios:
        scenarios = tuple(
            tok.strip() for tok in args.scenarios.split(",") if tok.strip()
        )
        bad = [s for s in scenarios if s not in chaos_serve.SCENARIOS]
        if bad:
            print(f"unknown scenario(s) {bad}; "
                  f"known: {list(chaos_serve.SCENARIOS)}")
            return 2
    res = chaos_serve.run(
        seed=args.seed, scenarios=scenarios, requests=args.requests,
        tmpdir=args.store_dir,
    )
    print(chaos_serve.format_result(res))
    return 0 if res.ok else 1


def _cmd_check(args) -> int:
    from .check import check_kernel
    from .compiler import CompilerConfig
    from .kernels import all_kernels, get_kernel
    from .runtime import compile_loop

    if args.kernels:
        try:
            specs = [get_kernel(name) for name in args.kernels]
        except KeyError as exc:
            return _unknown_kernel(exc.args[0])
    else:
        specs = all_kernels()
    try:
        cores = _parse_int_list(args.cores)
        depths = _parse_int_list(args.depths)
    except ValueError:
        print("--cores/--depths expect comma-separated lists of integers")
        return 2
    spec_flags = {
        "off": (False,), "on": (True,), "both": (False, True),
    }[args.speculation]

    checked = 0
    rejected = 0
    for spec in specs:
        loop = spec.loop()
        for n in cores:
            for s in spec_flags:
                try:
                    kern = compile_loop(
                        loop, n, CompilerConfig(speculation=s), check=False
                    )
                except Exception as exc:
                    print(f"{spec.name}: compile failed at {n} cores "
                          f"(speculation={s}): {exc}")
                    rejected += 1
                    continue
                for depth in depths:
                    checked += 1
                    report = check_kernel(kern, queue_depth=depth)
                    if report.ok:
                        continue
                    rejected += 1
                    print(f"{spec.name} cores={n} depth={depth} "
                          f"speculation={'on' if s else 'off'}: REJECTED")
                    for line in report.describe().splitlines():
                        print(f"  {line}")
    print(
        f"checked {checked} kernel configuration(s) over "
        f"{len(specs)} kernel(s): "
        + ("all protocols verified" if rejected == 0
           else f"{rejected} REJECTED")
    )
    return 0 if rejected == 0 else 1


def _cmd_fuzz(args) -> int:
    from .fuzz import replay_artifact, run_campaign

    if args.replay:
        try:
            expected, observed = replay_artifact(args.replay)
        except ValueError as exc:
            print(f"fuzz: {exc}")
            return 2
        same = expected == observed
        print(f"artifact : {args.replay}")
        print(f"expected : {expected}")
        print(f"observed : {observed}")
        print("replay   : " + ("REPRODUCED" if same else "DID NOT REPRODUCE"))
        return 0 if same else 1

    try:
        res = run_campaign(
            args.seed,
            trials=args.trials,
            max_seconds=args.max_seconds,
            trip=args.trip,
            inject=args.inject,
            out_dir=args.out,
            corpus=args.corpus,
            log=print,
        )
    except ValueError as exc:
        print(f"fuzz: {exc}")
        return 2
    print(res.describe())
    return 0 if not res.findings else 1


def _cmd_serve(args) -> int:
    from .obs.metrics import default_registry
    from .serve.server import run_server
    from .serve.service import ServeConfig

    config = ServeConfig(
        store_root=args.store_dir,
        use_store=not args.no_store,
        workers=args.workers,
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        rate=args.rate,
        burst=args.burst,
        default_timeout=args.timeout,
        journal=not args.no_journal,
        resume=args.resume,
        drain_deadline=args.drain_deadline,
        max_restarts=args.max_restarts,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
    )
    return run_server(config, host=args.host, port=args.port,
                      registry=default_registry())


def _cmd_loadgen(args) -> int:
    import json as _json

    from .kernels import get_kernel
    from .serve.loadgen import LoadgenConfig, format_report, run_loadgen

    kernels: tuple[str, ...] = ()
    if args.kernels and args.kernels != "all":
        try:
            kernels = tuple(
                get_kernel(name.strip()).name for name in args.kernels.split(",")
            )
        except KeyError as exc:
            return _unknown_kernel(exc.args[0])
    try:
        cores = tuple(_parse_int_list(args.cores))
    except ValueError:
        print(f"--cores expects a comma-separated list of integers, got {args.cores!r}")
        return 2
    if args.requests < 1 or args.clients < 1:
        print("--requests and --clients must be >= 1")
        return 2
    if args.chaos and args.host is not None:
        print("--chaos arms the owned in-process service; it cannot "
              "target a TCP daemon (drop --host)")
        return 2
    cfg = LoadgenConfig(
        requests=args.requests,
        clients=args.clients,
        zipf_s=args.zipf,
        seed=args.seed,
        kernels=kernels,
        cores=cores,
        trip=args.trip,
        chaos=args.chaos,
    )
    report = run_loadgen(cfg, host=args.host, port=args.port)
    print(format_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(report, fh, indent=2, sort_keys=True)
        print(f"metrics      : wrote {args.json}")

    warm = report["phases"]["warm"]["hit_rate"]
    failures = []
    if report["unhandled"]:
        failures.append(f"{report['unhandled']} unhandled server error(s)")
    errors = sum(p["errors"] for p in report["phases"].values())
    if errors and not args.chaos:
        # under --chaos, structured error responses are the injection
        # working as designed; the durability invariants below still hold.
        failures.append(f"{errors} request error(s)")
    if args.min_warm_hit is not None and warm < args.min_warm_hit:
        failures.append(
            f"warm hit rate {warm:.3f} below required {args.min_warm_hit:g}"
        )
    if args.host is None:
        # Coalescing/durability invariants — provable only against the
        # owned in-process service (fresh temp store, so every durable
        # run record was written by this campaign):
        #   * every successful compute left exactly one run record;
        #   * no cell was computed twice (chaos may leave some cells
        #     uncomputed, so <= replaces == there).
        unique = report["unique_cells_drawn"]
        computed = report["computed"]
        records = report["run_records"]
        if records is not None and computed != records:
            failures.append(
                f"durability invariant violated: {computed} computed "
                f"vs {records} run record(s)"
            )
        if args.chaos:
            if computed > unique:
                failures.append(
                    f"duplicate compute: {computed} computed for "
                    f"{unique} unique cell(s)"
                )
        elif computed != unique:
            failures.append(
                f"coalescing invariant violated: {unique} unique cell(s) "
                f"drawn vs {computed} computed"
            )
    if failures:
        print("FAILED       : " + "; ".join(failures))
        return 1
    return 0


def _cmd_cache(args) -> int:
    from .store.disk import ResultStore, store_root

    store = ResultStore(args.dir) if args.dir else ResultStore(store_root())
    if args.action == "stats":
        print(store.stats().format())
    elif args.action == "clear":
        print(f"removed {store.clear()} record(s) from {store.root}")
    elif args.action == "gc":
        print(f"{store.gc().format()} in {store.root}")
    return 0


def _cmd_characterize(args) -> int:
    from .characterize import characterize_corpus, format_ingested_report
    from .characterize.report import format_report
    from .kernels import frontend_kernels

    ns = args.namespace
    if ns in ("paper", "all"):
        print(format_report(characterize_corpus()))
    if ns in ("frontend", "all"):
        if ns == "all":
            print()
        if not frontend_kernels():
            print("no frontend-ingested kernels registered "
                  "(see `python -m repro ingest` / examples/ingest/)")
            if ns == "frontend":
                return 1
        else:
            print(format_ingested_report())
    return 0


def _cmd_ingest(args) -> int:
    from .frontend import (
        FrontendError,
        OracleMismatch,
        check_ingested,
        ingest_file,
        register_ingested,
    )

    try:
        ingested = ingest_file(args.file, fn=args.function)
    except FrontendError as exc:
        print(exc.format())
        return 1
    if not ingested:
        target = (f"function {args.function!r}" if args.function
                  else "any function")
        print(f"{args.file}: no ingestible loop found in {target}")
        return 1

    failures = 0
    for ing in ingested:
        try:
            register_ingested(ing)
        except FrontendError as exc:
            print(exc.format())
            failures += 1
            continue
        try:
            rep = check_ingested(
                ing, trip=args.trip, seed=args.seed, n_cores=args.cores
            )
        except OracleMismatch as exc:
            print(f"{ing.name}: ORACLE MISMATCH: {exc}")
            failures += 1
            continue
        print(
            f"{ing.name:26s} {ing.category:17s} oracle ok "
            f"(trip {rep.trip}, {rep.arrays_checked} array(s), "
            f"{rep.scalars_checked} scalar(s), {rep.cycles:.0f} cycles "
            f"@ {rep.n_cores} cores)"
        )
    if failures:
        print(f"ingest: {failures} of {len(ingested)} loop(s) failed")
        return 1

    if args.run:
        for ing in ingested:
            run_args = argparse.Namespace(
                kernel=ing.name, cores=args.cores, trip=128,
                latency=5, depth=20, speculate=False, throughput=False,
                max_queues=None, races=False,
            )
            print()
            rc = _cmd_run(run_args)
            if rc != 0:
                return rc
    if args.characterize:
        print()
        from .characterize import format_ingested_report

        print(format_ingested_report())
    return 0


def _add_list_args(lp) -> None:
    lp.add_argument("--app", help="filter by application")
    lp.add_argument("--category", help="filter by §IV category")
    lp.add_argument("--origin", default=None,
                    choices=("hand-built", "synthetic", "frontend"),
                    help="filter by kernel origin")
    lp.set_defaults(fn=_cmd_list)


def _add_show_args(sp) -> None:
    sp.add_argument("kernel")
    sp.add_argument("--height", type=int, default=2)
    sp.set_defaults(fn=_cmd_show)


def _add_run_args(rp) -> None:
    rp.add_argument("kernel")
    rp.add_argument("--cores", type=int, default=4)
    rp.add_argument("--trip", type=int, default=128)
    rp.add_argument("--latency", type=int, default=5)
    rp.add_argument("--depth", type=int, default=20)
    rp.add_argument("--speculate", action="store_true")
    rp.add_argument("--throughput", action="store_true")
    rp.add_argument("--max-queues", type=int, default=None)
    rp.add_argument("--races", action="store_true",
                    help="enable the happens-before race detector")
    rp.set_defaults(fn=_cmd_run)


def build_parser() -> argparse.ArgumentParser:
    from .pool import usable_cpus

    p = argparse.ArgumentParser(
        prog="repro",
        description="Fine-grained parallelization of sequential loops "
        "over hardware queues (IPPS 2014 reproduction).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    knp = sub.add_parser(
        "kernels",
        help="kernel registry commands (list | show | run)",
    )
    ksub = knp.add_subparsers(dest="kernels_command", required=True)
    _add_list_args(ksub.add_parser(
        "list", help="list registered kernels (hand-built, §IV, frontend)"))
    _add_show_args(ksub.add_parser("show", help="print a kernel's IR"))
    _add_run_args(ksub.add_parser(
        "run", help="compile + simulate one kernel"))

    ip = sub.add_parser(
        "ingest",
        help="lower counted Python loops into the IR and register them "
        "under the frontend/ namespace (differential oracle enforced)",
    )
    ip.add_argument("file", help="Python source file to ingest")
    # dest avoids colliding with the ``fn=`` dispatch attribute that
    # every subparser sets via set_defaults
    ip.add_argument("--fn", dest="function", default=None,
                    help="ingest only this function (default: every "
                    "ingestible function in the file)")
    ip.add_argument("--trip", type=int, default=64,
                    help="oracle trip count (default 64)")
    ip.add_argument("--seed", type=int, default=11,
                    help="oracle workload seed (default 11)")
    ip.add_argument("--cores", type=int, default=2,
                    help="cores for the simulated oracle leg (default 2)")
    ip.add_argument("--run", action="store_true",
                    help="also run each ingested kernel through "
                    "`repro kernels run` after the oracle passes")
    ip.add_argument("--characterize", action="store_true",
                    help="also print the §IV characterization of the "
                    "ingested corpus")
    ip.set_defaults(fn=_cmd_ingest)

    pp = sub.add_parser(
        "profile",
        help="per-core stall attribution + queue pressure report",
    )
    pp.add_argument("kernel")
    pp.add_argument("--cores", type=int, default=4)
    pp.add_argument("--trip", type=int, default=64)
    pp.add_argument("--latency", type=int, default=5)
    pp.add_argument("--depth", type=int, default=20)
    pp.add_argument("--speculate", action="store_true")
    pp.add_argument("--out", default=None,
                    help="also write the run's Chrome trace-event JSON "
                    "here (open it at https://ui.perfetto.dev)")
    pp.set_defaults(fn=_cmd_profile)

    ep = sub.add_parser("experiment", help="run a paper artifact (E1..E13|all)")
    ep.add_argument("id")
    ep.add_argument("--trip", type=int, default=None,
                    help=f"evaluation trip count (default {_DEFAULT_TRIP}; "
                    "E1 and E12 ignore it)")
    ep.add_argument("--workers", default=None,
                    help="sweep worker processes (N or 'auto'; default serial)")
    ep.set_defaults(fn=_cmd_experiment)

    wp = sub.add_parser(
        "sweep",
        help="run a kernel × cores grid via the parallel sweep engine",
    )
    wp.add_argument("--kernels", default="all",
                    help="comma-separated kernel names, or 'all' (Table I)")
    wp.add_argument("--cores", default="2,4",
                    help="comma-separated core counts (default 2,4)")
    wp.add_argument("--trip", type=int, default=_DEFAULT_TRIP)
    wp.add_argument("--seed", type=int, default=0)
    wp.add_argument("--latency", type=int, default=5)
    wp.add_argument("--depth", type=int, default=20)
    wp.add_argument("--speculate", action="store_true")
    wp.add_argument("--workers", default=None,
                    help="worker processes (N or 'auto'; default $REPRO_WORKERS, serial)")
    wp.add_argument("--timeout", type=float, default=None,
                    help="per-task timeout in seconds")
    wp.add_argument("--retries", type=int, default=1)
    wp.add_argument("--journal", nargs="?", const="auto", default=None,
                    metavar="PATH",
                    help="write-ahead journal the sweep (optionally at "
                    "PATH; default <store>/journals/sweep-*.journal)")
    wp.add_argument("--resume", nargs="?", const="auto", default=None,
                    metavar="JOURNAL",
                    help="resume a crashed journal (every incomplete one, "
                    "a sweep's or a daemon's, oldest first, when no path "
                    "is given); re-dispatches only cells missing from the "
                    "store")
    wp.set_defaults(fn=_cmd_sweep)

    xp = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign through the guarded runtime",
    )
    xp.add_argument("--kernels", default=None,
                    help="comma-separated kernel names (default: chaos set "
                    f"{','.join(_CHAOS_DEFAULT_KERNELS)})")
    xp.add_argument("--faults", default=None,
                    help="comma-separated fault kinds (default: all)")
    xp.add_argument("--trip", type=int, default=24)
    xp.add_argument("--seed", type=int, default=11)
    xp.add_argument("--cores", type=int, default=4)
    xp.add_argument("--intensity", type=float, default=1.0,
                    help="fault probability scale (see FaultPlan.single)")
    xp.set_defaults(fn=_cmd_chaos)

    xa = sub.add_parser(
        "chaos-adapt",
        help="imbalance chaos campaign (E13): static vs adaptive runtime "
        "under skewed cores; exit 1 unless adaptation wins safely",
    )
    xa.add_argument("--kernels", default=None,
                    help="comma-separated kernel names (default: adapt set "
                    f"{','.join(_ADAPT_DEFAULT_KERNELS)})")
    xa.add_argument("--scenarios", default=None,
                    help="comma-separated skew scenario names "
                    "(default: all, including the balanced control)")
    xa.add_argument("--trip", type=int, default=48)
    xa.add_argument("--seed", type=int, default=13)
    xa.add_argument("--cores", type=int, default=4)
    xa.add_argument("--json", default=None,
                    help="also dump the full cell matrix JSON here")
    xa.set_defaults(fn=_cmd_chaos_adapt)

    xs = sub.add_parser(
        "chaos-serve",
        help="crash-safety campaign against the serving stack (E12): "
        "worker kills, daemon SIGKILL + resume, torn NDJSON, disk-full",
    )
    xs.add_argument("--seed", type=int, default=12)
    xs.add_argument("--scenarios", default=None,
                    help="comma-separated scenario names (default: all)")
    xs.add_argument("--requests", type=int, default=10,
                    help="requests per scenario (default 10)")
    xs.add_argument("--store-dir", default=None,
                    help="scratch directory for per-scenario stores "
                    "(default: a fresh temp dir)")
    xs.set_defaults(fn=_cmd_chaos_serve)

    kp = sub.add_parser(
        "check",
        help="statically verify kernel queue protocols (exit 1 on rejection)",
    )
    kp.add_argument("kernels", nargs="*",
                    help="kernel names (default: all registered kernels)")
    kp.add_argument("--cores", default="2,4",
                    help="comma-separated core counts (default 2,4)")
    kp.add_argument("--depths", default="4,20",
                    help="comma-separated queue depths (default 4,20)")
    kp.add_argument("--speculation", choices=("off", "on", "both"),
                    default="both")
    kp.set_defaults(fn=_cmd_check)

    fp = sub.add_parser(
        "fuzz",
        help="seeded differential fuzzing campaign with shrinking",
    )
    fp.add_argument("--seed", type=int, default=0)
    fp.add_argument("--trials", type=int, default=None,
                    help="trial budget (default 25 unless --max-seconds)")
    fp.add_argument("--max-seconds", type=float, default=None,
                    help="wall-clock budget for the campaign")
    fp.add_argument("--trip", type=int, default=16)
    fp.add_argument("--inject", default=None,
                    choices=("drop-enq", "swap-enq", "flip-guard", "delay-deq"),
                    help="arm a known protocol-bug mutation after compilation")
    fp.add_argument("--out", default=None,
                    help="directory for replayable JSON repro artifacts")
    fp.add_argument("--replay", default=None,
                    help="re-probe a saved artifact instead of fuzzing")
    fp.add_argument("--corpus", default="gen", choices=("gen", "frontend"),
                    help="trial source: 'gen' draws from the loop grammar; "
                    "'frontend' mutates frontend-ingested kernel IR")
    fp.set_defaults(fn=_cmd_fuzz)

    vp = sub.add_parser(
        "serve",
        help="run the async compile-and-simulate daemon (NDJSON/TCP)",
    )
    vp.add_argument("--host", default="127.0.0.1")
    vp.add_argument("--port", type=int, default=7421,
                    help="TCP port (0 picks an ephemeral port)")
    vp.add_argument("--workers", type=int, default=usable_cpus(),
                    help="compute processes, at most --max-concurrency "
                    "of them (default: one per usable CPU, %(default)s "
                    "here; 0 = one in-process thread)")
    vp.add_argument("--max-concurrency", type=int, default=4,
                    help="most cells computed at once (default 4)")
    vp.add_argument("--max-queue", type=int, default=1024,
                    help="bounded admission wait list")
    vp.add_argument("--rate", type=float, default=0.0,
                    help="per-client rate limit in req/s (0 = unlimited)")
    vp.add_argument("--burst", type=float, default=None,
                    help="rate-limit burst (default 2x rate)")
    vp.add_argument("--timeout", type=float, default=60.0,
                    help="default per-request compute timeout (seconds)")
    vp.add_argument("--store-dir", default=None,
                    help="L2 store root (default $REPRO_CACHE_DIR or "
                    "~/.cache/repro/store)")
    vp.add_argument("--no-store", action="store_true",
                    help="disable the L2 disk tier (the process run "
                    "memo only)")
    vp.add_argument("--no-journal", action="store_true",
                    help="disable the write-ahead compute journal")
    vp.add_argument("--resume", action="store_true",
                    help="resume incomplete journals under the store root "
                    "before accepting traffic, as `sweep --resume` does")
    vp.add_argument("--drain-deadline", type=float, default=10.0,
                    help="seconds granted to in-flight requests on "
                    "SIGTERM/SIGINT before exiting (default 10)")
    vp.add_argument("--max-restarts", type=int, default=3,
                    help="executor rebuilds allowed before compute is "
                    "disabled (default 3)")
    vp.add_argument("--breaker-threshold", type=int, default=5,
                    help="consecutive per-key failures tripping the "
                    "circuit breaker (default 5)")
    vp.add_argument("--breaker-cooldown", type=float, default=30.0,
                    help="seconds a tripped key sheds load before a "
                    "half-open probe (default 30)")
    vp.set_defaults(fn=_cmd_serve)

    gp = sub.add_parser(
        "loadgen",
        help="zipf synthetic-client load campaign (cold + warm phases)",
    )
    gp.add_argument("--host", default=None,
                    help="target daemon host (default: in-process service "
                    "over a fresh temp store)")
    gp.add_argument("--port", type=int, default=7421)
    gp.add_argument("--requests", type=int, default=1000,
                    help="requests per phase (default 1000)")
    gp.add_argument("--clients", type=int, default=50,
                    help="concurrent synthetic clients (default 50)")
    gp.add_argument("--zipf", type=float, default=1.1,
                    help="zipf exponent shaping kernel popularity")
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--kernels", default="all",
                    help="comma-separated kernel names, or 'all' (Table I)")
    gp.add_argument("--cores", default="2,4",
                    help="comma-separated core counts (default 2,4)")
    gp.add_argument("--trip", type=int, default=16)
    gp.add_argument("--json", default=None,
                    help="also dump the full report JSON here")
    gp.add_argument("--min-warm-hit", type=float, default=None,
                    help="exit 1 if the warm-phase hit rate is below this")
    gp.add_argument("--chaos", default=None, choices=_SERVE_FAULT_KINDS,
                    help="arm a serve-side fault plan on the owned "
                    "in-process service (incompatible with --host); the "
                    "durability invariants are still enforced")
    gp.set_defaults(fn=_cmd_loadgen)

    cp2 = sub.add_parser("cache", help="persistent result-store maintenance")
    cp2.add_argument("action", choices=("stats", "clear", "gc"))
    cp2.add_argument("--dir", default=None,
                     help="store root (default $REPRO_CACHE_DIR or "
                     "~/.cache/repro/store)")
    cp2.set_defaults(fn=_cmd_cache)

    cp = sub.add_parser("characterize", help="run the §IV classifier")
    cp.add_argument("--namespace", default="paper",
                    choices=("paper", "frontend", "all"),
                    help="which kernel population to classify: the "
                    "paper's 51-loop corpus (default), the "
                    "frontend-ingested loops, or both")
    cp.set_defaults(fn=_cmd_characterize)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
