"""CLI tests (argument parsing + end-to-end command behaviour)."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _break_parallel_compile(monkeypatch, broken):
    """Make every parallel compile crash (``compile-error``) or lower to
    a kernel with a dropped enqueue, which the checker rejects
    (``protocol``).  The 1-core baseline compiles as usual."""
    from repro.check import mutate_kernel
    from repro.isa import lower as L
    from repro.runtime import exec as X

    parallelize, lower_plan = X.parallelize, X.lower_plan

    def crashing(loop, n_cores, *a, **kw):
        if n_cores > 1:
            raise RuntimeError("synthetic compiler bug")
        return parallelize(loop, n_cores, *a, **kw)

    def miscompiling(plan):
        kern = lower_plan(plan)
        if plan.n_cores > 1:
            return mutate_kernel(kern, "drop-enq") or kern
        return kern

    if broken == "compile-error":
        monkeypatch.setattr(X, "parallelize", crashing)
    else:
        # the §III-I selection lowers the candidates it profiles, the
        # compile lowers a plan the selection did not profile
        monkeypatch.setattr(L, "lower_plan", miscompiling)
        monkeypatch.setattr(X, "lower_plan", miscompiling)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["kernels", "run", "umt2k-1"])
        assert args.cores == 4 and args.latency == 5 and not args.speculate


class TestCommands:
    def test_list(self, capsys):
        assert main(["kernels", "list"]) == 0
        out = capsys.readouterr().out
        assert "lammps-1" in out and "amg-r2" in out

    def test_list_filtered(self, capsys):
        assert main(["kernels", "list", "--app", "sphot"]) == 0
        out = capsys.readouterr().out
        assert "sphot-1" in out and "lammps-1" not in out

    def test_show(self, capsys):
        assert main(["kernels", "show", "umt2k-5"]) == 0
        out = capsys.readouterr().out
        assert "loop umt2k-5" in out and "flat umt2k-5" in out

    def test_run_kernel(self, capsys):
        rc = main(["kernels", "run", "umt2k-1", "--cores", "2",
                   "--trip", "24"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "speedup" in out and "bit-exact    : True" in out

    def test_run_with_races_flag(self, capsys):
        rc = main(["kernels", "run", "umt2k-1", "--cores", "2", "--trip", "12",
                   "--races"])
        out = capsys.readouterr().out
        assert rc == 0 and "races        : 0" in out

    def test_run_with_queue_limit(self, capsys):
        rc = main([
            "kernels", "run", "lammps-2", "--cores", "4", "--trip", "12",
            "--max-queues", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        qline = next(l for l in out.splitlines() if "queues:" in l)
        assert int(qline.rsplit(":", 1)[1]) <= 2

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "E99"]) == 2

    def test_experiment_e1(self, capsys):
        assert main(["experiment", "E1"]) == 0
        assert "51" in capsys.readouterr().out

    def test_experiment_help_covers_registry(self):
        """The help string must name the registry's full E-range, so it
        cannot go stale when a new experiment lands."""
        from repro.experiments import REGISTRY

        last = max(int(eid[1:]) for eid in REGISTRY)
        text = build_parser().format_help()
        assert f"E1..E{last}|all" in text

    @pytest.mark.parametrize("caller", [None, "0"])
    def test_experiment_workers_restores_the_environment(self, caller,
                                                         monkeypatch):
        """--workers reaches the grids through $REPRO_WORKERS; the
        caller's value (or its absence) comes back with the command."""
        import os

        if caller is None:
            monkeypatch.delenv("REPRO_WORKERS", raising=False)
        else:
            monkeypatch.setenv("REPRO_WORKERS", caller)
        assert main(["experiment", "E1", "--workers", "2"]) == 0
        assert os.environ.get("REPRO_WORKERS") == caller

    def test_experiment_e1_warns_on_trip(self, capsys):
        assert main(["experiment", "E1", "--trip", "10"]) == 0
        assert "--trip is ignored" in capsys.readouterr().out

    def test_sweep_smoke(self, capsys):
        rc = main([
            "sweep", "--kernels", "umt2k-1,lammps-1", "--cores", "2",
            "--trip", "12", "--workers", "0",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "umt2k-1" in out and "lammps-1" in out and "2-core" in out
        assert "store" in out

    def test_sweep_unknown_kernel(self, capsys):
        assert main(["sweep", "--kernels", "nosuch-kernel"]) == 2
        assert "unknown kernel" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["show", "run"])
    def test_kernels_unknown_kernel(self, command, capsys):
        assert main(["kernels", command, "nosuch-kernel"]) == 2
        assert "repro kernels list" in capsys.readouterr().out

    def test_sweep_bad_workers(self, capsys):
        assert main(["sweep", "--kernels", "umt2k-1", "--workers", "abc"]) == 2
        assert "workers" in capsys.readouterr().out

    def test_experiment_bad_workers(self, capsys):
        assert main(["experiment", "E1", "--workers", "abc"]) == 2
        assert "workers" in capsys.readouterr().out

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.trip == 24 and args.seed == 11 and args.cores == 4
        assert args.kernels is None and args.faults is None

    def test_chaos_default_kernels_in_sync(self):
        from repro.cli import _CHAOS_DEFAULT_KERNELS
        from repro.experiments.chaos import DEFAULT_KERNELS

        assert _CHAOS_DEFAULT_KERNELS == DEFAULT_KERNELS

    def test_chaos_smoke(self, capsys):
        rc = main([
            "chaos", "--kernels", "umt2k-1", "--faults", "drop,jitter",
            "--trip", "8",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "silent corruption: 0" in out
        assert "SAFETY INVARIANT HOLDS" in out
        assert "umt2k-1" in out

    def test_chaos_unknown_kernel(self, capsys):
        assert main(["chaos", "--kernels", "nosuch-kernel"]) == 2
        assert "unknown kernel" in capsys.readouterr().out

    def test_chaos_adapt_defaults(self):
        args = build_parser().parse_args(["chaos-adapt"])
        assert args.trip == 48 and args.seed == 13 and args.cores == 4
        assert args.kernels is None and args.scenarios is None
        assert args.json is None

    def test_chaos_adapt_default_kernels_in_sync(self):
        from repro.cli import _ADAPT_DEFAULT_KERNELS
        from repro.experiments.imbalance import DEFAULT_KERNELS

        assert _ADAPT_DEFAULT_KERNELS == DEFAULT_KERNELS

    def test_chaos_adapt_smoke(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        cells = tmp_path / "cells.json"
        rc = main([
            "chaos-adapt", "--kernels", "umt2k-1",
            "--scenarios", "balanced,slow1x3", "--trip", "16",
            "--json", str(cells),
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "campaign gate: PASS" in out
        assert "silent corruption: 0" in out
        doc = json.loads(cells.read_text())
        assert doc["ok"] and doc["total_checks"] > 0
        assert all(c["checks_ok"] for c in doc["cells"])
        assert {c["scenario"] for c in doc["cells"]} == {"balanced", "slow1x3"}
        assert list(tmp_path.iterdir()) == [cells]  # --json's file only

    def test_chaos_adapt_unknown_kernel(self, capsys):
        assert main(["chaos-adapt", "--kernels", "nosuch-kernel"]) == 2
        assert "unknown kernel" in capsys.readouterr().out

    def test_chaos_adapt_unknown_scenario(self, capsys):
        assert main(["chaos-adapt", "--scenarios", "slow99"]) == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_chaos_unknown_fault(self, capsys):
        assert main(["chaos", "--kernels", "umt2k-1", "--faults", "gamma-ray"]) == 2
        assert "unknown fault" in capsys.readouterr().out

    def test_check_smoke(self, capsys):
        rc = main(["check", "umt2k-1", "lammps-1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all protocols verified" in out
        assert "2 kernel(s)" in out

    def test_check_unknown_kernel(self, capsys):
        assert main(["check", "nosuch-kernel"]) == 2
        assert "unknown kernel" in capsys.readouterr().out

    def test_check_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.cores == "2,4" and args.depths == "4,20"
        assert args.speculation == "both" and args.kernels == []

    def test_check_bad_cores(self, capsys):
        assert main(["check", "umt2k-1", "--cores", "abc"]) == 2
        assert "comma-separated" in capsys.readouterr().out

    def test_fuzz_clean_campaign(self, capsys):
        rc = main(["fuzz", "--trials", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 finding(s)" in out

    def test_fuzz_inject_finds_saves_and_replays(self, capsys, tmp_path):
        rc = main([
            "fuzz", "--trials", "1", "--inject", "drop-enq",
            "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 1  # findings => nonzero for CI smoke
        assert "both:count-mismatch" in out
        arts = sorted(tmp_path.glob("repro-*.json"))
        assert arts
        rc = main(["fuzz", "--replay", str(arts[0])])
        out = capsys.readouterr().out
        assert rc == 0 and "REPRODUCED" in out

    def test_cache_stats_clear_gc(self, capsys, tmp_path):
        root = str(tmp_path / "cache-cli")
        assert main(["cache", "stats", "--dir", root]) == 0
        out = capsys.readouterr().out
        assert "run records" in out and root in out
        assert main(["cache", "gc", "--dir", root]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "clear", "--dir", root]) == 0
        assert "removed" in capsys.readouterr().out

    def test_characterize(self, capsys):
        assert main(["characterize"]) == 0
        assert "amenable" in capsys.readouterr().out


class TestFrontendCommands:
    """`repro ingest` / `repro kernels` / frontend-aware flags."""

    @pytest.fixture(autouse=True)
    def _forget_ingested_kernels(self):
        """``repro ingest`` registers kernels process-wide; drop the ones
        a test adds, so later reports that cover every registered kernel
        (E1, in ``tests/test_golden.py``) see the shipped corpus only."""
        from repro.kernels import all_kernels, base

        before = {spec.name for spec in all_kernels()}
        yield
        for name in set(base._REGISTRY) - before:
            del base._REGISTRY[name]

    def test_list_has_origin_column(self, capsys):
        assert main(["kernels", "list"]) == 0
        out = capsys.readouterr().out
        assert "hand-built" in out and "synthetic" in out

    def test_list_origin_filter(self, capsys):
        assert main(["kernels", "list", "--origin", "hand-built"]) == 0
        out = capsys.readouterr().out
        assert "lammps-1" in out and "synthetic" not in out

    def test_kernels_show(self, capsys):
        assert main(["kernels", "show", "umt2k-5"]) == 0
        out = capsys.readouterr().out
        assert "loop umt2k-5" in out and "flat umt2k-5" in out
        with pytest.raises(SystemExit):  # the top-level alias is gone
            main(["show", "umt2k-5"])

    def test_kernels_run(self, capsys):
        rc = main(["kernels", "run", "umt2k-1", "--cores", "2",
                   "--trip", "24"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "speedup" in out and "bit-exact    : True" in out
        with pytest.raises(SystemExit):  # the top-level alias is gone
            main(["run", "umt2k-1", "--cores", "2", "--trip", "24"])

    def test_ingest_file(self, capsys, tmp_path):
        src = tmp_path / "tri.py"
        src.write_text(
            "def tri_scale(n, a, b, c, s):\n"
            "    for i in range(n):\n"
            "        c[i] = a[i] * s + b[i]\n"
        )
        rc = main(["ingest", str(src)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "frontend/tri_scale" in out and "oracle ok" in out

    def test_ingest_registers_kernel(self, capsys, tmp_path):
        from repro.kernels import get_kernel

        src = tmp_path / "reg.py"
        src.write_text(
            "def reg_probe(n, a, b):\n"
            "    for i in range(n):\n"
            "        b[i] = a[i] + 1.0\n"
        )
        assert main(["ingest", str(src)]) == 0
        capsys.readouterr()
        spec = get_kernel("frontend/reg_probe")
        assert spec.origin == "frontend"
        rc = main(["kernels", "run", "frontend/reg_probe", "--cores", "2",
                   "--trip", "16"])
        out = capsys.readouterr().out
        assert rc == 0 and "bit-exact    : True" in out

    def test_ingest_reports_a_checker_rejection(self, capsys, monkeypatch):
        _break_parallel_compile(monkeypatch, "protocol")
        rc = main(["ingest", str(EXAMPLES / "ingest" / "bisect.py")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "ORACLE MISMATCH" in out and "attempt 0: protocol " in out
        assert "loop(s) failed" in out

    def test_ingest_reports_error_with_location(self, capsys, tmp_path):
        src = tmp_path / "bad.py"
        src.write_text(
            "def nope(n, a):\n"
            "    for i in range(n):\n"
            "        while a[i] > 0.0:\n"
            "            a[i] = a[i] - 1.0\n"
        )
        assert main(["ingest", str(src)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:3:" in out and "while" in out

    def test_ingest_missing_file(self, capsys):
        assert main(["ingest", "/no/such/file.py"]) == 1
        assert "cannot read" in capsys.readouterr().out

    def test_ingest_unknown_function(self, capsys, tmp_path):
        src = tmp_path / "one.py"
        src.write_text(
            "def present(n, a):\n"
            "    for i in range(n):\n"
            "        a[i] = a[i] * 2.0\n"
        )
        assert main(["ingest", str(src), "--fn", "absent"]) == 1
        assert "absent" in capsys.readouterr().out

    def test_fuzz_frontend_corpus(self, capsys):
        from repro.kernels import all_kernels, frontend_kernels

        all_kernels()  # trigger the examples/ingest autoload
        if not frontend_kernels():
            pytest.skip("no frontend corpus available")
        rc = main(["fuzz", "--corpus", "frontend", "--trials", "2",
                   "--trip", "12"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "0 finding(s)" in out

    def test_characterize_frontend_namespace(self, capsys):
        from repro.kernels import all_kernels, frontend_kernels

        all_kernels()
        if not frontend_kernels():
            pytest.skip("no frontend corpus available")
        assert main(["characterize", "--namespace", "frontend"]) == 0
        out = capsys.readouterr().out
        assert "Ingested-corpus characterization" in out
        assert "frontend/" in out

    def test_characterize_all_namespaces(self, capsys):
        assert main(["characterize", "--namespace", "all"]) == 0
        out = capsys.readouterr().out
        assert "paper §IV" in out or "Code characterization" in out


class TestObservabilityCommands:
    def test_trace_writes_valid_chrome_json(self, capsys, tmp_path):
        """``profile --out`` is the trace exporter."""
        from repro.obs.timeline import validate_chrome_trace

        out_path = tmp_path / "trace.json"
        rc = main([
            "profile", "umt2k-6", "--trip", "16", "--out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ui.perfetto.dev" in out
        import json

        doc = json.loads(out_path.read_text())
        assert validate_chrome_trace(doc) == []
        assert len(doc["traceEvents"]) > 0

    def test_trace_unknown_kernel(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["profile", "nosuch-kernel", "--out", str(out_path)]) == 2
        assert "unknown kernel" in capsys.readouterr().out
        assert not out_path.exists()

    def test_profile_prints_stall_table(self, capsys):
        rc = main(["profile", "umt2k-6", "--trip", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stall attribution" in out
        assert "queue pressure" in out
        # the per-core table is non-empty: a row per core
        rows = [l for l in out.splitlines()
                if l.strip() and l.strip()[0].isdigit()]
        assert len(rows) >= 4

    def test_plain_profile_writes_no_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["profile", "umt2k-1", "--trip", "8"])
        assert rc == 0
        assert list(tmp_path.iterdir()) == []

    def test_profile_unknown_kernel(self, capsys):
        assert main(["profile", "nosuch-kernel"]) == 2
        assert "unknown kernel" in capsys.readouterr().out

    def test_profile_with_trace_out(self, capsys, tmp_path):
        out_path = tmp_path / "t.json"
        rc = main([
            "profile", "umt2k-1", "--trip", "8", "--out", str(out_path),
        ])
        assert rc == 0 and out_path.exists()
        # the log's drop count is printed beside the path, even when 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith(f"trace        : {out_path}  (")
        assert " events, 0 dropped;" in line


class TestFailedCells:
    """``kernels run`` and ``profile`` run their cell through the guard:
    a failed cell is a diagnosis and exit 1, not a traceback."""

    @pytest.mark.parametrize("broken", ["compile-error", "protocol"])
    @pytest.mark.parametrize("command", ["kernels run", "profile"])
    def test_failed_cell_exits_1_with_its_kind(
            self, command, broken, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _break_parallel_compile(monkeypatch, broken)
        out_path = tmp_path / "t.json"
        extra = {"kernels run": [], "profile": ["--out", str(out_path)]}[command]
        rc = main([*command.split(), "umt2k-1", "--cores", "4",
                   "--trip", "16", *extra])
        out = capsys.readouterr().out
        assert rc == 1
        assert f"attempt 0: {broken} " in out
        assert "bit-exact" not in out
        assert list(tmp_path.iterdir()) == []  # no trace, no other file


class TestServeCommands:
    def test_serve_parser_defaults(self):
        from repro.pool import usable_cpus

        args = build_parser().parse_args(["serve"])
        # one compute process per usable CPU
        assert args.port == 7421 and args.workers == usable_cpus() >= 1
        assert args.max_concurrency == 4 and args.rate == 0.0
        assert args.store_dir is None and not args.no_store

    def test_loadgen_parser_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.requests == 1000 and args.clients == 50
        assert args.zipf == 1.1 and args.kernels == "all"
        assert args.min_warm_hit is None

    def test_loadgen_unknown_kernel(self, capsys):
        assert main(["loadgen", "--kernels", "nosuch-kernel"]) == 2
        assert "unknown kernel" in capsys.readouterr().out

    def test_loadgen_bad_cores(self, capsys):
        assert main(["loadgen", "--cores", "two"]) == 2
        assert "--cores" in capsys.readouterr().out

    def test_loadgen_small_campaign(self, capsys, tmp_path, monkeypatch):
        from repro.experiments.common import clear_cache

        clear_cache()
        monkeypatch.chdir(tmp_path)
        metrics = tmp_path / "metrics.json"
        rc = main([
            "loadgen", "--requests", "30", "--clients", "4", "--trip", "8",
            "--kernels", "sphot-1,lammps-1", "--cores", "2", "--seed", "7",
            "--json", str(metrics), "--min-warm-hit", "0.5",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "warm" in out and "coalescing" in out
        import json

        report = json.loads(metrics.read_text())
        assert report["phases"]["warm"]["hit_rate"] > 0.5
        assert report["unhandled"] == 0
        assert report["computed"] == report["unique_cells_drawn"]
        assert list(tmp_path.iterdir()) == [metrics]  # --json's file only

    def test_cache_stats_counts_a_sweeps_records(self, capsys, monkeypatch,
                                                 tmp_path):
        from repro.experiments.common import clear_cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        clear_cache()
        assert main(["sweep", "--kernels", "sphot-1", "--cores", "2",
                     "--trip", "8"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "run records  : 1\n" in out and "seq records  : 1\n" in out
        # no counter this process cannot know: the CLI's own empty
        # registry, or a store object that has done no work yet
        assert "cache tiers" not in out and "this session" not in out


class TestCrashSafetyCommands:
    def test_serve_fault_kinds_in_sync(self):
        from repro.cli import _SERVE_FAULT_KINDS
        from repro.faults import SERVE_FAULT_KINDS

        assert _SERVE_FAULT_KINDS == SERVE_FAULT_KINDS

    def test_serve_resilience_flags_parse(self):
        args = build_parser().parse_args([
            "serve", "--resume", "--no-journal", "--drain-deadline", "5",
            "--max-restarts", "1", "--breaker-threshold", "2",
            "--breaker-cooldown", "9",
        ])
        assert args.resume and args.no_journal
        assert args.drain_deadline == 5.0 and args.max_restarts == 1
        assert args.breaker_threshold == 2 and args.breaker_cooldown == 9.0

    def test_chaos_serve_unknown_scenario(self, capsys):
        assert main(["chaos-serve", "--scenarios", "quantum-flip"]) == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_chaos_serve_smoke(self, capsys, tmp_path):
        rc = main([
            "chaos-serve", "--scenarios", "disk-full", "--requests", "4",
            "--store-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "disk-full" in out and "ALL INVARIANTS HOLD" in out

    def test_loadgen_chaos_rejects_tcp(self, capsys):
        rc = main([
            "loadgen", "--chaos", "store-enospc", "--host", "127.0.0.1",
        ])
        assert rc == 2
        assert "--chaos" in capsys.readouterr().out

    def test_loadgen_chaos_smoke(self, capsys):
        from repro.experiments.common import clear_cache

        clear_cache()
        rc = main([
            "loadgen", "--requests", "20", "--clients", "4", "--trip", "8",
            "--kernels", "sphot-1", "--cores", "2", "--seed", "5",
            "--chaos", "store-enospc",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "chaos=store-enospc" in out

    def test_sweep_resume_with_nothing_to_resume(self, capsys, monkeypatch,
                                                 tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        assert main(["sweep", "--resume"]) == 0
        assert "nothing to resume" in capsys.readouterr().out

    def test_sweep_resume_takes_every_sweep_journal(self, capsys,
                                                     monkeypatch, tmp_path):
        """Two killed sweeps' journals, a newer killed daemon's and a
        live writer's: a bare ``--resume`` resumes the three dead ones,
        oldest first, and skips the live one without touching it."""
        import os
        from dataclasses import asdict

        from repro.experiments.common import ExpConfig, clear_cache, store_key_for
        from repro.kernels import get_kernel
        from repro.store.journal import (
            SweepJournal, incomplete_journals, new_journal_path,
        )

        root = tmp_path / "store"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        clear_cache()
        cfg2, cfg4 = ExpConfig(n_cores=2, trip=8), ExpConfig(n_cores=4, trip=8)
        paths = []
        for prefix, campaign in (
            ("sweep", {"kernels": ["sphot-1"], "configs": [asdict(cfg2)]}),
            ("sweep", {"kernels": ["sphot-2"], "configs": [asdict(cfg2)]}),
            ("serve", {"mode": "serve"}),
            ("sweep", {"kernels": ["irs-1"], "configs": [asdict(cfg2)]}),
        ):
            path = new_journal_path(root, prefix=prefix)
            j = SweepJournal(path, fsync=False)
            j.open_campaign(campaign)
            if prefix == "serve":  # a daemon killed with a cell in flight
                j.record_intent(store_key_for(get_kernel("sphot-1"), cfg4),
                                "sphot-1", asdict(cfg4))
            if len(paths) < 3:
                j.close(complete=False)  # killed; a sweep before any cell
            else:
                live = j  # still running its first cell
            os.utime(path, (len(paths) + 1e9, len(paths) + 1e9))
            paths.append(path)
        held = paths[3].read_bytes()
        try:
            rc = main(["sweep", "--resume"])
            out = capsys.readouterr().out
            assert paths[3].read_bytes() == held
        finally:
            live.close(complete=False)
        assert rc == 0, out
        assert out.splitlines() == [
            f"resume {paths[0]}: 1 cell(s), 0 journaled intent(s), "
            "0 already durable, 1 re-dispatched",
            f"resume {paths[1]}: 1 cell(s), 0 journaled intent(s), "
            "0 already durable, 1 re-dispatched",
            f"resume {paths[2]}: 1 cell(s), 1 journaled intent(s), "
            "0 already durable, 1 re-dispatched",
            f"skip {paths[3]}: held by a live writer",
        ]
        assert [s.path for s in incomplete_journals(root)] == [str(paths[3])]

    @pytest.mark.parametrize("intent", [
        {"kernel": "no-such-kernel"},
        {"config": {"no_such_field": 1}},
    ], ids=["kernel", "config-field"])
    def test_sweep_resume_reports_a_journal_it_cannot_rebuild(
            self, capsys, monkeypatch, tmp_path, intent):
        """An intent naming an unknown kernel or config field fails its
        journal (exit 2, no traceback) before any compute; the other
        journals are still resumed."""
        import os
        from dataclasses import asdict

        from repro.experiments.common import ExpConfig, clear_cache
        from repro.store.journal import (
            SweepJournal, incomplete_journals, new_journal_path,
        )

        root = tmp_path / "store"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        clear_cache()
        cfg = asdict(ExpConfig(n_cores=2, trip=8))
        paths = []
        for kernel in ("sphot-1", "sphot-2"):
            path = new_journal_path(root)
            j = SweepJournal(path, fsync=False)
            j.open_campaign({"kernels": [kernel], "configs": [cfg]})
            if not paths:
                j.record_intent("0" * 64, intent.get("kernel", kernel),
                                {**cfg, **intent.get("config", {})})
            j.close(complete=False)
            os.utime(path, (len(paths) + 1e9, len(paths) + 1e9))
            paths.append(path)
        bad = paths[0].read_bytes()
        rc = main(["sweep", "--resume"])
        out = capsys.readouterr().out
        assert rc == 2, out
        failed, *resumed = out.splitlines()
        assert failed.startswith(
            f"--resume: journal {paths[0]}: cannot rebuild what it owes")
        assert resumed == [
            f"resume {paths[1]}: 1 cell(s), 0 journaled intent(s), "
            "0 already durable, 1 re-dispatched",
        ]
        assert paths[0].read_bytes() == bad
        assert [s.path for s in incomplete_journals(root)] == [str(paths[0])]

    def test_sweep_resume_of_a_missing_path_creates_no_file(
            self, capsys, monkeypatch, tmp_path):
        missing = tmp_path / "store" / "journals" / "nope.journal"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        assert main(["sweep", "--resume", str(missing)]) == 2
        assert "--resume:" in capsys.readouterr().out
        assert not missing.exists()

    def test_sweep_journal_then_resume_round_trip(self, capsys, monkeypatch,
                                                  tmp_path):
        from repro.experiments.common import clear_cache
        from repro.store.journal import find_journals

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        clear_cache()
        rc = main([
            "sweep", "--kernels", "sphot-1", "--cores", "2", "--trip", "8",
            "--journal",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "journal      :" in out
        journals = find_journals(tmp_path / "store")
        assert len(journals) == 1
        # the journal completed with the sweep: an explicit resume of it
        # re-dispatches nothing
        rc = main(["sweep", "--resume", str(journals[0])])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 re-dispatched" in out
