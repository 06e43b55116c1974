"""repro.store.journal: write-ahead sweep journal + crash resume."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.experiments.common import ExpConfig, clear_cache, store_key_for
from repro.kernels import get_kernel
from repro.store.disk import ResultStore
from repro.store.journal import (
    SweepJournal,
    find_journals,
    gc_journals,
    incomplete_journals,
    load_journal,
    new_journal_path,
    protected_keys,
)
from repro.store.sweep import resume_grid, run_grid

CFG = ExpConfig(n_cores=2, trip=8)
CFG3 = ExpConfig(n_cores=3, trip=8)


@pytest.fixture(autouse=True)
def _cold_memo():
    """Durability tests are meaningless against the in-process memo."""
    clear_cache()
    yield
    clear_cache()


def make_journal(tmp_path, cells, done=(), campaign=None):
    """Hand-build a journal: ``cells`` is {key: (kernel, cfg_dict)}."""
    path = new_journal_path(tmp_path)
    j = SweepJournal(path, fsync=False)
    j.open_campaign(campaign or {})
    for key, (kernel, cfg) in cells.items():
        j.record_intent(key, kernel, cfg)
    for key in done:
        j.record_done(key)
    j.close(complete=set(done) == set(cells))
    return path


class TestJournalFile:
    def test_round_trip(self, tmp_path):
        path = new_journal_path(tmp_path)
        j = SweepJournal(path, fsync=False)
        j.open_campaign({"kernels": ["sphot-1"], "configs": [asdict(CFG)]})
        j.record_intent("k1", "sphot-1", asdict(CFG))
        j.record_intent("k2", "sphot-1", asdict(CFG3))
        j.record_done("k1")
        j.checkpoint(pending=1)
        j.close(complete=False)

        state = load_journal(path)
        assert state.schema_ok
        assert state.campaign["kernels"] == ["sphot-1"]
        assert set(state.intents) == {"k1", "k2"}
        assert state.intents["k2"]["config"]["n_cores"] == 3
        assert set(state.done) == {"k1"} and state.done["k1"] == "ok"
        assert list(state.pending_keys()) == ["k2"]
        assert not state.complete

    def test_complete_when_all_done_or_closed(self, tmp_path):
        path = make_journal(
            tmp_path, {"a": ("sphot-1", asdict(CFG))}, done=("a",)
        )
        assert load_journal(path).complete
        # closed-complete with zero cells is also complete
        empty = new_journal_path(tmp_path)
        j = SweepJournal(empty, fsync=False)
        j.open_campaign({})
        j.close(complete=True)
        assert load_journal(empty).complete

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = make_journal(tmp_path, {"a": ("sphot-1", asdict(CFG))})
        with open(path, "ab") as fh:
            fh.write(b'{"kind":"done","key":"a"')  # no newline, no close
        state = load_journal(path)
        assert state.torn_lines == 1
        assert set(state.intents) == {"a"}
        assert "a" not in state.done  # the torn done line never landed

    def test_load_missing_file_never_raises(self, tmp_path):
        state = load_journal(tmp_path / "nope.journal")
        assert not state.schema_ok or not state.intents

    def test_closed_property_guards_double_close(self, tmp_path):
        j = SweepJournal(new_journal_path(tmp_path), fsync=False)
        j.open_campaign({})
        assert not j.closed
        j.close(complete=True)
        assert j.closed

    def test_find_and_incomplete(self, tmp_path):
        done = make_journal(
            tmp_path, {"a": ("sphot-1", asdict(CFG))}, done=("a",)
        )
        open_ = make_journal(tmp_path, {"b": ("sphot-1", asdict(CFG))})
        assert {p.name for p in find_journals(tmp_path)} == {
            done.name, open_.name
        }
        states = incomplete_journals(tmp_path)
        assert [s.path for s in states] == [str(open_)]
        assert protected_keys(tmp_path) == {"b"}


class TestJournaledSweep:
    def test_run_grid_journals_every_cell(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = get_kernel("sphot-1")
        path = new_journal_path(store.root)
        run_grid([spec], [CFG, CFG3], store=store, journal=path)
        state = load_journal(path)
        assert state.complete and state.closed
        assert len(state.intents) == 2
        assert set(state.done) == set(state.intents)
        # done lines post-date durable records: everything is in the store
        for key in state.intents:
            assert store.get_run(key) is not None

    def test_resume_recomputes_only_missing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = get_kernel("sphot-1")
        k2, k3 = store_key_for(spec, CFG), store_key_for(spec, CFG3)
        # crash facsimile: both intents journaled, only c2 made it to disk
        from repro.experiments.common import run_kernel

        run_kernel(spec, CFG, store=store)
        clear_cache()
        path = make_journal(
            store.root,
            {k2: ("sphot-1", asdict(CFG)), k3: ("sphot-1", asdict(CFG3))},
            campaign={"kernels": ["sphot-1"],
                      "configs": [asdict(CFG), asdict(CFG3)]},
        )
        results, report = resume_grid(path, store=store)
        assert report.cells == 2
        assert report.completed == 1
        assert report.recomputed == 1
        assert store.get_run(k3) is not None
        assert results[("sphot-1", CFG3)].correct

    def test_resume_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = get_kernel("sphot-1")
        key = store_key_for(spec, CFG)
        path = make_journal(
            store.root, {key: ("sphot-1", asdict(CFG))},
            campaign={"kernels": ["sphot-1"], "configs": [asdict(CFG)]},
        )
        _, first = resume_grid(path, store=store)
        assert first.recomputed == 1
        clear_cache()
        _, second = resume_grid(path, store=store)
        assert second.recomputed == 0  # zero computes on a completed journal
        assert second.completed == 1
        assert load_journal(path).complete

    def test_store_outranks_torn_done_line(self, tmp_path):
        """A record that exists is complete even if its done line tore."""
        store = ResultStore(tmp_path / "store")
        spec = get_kernel("sphot-1")
        from repro.experiments.common import run_kernel

        run_kernel(spec, CFG, store=store)
        clear_cache()
        key = store_key_for(spec, CFG)
        path = make_journal(
            store.root, {key: ("sphot-1", asdict(CFG))},
            campaign={"kernels": ["sphot-1"], "configs": [asdict(CFG)]},
        )
        _, report = resume_grid(path, store=store)
        assert report.recomputed == 0 and report.completed == 1

    def test_resume_rejects_campaignless_journal(self, tmp_path):
        path = make_journal(tmp_path, {"x": ("sphot-1", asdict(CFG))})
        with pytest.raises(ValueError, match="campaign"):
            resume_grid(path, store=ResultStore(tmp_path / "store"))


class TestGcVsJournal:
    def _stale_record(self, store: ResultStore, key: str) -> None:
        """Plant a record gc would normally collect (wrong schema)."""
        path = store.root / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"schema": -1, "kind": "run"}))

    def test_gc_never_collects_journal_protected_records(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "deadbeef" * 8
        self._stale_record(store, key)
        make_journal(store.root, {key: ("sphot-1", asdict(CFG))})
        report = store.gc()
        assert report.removed_stale == 0
        assert report.protected == 1
        assert (store.root / key[:2] / f"{key}.json").exists()
        # incomplete journals themselves are never reclaimed
        assert len(find_journals(store.root)) == 1

    def test_gc_collects_once_journal_completes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "deadbeef" * 8
        self._stale_record(store, key)
        make_journal(store.root, {key: ("sphot-1", asdict(CFG))}, done=(key,))
        report = store.gc()
        assert report.removed_stale == 1
        assert report.protected == 0
        assert report.removed_journals == 1
        assert find_journals(store.root) == []

    def test_gc_journals_reclaims_crashed_but_finished(self, tmp_path):
        """No done line, but every intent durable: journal is reclaimable."""
        store = ResultStore(tmp_path / "store")
        spec = get_kernel("sphot-1")
        from repro.experiments.common import run_kernel

        run_kernel(spec, CFG, store=store)
        key = store_key_for(spec, CFG)
        make_journal(store.root, {key: ("sphot-1", asdict(CFG))})
        assert gc_journals(store.root, store=store) == 1


KILLED_GRID = ("sphot-1", "lammps-1", "irs-1")


def _kill_sweep(store_root, path, kill_at: str) -> None:
    """Run a serial journaled sweep over :data:`KILLED_GRID` in a forked
    child that dies with ``os._exit(9)`` at ``kill_at``: ``"cell"``
    inside the second cell, ``"intent"`` as the second intent is due."""
    import multiprocessing
    import os

    import repro.experiments.common as common

    def child():
        calls = []
        if kill_at == "cell":
            target, name = common, "run_kernel"
        else:
            target, name = SweepJournal, "record_intent"
        inner = getattr(target, name)

        def dying(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                os._exit(9)
            return inner(*args, **kwargs)

        setattr(target, name, dying)
        run_grid([get_kernel(k) for k in KILLED_GRID], [CFG], workers=0,
                 store=ResultStore(store_root), journal=path)
        os._exit(0)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=120)
    assert proc.exitcode == 9


class TestKilledSerialSweep:
    """A serial sweep writes each intent just before its cell, so a
    killed one owes cells it never named: the journal is judged by its
    campaign."""

    @pytest.mark.parametrize("resume", ["resume_grid", "resume_incomplete"])
    @pytest.mark.parametrize("kill_at", ["cell", "intent"])
    def test_resume_completes_the_campaign(self, tmp_path, kill_at, resume):
        import asyncio

        from repro.serve.service import ServeConfig, ServeService

        store = ResultStore(tmp_path / "store")
        path = new_journal_path(store.root)
        _kill_sweep(store.root, path, kill_at)
        keys = [store_key_for(get_kernel(k), CFG) for k in KILLED_GRID]
        assert [store.get_run(k) is not None for k in keys] == [
            True, False, False]
        # still owed: listed for --resume, kept by gc
        assert [s.path for s in incomplete_journals(store.root)] == [str(path)]
        assert gc_journals(store.root, store=store) == 0

        if resume == "resume_grid":
            _, report = resume_grid(path, store=store)
            assert (report.cells, report.completed, report.recomputed) == (3, 1, 2)
        else:
            async def scenario():
                svc = ServeService(ServeConfig(store_root=store.root))
                report = await svc.resume_incomplete()
                await svc.aclose()
                return report

            report = asyncio.run(scenario())
            assert (report["cells"], report["durable"],
                    report["recomputed"], report["failed"]) == (3, 1, 2, 0)
        assert all(store.get_run(k) is not None for k in keys)
        assert load_journal(path).complete


class TestMalformedCampaign:
    """A campaign whose kernels or configs are not lists reads as
    empty, so the journal is judged by its intents, and nothing that
    lists, collects or resumes journals raises on it."""

    @pytest.mark.parametrize("campaign", [
        {"kernels": 3, "configs": [asdict(CFG)]},
        {"kernels": ["sphot-1"], "configs": 3},
        {"kernels": "sphot-1", "configs": [asdict(CFG)]},
    ])
    def test_read_as_empty(self, tmp_path, campaign):
        import asyncio

        from repro.serve.service import ServeConfig, ServeService

        store = ResultStore(tmp_path / "store")
        key = store_key_for(get_kernel("sphot-1"), CFG)
        path = make_journal(store.root, {key: ("sphot-1", asdict(CFG))},
                            campaign=campaign)
        assert load_journal(path).campaign == {}
        assert [s.path for s in incomplete_journals(store.root)] == [str(path)]
        assert gc_journals(store.root, store=store) == 0
        with pytest.raises(ValueError, match="campaign"):
            resume_grid(path, store=store)

        async def scenario():
            svc = ServeService(ServeConfig(store_root=store.root))
            report = await svc.resume_incomplete()
            await svc.aclose()
            return report

        report = asyncio.run(scenario())
        assert (report["cells"], report["recomputed"], report["failed"]) == (1, 1, 0)
        assert store.get_run(key) is not None
        assert load_journal(path).complete
        gc_journals(store.root, store=store)
        assert find_journals(store.root) == []  # serve's own journal too
