"""The examples/ingest corpus, end to end.

Every example loop must lower, register as a first-class kernel, and
agree bit-exactly across the three-way oracle (original Python vs
reference interpreter vs cycle-level simulator).  The corpus also
seeds the ``--corpus frontend`` fuzz mode, so its mutation machinery
is exercised here too.
"""

import pytest

from repro.frontend import check_ingested, ingest_file
from repro.frontend.corpus import default_ingest_dir
from repro.ir import fmt_loop, normalize
from repro.kernels import all_kernels, corpus_kernels, frontend_kernels, get_kernel

FILES = sorted(default_ingest_dir().glob("*.py"))
INGESTED = [ing for f in FILES for ing in ingest_file(f)]


def test_corpus_has_at_least_25_loops():
    assert len(INGESTED) >= 25


@pytest.mark.parametrize(
    "ing", INGESTED, ids=[i.name.split("/", 1)[1] for i in INGESTED]
)
def test_oracle_three_way_bit_exact(ing):
    rep = check_ingested(ing, trip=16, n_cores=2)
    assert rep.cycles > 0


@pytest.mark.parametrize(
    "ing", INGESTED, ids=[i.name.split("/", 1)[1] for i in INGESTED]
)
def test_round_trips_printer_and_normalize(ing):
    assert fmt_loop(ing.loop)
    assert normalize(ing.loop).stmts


class TestRegistry:
    def test_frontend_kernels_registered(self):
        all_kernels()  # trigger autoload
        names = {s.name for s in frontend_kernels()}
        assert len(names) >= 25
        # superset, not equality: other tests may ingest scratch files
        # into the shared registry before this one runs
        assert {i.name for i in INGESTED} <= names

    def test_paper_corpus_invariant_holds(self):
        """Ingested loops must not leak into the paper's 51-loop
        population (§IV counts depend on it)."""
        assert len(corpus_kernels()) == 51
        assert all(s.origin != "frontend" for s in corpus_kernels())

    def test_frontend_kernel_is_first_class(self):
        spec = get_kernel("frontend/dot")
        assert spec.origin == "frontend" and spec.app == "frontend"
        loop = spec.loop()
        wl = spec.workload(trip=32)
        assert loop.name == "frontend/dot"
        assert "x" in wl.arrays or len(wl.arrays) >= 1

    def test_characterize_covers_frontend(self):
        from repro.characterize import characterize_frontend, format_ingested_report

        rep = characterize_frontend()
        assert sum(rep.counts.values()) == len(frontend_kernels())
        text = format_ingested_report(rep)
        assert "frontend/dot" in text and "loops ingested" in text


class TestFuzzCorpus:
    def test_mutate_loop_is_deterministic_and_private(self):
        import random

        from repro.fuzz import RandomDraw, mutate_loop

        base = get_kernel("frontend/stencil3").loop()
        before = fmt_loop(base)
        a = mutate_loop(RandomDraw(random.Random(7)), base, name="m")
        b = mutate_loop(RandomDraw(random.Random(7)), base, name="m")
        assert fmt_loop(a) == fmt_loop(b)
        assert fmt_loop(base) == before  # base untouched

    def test_swap_only_preserves_values(self):
        import random

        import numpy as np

        from repro.fuzz import RandomDraw, mutate_loop
        from repro.interp import run_loop
        from repro.workload import random_workload

        base = get_kernel("frontend/axpy").loop()
        mut = mutate_loop(
            RandomDraw(random.Random(3)), base, name="m", allow_const=False
        )
        wl = random_workload(base, trip=16, seed=1)
        ref = run_loop(base, wl)
        got = run_loop(mut, random_workload(mut, trip=16, seed=1))
        for name, arr in ref.arrays.items():
            assert np.array_equal(arr, got.arrays[name])

    def test_campaign_frontend_corpus_clean(self):
        from repro.fuzz import run_campaign

        res = run_campaign(seed=1, trials=6, trip=12, corpus="frontend")
        assert res.trials == 6 and not res.findings

    def test_campaign_unknown_corpus(self):
        from repro.fuzz import run_campaign

        with pytest.raises(ValueError):
            run_campaign(seed=0, trials=1, corpus="nope")


class TestSweepIntegration:
    def test_sweep_engine_accepts_frontend_kernel(self):
        from repro.experiments.common import ExpConfig
        from repro.store.sweep import run_grid

        spec = get_kernel("frontend/heat_step")
        cfg = ExpConfig(n_cores=2, trip=16, seed=3)
        grid = run_grid([spec], [cfg])
        run = grid[(spec.name, cfg)]
        assert run.correct and run.speedup > 0


def test_autoload_warns_when_the_corpus_is_missing(tmp_path, monkeypatch, caplog):
    """A missing corpus directory is named, not skipped in silence."""
    from repro.frontend import corpus

    missing = tmp_path / "no-ingest"
    monkeypatch.setenv("REPRO_INGEST_DIR", str(missing))
    # a later lookup still loads the real corpus
    monkeypatch.setattr(corpus, "_AUTOLOADED", corpus._AUTOLOADED)
    with caplog.at_level("WARNING", logger="repro.frontend"):
        assert corpus.autoload(force=True) == []
    (record,) = caplog.records
    assert str(missing) in record.getMessage()
    assert "REPRO_INGEST_DIR" in record.getMessage()
