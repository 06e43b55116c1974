"""Tests for the differential fuzzing campaign (repro.fuzz).

Fixed seeds everywhere: the trial stream is a pure function of
``(seed, trial)``, so these tests double as regression anchors — a
clean campaign stays clean, an injected miscompile is always found,
shrunk below the ISSUE ceiling and replayable from its JSON artifact.
"""

import random

import pytest

from repro.fuzz import (
    DEFAULT_MATRIX,
    FuzzCell,
    RandomDraw,
    build_loop,
    decode_loop,
    encode_loop,
    load_artifact,
    loop_size,
    probe_loop,
    replay_artifact,
    run_campaign,
    save_artifact,
    shrink_loop,
)
from repro.interp import run_loop
from repro.ir import fmt_loop, walk_stmts
from repro.kernels import all_kernels, table1_kernels
from repro.obs.metrics import MetricsRegistry
from repro.runtime import compile_loop
from repro.workload import random_workload

CELL = FuzzCell(2, 20, False)


def _loop(seed=0, trial=0):
    return build_loop(RandomDraw(random.Random(f"{seed}:{trial}")))


class TestGrammar:
    def test_deterministic_for_seed(self):
        assert fmt_loop(_loop(3)) == fmt_loop(_loop(3))

    def test_distinct_across_trials(self):
        texts = {fmt_loop(_loop(0, t)) for t in range(8)}
        assert len(texts) > 1

    def test_generated_loops_interpret(self):
        for t in range(5):
            loop = _loop(0, t)
            wl = random_workload(loop, trip=8, seed=1)
            res = run_loop(loop, wl)
            assert set(res.arrays) == {a.name for a in loop.arrays}


class TestProbe:
    def test_clean_loop_is_ok_in_every_cell(self):
        loop = _loop(0)
        for cell in DEFAULT_MATRIX:
            assert probe_loop(loop, cell) == "ok"

    def test_injected_bug_yields_both_signature(self):
        sig = probe_loop(_loop(0), CELL, inject="drop-enq")
        assert sig.startswith("both:count-mismatch:"), sig


class TestCampaign:
    def test_clean_fixed_seed_campaign_finds_nothing(self):
        metrics = MetricsRegistry()
        res = run_campaign(0, trials=6, metrics=metrics)
        assert res.trials == 6 and not res.findings
        assert res.probes == 6 * len(DEFAULT_MATRIX)
        assert metrics.value("fuzz.trials") == 6
        assert metrics.value("fuzz.probes") == res.probes
        assert metrics.value("fuzz.findings") == 0
        assert "0 finding(s)" in res.describe()

    def test_injected_miscompile_found_and_shrunk(self, tmp_path):
        # ISSUE acceptance: the fixed-seed campaign must catch the
        # planted miscompile and shrink it to <= 6 statements
        res = run_campaign(
            0, trials=2, inject="drop-enq",
            cells=(CELL,), out_dir=tmp_path,
        )
        assert res.findings
        for f in res.findings:
            assert f.signature.startswith("both:")
            assert f.shrunk_size <= 6
            assert f.shrunk_size <= f.original_size
            assert f.artifact is not None and f.artifact.exists()

    def test_time_budget_halts(self):
        res = run_campaign(0, max_seconds=0.0)
        assert res.trials == 0 and res.probes == 0

    def test_deterministic_findings_for_seed(self, tmp_path):
        kw = dict(trials=1, inject="drop-enq", cells=(CELL,))
        r1 = run_campaign(7, **kw)
        r2 = run_campaign(7, **kw)
        assert [(f.trial, f.signature, fmt_loop(f.loop)) for f in r1.findings] \
            == [(f.trial, f.signature, fmt_loop(f.loop)) for f in r2.findings]


class TestShrink:
    def test_preserves_signature_and_minimizes(self):
        loop = _loop(0, 1)
        probe = lambda cand: probe_loop(cand, CELL, inject="drop-enq")
        target = probe(loop)
        assert target != "ok"
        small, spent = shrink_loop(loop, probe)
        assert probe(small) == target
        assert loop_size(small) <= loop_size(loop)
        assert spent > 0

    @pytest.mark.parametrize("trial", [0, 5])  # a top-level store; an if
    def test_rebuilt_statements_keep_their_lines(self, trial):
        loop = _loop(0, trial)
        lines = {s.line for s in walk_stmts(loop.body)}
        seen = []

        def probe(cand):
            # accept every edit that keeps the top-level count: If arm
            # removals and expression substitutions, never removals
            seen.append(cand)
            return len(cand.body)

        shrink_loop(loop, probe)
        rebuilt = [s for c in seen for s in c.body
                   if not any(s is t for t in loop.body)]
        assert rebuilt and 0 not in lines
        assert all(s.line in lines for c in seen for s in walk_stmts(c.body))

    def test_noop_when_probe_rejects_everything(self):
        loop = _loop(0)
        small, _ = shrink_loop(loop, lambda cand: fmt_loop(cand))
        # signature == full pretty-print: only identity survives
        assert fmt_loop(small) == fmt_loop(loop)


class TestArtifact:
    def test_loop_json_round_trip(self):
        loop = _loop(0, 2)
        assert fmt_loop(decode_loop(encode_loop(loop))) == fmt_loop(loop)

    def test_every_registered_kernel_keeps_its_lines(self):
        for spec in all_kernels():
            loop = spec.loop()
            back = decode_loop(encode_loop(loop))
            assert fmt_loop(back) == fmt_loop(loop), spec.name
            assert ([s.line for s in walk_stmts(back.body)]
                    == [s.line for s in walk_stmts(loop.body)]), spec.name

    def test_table1_compiles_identically_after_round_trip(self):
        # lines feed the §III-B proximity term, so a codec that dropped
        # them would replay a loop the campaign never compiled
        for spec in table1_kernels():
            loop = spec.loop()
            back = decode_loop(encode_loop(loop))
            for cores in (2, 4):
                got = compile_loop(back, cores, check=False).programs
                want = compile_loop(loop, cores, check=False).programs
                assert [p.dump() for p in got] == [p.dump() for p in want], (
                    f"{spec.name}@{cores}")

    def test_artifact_without_lines_still_loads(self):
        def strip(stmts):
            for d in stmts:
                del d["line"]
                strip(d.get("then", []) + d.get("orelse", []))

        doc = encode_loop(_loop(0, 2))
        strip(doc["body"])
        back = decode_loop(doc)
        assert fmt_loop(back) == fmt_loop(_loop(0, 2))
        assert {s.line for s in walk_stmts(back.body)} == {0}

    def test_replay_reproduces_twice(self, tmp_path):
        res = run_campaign(
            0, trials=1, inject="drop-enq", cells=(CELL,), out_dir=tmp_path,
        )
        art = res.findings[0].artifact
        for _ in range(2):  # deterministic replay, not a lucky draw
            expected, observed = replay_artifact(art)
            assert expected == observed

    def test_probe_canonicalizes_shared_nodes(self):
        # node identity is computation identity in this IR, and
        # LoopBuilder loops share leaf nodes (a DAG) the JSON tree
        # codec cannot represent; the probe must canonicalize so the
        # in-memory loop and its serialized form get the same signature
        # (regression: seed "0:10" + flip-guard diverged before)
        loop = _loop(0, 10)
        sig = probe_loop(loop, CELL, inject="flip-guard")
        back = decode_loop(encode_loop(loop))
        assert probe_loop(back, CELL, inject="flip-guard") == sig

    def test_artifact_payload_fields(self, tmp_path):
        path = save_artifact(
            tmp_path / "a.json", _loop(0),
            signature="both:count-mismatch:deadlock",
            seed=0, trial=0, trip=16,
            n_cores=2, queue_depth=20, speculation=False,
            inject="drop-enq",
        )
        payload = load_artifact(path)
        assert payload["kind"] == "fuzz-repro" and payload["schema"] == 1
        assert payload["config"]["inject"] == "drop-enq"
        assert fmt_loop(payload["loop"])  # decoded, not raw JSON

    def test_load_rejects_foreign_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "not-a-repro"}')
        with pytest.raises(ValueError, match="not a fuzz repro"):
            load_artifact(bad)

    def test_load_rejects_future_schema(self, tmp_path):
        path = save_artifact(
            tmp_path / "a.json", _loop(0),
            signature="ok", seed=0, trial=0, trip=16,
            n_cores=2, queue_depth=20, speculation=False,
        )
        import json

        doc = json.loads(path.read_text())
        doc["schema"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema"):
            load_artifact(path)


class TestSharedGrammar:
    def test_hypothesis_strategy_uses_same_builder(self):
        # tests/strategies.py is a thin adapter over repro.fuzz.gen;
        # drawing through it must produce the same Loop shape
        from tests.strategies import loops

        assert loops is not None
