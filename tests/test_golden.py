"""Golden-output gate: ``repro experiment all`` reproduces every report.

One run of ``repro experiment all --trip 24`` (the trip
``tests/test_experiments.py`` uses, so most cells are memo hits) must
exit 0 and print each report byte-identical to the one recorded when
this gate was added: the sha256 of
``format_result(run_experiment(eid, 24))`` per experiment id.  A
refactor that keeps every paper number passes untouched; a change that
moves one fails here and must say why before the digest is re-recorded.

Two reports carry wall-clock values and are checked differently: E9's
last line ends with a compile-time ratio, so only the text before it
(rows and averages) is digested; E12's rows hang on timing (the
``rec_s`` recovery column, and how many requests an injected worker
crash takes down), so instead of a digest every scenario's verdict
must be PASS.

The run writes into a fresh result store, and every ``run`` record it
leaves there is digested too, so a refactor must keep the stored
records byte-identical, not only the reports.  ``seq`` records are left
out: they are written only on a miss, so which of them a run writes
depends on what ran earlier in the process.  Run records do not: a
cell recalled from the process memo is re-written to the store.  A
second digest covers only what each run record says, its ``kernel``
and ``payload`` without the key or the schema, so a change that means
to move the keys re-records the first digest and must leave this one.

A third gate locks the simulator itself: one digest over a canonical
dump of every ``SimResult`` (cycles, per-core counters and stall
buckets, every queue statistic, arrays and scalars) from a fixed set
of runs that reaches every opcode and every core hook: Table I at 1, 2
and 4 cores, the speculated (``select``) and work-stealing
(``callr``/``ret``) flavours, a traced run with its simulator events,
race detection, timing faults and the adaptive runtime.

A fourth locks the reference interpreter, the oracle every cell is
verified against: one digest over every ``InterpResult`` field (arrays
by dtype and bytes, live-outs and the final environment by type and
``repr``, and the four dynamic counters) of every registered kernel,
Table I at a long trip, a fixed batch of fuzz-grammar loops and one
loop that reaches every expression node and operator.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re

import pytest

from repro.cli import main
from repro.compiler import CompilerConfig
from repro.experiments import REGISTRY, TRIP_FREE
from repro.experiments.chaos_serve import SCENARIOS
from repro.faults import FaultInjector, FaultPlan
from repro.fuzz.gen import RandomDraw, build_loop
from repro.interp import run_loop
from repro.kernels import all_kernels, get_kernel, table1_kernels
from repro.obs.events import SIM_KINDS, EventBus
from repro.runtime import compile_loop, execute_kernel
from repro.runtime.adaptive import adaptive_run
from repro.store import ResultStore
from repro.workload import random_workload

from .conftest import build_every_node_loop

TRIP = 24

#: experiment id -> sha256 of its report at ``TRIP`` (E9 cut as above).
DIGESTS = {
    "E1": "b7ee88da5a916d2d10ea499a330b588cf0a3f4b5d97695c95efa8f740641caf8",
    "E2": "302d5e099ae29f8a8bcfb8ffd37d09c404526cd50d4d700029a459d5036ce86e",
    "E3": "c0896a2677380e5023f4eac8828e52abc98966fb1bc97a38c18a8ee27ad10dfd",
    "E4": "c16041ed3b8f6c5ba0d8c67218ec61563a251961c92858d477815955fcaa9dc9",
    "E5": "e3a201d18783b56e0cb1d2b81a5f3cd64462224de7390a63d04b8c77b8640874",
    "E6": "d7dff9490d44a07a97aa467aa3c916074b0d8da2f090524813d0f546b80d37c1",
    "E7": "32ffc9fd2e4a8e01dd0732bb2ec9624d6ed842119c9414381af4cdb9c28f6526",
    "E8": "154dccfa35fa18dbe9cb7b2bd4355573cb1d9287b0d7c1bcf645d1dd6cce15b0",
    "E9": "c377728a128f7161b94962b7c4ab4a356c75841030dee00d116c0c51254331b1",
    "E10": "bf44893843521748fe67ba53cc6292b5ca59e52f25d1a11ef80dd707999aa591",
    "E11": "1442ad66dd1e3768229b48e4457525e67d16fac6d255a09857f304b9ff9ebc22",
    "E13": "d05df478b196d2b14c53628cc86b21494976fd528a08aaa8674a749d2f396b00",
}

#: run records the run leaves, and the sha256 over each one's key then
#: file bytes, in sorted path order.
RUN_RECORDS = 324
RUN_RECORDS_DIGEST = (
    "92faaeefb3c8dbb1f6eeae657f267f218faccf3c4529219f3da93fe5b7287a3a"
)
#: sha256 over the sorted canonical JSON of each run record's kernel
#: and payload (no key, no schema).
RUN_PAYLOADS_DIGEST = (
    "78d482a0adba733930560e79455ad6e9a4b0ee490fff9ea0244006b990cd8b4c"
)

#: trip of the simulator golden's runs, and the sha256 of their dump.
SIM_TRIP = 64
SIM_DIGEST = (
    "0c5b3adff6aa20ac93785f2850a1d43d8360c9329c3516b2cc4c60c174cdf378"
)

#: trips of the interpreter golden (every kernel, then Table I), how
#: many fuzz-grammar loops it adds, and the sha256 of their dump.
INTERP_TRIP = 64
INTERP_LONG_TRIP = 512
INTERP_FUZZ_LOOPS = 24
INTERP_DIGEST = (
    "fdd401bfaf4e4a0ea21e98402a38a4c2edfbc0456cea25a2fb82ea6090fb2e64"
)


def _sections(out: str) -> dict[str, str]:
    """``{id: report}`` from the ``===== Ek: title =====`` blocks, minus
    the ``--trip is ignored`` note and the blank line after each."""
    parts = re.split(r"^===== (E\d+): .* =====\n", out, flags=re.M)
    sections = {}
    for eid, body in zip(parts[1::2], parts[2::2]):
        if body.startswith("note: "):
            body = body.partition("\n")[2]
        sections[eid] = body.removesuffix("\n\n")
    return sections


def _exact_part(eid: str, report: str) -> str:
    if eid == "E9":
        return report.rpartition("; merge compile-time speedup")[0]
    return report


@pytest.fixture(scope="module")
def experiment_all(tmp_path_factory):
    """Exit code, stdout and store root of one ``experiment all`` run
    over a fresh result store."""
    root = tmp_path_factory.mktemp("golden-store")
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(buf):
        mp.setenv("REPRO_CACHE_DIR", str(root))
        rc = main(["experiment", "all", "--trip", str(TRIP)])
    return rc, buf.getvalue(), root


def test_experiment_all_exits_zero_in_registry_order(experiment_all):
    rc, out, _ = experiment_all
    assert rc == 0
    assert list(_sections(out)) == list(REGISTRY)
    notes = re.findall(r"^note: (E\d+) .*; --trip is ignored$", out, re.M)
    assert notes == list(TRIP_FREE)


@pytest.mark.parametrize("eid", DIGESTS)
def test_report_matches_golden(experiment_all, eid):
    report = _sections(experiment_all[1])[eid]
    got = hashlib.sha256(_exact_part(eid, report).encode()).hexdigest()
    assert got == DIGESTS[eid], f"{eid} report changed:\n{report}"


def test_e12_every_scenario_passes(experiment_all):
    report = _sections(experiment_all[1])["E12"]
    verdicts = {
        cols[0]: cols[8]
        for cols in map(str.split, report.splitlines())
        if cols and cols[0] in SCENARIOS
    }
    assert verdicts == dict.fromkeys(SCENARIOS, "PASS")


def test_run_records_match_golden(experiment_all):
    digest = hashlib.sha256()
    n = 0
    for path in ResultStore(experiment_all[2])._record_paths():
        data = path.read_bytes()
        if json.loads(data)["kind"] == "run":
            digest.update(path.stem.encode())
            digest.update(data)
            n += 1
    assert (n, digest.hexdigest()) == (RUN_RECORDS, RUN_RECORDS_DIGEST)


def test_run_record_payloads_match_golden(experiment_all):
    docs = []
    for path in ResultStore(experiment_all[2])._record_paths():
        envelope = json.loads(path.read_bytes())
        if envelope["kind"] == "run":
            docs.append(json.dumps(
                {"kernel": envelope["kernel"], "payload": envelope["payload"]},
                sort_keys=True, separators=(",", ":")))
    digest = hashlib.sha256("\n".join(sorted(docs)).encode()).hexdigest()
    assert (len(docs), digest) == (RUN_RECORDS, RUN_PAYLOADS_DIGEST)


# -- the simulator golden -------------------------------------------------


def _sim_dump(res) -> dict:
    """Every observable field of one ``SimResult``, floats by ``repr``."""
    return {
        "cycles": repr(res.cycles),
        "core_times": [repr(t) for t in res.core_times],
        "total_instrs": res.total_instrs,
        "cores": [
            [s.instrs, s.enq_ops, s.deq_ops, repr(s.queue_stall), repr(s.mem),
             repr(s.stall_full), repr(s.stall_empty), repr(s.stall_transfer)]
            for s in res.core_stats
        ],
        "queues": [
            [repr(q.qid), q.n_transfers, q.max_outstanding, q.depth,
             sorted((k, repr(v)) for k, v in q.occupancy_hist.items()),
             repr(q.stall_full), repr(q.stall_empty)]
            for q in res.queue_stats
        ],
        "arrays": {
            name: [str(buf.dtype), hashlib.sha256(buf.tobytes()).hexdigest()]
            for name, buf in sorted(res.arrays.items())
        },
        "scalars": {name: repr(v) for name, v in sorted(res.scalars.items())},
        "races": [str(r) for r in res.races],
    }


def _event_dump(ev) -> list:
    return [ev.kind, repr(ev.ts), ev.core, repr(ev.queue), ev.name,
            repr(ev.value), repr(ev.dur), repr(ev.stall)]


def _simulator_runs() -> dict:
    """Name -> dump of every run the simulator golden covers."""
    out = {}
    for spec in table1_kernels():
        loop, wl = spec.loop(), spec.workload(trip=SIM_TRIP)
        for cores in (1, 2, 4):
            out[f"{spec.name}@{cores}"] = _sim_dump(
                execute_kernel(compile_loop(loop, cores), wl))
        for flavour, cfg in (
            ("speculation", CompilerConfig(speculation=True)),
            ("stealing", CompilerConfig(runtime_mode="stealing")),
        ):
            out[f"{spec.name}@4/{flavour}"] = _sim_dump(
                execute_kernel(compile_loop(loop, 4, cfg), wl))

    spec = get_kernel("umt2k-1")
    loop, wl = spec.loop(), spec.workload(trip=SIM_TRIP)
    kernel = compile_loop(loop, 4)
    bus, events = EventBus(), []
    bus.subscribe(events.append)
    traced = _sim_dump(execute_kernel(kernel, wl, obs=bus))
    assert traced == out["umt2k-1@4"], "an obs bus changed the result"
    kinds = {ev.kind for ev in events}
    assert kinds == SIM_KINDS, kinds
    out["umt2k-1@4/obs"] = {
        "result": traced, "events": [_event_dump(ev) for ev in events],
    }
    out["umt2k-1@4/races"] = _sim_dump(
        execute_kernel(kernel, wl, detect_races=True))
    for kind in ("slowdown", "jitter"):
        inj = FaultInjector(FaultPlan.single(kind, seed=11))
        out[f"umt2k-1@4/{kind}"] = {
            "result": _sim_dump(execute_kernel(kernel, wl, faults=inj)),
            "faults": [str(ev) for ev in inj.events],
        }
    skewed = FaultPlan(seed=7, slow_cores=(1,), slow_factor=3.0)
    ad = adaptive_run(loop, wl, 4, fault_plan=skewed)
    out["umt2k-1@4/adaptive"] = {
        "result": _sim_dump(ad.result),
        "placement": sorted(ad.placement.items()),
        "final_depths": sorted(
            (repr(k), v) for k, v in ad.final_depths.items()),
        "actions": [repr(a) for a in ad.actions],
    }
    return out


def test_simulator_results_match_golden():
    runs = _simulator_runs()
    assert len(runs) == 18 * 5 + 5
    blob = json.dumps(runs, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == SIM_DIGEST


# -- the interpreter golden -----------------------------------------------


def _interp_dump(res) -> dict:
    """Every field of one ``InterpResult``; scalars by type and ``repr``."""

    def values(named: dict) -> dict:
        return {k: [type(v).__name__, repr(v)] for k, v in sorted(named.items())}

    return {
        "arrays": {
            name: [str(buf.dtype), hashlib.sha256(buf.tobytes()).hexdigest()]
            for name, buf in sorted(res.arrays.items())
        },
        "scalars": values(res.scalars),
        "env": values(res.env),
        "counts": [res.stmt_execs, res.op_execs, res.loads, res.stores],
    }


def _interpreter_runs() -> dict:
    """Name -> dump of every run the interpreter golden covers."""
    out = {}
    for spec in all_kernels():
        out[f"{spec.name}@{INTERP_TRIP}"] = _interp_dump(
            run_loop(spec.loop(), spec.workload(trip=INTERP_TRIP)))
    for spec in table1_kernels():
        out[f"{spec.name}@{INTERP_LONG_TRIP}"] = _interp_dump(
            run_loop(spec.loop(), spec.workload(trip=INTERP_LONG_TRIP)))
    loops = [build_loop(RandomDraw(random.Random(seed)), name=f"fuzz-{seed}")
             for seed in range(INTERP_FUZZ_LOOPS)]
    for seed, loop in enumerate(loops + [build_every_node_loop()]):
        wl = random_workload(loop, trip=INTERP_TRIP, seed=seed)
        out[f"{loop.name}@{INTERP_TRIP}"] = _interp_dump(run_loop(loop, wl))
    return out


def test_interpreter_results_match_golden():
    runs = _interpreter_runs()
    assert len(runs) == len(all_kernels()) + 18 + INTERP_FUZZ_LOOPS + 1
    blob = json.dumps(runs, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == INTERP_DIGEST
