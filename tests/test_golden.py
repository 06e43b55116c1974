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
cell recalled from the process memo is re-written to the store.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re

import pytest

from repro.cli import main
from repro.experiments import REGISTRY, TRIP_FREE
from repro.experiments.chaos_serve import SCENARIOS
from repro.store import ResultStore

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
    "2ab5ae27efd2d12077668fea9ef2fa386f21df57619dc805e6e96fe5e741fc8b"
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
