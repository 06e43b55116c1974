"""Write-ahead sweep journal: crash-safe intent/completion records.

Every sweep (and every serve compute) can record *intent* before a
cell is dispatched and *completion* after its result has been durably
persisted to the content-addressed store.  A process that dies mid
sweep — ``kill -9``, OOM, power loss — leaves a journal whose
incomplete entries name exactly the cells still owed; ``repro sweep
--resume`` and ``repro serve --resume`` replay it against the store
with :func:`repro.store.sweep.resume_grid`, re-dispatching only the
missing cells.

Format: one JSON object per line (NDJSON), append-only::

    {"kind": "open",   "schema": 1, "journal": "<id>", "campaign": {...}}
    {"kind": "intent", "key": "<sha256>", "kernel": "...", "config": {...}}
    {"kind": "done",   "key": "<sha256>", "status": "ok"}
    {"kind": "checkpoint", "pending": 3}
    {"kind": "close"}

Durability discipline: every line is flushed (and, when ``fsync`` is
enabled, fsync'd) before the write that it describes is acknowledged.
An ``intent`` is written *before* compute starts; a ``done`` only
*after* the store write for that key returned.  Therefore:

* **No acked result is ever lost** — a result is only acked after its
  store record landed, and the atomic-rename store write means the
  record is either fully present or absent.
* **No cell is computed twice after resume** — replay treats the
  *store* as ground truth: a key whose record exists is complete
  (whether or not its ``done`` line survived the crash), so re-running
  a completed journal performs zero computes (the idempotence
  invariant, asserted by E12 and the kill-and-resume CI job).

Crash tolerance on the read side: the final line of a crashed writer
may be torn; :func:`load_journal` tolerates (and counts) trailing
garbage instead of failing the whole replay.

A live writer's journal is left alone: a :class:`SweepJournal` holds
an exclusive ``flock`` on its file from open to close, which dies with
the process (``SIGKILL`` included), so no resumer takes a held journal
and ``gc`` keeps it.

Journals live in ``<store root>/journals/`` by default so that
``ResultStore.gc`` can find incomplete journals and refuse to collect
any record they still reference (see ``ResultStore.gc``'s
``protect`` handling).
"""

from __future__ import annotations

import fcntl
import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

#: bump to invalidate old journals (replay refuses mismatched schema).
JOURNAL_SCHEMA = 1

#: subdirectory of the store root holding journals.
JOURNAL_DIR = "journals"

#: journal file suffix (distinct from record ``.json`` so the store's
#: maintenance walks never confuse the two).
JOURNAL_SUFFIX = ".journal"


def journal_dir(store_root: str | os.PathLike) -> Path:
    return Path(store_root) / JOURNAL_DIR


def new_journal_path(store_root: str | os.PathLike, prefix: str = "sweep") -> Path:
    """A fresh collision-free journal path under the store root."""
    d = journal_dir(store_root)
    return d / f"{prefix}-{os.getpid()}-{uuid.uuid4().hex[:12]}{JOURNAL_SUFFIX}"


class JournalHeld(Exception):
    """The journal's writer lock is held: a live process writes it."""


def _take_writer_lock(fh: Any) -> bool:
    """Take the writer lock on the open journal ``fh`` without waiting;
    False when a live writer holds it.  It lasts until ``fh`` closes."""
    try:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        return False
    return True


class SweepJournal:
    """Append-only write-ahead journal for one writer (a sweep, a
    resume or a daemon); opening it takes the writer lock, or raises
    :class:`JournalHeld`.

    ``fsync=True`` (the default) pays one fsync per line for real
    durability; tests and throwaway campaigns can disable it.  The
    writer is synchronous and unbuffered by design — the whole point
    is that a line is on disk before the work it governs proceeds.
    """

    def __init__(self, path: str | os.PathLike, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        if not _take_writer_lock(self._fh):
            self._fh.close()
            raise JournalHeld(f"{self.path}: held by a live writer")
        #: this writer's intents with no ``done`` line yet.
        self.pending: set[str] = set()

    # -- raw append ----------------------------------------------------

    def _append(self, obj: dict) -> None:
        self._fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    # -- records -------------------------------------------------------

    def open_campaign(self, campaign: dict | None = None) -> None:
        """First line: schema + what this sweep is (enough to rebuild
        the full task list on resume)."""
        self._append({
            "kind": "open",
            "schema": JOURNAL_SCHEMA,
            "journal": self.path.stem,
            "ts": time.time(),
            "campaign": campaign or {},
        })

    def record_intent(self, key: str, kernel: str, config: dict | None = None) -> None:
        """MUST be on disk before the cell's compute is dispatched.  A
        key already pending writes nothing: a retry dispatches under
        its standing intent."""
        if key in self.pending:
            return
        self._append({
            "kind": "intent", "key": key, "kernel": kernel,
            "config": config or {},
        })
        self.pending.add(key)

    def record_done(self, key: str, status: str = "ok") -> None:
        """Only after the store write for ``key`` has returned."""
        self._append({"kind": "done", "key": key, "status": status})
        self.pending.discard(key)

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def checkpoint(self, pending: int = 0) -> None:
        self._append({"kind": "checkpoint", "pending": pending, "ts": time.time()})

    def close(self, complete: bool = True) -> None:
        """``complete=True`` writes the terminal ``close`` record —
        replay then knows nothing is owed even without consulting the
        store."""
        if self._fh.closed:
            return
        if complete:
            self._append({"kind": "close"})
        self._fh.close()


@dataclass
class JournalState:
    """Replayed view of one journal file."""

    path: str
    campaign: dict = field(default_factory=dict)
    #: key -> {"kernel": ..., "config": {...}} in intent order.
    intents: dict[str, dict] = field(default_factory=dict)
    #: keys with a ``done`` record (any status).
    done: dict[str, str] = field(default_factory=dict)
    closed: bool = False
    #: unparsable lines tolerated during replay (a crashed writer's
    #: torn tail is expected; anything further in is suspicious but
    #: still non-fatal — the store remains ground truth).
    torn_lines: int = 0
    schema_ok: bool = True

    @property
    def campaign_cells(self) -> int:
        """How many cells the ``open`` record names (kernels × configs);
        0 for a journal without a campaign, such as serve's."""
        return (len(self.campaign.get("kernels") or ())
                * len(self.campaign.get("configs") or ()))

    @property
    def complete(self) -> bool:
        """Nothing is owed (:meth:`owed`): the journal was closed, or
        every intent has a ``done`` line and as many keys have one as
        the campaign has cells.  Counted, so no key is built; a sweep
        killed before a cell's intent still owes that cell."""
        return self.closed or (
            all(k in self.done for k in self.intents)
            and len(self.done) >= self.campaign_cells
        )

    def owed(self) -> dict[str, dict]:
        """Every cell the journal must see durable, as ``key ->
        {"kernel": ..., "config": {...}}``: each cell of its campaign
        when the ``open`` record names kernels and configs, and each
        intent (a sweep writes an intent only as its cell starts).
        Raises ``ValueError`` when a cell cannot be rebuilt: a kernel
        no longer registered, a config field no longer known."""
        from ..experiments.common import ExpConfig, store_key_for
        from ..kernels import get_kernel

        cells: dict[str, dict] = {}
        try:
            if self.campaign_cells:
                for name in self.campaign["kernels"]:
                    spec = get_kernel(name)
                    for cfg in self.campaign["configs"]:
                        key = store_key_for(spec, ExpConfig(**cfg))
                        cells[key] = {"kernel": name, "config": cfg}
            for cell in self.intents.values():
                get_kernel(cell["kernel"])
                ExpConfig(**cell["config"])
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"journal {self.path}: cannot rebuild what it owes ({exc})"
            ) from None
        return {**cells, **self.intents}

    def missing_cells(self, store: Any) -> list[str]:
        """Owed cells whose result is absent from the *store* — the
        actual recovery work list.  The store outranks the journal's own
        ``done`` lines in both directions: a record that exists is
        complete even if the ``done`` line was lost in the crash, and a
        ``done`` whose record has vanished (disk fault, manual clear)
        is re-dispatched."""
        return [key for key in self.owed()
                if store is None or store.get_run(key) is None]


def load_journal(path: str | os.PathLike) -> JournalState:
    """Replay one journal file into a :class:`JournalState`.

    Never raises on content: torn/garbage lines are counted, a missing
    ``open`` record, or a campaign whose kernels or configs are not
    lists, leaves ``campaign`` empty, a schema mismatch sets
    ``schema_ok=False`` (callers should refuse to resume those).
    """
    state = JournalState(path=str(path))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError:
        state.torn_lines += 1
        return state
    for raw in raw_lines:
        raw = raw.strip()
        if not raw:
            continue
        try:
            obj = json.loads(raw)
            if not isinstance(obj, dict):
                raise ValueError("journal line is not an object")
        except ValueError:
            state.torn_lines += 1
            continue
        kind = obj.get("kind")
        if kind == "open":
            campaign = obj.get("campaign")
            if not (isinstance(campaign, dict) and all(
                    isinstance(campaign.get(f, []), list)
                    for f in ("kernels", "configs"))):
                campaign = {}
            state.campaign = campaign
            if obj.get("schema") != JOURNAL_SCHEMA:
                state.schema_ok = False
        elif kind == "intent":
            key = obj.get("key")
            if isinstance(key, str):
                state.intents[key] = {
                    "kernel": obj.get("kernel"),
                    "config": obj.get("config") or {},
                }
        elif kind == "done":
            key = obj.get("key")
            if isinstance(key, str):
                state.done[key] = str(obj.get("status", "ok"))
        elif kind == "close":
            state.closed = True
        # checkpoints and unknown kinds are informational only
    return state


def find_journals(store_root: str | os.PathLike) -> list[Path]:
    """Every journal file under the store root, oldest first."""
    d = journal_dir(store_root)
    if not d.is_dir():
        return []
    return sorted(d.glob(f"*{JOURNAL_SUFFIX}"), key=lambda p: p.stat().st_mtime)


def incomplete_journals(store_root: str | os.PathLike) -> list[JournalState]:
    """Replayed states of every journal that still owes work."""
    out = []
    for path in find_journals(store_root):
        state = load_journal(path)
        if not state.complete:
            out.append(state)
    return out


def protected_keys(store_root: str | os.PathLike) -> set[str]:
    """Keys referenced by any incomplete journal — ``gc`` must never
    collect these, even if their current record looks stale (a resume
    may be about to rewrite or read them)."""
    keys: set[str] = set()
    for state in incomplete_journals(store_root):
        keys.update(state.intents)
    return keys


def remove_journal(path: str | os.PathLike) -> bool:
    try:
        os.unlink(path)
        return True
    except OSError:
        return False


def gc_journals(store_root: str | os.PathLike, store: Any = None) -> int:
    """Delete journals with nothing left to recover; returns the count.

    A journal is reclaimable when nothing is owed: it is complete, or
    every cell it owes has its record in the store (the crashed-but-
    actually-finished case).  Incomplete journals are always kept, and
    so is one whose cells can no longer be rebuilt, and one a live
    writer holds (an idle daemon's reads complete).  The lock is held
    until the unlink, so no resumer takes the journal meanwhile.
    """
    removed = 0
    for path in find_journals(store_root):
        with open(path, "rb") as fh:
            if not _take_writer_lock(fh):
                continue
            state = load_journal(path)
            try:
                done = state.complete or (
                    store is not None and not state.missing_cells(store)
                )
            except ValueError:
                done = False
            if done and remove_journal(path):
                removed += 1
    return removed
