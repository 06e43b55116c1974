"""On-disk content-addressed result store.

Layout: ``<root>/<key[:2]>/<key>.json`` — two-level sharding keeps
directory fan-out bounded at 256 even for very large stores.

Concurrency: writers serialize each record to a unique temp file in
the final directory and ``os.replace`` it into place.  The rename is
atomic on POSIX, so concurrent writers of the same key (sweep workers
on different processes or machines sharing a filesystem) race
harmlessly — readers always observe either no file or one complete,
valid record, never a torn write.

Robustness: any unreadable, unparsable, truncated, or
schema-mismatched record is treated as a cache miss.  ``gc`` deletes
such records (plus abandoned temp files); ``clear`` deletes
everything.

Concurrent writers: on filesystems where the rename is *not* atomic
(network mounts, some overlayfs setups) a reader can observe a
partially-visible or mid-replace record.  The read path therefore
retries exactly once — after a short delay — when a record *exists but
fails to parse*; a plain missing file is a genuine miss and is never
retried (no added latency on the hot miss path).  ``gc`` re-validates
every stale candidate immediately before unlinking, so a writer that
replaces a corrupt record mid-collection never has its fresh record
deleted underfoot.

The default store root is, in priority order, ``$REPRO_CACHE_DIR``,
else ``~/.cache/repro/store``.  Setting ``REPRO_CACHE=0`` disables the
persistent layer entirely (pure in-process memoisation remains).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from . import records

#: environment variable overriding the store root directory.
ROOT_ENV = "REPRO_CACHE_DIR"
#: set to "0" to disable the persistent store.
ENABLE_ENV = "REPRO_CACHE"

#: pause before re-reading a record that exists but failed to parse —
#: long enough for a concurrent ``os.replace`` to land, short enough
#: to be invisible (only paid on the corrupt-read path, never on a
#: plain miss).
RETRY_DELAY = 0.002

#: ``gc`` only reclaims temp files at least this old (seconds): a
#: fresh temp file is almost certainly a live writer mid-``put``, and
#: unlinking it would make the writer's ``os.replace`` blow up.  Only
#: genuinely abandoned files (crashed writers) age past this.
TMP_GRACE = 60.0


def store_root() -> Path:
    """Resolve the store root from the environment."""
    env = os.environ.get(ROOT_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "store"


class StoreWriteError(OSError):
    """A store write failed at the OS level (``ENOSPC``, ``EIO``, a
    vanished mount...).  Subclasses :class:`OSError` so existing
    handlers still match, but carries a distinct identity so the serve
    failure boundary can classify it as ``store-error`` instead of a
    generic compute failure — a full disk must shed load loudly, not
    masquerade as a compiler bug."""


@dataclass
class StoreStats:
    """Snapshot of on-disk contents plus this process's session counters."""

    root: str
    run_records: int = 0
    seq_records: int = 0
    src_records: int = 0
    stale_records: int = 0
    total_bytes: int = 0
    hits: int = 0
    misses: int = 0
    writes: int = 0

    @property
    def records(self) -> int:
        return self.run_records + self.seq_records + self.src_records

    def format(self) -> str:
        lines = [
            f"store root   : {self.root}",
            f"run records  : {self.run_records}",
            f"seq records  : {self.seq_records}",
            f"src records  : {self.src_records}",
            f"stale/corrupt: {self.stale_records}",
            f"total size   : {self.total_bytes / 1024:.1f} KiB",
        ]
        return "\n".join(lines)


@dataclass
class GcReport:
    removed_stale: int = 0
    removed_tmp: int = 0
    removed_journals: int = 0
    #: records spared because an incomplete journal still references them.
    protected: int = 0

    def format(self) -> str:
        out = (
            f"removed {self.removed_stale} stale/corrupt record(s), "
            f"{self.removed_tmp} abandoned temp file(s), "
            f"{self.removed_journals} completed journal(s)"
        )
        if self.protected:
            out += f"; kept {self.protected} journal-protected record(s)"
        return out


class ResultStore:
    """Content-addressed persistent result store."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else store_root()
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # -- raw envelope layer -------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _read_text(self, path: Path) -> str:
        """Single raw read; split out so tests can fault-inject torn
        reads without touching the filesystem layer."""
        return path.read_text(encoding="utf-8")

    def _read_envelope(self, path: Path) -> dict | None:
        """Read + parse one record, retrying once on a corrupt read.

        A missing file is a definitive miss (the atomic-rename contract
        means it was never written) and returns immediately.  A file
        that exists but does not parse is plausibly a concurrent writer
        mid-replace on a non-atomic filesystem: re-read once after
        :data:`RETRY_DELAY` before declaring it corrupt.
        """
        for attempt in (0, 1):
            try:
                envelope = json.loads(self._read_text(path))
                if not isinstance(envelope, dict):
                    raise ValueError("record is not an object")
                return envelope
            except FileNotFoundError:
                return None
            except (OSError, ValueError):
                if attempt:
                    return None
                time.sleep(RETRY_DELAY)
        return None

    def get(self, key: str) -> dict | None:
        """Load an envelope; any failure mode is a miss."""
        envelope = self._read_envelope(self._path(key))
        if envelope is None:
            self.misses += 1
            return None
        self.hits += 1
        return envelope

    def has(self, key: str) -> bool:
        """Whether a record exists under ``key``, without reading it.

        The durability test for a result this process already holds
        (a run-memo hit): the record is neither decoded nor counted as
        a hit or a miss.  A corrupt record still reads as a miss
        through :meth:`get`.
        """
        return os.path.isfile(self._path(key))

    def put(self, key: str, envelope: dict) -> None:
        """Atomically persist an envelope (temp file + rename).

        OS-level failures (``ENOSPC``, ``EIO``) are re-raised as
        :class:`StoreWriteError` — still an :class:`OSError`, but
        classifiable: callers that ack results only after a durable
        write (serve, the journaled sweep) turn this into a structured
        ``store-error`` response instead of a mystery crash.
        """
        try:
            path = self._path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
            )
        except OSError as exc:
            raise StoreWriteError(f"store write failed for {key[:12]}…: {exc}") from exc
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(envelope, f, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            if isinstance(exc, OSError):
                raise StoreWriteError(
                    f"store write failed for {key[:12]}…: {exc}"
                ) from exc
            raise
        self.writes += 1

    # -- typed layer ---------------------------------------------------

    def get_run(self, key: str) -> Any | None:
        envelope = self.get(key)
        if envelope is None:
            return None
        run = records.decode_run(envelope)
        if run is None:  # readable JSON but wrong schema/kind/shape
            self.hits -= 1
            self.misses += 1
        return run

    def put_run(self, key: str, run: Any) -> None:
        self.put(key, records.encode_run(key, run))

    def get_seq(self, key: str) -> float | None:
        envelope = self.get(key)
        if envelope is None:
            return None
        cycles = records.decode_seq(envelope)
        if cycles is None:
            self.hits -= 1
            self.misses += 1
        return cycles

    def put_seq(self, key: str, kernel: str, cycles: float) -> None:
        self.put(key, records.encode_seq(key, kernel, cycles))

    def get_src(self, key: str) -> str | None:
        envelope = self.get(key)
        if envelope is None:
            return None
        source = records.decode_src(envelope)
        if source is None:
            self.hits -= 1
            self.misses += 1
        return source

    def put_src(self, key: str, kernel: str, source: str) -> None:
        self.put(key, records.encode_src(key, kernel, source))

    # -- maintenance ---------------------------------------------------

    def _record_paths(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir():
                yield from sorted(shard.glob("*.json"))

    def _tmp_paths(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir():
                # mkstemp names start with "." (hidden); a bare "*.tmp"
                # glob would skip them and gc would never reclaim space.
                yield from sorted(
                    p for p in shard.iterdir() if p.name.endswith(".tmp")
                )

    def stats(self) -> StoreStats:
        st = StoreStats(
            root=str(self.root),
            hits=self.hits, misses=self.misses, writes=self.writes,
        )
        for path in self._record_paths():
            try:
                st.total_bytes += path.stat().st_size
            except OSError:
                continue  # vanished mid-walk (concurrent gc/clear)
            envelope = self._read_envelope(path)
            try:
                kind = envelope.get("kind") if envelope else None
                if envelope is None and not path.exists():
                    continue  # deleted underfoot, not stale
                if envelope is None or envelope.get("schema") != records.SCHEMA_VERSION:
                    st.stale_records += 1
                elif kind == "run":
                    st.run_records += 1
                elif kind == "seq":
                    st.seq_records += 1
                elif kind == "src":
                    st.src_records += 1
                else:
                    st.stale_records += 1
            except (OSError, AttributeError):
                st.stale_records += 1
        return st

    def clear(self) -> int:
        """Delete every record; returns the number removed."""
        removed = 0
        for path in list(self._record_paths()) + list(self._tmp_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    @staticmethod
    def _envelope_stale(envelope: dict | None) -> bool:
        return (
            envelope is None
            or envelope.get("schema") != records.SCHEMA_VERSION
            or envelope.get("kind") not in ("run", "seq", "src")
        )

    def gc(self, protect: set[str] | frozenset[str] | None = None) -> GcReport:
        """Drop unreadable / stale-schema records and abandoned temp files.

        Safe against concurrent writers and readers: a stale candidate
        is re-validated immediately before the unlink, so a writer that
        replaced the record since the sweep started keeps its fresh
        record; files that vanish mid-sweep are simply skipped; temp
        files younger than :data:`TMP_GRACE` are left alone (they are
        live writers mid-``put``, not abandoned debris).

        Safe against crash recovery: any key referenced by an
        *incomplete* write-ahead journal under ``<root>/journals/`` —
        plus anything in the explicit ``protect`` set — is never
        collected, even if its current record looks stale.  A resume
        may be about to read or rewrite exactly that key; collecting it
        underfoot would turn a recoverable crash into lost work.
        Completed journals are reclaimed in the same pass.
        """
        from .journal import gc_journals, protected_keys

        report = GcReport()
        protected = set(protect or ()) | protected_keys(self.root)
        for path in self._record_paths():
            if path.stem in protected:
                report.protected += 1
                continue
            if not self._envelope_stale(self._read_envelope(path)):
                continue
            if not path.exists():
                continue  # already gone: nothing to reclaim
            # Re-validate right before deleting — the record may have
            # been atomically replaced with a fresh one since the first
            # read; deleting it now would drop a live result underfoot.
            if not self._envelope_stale(self._read_envelope(path)):
                continue
            try:
                path.unlink()
                report.removed_stale += 1
            except OSError:
                pass
        cutoff = time.time() - TMP_GRACE
        for path in self._tmp_paths():
            try:
                if path.stat().st_mtime > cutoff:
                    continue  # a live writer is mid-put; leave it alone
                path.unlink()
                report.removed_tmp += 1
            except OSError:
                pass
        report.removed_journals = gc_journals(self.root, store=self)
        return report


_default: ResultStore | None = None


def default_store() -> ResultStore | None:
    """Process-wide default store (or ``None`` when disabled).

    Re-resolves the root on each call so tests and CLI flags that
    change ``$REPRO_CACHE_DIR`` mid-process take effect; the instance
    (and its session counters) is reused while the root is stable.
    """
    global _default
    if os.environ.get(ENABLE_ENV, "1") == "0":
        return None
    root = store_root()
    if _default is None or _default.root != root:
        _default = ResultStore(root)
    return _default
