"""Versioned JSON envelopes for stored results.

Every on-disk file is one envelope::

    {"schema": 1, "kind": "run" | "seq", "key": "<sha256>",
     "kernel": "<name>", "payload": {...}}

``decode_*`` return ``None`` for anything unexpected — wrong schema,
wrong kind, missing fields, mistyped payloads — so a stale or
hand-edited record degrades to a cache miss instead of an exception.

Floats are stored via :mod:`json`, whose ``repr``-based float encoding
round-trips ``float64`` bit-exactly; ``inf`` (deadlocked
``par_cycles``) relies on the non-strict ``Infinity`` literal both the
encoder and decoder of the standard library accept.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any

from .keys import SCHEMA_VERSION


def encode_run(key: str, run: Any) -> dict:
    """Envelope for a :class:`~repro.experiments.common.KernelRun`."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "run",
        "key": key,
        "kernel": run.kernel,
        "payload": {
            "kernel": run.kernel,
            "config": asdict(run.config),
            "seq_cycles": run.seq_cycles,
            "par_cycles": run.par_cycles,
            "correct": run.correct,
            "deadlocked": run.deadlocked,
            "stats": asdict(run.stats) if run.stats is not None else None,
            "queue_stall": run.queue_stall,
            "instrs": run.instrs,
            # failure/fallback provenance (ISSUE-2); absent in records
            # written before the guard layer existed — the decoder
            # defaults them, keeping the read path back-compatible.
            "failure": getattr(run, "failure", None),
            "fallback": getattr(run, "fallback", False),
            # escalation-ladder provenance: which rung served the
            # result ("first-try", "adaptive", "deeper-queues", ...).
            "resolved_by": getattr(run, "resolved_by", None),
        },
    }


def decode_run(envelope: dict) -> Any | None:
    """Rebuild a ``KernelRun`` from an envelope; ``None`` on any defect."""
    from ..compiler.pipeline import PlanStats
    from ..experiments.common import ExpConfig, KernelRun

    try:
        if envelope.get("schema") != SCHEMA_VERSION or envelope.get("kind") != "run":
            return None
        p = envelope["payload"]
        stats = PlanStats(**p["stats"]) if p["stats"] is not None else None
        failure = p.get("failure")
        return KernelRun(
            kernel=p["kernel"],
            config=ExpConfig(**p["config"]),
            seq_cycles=float(p["seq_cycles"]),
            par_cycles=float(p["par_cycles"]),
            correct=bool(p["correct"]),
            deadlocked=bool(p["deadlocked"]),
            stats=stats,
            queue_stall=float(p["queue_stall"]),
            instrs=int(p["instrs"]),
            failure=str(failure) if failure is not None else None,
            fallback=bool(p.get("fallback", False)),
            resolved_by=(
                str(p["resolved_by"])
                if p.get("resolved_by") is not None else None
            ),
        )
    except (KeyError, TypeError, ValueError, AttributeError):
        return None


def encode_src(key: str, kernel: str, source: str) -> dict:
    """Envelope for a generated-source record: the key names what the
    source was generated from, so the payload is just the text.  No
    part of the package writes these any more; the kind stays readable,
    and ``bench/trace.py`` still times ``ResultStore.get_src`` and
    ``put_src`` by name."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "src",
        "key": key,
        "kernel": kernel,
        "payload": {"source": source},
    }


def decode_src(envelope: dict) -> str | None:
    try:
        if envelope.get("schema") != SCHEMA_VERSION or envelope.get("kind") != "src":
            return None
        source = envelope["payload"]["source"]
        return source if isinstance(source, str) else None
    except (KeyError, TypeError):
        return None


def encode_seq(key: str, kernel: str, cycles: float) -> dict:
    """Envelope for a sequential-baseline cycle count."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "seq",
        "key": key,
        "kernel": kernel,
        "payload": {"cycles": cycles},
    }


def decode_seq(envelope: dict) -> float | None:
    try:
        if envelope.get("schema") != SCHEMA_VERSION or envelope.get("kind") != "seq":
            return None
        return float(envelope["payload"]["cycles"])
    except (KeyError, TypeError, ValueError):
        return None
