"""Replayable JSON repro artifacts for fuzzer findings.

A finding is only useful if someone else can replay it: the artifact
records the (shrunk) loop as data — its complete encoding,
:func:`repro.ir.codec.encode_loop` — plus the configuration cell and
the outcome signature the replay must reproduce.  ``repro fuzz --replay file.json`` decodes
and re-probes it; tests assert the signature is stable.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..ir.codec import decode_loop, encode_loop
from ..ir.stmts import Loop

__all__ = ["save_artifact", "load_artifact"]

SCHEMA = 1


# ----------------------------------------------------------------------
# Artifact envelope
# ----------------------------------------------------------------------

def save_artifact(
    path: str | Path,
    loop: Loop,
    *,
    signature: str,
    seed: int,
    trial: int,
    trip: int,
    n_cores: int,
    queue_depth: int,
    speculation: bool,
    inject: str | None = None,
    note: str = "",
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": SCHEMA,
        "kind": "fuzz-repro",
        "signature": signature,
        "seed": seed,
        "trial": trial,
        "trip": trip,
        "config": {
            "n_cores": n_cores,
            "queue_depth": queue_depth,
            "speculation": speculation,
            "inject": inject,
        },
        "note": note,
        "loop": encode_loop(loop),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_artifact(path: str | Path) -> dict:
    payload = json.loads(Path(path).read_text())
    if payload.get("kind") != "fuzz-repro":
        raise ValueError(f"{path}: not a fuzz repro artifact")
    if payload.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unsupported artifact schema {payload.get('schema')}"
        )
    payload["loop"] = decode_loop(payload["loop"])
    return payload
