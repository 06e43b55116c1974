"""Content-addressed cache keys for simulation results.

A key is the SHA-256 digest of a canonical JSON document combining

* the kernel's IR, rendered through :mod:`repro.ir.printer` in both
  structured (``fmt_loop``) and normalized flat (``fmt_flat``) form —
  any change to the loop body, its arrays, params or live-outs changes
  the text and therefore the key;
* the :class:`~repro.compiler.CompilerConfig` (``profile_workload``
  excluded: it is derived from the workload ``(trip, seed)`` which is
  keyed separately);
* the :class:`~repro.sim.MachineParams` (queue geometry, latency
  table, cache model);
* the core count and the workload recipe ``(trip, seed, scalars,
  array specs)``.

Keys also embed :data:`SCHEMA_VERSION` so that changing how keys or
records are built invalidates the whole store instead of silently
reusing incompatible entries.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Mapping

from ..compiler.config import CompilerConfig
from ..ir import fmt_flat, fmt_loop, normalize
from ..ir.stmts import Loop
from ..memo import IR_TEXT
from ..sim.machine import MachineParams

#: bump to invalidate every existing key and record.
#: v2: adaptive runtime — CompilerConfig.runtime_mode,
#: MachineParams.queue_depths, ExpConfig.adaptive and KernelRun
#: resolution provenance all enter the digests/payloads.
SCHEMA_VERSION = 2

#: CompilerConfig fields that never influence results content-wise.
#: ``profile_workload`` is derived from the workload ``(trip, seed)``
#: keyed separately.
_EXCLUDED_FIELDS = frozenset({"profile_workload"})


def _plain(obj: Any) -> Any:
    """Reduce ``obj`` to canonical JSON-serializable plain data."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: dict[str, Any] = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            if f.name in _EXCLUDED_FIELDS:
                continue
            out[f.name] = _plain(getattr(obj, f.name))
        return out
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [_plain(v) for v in obj]
        return sorted(items, key=repr) if isinstance(obj, (set, frozenset)) else items
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    return repr(obj)


def stable_digest(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``obj``."""
    blob = json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def ir_text(loop: Loop, max_expr_height: int = 2) -> str:
    """Canonical printed form of a loop: structured + normalized flat.

    Memoised per process on the loop's identity and the height
    (:data:`repro.memo.IR_TEXT`): printing normalizes the loop, and
    every store lookup of a cell needs the text.
    """
    return IR_TEXT.get((loop, max_expr_height), lambda: (
        fmt_loop(loop) + "\n"
        + fmt_flat(normalize(loop, max_height=max_expr_height))
    ))


def kernel_run_key(
    loop: Loop,
    n_cores: int,
    config: CompilerConfig,
    machine: MachineParams,
    trip: int,
    seed: int,
    *,
    workload: Mapping[str, Any] | None = None,
    kind: str = "run",
) -> str:
    """Cache key for one simulated cell of the kernel × config matrix.

    ``kind`` separates full parallel runs (``"run"``) from the
    lightweight sequential-baseline cycle records (``"seq"``).
    """
    return stable_digest(
        {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "ir": ir_text(loop, config.max_expr_height),
            "n_cores": n_cores,
            "compiler": _plain(config),
            "machine": _plain(machine),
            "trip": trip,
            "seed": seed,
            "workload": _plain(workload) if workload is not None else None,
        }
    )
