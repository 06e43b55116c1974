"""Content-addressed cache keys for simulation results.

A key is the SHA-256 digest of a canonical JSON document combining

* the kernel's loop, as its content address
  (:func:`repro.ir.codec.loop_digest`): the digest of a complete
  encoding, so any change to the body, its dtypes or statement lines,
  or its arrays, params or live-outs changes the key;
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
from ..ir.codec import loop_digest
from ..ir.stmts import Loop
from ..sim.machine import MachineParams

#: bump to invalidate every existing key and record.
#: v2: adaptive runtime — CompilerConfig.runtime_mode,
#: MachineParams.queue_depths, ExpConfig.adaptive and KernelRun
#: resolution provenance all enter the digests/payloads.
#: v3: the loop enters as its digest (:func:`loop_digest`), not as
#: printed IR, which left out dtypes, lines, alias groups and miss rates.
SCHEMA_VERSION = 3

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


#: the name the benchmark's layer tracer (``bench/trace.py``) times the
#: loop part of a key by.
ir_text = loop_digest


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
            "loop": loop_digest(loop),
            "n_cores": n_cores,
            "compiler": config,
            "machine": machine,
            "trip": trip,
            "seed": seed,
            "workload": workload,
        }
    )
