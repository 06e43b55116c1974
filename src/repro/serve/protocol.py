"""Wire protocol: newline-delimited JSON requests and responses.

One request per line, one response line per request (responses on a
shared connection may interleave across requests — match on ``id``)::

    {"id": 7, "op": "run", "kernel": "lammps-1", "cores": 4, "trip": 64}
    {"id": 7, "ok": true, "cached": "l1", "elapsed_ms": 0.4, "result": {...}}

Ops: ``compile`` | ``run`` | ``sweep`` | ``trace`` | ``metrics`` |
``health``.  Optional fields: ``seed``, ``depth``, ``latency``,
``speculation``, ``client`` (rate-limit identity), ``priority`` (lower
admits sooner), ``timeout`` (seconds, per request).  ``sweep`` takes
``kernels`` (list) and ``cores`` (list) instead of the singular forms.

Failures are always structured, never a dropped connection::

    {"id": 7, "ok": false,
     "error": {"kind": "deadlock", "message": "...", "provenance": {...}}}

``kind`` is a :class:`repro.runtime.guard.FailureKind` value for
compute failures, or one of the service kinds ``bad-request``,
``rate-limited``, ``queue-full``, ``timeout``, ``internal``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


#: every operation the service accepts.
OPS = ("compile", "run", "sweep", "trace", "metrics", "health")

#: hard cap on request trip counts — a single request must not be able
#: to wedge an executor slot for unbounded simulated work.
MAX_TRIP = 4096


class BadRequest(Exception):
    """Malformed or out-of-range request; message is client-safe."""


def _int_field(obj: dict, name: str, default: int, lo: int, hi: int) -> int:
    value = obj.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"{name!r} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise BadRequest(f"{name!r} must be in [{lo}, {hi}], got {value}")
    return value


@dataclass(frozen=True)
class Request:
    """One decoded, validated request."""

    op: str
    id: Any = None
    kernel: str | None = None
    kernels: tuple[str, ...] = ()
    cores: int = 4
    cores_list: tuple[int, ...] = (2, 4)
    trip: int = 64
    seed: int = 0
    depth: int = 20
    latency: int = 5
    speculation: bool = False
    client: str = "anon"
    priority: int = 10
    timeout: float | None = None

    def exp_config_kwargs(self, n_cores: int | None = None) -> dict:
        """The :class:`~repro.experiments.common.ExpConfig` fields this
        request pins down (all of them content-hash inputs)."""
        return {
            "n_cores": n_cores if n_cores is not None else self.cores,
            "trip": self.trip,
            "seed": self.seed,
            "queue_depth": self.depth,
            "queue_latency": self.latency,
            "speculation": self.speculation,
        }


def parse_request(obj: Any, default_client: str = "anon") -> Request:
    """Validate one decoded JSON object into a :class:`Request`."""
    if not isinstance(obj, dict):
        raise BadRequest("request must be a JSON object")
    op = obj.get("op")
    if op not in OPS:
        raise BadRequest(f"unknown op {op!r}; known: {list(OPS)}")

    kernel = obj.get("kernel")
    if kernel is not None and not isinstance(kernel, str):
        raise BadRequest(f"'kernel' must be a string, got {kernel!r}")
    if op in ("compile", "run", "trace") and kernel is None:
        raise BadRequest(f"op {op!r} requires 'kernel'")

    kernels: tuple[str, ...] = ()
    cores_list: tuple[int, ...] = (2, 4)
    if op == "sweep":
        raw = obj.get("kernels")
        if not isinstance(raw, list) or not raw or not all(
            isinstance(k, str) for k in raw
        ):
            raise BadRequest("'sweep' requires 'kernels': a non-empty list of names")
        kernels = tuple(raw)
        raw_cores = obj.get("cores", [2, 4])
        if not isinstance(raw_cores, list) or not raw_cores or not all(
            isinstance(c, int) and not isinstance(c, bool) and 1 <= c <= 64
            for c in raw_cores
        ):
            raise BadRequest("'sweep' 'cores' must be a non-empty list of 1..64")
        cores_list = tuple(raw_cores)

    timeout = obj.get("timeout")
    if timeout is not None and (
        isinstance(timeout, bool)
        or not isinstance(timeout, (int, float))
        or timeout <= 0
    ):
        raise BadRequest(f"'timeout' must be a positive number, got {timeout!r}")

    client = obj.get("client", default_client)
    if not isinstance(client, str) or not client:
        raise BadRequest(f"'client' must be a non-empty string, got {client!r}")

    return Request(
        op=op,
        id=obj.get("id"),
        kernel=kernel,
        kernels=kernels,
        cores=_int_field(obj, "cores", 4, 1, 64) if op != "sweep" else 4,
        cores_list=cores_list,
        trip=_int_field(obj, "trip", 64, 1, MAX_TRIP),
        seed=_int_field(obj, "seed", 0, -(2**31), 2**31),
        depth=_int_field(obj, "depth", 20, 1, 4096),
        latency=_int_field(obj, "latency", 5, 0, 1024),
        speculation=bool(obj.get("speculation", False)),
        client=client,
        priority=_int_field(obj, "priority", 10, 0, 1000),
        timeout=float(timeout) if timeout is not None else None,
    )


def ok_response(
    req_id: Any,
    result: Any,
    *,
    cached: str | None = None,
    elapsed_ms: float = 0.0,
) -> dict:
    return {
        "id": req_id,
        "ok": True,
        "cached": cached,
        "elapsed_ms": round(elapsed_ms, 3),
        "result": result,
    }


def error_response(
    req_id: Any,
    kind: str,
    message: str,
    *,
    provenance: Any = None,
    elapsed_ms: float = 0.0,
) -> dict:
    error: dict[str, Any] = {"kind": kind, "message": message}
    if provenance is not None:
        error["provenance"] = provenance
    return {
        "id": req_id,
        "ok": False,
        "elapsed_ms": round(elapsed_ms, 3),
        "error": error,
    }
