"""repro.serve — the async compile-and-simulate service.

The pipeline as a long-running daemon instead of a one-shot CLI:
``run`` / ``sweep`` / ``metrics`` / ``health`` over newline-delimited
JSON TCP (plus an in-process client for tests and the load
generator).  Requests are keyed by the same content hashes as
:mod:`repro.store` and read two result tiers — the process run memo
(L1, :data:`repro.memo.RUNS`) over the disk store (L2) — with
singleflight coalescing, priority admission, per-client rate limits,
and the guard taxonomy as the failure boundary.  See DESIGN.md §8.
"""

from .admission import AdmissionQueue, QueueFull, RateLimited, RateLimiter, TokenBucket
from .client import ServeClient, TCPClient
from .protocol import BadRequest, Request, parse_request
from .service import ServeConfig, ServeService, run_payload
from .singleflight import Singleflight

__all__ = [
    "AdmissionQueue",
    "BadRequest",
    "QueueFull",
    "RateLimited",
    "RateLimiter",
    "Request",
    "ServeClient",
    "ServeConfig",
    "ServeService",
    "Singleflight",
    "TCPClient",
    "TokenBucket",
    "parse_request",
    "run_payload",
]
