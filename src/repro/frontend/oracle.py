"""Oracle stage: differential check against the original Python.

The lowered IR claims to *be* the user's function.  This stage proves
it on concrete data, three ways, with the same bit-exact-or-fail-loudly
contract :mod:`repro.fuzz` enforces for generated programs:

1. **python** — execute the ingested module verbatim (restricted
   builtins, ``import math`` only) on the generated workload;
2. **interp** — run the lowered loop through the sequential reference
   interpreter on the same workload;
3. **sim** — compile at ``n_cores``, protocol-check, simulate and
   verify through :func:`repro.runtime.guard.guarded_run` with one
   attempt, the path every experiment cell takes.

Arrays must agree **bit-exactly** across all three.  Returned scalars
must agree exactly between python and interp; interp-vs-sim scalars go
through :func:`repro.verify.verify_result`, the repo-wide definition
of "correct" (queue read-back of reduction accumulators tolerates
``SCALAR_RTOL = 1e-12``).  Any disagreement — and any compile error,
checker rejection or simulator failure — raises
:class:`~repro.frontend.errors.OracleMismatch` with the diagnosis,
never a warning or a traceback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..interp.interpreter import run_loop
from ..runtime.guard import GuardPolicy, guarded_run
from ..workload import Workload, random_workload
from .errors import OracleMismatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .ingest import IngestedLoop

__all__ = ["OracleReport", "check_ingested", "run_python_oracle"]


@dataclass(frozen=True)
class OracleReport:
    """Evidence of one successful differential check."""

    name: str
    trip: int
    seed: int
    n_cores: int
    arrays_checked: int
    scalars_checked: int
    cycles: float  # simulated makespan at n_cores


def _safe_import(name, globals=None, locals=None, fromlist=(), level=0):
    if name == "math" and level == 0:
        return math
    raise ImportError(
        f"ingested modules may only import math (tried {name!r})")


#: Builtins visible to the executed module: the callables the lowering
#: itself understands, plus the import hook.
_ORACLE_BUILTINS = {
    "range": range,
    "abs": abs,
    "min": min,
    "max": max,
    "int": int,
    "float": float,
    "len": len,
    "__import__": _safe_import,
}


def run_python_oracle(
    ing: "IngestedLoop", wl: Workload,
) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Execute the original function on ``wl``; return the final array
    contents and the returned live-out scalars, keyed by name."""
    nest, info = ing.nest, ing.info
    ns: dict[str, Any] = {
        "__builtins__": dict(_ORACLE_BUILTINS),
        "__name__": "__repro_ingest__",
    }
    code = compile(ing.module_source, nest.filename, "exec")
    exec(code, ns)  # noqa: S102 - restricted namespace, user-reviewed file
    fn = ns[nest.fn_name]

    arrays: dict[str, np.ndarray] = {}
    args: list[Any] = []
    for p in nest.params:
        if p == nest.trip:
            args.append(int(wl.scalars[p]))
        elif p in info.arrays:
            buf = wl.arrays[p].copy()
            arrays[p] = buf
            args.append(buf)
        elif p in wl.scalars:
            args.append(wl.scalars[p])
        else:  # unused parameter: any value, never read
            args.append(1.0)
    ret = fn(*args)

    if len(nest.returns) == 1:
        ret_values = [ret]
    elif nest.returns:
        ret_values = list(ret)
    else:
        ret_values = []
    scalars: dict[str, Any] = {}
    for name, value in zip(nest.returns, ret_values):
        if name in info.live_out:
            scalars[name] = value
    return arrays, scalars


def check_ingested(
    ing: "IngestedLoop",
    *,
    trip: int = 64,
    seed: int = 11,
    n_cores: int = 2,
    config=None,
) -> OracleReport:
    """Run the three-way differential check; raise on any disagreement."""
    loop = ing.loop
    wl = random_workload(loop, trip, seed, scalars=ing.scalars)

    py_arrays, py_scalars = run_python_oracle(ing, wl)
    ref = run_loop(loop, wl)

    for arr in loop.arrays:
        got, want = ref.arrays[arr.name], py_arrays[arr.name]
        if not np.array_equal(want, got):
            bad = int(np.flatnonzero(want != got)[0]) \
                if want.shape == got.shape else -1
            raise OracleMismatch(
                ing.name,
                f"array {arr.name!r}: python != interp (first diff at "
                f"[{bad}]: {want[bad]!r} vs {got[bad]!r})"
                if bad >= 0 else
                f"array {arr.name!r}: python != interp (shape mismatch)",
            )
    for name in ing.info.live_out:
        if name not in py_scalars:
            raise OracleMismatch(
                ing.name, f"python oracle returned no value for {name!r}")
        want, got = py_scalars[name], ref.scalars.get(name)
        if not (want == got):
            raise OracleMismatch(
                ing.name,
                f"scalar {name!r}: python {want!r} != interp {got!r}",
            )

    g = guarded_run(loop, wl, n_cores, config=config,
                    policy=GuardPolicy(max_attempts=1))
    if g.degraded:
        raise OracleMismatch(
            ing.name, f"sim leg failed at {n_cores} cores: {g.describe()}",
        )
    return OracleReport(
        name=ing.name,
        trip=trip,
        seed=seed,
        n_cores=n_cores,
        arrays_checked=len(loop.arrays),
        scalars_checked=len(ing.info.live_out),
        cycles=g.sim.cycles,
    )
