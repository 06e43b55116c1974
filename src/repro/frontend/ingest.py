"""Ingest stage: parse → infer → lower, then register as kernels.

This module is the front end's public entry point.  It turns a Python
source file (or string) into :class:`IngestedLoop` records — the
lowered IR plus everything needed to (a) rebuild the loop
deterministically and (b) run the differential oracle against the
original function — and registers them in the kernel registry under
the ``frontend/`` namespace, where every downstream layer (CLI run,
sweep engine, characterize, fuzz seeds, serve daemon) picks them up
with no special-casing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from ..characterize.classify import classify_loop
from ..ir.stmts import Loop
from ..kernels.base import KernelSpec, register
from .errors import FrontendError
from .infer import LoopInfo, infer
from .lower import lower
from .parse import LoopNest, parse_source

__all__ = [
    "IngestedLoop",
    "ingest_source",
    "ingest_file",
    "to_kernel_spec",
    "register_ingested",
]

#: Registry namespace prefix for ingested kernels.
NAMESPACE = "frontend/"


@dataclass
class IngestedLoop:
    """One successfully lowered user loop."""

    name: str                 # registry name: "frontend/<fn>"
    nest: LoopNest
    info: LoopInfo
    loop: Loop
    module_source: str        # full module text, for the exec oracle
    #: workload pins: carried accumulators seeded by pre-loop constants
    #: must start from the same value in IR runs and in the Python
    #: function (which re-initialises them itself).
    scalars: dict[str, float | int] = field(default_factory=dict)
    category: str = "amenable"


def ingest_source(
    source: str, filename: str = "<string>", fn: str | None = None,
) -> list[IngestedLoop]:
    """Lower every ingestible function in ``source``.

    Raises :class:`FrontendError` (with source line/col) on the first
    unsupported construct.
    """
    out: list[IngestedLoop] = []
    for nest in parse_source(source, filename, fn=fn):
        info = infer(nest)
        name = NAMESPACE + nest.fn_name
        loop = lower(info, name)
        seeds = {
            k: v for k, v in info.pre_init.items() if k in info.carried
        }
        out.append(
            IngestedLoop(
                name=name,
                nest=nest,
                info=info,
                loop=loop,
                module_source=source,
                scalars=seeds,
                category=classify_loop(loop),
            )
        )
    return out


def ingest_file(path: str | os.PathLike, fn: str | None = None) -> list[IngestedLoop]:
    p = Path(path)
    try:
        source = p.read_text()
    except OSError as exc:
        raise FrontendError(f"cannot read {p}: {exc}", filename=str(p)) from None
    return ingest_source(source, filename=str(p), fn=fn)


def to_kernel_spec(ing: IngestedLoop) -> KernelSpec:
    """Wrap an ingested loop as a first-class registry kernel."""
    nest, info = ing.nest, ing.info
    # rebuild from the cached parse/infer result, like the hand-built
    # kernels' builders (stages key loops by content, so the rebuilt
    # loop and ``ing.loop`` share every memo entry)
    build = lambda: lower(info, ing.name)  # noqa: E731
    return KernelSpec(
        name=ing.name,
        app="frontend",
        source=f"{Path(nest.filename).name}, {nest.fn_name}, line {nest.line}",
        pct_time=0.0,
        category=ing.category,
        build=build,
        trip=128,
        seed=11,
        scalars=dict(ing.scalars),
        origin="frontend",
        notes=f"ingested from {nest.filename}",
    )


def register_ingested(ing: IngestedLoop) -> KernelSpec:
    """Register; duplicate names get a diagnostic, not a traceback.

    Re-ingesting the same function from the same file (e.g. ``repro
    ingest examples/ingest/stencil.py`` after the corpus autoload
    already registered it) is idempotent and returns the existing
    spec; only a *different* function claiming a taken name errors.
    """
    from ..kernels.base import get_kernel

    spec = to_kernel_spec(ing)
    try:
        return register(spec)
    except ValueError:
        existing = get_kernel(ing.name)
        if existing.origin == "frontend" and existing.source == spec.source:
            return existing
        raise FrontendError(
            f"a kernel named {ing.name!r} is already registered "
            "(function names must be unique across the ingest corpus)",
            filename=ing.nest.filename,
            line=ing.nest.line,
            col=0,
        ) from None
