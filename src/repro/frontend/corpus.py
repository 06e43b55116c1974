"""Autoload the committed ingest corpus into the kernel registry.

Every ``*.py`` file under ``examples/ingest/`` (override with the
``REPRO_INGEST_DIR`` environment variable) is ingested on the first
registry lookup that needs it (``all_kernels()``,
``frontend_kernels()``, registering a frontend kernel, or
``get_kernel()`` of a name the hand-built modules do not define), so
``repro kernels list``, the sweep engine, ``repro characterize
--namespace frontend`` and the serve daemon all see the corpus without
any explicit wiring, while a Table-I run never parses it.  Worker
processes resolve kernels by *name* and trigger the same autoload, so
``frontend/...`` tasks dispatch across processes exactly like built-in
kernels.

A file that fails to ingest is skipped with a warning — a broken
example must not take down the whole registry — but ``repro ingest``
and the frontend-smoke CI job run the strict path and fail loudly.
"""

from __future__ import annotations

import logging
import os
from pathlib import Path

from ..kernels.base import KernelSpec
from .ingest import ingest_file, register_ingested

__all__ = ["autoload", "default_ingest_dir"]

log = logging.getLogger("repro.frontend")

_AUTOLOADED = False


def default_ingest_dir() -> Path:
    env = os.environ.get("REPRO_INGEST_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "examples" / "ingest"


def autoload(force: bool = False) -> list[KernelSpec]:
    """Ingest + register the example corpus (idempotent)."""
    global _AUTOLOADED
    if _AUTOLOADED and not force:
        return []
    _AUTOLOADED = True
    root = default_ingest_dir()
    if not root.is_dir():
        log.warning("no ingest corpus at %s, so no frontend kernel is "
                    "loaded; set REPRO_INGEST_DIR to its directory", root)
        return []
    specs: list[KernelSpec] = []
    for path in sorted(root.glob("*.py")):
        try:
            ingested = ingest_file(path)
        except Exception as exc:  # never break the registry on one file
            log.warning("skipping %s: %s", path.name, exc)
            continue
        for ing in ingested:
            try:
                specs.append(register_ingested(ing))
            except Exception as exc:
                log.warning("skipping %s: %s", ing.name, exc)
    return specs
