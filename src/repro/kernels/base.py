"""Kernel registry: the paper's evaluated loops as DSL programs.

Each :class:`KernelSpec` packages a loop builder with the Table I
metadata (benchmark, source location, % of application time), the §IV
taxonomy category, and a deterministic workload recipe.

The Sequoia sources themselves are not redistributable; these kernels
are *representative reconstructions* — same physics flavour, comparable
operation mixes, conditional structure, and fiber-count scale (see
DESIGN.md, substitutions table).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..ir.stmts import Loop
from ..memo import content_key
from ..workload import ArraySpec, Workload, random_workload

#: §IV taxonomy categories.
CATEGORIES = (
    "amenable",          # the 18 loops of Table I
    "init",              # "lack arithmetic operations"
    "traditional",       # "better suited to traditional loop parallelization"
    "reduction-scalar",  # subcategory of traditional (8 loops)
    "reduction-array",   # subcategory of traditional (1 amg loop)
    "conditional",       # "many conditionals ... read-after-write" (2 loops)
)


#: Where a kernel came from: reconstructed Table-I loops are
#: ``hand-built``, the §IV taxonomy corpus is ``synthetic``, and loops
#: ingested from real Python source by :mod:`repro.frontend` are
#: ``frontend``.
ORIGINS = ("hand-built", "synthetic", "frontend")


@dataclass(frozen=True)
class KernelSpec:
    name: str
    app: str                       # lammps | irs | umt2k | sphot | amg | frontend
    source: str                    # "file, function, line" as in Table I
    pct_time: float                # % of app dynamic time (Table I)
    category: str
    build: Callable[[], Loop]
    trip: int = 128
    seed: int = 11
    scalars: Mapping[str, float | int] = field(default_factory=dict)
    specs: Mapping[str, ArraySpec] = field(default_factory=dict)
    notes: str = ""
    origin: str = "hand-built"

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError(f"bad category {self.category!r}")
        if self.origin not in ORIGINS:
            raise ValueError(f"bad origin {self.origin!r}")

    def loop(self) -> Loop:
        """The spec's loop, built on first use and kept on the spec.

        Every later call returns that same object, so its digest
        (:func:`repro.ir.codec.loop_digest`) is computed once.  Stages
        key loops by that digest, never by identity, so two specs may
        share a loop.  Nothing may mutate it.
        """
        loop = self.__dict__.get("_loop")
        if loop is None:
            # two threads may both build; both return the one kept
            loop = self.__dict__.setdefault("_loop", self.build())
        return loop

    def recipe_key(self) -> str:
        """The spec's seed and workload recipe as one string (the
        ``repr`` of their :func:`~repro.memo.content_key`), computed on
        first use and kept on the spec like its loop.  The store-key memo
        (:func:`repro.experiments.common.store_key_for`) hashes it on
        every lookup, and a string, unlike a nested tuple, keeps its
        hash."""
        key = self.__dict__.get("_recipe_key")
        if key is None:
            key = self.__dict__.setdefault("_recipe_key", repr(
                content_key((self.seed, self.scalars, self.specs))))
        return key

    def workload(self, trip: int | None = None, seed: int | None = None) -> Workload:
        lp = self.loop()
        return random_workload(
            lp,
            trip=trip if trip is not None else self.trip,
            seed=seed if seed is not None else self.seed,
            specs=dict(self.specs),
            scalars=dict(self.scalars),
        )


_REGISTRY: dict[str, KernelSpec] = {}


def register(spec: KernelSpec) -> KernelSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"duplicate kernel {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def get_kernel(name: str) -> KernelSpec:
    _ensure_loaded()
    return _REGISTRY[name]


def all_kernels() -> list[KernelSpec]:
    _ensure_loaded()
    return list(_REGISTRY.values())


def table1_kernels() -> list[KernelSpec]:
    """The 18 amenable loops of Table I, in table order."""
    _ensure_loaded()
    order = [
        "lammps-1", "lammps-2", "lammps-3", "lammps-4", "lammps-5",
        "irs-1", "irs-2", "irs-3", "irs-4", "irs-5",
        "umt2k-1", "umt2k-2", "umt2k-3", "umt2k-4", "umt2k-5", "umt2k-6",
        "sphot-1", "sphot-2",
    ]
    return [_REGISTRY[n] for n in order]


def corpus_kernels() -> list[KernelSpec]:
    """All 51 hot loops of the §IV characterization study.

    Frontend-ingested kernels are deliberately excluded: the paper's
    taxonomy counts cover exactly the 51 Sequoia loops.
    """
    _ensure_loaded()
    return [k for k in _REGISTRY.values() if k.origin != "frontend"]


def frontend_kernels() -> list[KernelSpec]:
    """Kernels ingested from real Python source (``frontend/`` names)."""
    _ensure_loaded()
    return [k for k in _REGISTRY.values() if k.origin == "frontend"]


_loaded = False


def _ensure_loaded() -> None:
    global _loaded
    if _loaded:
        return
    # mark loaded *before* the imports: the frontend autoload registers
    # through this module, and must not recurse into loading.
    _loaded = True
    from . import corpus, irs, lammps, sphot, umt2k  # noqa: F401 (registration side effects)
    from ..frontend.corpus import autoload

    autoload()
