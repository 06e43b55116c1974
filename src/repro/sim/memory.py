"""Shared functional memory (the per-core cache lives in the core).

Functionally, memory is the workload's NumPy arrays, shared by all
cores (the paper's cores share memory through L2; the queues carry only
register values, §II).  A machine run works on them as Python lists:
:meth:`SharedMemory.open` turns each array into a list of Python floats
(``float64``) or ints (``int64``) — what a load from the array reads —
the cores bounds-check, load and store those lists in place, and
:meth:`SharedMemory.close` writes them back into the arrays when the run
ends or raises.  A stored value that is already its cell's Python type
(a float into a ``float64`` cell, an ``int64``-range int into an
``int64`` cell) is stored as it is; any other value is converted by
NumPy itself (:meth:`SharedMemory.convert`), so a cell keeps exactly the
value NumPy would keep, or the store raises NumPy's exception.

For timing, each core has a private LRU cache of ``cache_lines`` lines
of ``line_elems`` consecutive elements; a hit costs ``load_hit`` and a
miss ``load_miss`` cycles (:class:`repro.sim.core.Core` keeps the lines
and updates them in place).  This is the substitution for Mambo's cache
hierarchy: it preserves the property the evaluation depends on — loads
have a bimodal cost with spatial/temporal locality — while staying
deterministic and independent of cross-core interleaving (so sequential
and parallel runs of the same kernel see comparable memory behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: an ``int64`` cell stores a Python int in this range unconverted.
INT64_MIN, INT64_MAX = -2**63, 2**63 - 1

_CELL_TYPES = {np.dtype(np.float64): float, np.dtype(np.int64): int}


class MemoryFault(RuntimeError):
    """Out-of-bounds access (address and array recorded)."""


@dataclass
class SharedMemory:
    """Functional storage: name -> one-dimensional, writeable
    ``float64`` or ``int64`` NumPy buffer (updated in place by each
    run)."""

    arrays: dict[str, np.ndarray]
    #: name -> the run's list of cell values, between open() and close().
    cells: dict[str, list] | None = field(default=None, init=False,
                                          repr=False)
    #: name -> the Python type a cell holds (float or int).
    kinds: dict[str, type] = field(default_factory=dict, init=False,
                                   repr=False)

    def __post_init__(self) -> None:
        for name, buf in self.arrays.items():
            kind = _CELL_TYPES.get(buf.dtype)
            if kind is None or buf.ndim != 1 or not buf.flags.writeable:
                raise TypeError(
                    f"memory array {name!r} is {buf.ndim}-d {buf.dtype}"
                    f"{'' if buf.flags.writeable else ', read-only'}; the "
                    "simulator holds writeable 1-d float64 and int64 arrays"
                )
            self.kinds[name] = kind

    def open(self) -> None:
        """Each array as a list, for one run to load and store."""
        self.cells = {name: buf.tolist() for name, buf in self.arrays.items()}

    def close(self) -> None:
        """Write the run's lists back into the arrays."""
        for name, buf in self.arrays.items():
            buf[:] = self.cells[name]
        self.cells = None

    def convert(self, name: str, value):
        """``value`` as a cell of array ``name`` keeps it: NumPy's
        conversion to the array's dtype, read back as a Python float or
        int, or NumPy's exception when it has none."""
        cell = np.empty(1, self.arrays[name].dtype)
        cell[0] = value
        return cell.item()
