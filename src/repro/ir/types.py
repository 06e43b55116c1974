"""Value types for the mini-IR.

The hardware model (paper §II, §V) distinguishes two register files and,
correspondingly, two classes of communication queues: floating-point
values travel through FP queues and integer/general-purpose values
through GPR queues.  Every IR expression therefore carries a
:class:`DType` from which its queue class (:class:`VClass`) is derived.
"""

from __future__ import annotations

import enum


class VClass(enum.Enum):
    """Queue/register class of a value (paper §V: "separate queues for
    floating point values and for general-purpose register values").

    ``CTL`` is a third class used only by the work-stealing runtime
    mode: per-*core* dispatch/STOP channels must stay distinct from the
    per-*fiber* GPR data channels so every queue keeps a single
    producer and a single consumer under any fiber→core placement.
    """

    GPR = "gpr"
    FPR = "fpr"
    CTL = "ctl"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VClass.{self.name}"


class DType(enum.Enum):
    """Scalar data types supported by the IR.

    ``BOOL`` values are carried in general-purpose registers (0/1), like
    condition codes materialised into a GPR on the A2.
    """

    F64 = "f64"
    I64 = "i64"
    BOOL = "bool"

    # both test against the module-level members: reading ``DType.F64``
    # is a lookup on the enum class, and made these hot properties three
    # to four times slower
    @property
    def vclass(self) -> VClass:
        """Queue class used when this value crosses cores."""
        return _FPR if self is F64 else _GPR

    @property
    def is_float(self) -> bool:
        return self is F64

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DType.{self.name}"


F64 = DType.F64
I64 = DType.I64
BOOL = DType.BOOL
_FPR = VClass.FPR
_GPR = VClass.GPR


def unify(a: DType, b: DType) -> DType:
    """Result type of an arithmetic op combining ``a`` and ``b``.

    Mixed int/float arithmetic promotes to ``F64`` (the simulator's
    functional semantics promote the same way).  Boolean operands behave
    as integers, matching the untyped condition registers of the target.
    """
    if DType.F64 in (a, b):
        return DType.F64
    return DType.I64
