"""Fast simulation path: specialized per-core closures.

:mod:`.specialize` pre-compiles each lowered
:class:`~repro.isa.program.Program` into a per-core Python closure —
instruction decode hoisted out of the cycle loop, operands bound into
locals, registers kept in local variables between queue operations.
It is provably bit-identical to the reference
:class:`repro.sim.core.Core` (the differential battery in
``tests/test_sim_fast.py`` and the fuzz legs in :mod:`repro.fuzz`
enforce it).

Selection happens through ``CompilerConfig.sim_mode`` (one of
:data:`repro.compiler.config.SIM_MODES`: ``"reference"`` |
``"specialized"``), wired via :class:`repro.sim.machine.Machine` and
:func:`repro.runtime.exec.execute_kernel`.
"""

from .specialize import (
    CODEGEN_VERSION,
    SpecializedCore,
    clear_runner_cache,
    counters,
    reset_counters,
    runner_factory,
    source_key,
)

__all__ = [
    "CODEGEN_VERSION",
    "SpecializedCore",
    "clear_runner_cache",
    "counters",
    "reset_counters",
    "runner_factory",
    "source_key",
]
