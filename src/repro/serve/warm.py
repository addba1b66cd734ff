"""Former home of cell specialization; now a plain re-export.

Specialization moved to the engine's compile seam
(:mod:`repro.engine.specialize`) so that every executor, not only shm
serve workers, runs the codegen'd cell.  The names stay importable
from here because the repo benchmark (``bench/``) imports them.
"""

from repro.engine.specialize import (
    SpecializationError,
    specialize_cell,
    specialize_source,
)

__all__ = ["SpecializationError", "specialize_cell", "specialize_source"]
