"""Package exports that load on first access (PEP 562).

A package ``__init__`` that imports every submodule makes a caller who
wants one of them pay for all of them: ``gendp-serve`` would load the
optimizer, the static-analysis report, the SLO burn-rate engine and
the fault-campaign drivers before it listens.  A package built with
:func:`lazy_exports` keeps the same public names (``from repro.static
import run_analysis`` and ``repro.static.hazards`` both still work) and
imports a submodule only when one of its names is first read.
"""

import importlib
import sys
from typing import Any, Callable, Dict


def lazy_exports(package: str, exports: Dict[str, str]) -> Callable[[str], Any]:
    """A module ``__getattr__`` for *package*.

    *exports* maps each public name to the submodule that defines it,
    ``"submodule"`` or ``"submodule:attribute"`` when the package
    renames it.  A name is imported on first access and then stored in
    the package, so later reads are plain attribute reads.  Those
    submodules are themselves attributes too, as they were when the
    ``__init__`` imported them all; an exported name that is also a
    submodule's (``repro.kernels.bellman_ford``) reads as the export,
    as it did then.
    """
    submodules = {target.partition(":")[0] for target in exports.values()}

    def __getattr__(name: str) -> Any:
        target = exports.get(name)
        if target is None:
            if name in submodules:
                return importlib.import_module(f"{package}.{name}")
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        submodule, _, attribute = target.partition(":")
        value = getattr(importlib.import_module(f"{package}.{submodule}"), attribute or name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
