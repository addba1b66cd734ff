"""repro.slo: SLOs, per-tenant accounting and flight recording -- the
second-generation observability layer over :mod:`repro.obs`.

- :mod:`repro.slo.objectives` -- declarative latency/availability
  objectives over ``MetricsRegistry.snapshot()`` dicts;
- :mod:`repro.slo.burnrate` -- multi-window multi-burn-rate alerting
  with a deterministic (injectable-clock) alert sequence;
- :mod:`repro.slo.accounting` -- the per-tenant usage ledger;
- :mod:`repro.slo.flight` -- the bounded flight recorder and its
  black-box dumps.

CLI front end: ``gendp-slo``.
"""

from repro.slo.accounting import TenantLedger, estimate_cells
from repro.slo.burnrate import (
    DEFAULT_WINDOWS,
    Alert,
    BurnWindow,
    SLOEngine,
    synthesize_burn_replay,
)
from repro.slo.flight import (
    FlightRecorder,
    blackbox_to_chrome_trace,
    canonical_blackbox,
    load_blackbox,
)
from repro.slo.objectives import (
    DEFAULT_OBJECTIVES,
    SLObjective,
    objective_from_dict,
)

__all__ = [
    "TenantLedger",
    "estimate_cells",
    "DEFAULT_WINDOWS",
    "Alert",
    "BurnWindow",
    "SLOEngine",
    "synthesize_burn_replay",
    "FlightRecorder",
    "blackbox_to_chrome_trace",
    "canonical_blackbox",
    "load_blackbox",
    "DEFAULT_OBJECTIVES",
    "SLObjective",
    "objective_from_dict",
]
