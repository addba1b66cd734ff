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

from repro.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "TenantLedger": "accounting",
        "estimate_cells": "accounting",
        "DEFAULT_WINDOWS": "burnrate",
        "Alert": "burnrate",
        "BurnWindow": "burnrate",
        "SLOEngine": "burnrate",
        "synthesize_burn_replay": "burnrate",
        "FlightRecorder": "flight",
        "blackbox_to_chrome_trace": "flight",
        "canonical_blackbox": "flight",
        "load_blackbox": "flight",
        "DEFAULT_OBJECTIVES": "objectives",
        "SLObjective": "objectives",
        "objective_from_dict": "objectives",
    },
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
