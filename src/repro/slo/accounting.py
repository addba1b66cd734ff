"""Per-tenant usage accounting for the serving tier.

A :class:`TenantLedger` folds the serve front door's admission
decisions and the engine's result envelopes into **one fixed counter
schema per tenant** (:data:`TENANT_COUNTERS`): jobs in/out, DP cells
computed, NDJSON transport bytes, compute time, and quota rejections.
Each tenant gets its own :class:`MetricsRegistry`, so the schema has
real ``incr`` sites (the drift test's contract) and the existing
exporters render each tenant unchanged.

Cells are the DP-native cost unit the paper bills in (a kernel's work
is its table area): ``|query| x |target|`` for the alignment kernels,
the windowed predecessor scan for chaining -- the cell count of the
kernel's row in :data:`repro.engine.kernels.KERNELS`, which is what the
engine sweeps and reports.  Compute time is
integer **microseconds** (counters are ints; float seconds would
truncate to zero for sub-second jobs).

The ledger is the reconciliation point for the acceptance test: on a
clean mixed-tenant run, per-tenant ``tenant_jobs_completed`` /
``tenant_jobs_failed`` sums match the engine's ``jobs_completed`` /
``jobs_failed`` counters exactly.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.engine.kernels import KERNELS
from repro.engine.metrics import MetricsRegistry

#: Per-tenant counters (prefixed ``tenant_``); every name has a
#: literal ``incr`` site below, pinned by the drift test.
TENANT_COUNTERS: Tuple[str, ...] = (
    "tenant_jobs_submitted",  # jobs admitted for this tenant
    "tenant_jobs_completed",  # result envelopes with ok=True
    "tenant_jobs_failed",  # result envelopes with ok=False
    "tenant_rejections",  # admission rejections, any reason
    "tenant_quota_rejections",  # the token-bucket subset
    "tenant_cells_computed",  # estimated DP cells across completed jobs
    "tenant_transport_bytes",  # NDJSON request+response bytes
    "tenant_compute_us",  # execute-time microseconds across envelopes
)

#: Default per-unit prices for the cost report (arbitrary currency;
#: chosen so a small demo run produces legible non-zero totals).
DEFAULT_RATES: Dict[str, float] = {
    "cells_per_unit": 1e-9,  # 1 unit per billion DP cells
    "bytes_per_unit": 1e-9,  # 1 unit per GB of transport
    "compute_s_per_unit": 1e-3,  # 1 unit per 1000 compute-seconds
}


def estimate_cells(kernel: str, payload: Mapping[str, Any]) -> int:
    """DP cells one job sweeps: its kernel row's cell count, the number
    the engine reports as ``value["cells"]``.

    Unknown kernels and malformed payloads estimate zero (accounting
    must never reject work the engine accepted).
    """
    row = KERNELS.get(kernel)
    try:
        return row.cells(payload) if row is not None else 0
    except (KeyError, TypeError, ValueError):
        return 0


class TenantLedger:
    """Thread-safe per-tenant usage fold over serve/engine events."""

    def __init__(self) -> None:
        self._tenants: Dict[str, MetricsRegistry] = {}
        self._lock = threading.Lock()

    def _registry(self, tenant: str) -> MetricsRegistry:
        with self._lock:
            registry = self._tenants.get(tenant)
            if registry is None:
                registry = MetricsRegistry()
                for counter in TENANT_COUNTERS:
                    registry.incr(counter, 0)
                self._tenants[tenant] = registry
            return registry

    # ------------------------------------------------------------------
    # event folds (called from the serve request path)

    def record_admission(
        self, tenant: str, admitted: bool, reason: Optional[str] = None
    ) -> None:
        """Fold one admission decision (``GendpServer._admit``)."""
        registry = self._registry(tenant)
        if admitted:
            registry.incr("tenant_jobs_submitted")
            return
        registry.incr("tenant_rejections")
        if reason and "quota" in reason:
            registry.incr("tenant_quota_rejections")

    def record_result(self, tenant: str, job: Any, result: Any) -> None:
        """Fold one result envelope against the job that earned it."""
        registry = self._registry(tenant)
        ok = bool(getattr(result, "ok", False))
        if ok:
            registry.incr("tenant_jobs_completed")
        else:
            registry.incr("tenant_jobs_failed")
        if ok:
            registry.incr(
                "tenant_cells_computed",
                estimate_cells(
                    getattr(job, "kernel", ""),
                    getattr(job, "payload", {}) or {},
                ),
            )
        timings = getattr(result, "timings", None) or {}
        execute_s = float(timings.get("execute_s", 0.0) or 0.0)
        if execute_s > 0:
            registry.incr("tenant_compute_us", int(execute_s * 1e6))

    def record_transport(self, tenant: str, byte_count: int) -> None:
        """Fold NDJSON bytes moved for *tenant* (request + response)."""
        if byte_count > 0:
            self._registry(tenant).incr(
                "tenant_transport_bytes", int(byte_count)
            )

    # ------------------------------------------------------------------
    # export

    @property
    def tenants(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._tenants))

    def usage(self, tenant: str) -> Dict[str, int]:
        """One tenant's counters as the fixed schema dict."""
        registry = self._registry(tenant)
        return {
            name: registry.counter(name) for name in TENANT_COUNTERS
        }

    def snapshot_section(self) -> Dict[str, Dict[str, int]]:
        """All tenants for the labelled ``tenants`` snapshot section
        (``gendp_tenant_<metric>{tenant=...}`` series)."""
        return {tenant: self.usage(tenant) for tenant in self.tenants}

    def annotate(self, snapshot: Dict[str, Any]) -> Dict[str, Any]:
        """Return *snapshot* with the ``tenants`` section folded in."""
        enriched = dict(snapshot)
        enriched["tenants"] = self.snapshot_section()
        return enriched

    def totals(self) -> Dict[str, int]:
        """Schema counters summed across every tenant (the numbers the
        reconciliation test checks against the engine)."""
        totals = {name: 0 for name in TENANT_COUNTERS}
        for tenant in self.tenants:
            for name, value in self.usage(tenant).items():
                totals[name] += value
        return totals

    def cost_report(
        self, rates: Optional[Mapping[str, float]] = None
    ) -> Dict[str, Any]:
        """Per-tenant usage priced at *rates* (``gendp-slo report``)."""
        rates = dict(DEFAULT_RATES, **(rates or {}))
        tenants: Dict[str, Any] = {}
        grand_total = 0.0
        for tenant in self.tenants:
            usage = self.usage(tenant)
            cost = (
                usage["tenant_cells_computed"] * rates["cells_per_unit"]
                + usage["tenant_transport_bytes"] * rates["bytes_per_unit"]
                + (usage["tenant_compute_us"] / 1e6)
                * rates["compute_s_per_unit"]
            )
            grand_total += cost
            tenants[tenant] = {"usage": usage, "cost_units": round(cost, 9)}
        return {
            "rates": rates,
            "tenants": tenants,
            "total_cost_units": round(grand_total, 9),
        }
