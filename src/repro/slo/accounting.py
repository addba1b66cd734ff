"""Per-tenant usage accounting for the serving tier.

A :class:`TenantLedger` folds the serve front door's admission
decisions and the engine's result envelopes into **one fixed counter
schema per tenant** (the ``tenant`` family of
:data:`repro.engine.metrics.COUNTERS`): jobs in/out, DP cells
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
from repro.engine.metrics import COUNTERS, MetricsRegistry


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
        # A dict read is atomic: only a tenant's first sight takes the
        # lock, and setdefault keeps the registry a racing thread made.
        registry = self._tenants.get(tenant)
        if registry is None:
            with self._lock:
                registry = self._tenants.setdefault(tenant, MetricsRegistry("tenant"))
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
        return self._registry(tenant).family("tenant")

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
        totals = dict.fromkeys(COUNTERS["tenant"], 0)
        for tenant in self.tenants:
            for name, value in self.usage(tenant).items():
                totals[name] += value
        return totals
