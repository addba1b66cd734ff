"""repro.obs: end-to-end observability for the GenDP reproduction.

Three coordinated layers (``docs/observability.md``):

- **Tracing** (:mod:`repro.obs.trace`): a dependency-free span/event
  recorder with an injectable clock, threaded through the engine's job
  lifecycle and exportable as Chrome-trace-event JSON (opens directly
  in Perfetto / ``chrome://tracing``).
- **Simulator profiling** (:mod:`repro.obs.profile`): opt-in per-PE
  cycle accounting on the DPAx simulator -- stall-reason breakdowns,
  per-way VLIW slot occupancy and FIFO depth histograms -- surfaced as
  a :class:`~repro.obs.profile.ProfileReport` that feeds Table 11 from
  measured activity and exports cycle-level timelines in the same
  trace format.
- **Exporters** (:mod:`repro.obs.export`, :mod:`repro.obs.server`,
  :mod:`repro.obs.logs`): Prometheus-text and JSON exporters over
  :meth:`repro.engine.metrics.MetricsRegistry.snapshot`, a stdlib-only
  scrape endpoint, and structured JSON logging with correlation ids.
"""

from repro.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "histogram_quantiles": "export",
        "prometheus_text": "export",
        "quantile_from_buckets": "export",
        "snapshot_json": "export",
        "configure_json_logging": "logs",
        "current_context": "logs",
        "get_logger": "logs",
        "log_context": "logs",
        "ArrayProfile": "profile",
        "PEProfile": "profile",
        "ProfileReport": "profile",
        "TileProfile": "profile",
        "MetricsServer": "server",
        "Span": "trace",
        "TraceRecorder": "trace",
        "monotonic_epoch_clock": "trace",
        "new_trace_id": "trace",
        "validate_chrome_trace": "trace",
        "worker_span": "trace",
    },
)

__all__ = [
    "ArrayProfile",
    "MetricsServer",
    "PEProfile",
    "ProfileReport",
    "Span",
    "TileProfile",
    "TraceRecorder",
    "configure_json_logging",
    "current_context",
    "get_logger",
    "histogram_quantiles",
    "log_context",
    "monotonic_epoch_clock",
    "new_trace_id",
    "prometheus_text",
    "quantile_from_buckets",
    "snapshot_json",
    "validate_chrome_trace",
    "worker_span",
]
