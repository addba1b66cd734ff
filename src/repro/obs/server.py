"""A stdlib-only metrics scrape endpoint.

:class:`MetricsServer` wraps ``http.server.ThreadingHTTPServer`` around
a snapshot callable (typically ``engine.snapshot`` or a closure over a
saved snapshot file) and serves:

- ``GET /metrics`` -- Prometheus text format;
- ``GET /metrics.json`` -- the JSON snapshot with derived quantiles;
- ``GET /healthz`` -- liveness probe;
- ``GET /slo`` -- SLO burn-rate status (404 without an evaluator).

When an :class:`repro.slo.burnrate.SLOEngine` is attached, every
scrape also feeds it the fresh snapshot (so burn windows advance at
scrape cadence, the Prometheus-native arrangement) and the text
exposition gains the ``gendp_slo_*`` series.

``port=0`` binds an ephemeral port (tests, parallel CI); the bound
port is available after :meth:`MetricsServer.start`.  The CLI front
end is ``gendp-metrics serve``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

from repro.obs.export import prometheus_text, snapshot_json
from repro.obs.logs import get_logger

logger = get_logger("repro.obs.server")


class MetricsServer:
    """Serve live metrics snapshots over HTTP (scrape-style pull)."""

    def __init__(
        self,
        snapshot_fn: Callable[[], Dict[str, Any]],
        host: str = "127.0.0.1",
        port: int = 0,
        namespace: str = "gendp",
        slo: Optional[object] = None,
    ):
        self.snapshot_fn = snapshot_fn
        self.host = host
        self.namespace = namespace
        #: Optional :class:`repro.slo.burnrate.SLOEngine`.
        self.slo = slo
        self._requested_port = port
        self._server: Optional[Any] = None  # a ThreadingHTTPServer
        self._thread: Optional[threading.Thread] = None

    def _snapshot(self) -> Dict[str, Any]:
        """One scrape: pull the snapshot, advance the SLO evaluator,
        and annotate the snapshot with its state."""
        snapshot = self.snapshot_fn()
        if self.slo is not None:
            self.slo.observe(snapshot)
            snapshot = self.slo.annotate(snapshot)
        return snapshot

    # ------------------------------------------------------------------

    def _handler_class(self):
        from http.server import BaseHTTPRequestHandler  # see start()

        server = self

        class Handler(BaseHTTPRequestHandler):
            def _respond(self, status: int, body: str, content_type: str) -> None:
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/metrics":
                        self._respond(
                            200,
                            prometheus_text(
                                server._snapshot(), namespace=server.namespace
                            ),
                            "text/plain; version=0.0.4; charset=utf-8",
                        )
                    elif path == "/metrics.json":
                        self._respond(
                            200,
                            snapshot_json(server._snapshot()),
                            "application/json",
                        )
                    elif path == "/slo" and server.slo is not None:
                        import json as _json

                        server._snapshot()  # advance the evaluator
                        self._respond(
                            200,
                            _json.dumps(
                                server.slo.status(), indent=2, sort_keys=True
                            ),
                            "application/json",
                        )
                    elif path == "/healthz":
                        self._respond(200, "ok\n", "text/plain")
                    else:
                        self._respond(404, "not found\n", "text/plain")
                except Exception as error:  # snapshot_fn raised mid-scrape
                    logger.warning(
                        "metrics scrape failed", extra={"error": str(error)}
                    )
                    self._respond(500, f"scrape failed: {error}\n", "text/plain")

            def log_message(self, format: str, *args: Any) -> None:
                logger.debug(
                    "http " + format % args, extra={"client": self.address_string()}
                )

        return Handler

    # ------------------------------------------------------------------

    def start(self) -> "MetricsServer":
        if self._server is not None:
            return self
        # http.server (and the email/urllib/html stack behind it) is
        # imported only by a process that serves metrics: ``repro.obs``
        # is imported by every engine, few of them start a scrape
        # endpoint, and the stack costs ~2.7 MB resident and most of
        # the package's import time.
        from http.server import ThreadingHTTPServer

        self._server = ThreadingHTTPServer(
            (self.host, self._requested_port), self._handler_class()
        )
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="gendp-metrics", daemon=True
        )
        self._thread.start()
        logger.info(
            "metrics server listening",
            extra={"host": self.host, "port": self.port},
        )
        return self

    @property
    def port(self) -> int:
        if self._server is None:
            return self._requested_port
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
