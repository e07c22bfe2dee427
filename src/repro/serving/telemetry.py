"""HTTP telemetry endpoints for a running :class:`PredictionService`.

A :class:`TelemetryServer` is a stdlib-only (:mod:`http.server`)
localhost endpoint running on its own daemon thread, giving operators a
scrape surface without any new dependency:

* ``GET /metrics`` — the service's
  :class:`~repro.observability.metrics.MetricsRegistry` rendered in
  Prometheus text format (request-latency quantiles, queue-depth gauge,
  process RSS/CPU gauges from the attached
  :class:`~repro.observability.resource.ResourceSampler`);
* ``GET /healthz`` — a JSON readiness document: ``status`` is ``ok``
  while serving (HTTP 200), ``draining`` / ``closed`` (503) around
  :meth:`~repro.serving.service.PredictionService.close`, and
  ``failing`` (503) when a *critical*
  :class:`~repro.observability.health.HealthRule` fires against the
  live registry — the body lists every failing rule so a load balancer
  (or operator) sees *why* readiness flipped;
* ``GET /stats`` — the
  :class:`~repro.serving.service.ServiceStats` snapshot plus the full
  registry snapshot as a JSON document.

Constructed by ``PredictionService(..., telemetry_port=0)`` (port 0
binds an ephemeral port; read it back from
:attr:`PredictionService.telemetry_url`), or standalone around any
service instance.  Binds 127.0.0.1 only — this is operator telemetry,
not a public API.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.observability.export import (
    PROMETHEUS_CONTENT_TYPE,
    _nan_to_none,
    render_prometheus_snapshot,
)
from repro.observability.health import HealthMonitor
from repro.observability.resource import ResourceSampler


class _TelemetryHandler(BaseHTTPRequestHandler):
    """Routes the three read-only telemetry endpoints."""

    server_version = "repro-telemetry"

    def log_message(self, *args) -> None:  # silence per-request stderr spam
        pass

    def do_GET(self) -> None:
        telemetry: "TelemetryServer" = self.server.telemetry
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body, status, ctype = telemetry.metrics_payload()
        elif path == "/healthz":
            body, status, ctype = telemetry.health_payload()
        elif path == "/stats":
            body, status, ctype = telemetry.stats_payload()
        else:
            body, status, ctype = (
                "not found; endpoints: /metrics /healthz /stats\n",
                404,
                "text/plain; charset=utf-8",
            )
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


class TelemetryServer:
    """Localhost HTTP thread exposing one service's runtime telemetry.

    Parameters
    ----------
    service : PredictionService
        The service whose registry, stats, and drain state are served.
    port : int
        TCP port on 127.0.0.1 (``0`` = ephemeral; see :attr:`url`).
    health_rules : sequence of HealthRule, optional
        Rules the ``/healthz`` endpoint evaluates against the service
        registry on every request (default:
        :func:`~repro.observability.health.default_rule_pack`; solver
        rules in the pack simply skip on serving snapshots).  A failing
        *critical* rule flips readiness to 503.
    """

    def __init__(
        self,
        service,
        *,
        port: int = 0,
        health_rules=None,
    ) -> None:
        self.service = service
        self.monitor = HealthMonitor(service.metrics, rules=health_rules)
        self._httpd = ThreadingHTTPServer(
            ("127.0.0.1", int(port)), _TelemetryHandler
        )
        self._httpd.daemon_threads = True
        self._httpd.telemetry = self
        # Publishes the ``process.*`` gauges into the service registry.
        self._sampler = ResourceSampler(registry=service.metrics).start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-telemetry-server",
            daemon=True,
        )
        self._thread.start()

    @property
    def address(self) -> tuple:
        """``(host, port)`` actually bound."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL of the endpoints (``http://127.0.0.1:<port>``)."""
        host, port = self.address
        return f"http://{host}:{port}"

    # -- endpoint payloads (also callable directly, e.g. in tests) ---------

    def metrics_payload(self) -> tuple:
        """``(body, status, content_type)`` of ``GET /metrics``."""
        return (
            render_prometheus_snapshot(self.service.metrics.snapshot()),
            200,
            PROMETHEUS_CONTENT_TYPE,
        )

    def health_payload(self) -> tuple:
        """``(body, status, content_type)`` of ``GET /healthz``.

        The body is a JSON readiness document: the service lifecycle
        word (``ok`` / ``draining`` / ``closed``), whether the endpoint
        is ``ready`` (200 vs 503), and the health-rule evaluation — a
        failing *critical* rule flips readiness even while the service
        is accepting, so load balancers stop routing before the burn
        becomes an outage.  ``draining``/``closed`` stay 503 so drains
        behave exactly as before.
        """
        report = self.monitor.check()
        if not self.service.closed:
            status_word = "failing" if report.critical_failures else "ok"
        elif self.service.draining:
            status_word = "draining"
        else:
            status_word = "closed"
        ready = status_word == "ok"
        payload = {
            "status": status_word,
            "ready": ready,
            "ok": report.ok,
            "critical": bool(report.critical_failures),
            "rules_evaluated": len(report.results),
            "failing": [r.to_dict() for r in report.failing],
        }
        body = json.dumps(_nan_to_none(payload), indent=2) + "\n"
        return body, (200 if ready else 503), "application/json"

    def stats_payload(self) -> tuple:
        """``(body, status, content_type)`` of ``GET /stats``."""
        payload = {
            "service": self.service.stats().to_dict(),
            "metrics": self.service.metrics.snapshot(),
        }
        body = json.dumps(_nan_to_none(payload), indent=2) + "\n"
        return body, 200, "application/json"

    def close(self) -> None:
        """Stop the sampler and the HTTP thread; idempotent."""
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler = None
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

