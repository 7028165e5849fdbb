"""The HTTP transport of :mod:`repro.service.server`, imported only
when :func:`~repro.service.server.make_http_server` builds a server."""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from repro.service import server as server_module
from repro.service.server import ServiceError, ServiceFrontEnd


class Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto the front end (set as ``server.front``)."""

    protocol_version = "HTTP/1.1"

    @property
    def front(self) -> ServiceFrontEnd:
        return self.server.front  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep test output and service logs quiet

    def _send(self, status: int, body: dict) -> None:
        encoded = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def _reject(self, status: int, error: str) -> None:
        """Answer without reading the body, then drop the connection
        (the unread body would otherwise be parsed as the next
        request)."""
        self.close_connection = True
        self._send(status, {"error": error})

    def _send_text(self, status: int, text: str) -> None:
        encoded = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def _debug_queries(self, parsed) -> None:
        params = parse_qs(parsed.query)

        def first(name: str) -> Optional[str]:
            values = params.get(name)
            return values[0] if values else None

        try:
            min_ms = float(first("min_ms")) if first("min_ms") else None
            limit = int(first("limit")) if first("limit") else None
        except ValueError as exc:
            self._send(400, {"error": f"bad query parameter: {exc}"})
            return
        self._send(
            200,
            self.front.debug_queries(
                route=first("route"),
                min_ms=min_ms,
                limit=limit,
                slowest=first("order") == "slowest",
            ),
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        path = parsed.path
        if path == "/healthz":
            self._send(200, self.front.health())
        elif path == "/stats":
            self._send(200, self.front.stats())
        elif path == "/metrics":
            self._send_text(200, self.front.metrics())
        elif path == "/debug/queries":
            self._debug_queries(parsed)
        elif path.startswith("/debug/queries/"):
            trace_id = path[len("/debug/queries/"):]
            try:
                self._send(200, self.front.debug_query(trace_id))
            except ServiceError as exc:
                self._send(404, {"error": str(exc)})
        else:
            self._send(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path not in ("/query", "/update", "/analyze"):
            self._send(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            self._reject(400, "Content-Length must be a non-negative integer")
            return
        # Read per request, so a lowered limit applies at once.
        limit = server_module.MAX_BODY_BYTES
        if length > limit:
            self._reject(413, f"request body over the {limit}-byte limit")
            return
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            self._send(400, {"error": f"bad JSON: {exc}"})
            return
        if self.path == "/update" and isinstance(payload, dict):
            payload.setdefault("op", "insert")
        if self.path == "/analyze" and isinstance(payload, dict):
            payload.setdefault("op", "analyze")
        if isinstance(payload, dict) and "requests" in payload:
            payload.setdefault("op", "batch")
        response = self.front.handle(payload)
        if response.get("rejected"):
            status = 503
        elif "error" in response:
            status = 400
        else:
            status = 200
        self._send(status, response)
