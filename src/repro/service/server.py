"""Stdlib-only serving front ends for the request broker.

Two transports share one :class:`ServiceFrontEnd` (a JSON codec over a
:class:`~repro.service.broker.RequestBroker`):

* **JSON over HTTP** — a :class:`ThreadingHTTPServer` with
  ``POST /query`` (single request or batch), ``POST /update``
  (inserts/deletes), and the operational ``GET /healthz`` /
  ``GET /stats`` / ``GET /metrics`` endpoints (the last serves the
  process metrics registry in Prometheus text exposition format), plus
  the flight-recorder debug surface: ``GET /debug/queries`` (recent or
  slowest retained queries, filterable by ``route`` / ``min_ms`` /
  ``limit``) and ``GET /debug/queries/<trace_id>`` (one record with its
  full span tree);
* **JSON lines over stdio** — one request object per input line, one
  response object per output line (``repro serve --stdio``), for
  driving the service from a pipe or a supervisor.

The front end optionally writes a per-request **access log** (one line
per served query: latency, route, answer cardinality, trace id) to any
text stream; both transports share it because logging happens in
:meth:`ServiceFrontEnd.handle`.  Logged latency is the broker's own
per-request service time (``BrokerResult.seconds``), so every request
in a batch reports what *it* cost, not the batch average.

Everything is standard library (``http.server``, ``json``,
``threading``); concurrency safety comes from the broker's per-database
locks and the thread-safe answer cache.
"""

from __future__ import annotations

import json
import time
from datetime import datetime, timezone
from typing import IO, Dict, List, Optional, Tuple

from repro.core.families import FAMILY_CODES, Family
from repro.cqa.answers import ClosedAnswer, OpenAnswers
from repro.exceptions import AdmissionError, ReproError
from repro.obs import RECORDER, REGISTRY, FlightRecorder, observe_process
from repro.obs import observe_broker
from repro.relational.rows import Row, values_sort_key
from repro.service.broker import BrokerResult, Request, RequestBroker

#: Largest accepted POST body; larger ones get a 413 unread.
MAX_BODY_BYTES = 8 * 1024 * 1024


def _sorted_answers(tuples) -> List[Tuple]:
    """Deterministic listing order for mixed name/number answer tuples."""
    return sorted(tuples, key=values_sort_key)


class ServiceError(ValueError):
    """A malformed request payload (reported as a 400 / error object)."""


def _parse_family(payload: dict) -> Optional[Family]:
    code = payload.get("family")
    if code is None:
        return None
    family = FAMILY_CODES.get(code)
    if family is None:
        raise ServiceError(
            f"unknown family {code!r} (expected one of {sorted(FAMILY_CODES)})"
        )
    return family


def _parse_request(payload: dict) -> Request:
    if not isinstance(payload, dict):
        raise ServiceError("request must be a JSON object")
    query = payload.get("query")
    if not isinstance(query, str) or not query.strip():
        raise ServiceError("request needs a non-empty 'query' string")
    variables = payload.get("variables")
    if variables is not None:
        variables = tuple(str(name) for name in variables)
    priority = payload.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ServiceError("'priority' must be an integer")
    return Request(
        query=query,
        family=_parse_family(payload),
        variables=variables,
        database=payload.get("database"),
        priority=priority,
        tag=payload.get("tag"),
    )


def encode_result(result: BrokerResult) -> dict:
    """The wire form of one served request."""
    outcome = result.outcome
    body: Dict[str, object] = {
        "database": result.database,
        "engine": result.engine,
        "route": result.route,
        "cached": result.cached,
        "shared": result.shared,
    }
    if result.trace_id is not None:
        body["trace_id"] = result.trace_id
    if result.request.tag is not None:
        body["tag"] = result.request.tag
    if isinstance(outcome, ClosedAnswer):
        body.update(
            kind="closed",
            family=str(outcome.family),
            verdict=outcome.verdict.value,
            repairs_considered=outcome.repairs_considered,
            satisfying=outcome.satisfying,
        )
    else:
        assert isinstance(outcome, OpenAnswers)
        body.update(
            kind="open",
            family=str(outcome.family),
            variables=list(outcome.variables),
            certain=[list(answer) for answer in _sorted_answers(outcome.certain)],
            possible=[
                list(answer) for answer in _sorted_answers(outcome.possible)
            ],
            repairs_considered=outcome.repairs_considered,
        )
    return body


class ServiceFrontEnd:
    """JSON request dispatch over one broker (transport-agnostic).

    ``access_log`` is an optional text stream; when set, every served
    query/batch item appends one line with timestamp, database, route,
    latency, and answer cardinality.  Both transports route through
    :meth:`handle`, so HTTP and stdio requests log identically.
    """

    def __init__(
        self,
        broker: RequestBroker,
        access_log: Optional[IO[str]] = None,
        recorder: Optional[FlightRecorder] = None,
    ) -> None:
        self.broker = broker
        self.started = time.time()
        self.requests_served = 0
        self.access_log = access_log
        self.recorder = recorder if recorder is not None else RECORDER

    # Operations ---------------------------------------------------------------

    def _uptime(self) -> float:
        """One uptime computation shared by /healthz and /stats, so the
        two endpoints cannot disagree within a response cycle."""
        return round(time.time() - self.started, 3)

    def health(self) -> dict:
        from repro import __version__

        return {
            "status": "ok",
            "version": __version__,
            "databases": list(self.broker.databases),
            "backends": {
                name: self.broker.backend_of(name)
                for name in self.broker.databases
            },
            "uptime_s": self._uptime(),
            "requests_served": self.requests_served,
        }

    def stats(self) -> dict:
        observe_process()
        stats = dict(self.broker.stats())
        observe_broker(stats["caches"], stats["admission"])
        stats["requests_served"] = self.requests_served
        stats["uptime_s"] = self._uptime()
        stats["metrics"] = REGISTRY.snapshot()
        stats["recorder"] = self.recorder.summary()
        return stats

    def metrics(self) -> str:
        """The process metrics registry in Prometheus text format.

        Process gauges (RSS, GC, threads), cache events and admission
        metrics refresh here — pull-model sampling, as fresh as the
        scrape that reads them.
        """
        observe_process()
        observe_broker(self.broker.cache_stats(), self.broker.admission.stats())
        return REGISTRY.render()

    def debug_queries(
        self,
        route: Optional[str] = None,
        min_ms: Optional[float] = None,
        limit: Optional[int] = None,
        slowest: bool = False,
    ) -> dict:
        """Retained flight-recorder records (``GET /debug/queries``)."""
        records = self.recorder.records(
            route=route, min_ms=min_ms, limit=limit, slowest=slowest
        )
        return {
            "count": len(records),
            "queries": [record.to_dict() for record in records],
        }

    def debug_query(self, trace_id: str) -> dict:
        """One retained record (``GET /debug/queries/<trace_id>``)."""
        record = self.recorder.get(trace_id)
        if record is None:
            raise ServiceError(f"no recorded query with trace id {trace_id!r}")
        return record.to_dict()

    def _log_access(self, result: BrokerResult) -> None:
        if self.access_log is None:
            return
        outcome = result.outcome
        if isinstance(outcome, ClosedAnswer):
            answers = outcome.verdict.value
        else:
            answers = str(len(outcome.certain))
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%f")
        self.access_log.write(
            f"{stamp}Z db={result.database} engine={result.engine} "
            f"route={result.route} family={str(outcome.family)} "
            f"latency_ms={result.seconds * 1e3:.3f} answers={answers} "
            f"cached={int(result.cached)} shared={int(result.shared)} "
            f"trace={result.trace_id or '-'}\n"
        )
        self.access_log.flush()

    def _row_from(self, payload: dict) -> Tuple[Row, Optional[str]]:
        database = payload.get("database")
        engine = self.broker.engine(database)
        relation = payload.get("relation")
        if relation is None:
            names = engine.schema.relation_names
            if len(names) != 1:
                raise ServiceError(
                    "'relation' is required when several relations exist"
                )
            relation = names[0]
        values = payload.get("values")
        if not isinstance(values, list):
            raise ServiceError("'values' must be a list")
        schema = engine.schema.relation(relation)
        return Row(schema, values), database

    def _update(self, payload: dict, op: str) -> dict:
        row, database = self._row_from(payload)
        if op == "insert":
            delta = self.broker.insert(row, database)
            counts = {
                "applied": not delta.is_noop,
                "new_conflicts": len(delta.added_edges),
            }
        else:
            delta = self.broker.delete(row, database)
            counts = {
                "applied": True,
                "removed_conflicts": len(delta.removed_edges),
            }
        engine = self.broker.engine(database)
        return {
            "op": op,
            **counts,
            "tuples": engine.graph.vertex_count,
            "conflicts": engine.graph.edge_count,
        }

    def handle(self, payload: dict) -> dict:
        """Serve one decoded JSON payload; errors become error objects."""
        try:
            if not isinstance(payload, dict):
                raise ServiceError("payload must be a JSON object")
            op = payload.get("op", "query")
            if op == "health":
                return self.health()
            if op == "stats":
                return self.stats()
            if op in ("insert", "delete"):
                return self._update(payload, op)
            if op == "batch":
                requests = payload.get("requests")
                if not isinstance(requests, list) or not requests:
                    raise ServiceError("'requests' must be a non-empty list")
                parsed = [_parse_request(entry) for entry in requests]
                results = self.broker.submit(parsed)
                self.requests_served += len(results)
                for result in results:
                    self._log_access(result)
                return {"results": [encode_result(r) for r in results]}
            if op == "query":
                result = self.broker.submit([_parse_request(payload)])[0]
                self.requests_served += 1
                self._log_access(result)
                return encode_result(result)
            if op == "analyze":
                request = _parse_request(payload)
                report = self.broker.analyze(
                    request.query,
                    family=request.family,
                    variables=request.variables,
                    database=request.database,
                )
                body = report.to_dict()
                if request.tag is not None:
                    body["tag"] = request.tag
                return body
            raise ServiceError(f"unknown op {op!r}")
        except AdmissionError as exc:
            # Load shedding, not a malformed request: the "rejected"
            # marker lets HTTP answer 503 (retryable) instead of 400.
            op = payload.get("op", "query") if isinstance(payload, dict) else "?"
            return {"error": str(exc), "op": op, "rejected": True}
        except (ServiceError, ReproError, TypeError, ValueError, KeyError) as exc:
            # Shape errors a type-check in _parse_request missed (e.g. a
            # non-iterable 'variables') must degrade to an error object
            # too — a transport thread dying mid-request would look like
            # a connection reset over HTTP and kill the stdio loop.
            op = payload.get("op", "query") if isinstance(payload, dict) else "?"
            return {"error": str(exc), "op": op}


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


def make_http_server(
    front: ServiceFrontEnd, host: str = "127.0.0.1", port: int = 8080
):
    """A ready-to-run threading HTTP server (``port=0`` picks a free one)."""
    # The HTTP stack (http.server, and through it ssl and email) holds
    # ~3 MB resident; processes that drive the front end in-process
    # (the stdio loop, load drivers) never load it.
    from repro.service.http_transport import Handler, ThreadingHTTPServer

    server = ThreadingHTTPServer((host, port), Handler)
    server.front = front  # type: ignore[attr-defined]
    return server


def serve_stdio(
    front: ServiceFrontEnd,
    input_stream: IO[str],
    output_stream: IO[str],
) -> int:
    """JSON-lines loop: one request per line in, one response per line out.

    Blank lines and ``#`` comments are skipped; malformed JSON yields an
    error object instead of aborting the stream.  Returns 0.
    """
    for raw in input_stream:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            response: dict = {"error": f"bad JSON: {exc}"}
        else:
            response = front.handle(payload)
        output_stream.write(json.dumps(response) + "\n")
        output_stream.flush()
    return 0
