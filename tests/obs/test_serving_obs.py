"""Serving-layer observability: /metrics, richer /stats and /healthz,
the access log, unified broker cache stats, and ``repro query --profile``."""

from __future__ import annotations

import io
import json
import re
import threading
import urllib.error
import urllib.request

import pytest

import repro
from repro.cli import main
from repro.datagen.generators import GRID_FDS, grid_instance
from repro.obs import RECORDER, REGISTRY
from repro.service.broker import Request, RequestBroker
from repro.service.server import ServiceError, ServiceFrontEnd, make_http_server

#: One sample per non-comment exposition line: name{labels} value
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.e+-]+$|^.* \+Inf.*$"
)


@pytest.fixture
def broker():
    broker = RequestBroker()
    broker.register("grid", grid_instance(3, 2), GRID_FDS)
    yield broker
    broker.close()


@pytest.fixture
def front(broker):
    return ServiceFrontEnd(broker)


class TestBrokerObservability:
    def test_backend_of(self, broker):
        assert broker.backend_of("grid") in {"sqlite", "prefsql"}
        memory_only = RequestBroker()
        memory_only.register(
            "m", grid_instance(2, 2), GRID_FDS, sqlite_pushdown=False
        )
        try:
            assert memory_only.backend_of("m") == "incremental"
        finally:
            memory_only.close()

    def test_cache_stats_uniform_shape(self, broker):
        broker.submit([Request(query="EXISTS y . R(x, y)")])
        broker.submit([Request(query="EXISTS y . R(x, y)")])
        caches = broker.stats()["caches"]
        assert set(caches) == {"answer", "context", "component_repair"}
        for family in caches.values():
            assert set(family) == {"entries", "hits", "misses", "evictions"}
        assert caches["answer"]["hits"] >= 1

    def test_stats_reports_backend_per_database(self, broker):
        stats = broker.stats()
        assert stats["databases"]["grid"]["backend"] == broker.backend_of(
            "grid"
        )


class TestFrontEndEndpoints:
    def test_healthz_reports_version_and_backend(self, front):
        body = front.health()
        assert body["version"] == repro.__version__
        assert body["backends"]["grid"] in {
            "incremental", "sqlite", "prefsql",
        }
        assert body["uptime_s"] >= 0

    def test_stats_embeds_metrics_snapshot(self, front):
        front.handle({"query": "EXISTS y . R(x, y)"})
        stats = front.handle({"op": "stats"})
        assert "repro_queries_total" in stats["metrics"]
        assert "caches" in stats

    def test_metrics_renders_query_families(self, front):
        front.handle({"query": "EXISTS y . R(x, y)"})
        text = front.metrics()
        assert "# TYPE repro_queries_total counter" in text
        assert "# TYPE repro_query_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert "repro_cache_events_total" in text

    def test_metrics_lines_are_well_formed(self, front):
        front.handle({"query": "EXISTS y . R(x, y)"})
        for line in front.metrics().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                assert _SAMPLE.match(line), f"malformed sample: {line!r}"


class TestAccessLog:
    def test_query_appends_one_line(self, broker):
        log = io.StringIO()
        front = ServiceFrontEnd(broker, access_log=log)
        front.handle({"query": "EXISTS y . R(x, y)"})
        lines = log.getvalue().splitlines()
        assert len(lines) == 1
        assert "db=grid" in lines[0]
        assert "route=" in lines[0]
        assert "latency_ms=" in lines[0]
        assert re.search(r"answers=\d+|answers=(true|false|undetermined)",
                         lines[0])

    def test_batch_logs_every_item(self, broker):
        log = io.StringIO()
        front = ServiceFrontEnd(broker, access_log=log)
        front.handle(
            {
                "op": "batch",
                "requests": [
                    {"query": "EXISTS y . R(x, y)"},
                    {"query": "EXISTS x, y . R(x, y)"},
                ],
            }
        )
        assert len(log.getvalue().splitlines()) == 2

    def test_no_log_stream_writes_nothing(self, front):
        front.handle({"query": "EXISTS y . R(x, y)"})  # must not raise


class TestHttpMetricsEndpoint:
    @pytest.fixture
    def server(self, front):
        server = make_http_server(front, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    def _url(self, server, path):
        host, port = server.server_address[:2]
        return f"http://{host}:{port}{path}"

    def test_get_metrics_prometheus_text(self, server, front):
        front.handle({"query": "EXISTS y . R(x, y)"})
        with urllib.request.urlopen(self._url(server, "/metrics")) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == (
                "text/plain; version=0.0.4"
            )
            body = response.read().decode()
        assert "repro_queries_total" in body
        assert body.endswith("\n")

    def test_healthz_over_http_reports_version(self, server):
        with urllib.request.urlopen(self._url(server, "/healthz")) as response:
            body = json.loads(response.read())
        assert body["version"] == repro.__version__
        assert "backends" in body


class TestFlightRecorderServing:
    def test_stats_embeds_recorder_summary(self, front):
        front.handle({"query": "EXISTS y . R(x, y)"})
        recorder = front.handle({"op": "stats"})["recorder"]
        assert recorder["enabled"] is True
        assert recorder["recorded"] >= 1
        assert recorder["ring_entries"] >= 1

    def test_query_result_carries_trace_id(self, front):
        body = front.handle({"query": "EXISTS y . R(x, y)"})
        trace_id = body["trace_id"]
        record = RECORDER.get(trace_id)
        assert record is not None
        assert record.database == "grid"
        assert record.engine == body["engine"]
        assert record.route == body["route"]

    def test_cached_result_has_no_trace_id(self, front):
        first = front.handle({"query": "EXISTS y . R(x, y)"})
        second = front.handle({"query": "EXISTS y . R(x, y)"})
        assert "trace_id" in first
        assert second["cached"] is True
        assert "trace_id" not in second

    def test_debug_queries_lists_the_record(self, front):
        body = front.handle({"query": "EXISTS y . R(x, y)"})
        listing = front.debug_queries()
        assert listing["count"] >= 1
        match = next(
            q for q in listing["queries"] if q["trace_id"] == body["trace_id"]
        )
        # The broker records the parsed formula's canonical form.
        assert "R(x, y)" in match["query"] and "EXISTS y" in match["query"]
        assert match["trace"]["name"] == "query"
        assert front.debug_query(body["trace_id"]) == match

    def test_debug_query_unknown_id_raises(self, front):
        with pytest.raises(ServiceError, match="no recorded query"):
            front.debug_query("nope-123")

    def test_batch_access_log_has_per_request_latency_and_trace(self, broker):
        log = io.StringIO()
        front = ServiceFrontEnd(broker, access_log=log)
        front.handle(
            {
                "op": "batch",
                "requests": [
                    {"query": "EXISTS y . R(x, y)"},
                    {"query": "EXISTS x, y . R(x, y)"},
                ],
            }
        )
        lines = log.getvalue().splitlines()
        assert len(lines) == 2
        latencies = [
            float(re.search(r"latency_ms=([0-9.]+)", line).group(1))
            for line in lines
        ]
        # Per-request timing, not the batch total split evenly.
        assert all(value > 0 for value in latencies)
        assert latencies[0] != latencies[1]
        traces = [
            re.search(r"trace=(\S+)", line).group(1) for line in lines
        ]
        for token in traces:
            assert token == "-" or RECORDER.get(token) is not None
        assert any(token != "-" for token in traces)


class TestHttpDebugEndpoints:
    @pytest.fixture
    def server(self, front):
        server = make_http_server(front, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    def _url(self, server, path):
        host, port = server.server_address[:2]
        return f"http://{host}:{port}{path}"

    def _get(self, server, path):
        with urllib.request.urlopen(self._url(server, path)) as response:
            return response.status, json.loads(response.read())

    def test_slow_query_record_over_http_with_span_tree(self, server, front):
        # Acceptance pin: a slow query's record — full span tree included
        # — is retrievable over HTTP filtered by minimum latency.
        RECORDER.configure(sample_rate=0.0, slow_ms=0.0)
        body = front.handle({"query": "EXISTS y . R(x, y)"})
        status, listing = self._get(
            server, f"/debug/queries?min_ms=0&route={body['route']}"
        )
        assert status == 200
        match = next(
            q for q in listing["queries"] if q["trace_id"] == body["trace_id"]
        )
        assert match["slow"] is True and match["sampled"] is False
        tree = match["trace"]
        assert tree["name"] == "query"
        assert tree["attributes"]["trace_id"] == body["trace_id"]
        assert tree["children"], "span tree lost its children over HTTP"

        status, record = self._get(
            server, f"/debug/queries/{body['trace_id']}"
        )
        assert status == 200
        assert record == match

    def test_debug_queries_filters_and_errors(self, server, front):
        front.handle({"query": "EXISTS y . R(x, y)"})
        status, listing = self._get(server, "/debug/queries?limit=1")
        assert status == 200 and listing["count"] <= 1
        status, empty = self._get(server, "/debug/queries?min_ms=1e9")
        assert status == 200 and empty["count"] == 0

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(server, "/debug/queries?min_ms=banana")
        assert excinfo.value.code == 400

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(server, "/debug/queries/unknown-id")
        assert excinfo.value.code == 404
        assert "error" in json.loads(excinfo.value.read())


class TestCliTopTrace:
    @pytest.fixture
    def server(self, front):
        server = make_http_server(front, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}", front
        server.shutdown()
        server.server_close()

    def test_top_renders_recorded_queries(self, server, capsys):
        url, front = server
        body = front.handle({"query": "EXISTS y . R(x, y)"})
        assert main(["top", "--url", url]) == 0
        out = capsys.readouterr().out
        assert body["trace_id"] in out
        assert "ROUTE" in out and "R(x, y)" in out

    def test_top_json_and_empty_listing(self, server, capsys):
        url, front = server
        assert main(["top", "--url", url, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"count": 0, "queries": []}
        assert main(["top", "--url", url]) == 0
        assert "no recorded queries" in capsys.readouterr().out

    def test_trace_renders_span_tree(self, server, capsys):
        url, front = server
        body = front.handle({"query": "EXISTS y . R(x, y)"})
        assert main(["trace", body["trace_id"], "--url", url]) == 0
        out = capsys.readouterr().out
        assert f"trace {body['trace_id']}" in out
        assert "└─" in out
        assert "engine=" in out and "route=" in out

    def test_trace_unknown_id_exits_with_error(self, server):
        url, _ = server
        with pytest.raises(SystemExit, match="no recorded query"):
            main(["trace", "unknown-id", "--url", url])

    def test_top_unreachable_server_explains(self):
        with pytest.raises(SystemExit, match="repro serve"):
            main(["top", "--url", "http://127.0.0.1:1"])

    def test_top_watch_refreshes_until_iterations(self, server, capsys):
        url, front = server
        front.handle({"query": "EXISTS y . R(x, y)"})
        assert main(
            ["top", "--url", url, "--watch", "0.01", "--iterations", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("repro top @") == 2
        assert out.count("ROUTE") == 2

    def test_top_watch_rejects_nonpositive_interval(self, server):
        url, _ = server
        with pytest.raises(SystemExit, match="positive"):
            main(["top", "--url", url, "--watch", "0"])

    def test_trace_latest_shorthand(self, server, capsys):
        url, front = server
        front.handle({"query": "EXISTS y . R(x, y)"})
        latest = front.handle({"query": "EXISTS x, y . R(x, y)"})
        assert main(["trace", "latest", "--url", url]) == 0
        assert f"trace {latest['trace_id']}" in capsys.readouterr().out

    def test_trace_slowest_shorthand(self, server, capsys):
        url, front = server
        front.handle({"query": "EXISTS y . R(x, y)"})
        front.handle({"query": "EXISTS x, y . R(x, y)"})
        slowest = front.debug_queries(slowest=True, limit=1)["queries"][0]
        assert main(["trace", "slowest", "--url", url]) == 0
        assert f"trace {slowest['trace_id']}" in capsys.readouterr().out

    def test_trace_shorthand_with_empty_recorder_explains(self, server):
        url, _ = server
        with pytest.raises(SystemExit, match="no recorded queries"):
            main(["trace", "latest", "--url", url])


class TestCliProfile:
    @pytest.fixture
    def mgr_csv(self, tmp_path):
        path = tmp_path / "Mgr.csv"
        path.write_text(
            "Name,Dept,Salary:number\nMary,RD,40\nMary,IT,20\nJohn,RD,10\n"
        )
        return path

    def test_profile_prints_span_tree(self, mgr_csv, capsys):
        code = main(
            [
                "query",
                "--csv", str(mgr_csv),
                "--relation", "Mgr",
                "--fd", "Name -> Dept, Salary",
                "--query", "EXISTS d, s . Mgr(Mary, d, s)",
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "└─" in out
        assert "route=" in out
        assert "parse" in out

    def test_profile_json_keeps_stdout_machine_readable(self, mgr_csv, capsys):
        code = main(
            [
                "query",
                "--csv", str(mgr_csv),
                "--relation", "Mgr",
                "--fd", "Name -> Dept, Salary",
                "--query", "EXISTS d, s . Mgr(Mary, d, s)",
                "--profile",
                "--json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["verdict"] == "true"
        assert "└─" in captured.err
        # The span tree ships inside the machine-readable payload too.
        assert payload["trace"]["name"] == "query"
        assert payload["trace"]["children"]

    def test_serve_rejects_bad_recorder_flags(self, mgr_csv):
        base = [
            "serve",
            "--csv", str(mgr_csv),
            "--relation", "Mgr",
            "--fd", "Name -> Dept, Salary",
        ]
        with pytest.raises(SystemExit, match="--trace-sample"):
            main(base + ["--trace-sample", "1.5"])
        with pytest.raises(SystemExit, match="--slow-ms"):
            main(base + ["--slow-ms", "-3"])

    def test_profile_shows_one_parse_span_per_query(self, mgr_csv, capsys):
        # The broker checks the text once, in its work unit; the pushed
        # engine's probe and execution take the checked template.
        code = main(
            [
                "query",
                "--csv", str(mgr_csv),
                "--relation", "Mgr",
                "--fd", "Name -> Dept, Salary",
                "--backend", "prefsql",
                "--prefer-new", "Salary",
                "--family", "G",
                "--query", "EXISTS d, s . Mgr(Mary, d, s) AND s > 15",
                "--profile",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)

        def count(node, name):
            return (node["name"] == name) + sum(
                count(child, name) for child in node.get("children", ())
            )

        assert payload["backend"] == "prefsql (pushed down)"
        assert count(payload["trace"], "parse") == 1

    def test_profile_prefsql_backend_shows_route(self, mgr_csv, capsys):
        code = main(
            [
                "query",
                "--csv", str(mgr_csv),
                "--relation", "Mgr",
                "--fd", "Name -> Dept, Salary",
                "--backend", "prefsql",
                "--prefer-new", "Salary",
                "--family", "G",
                "--query", "EXISTS d, s . Mgr(Mary, d, s)",
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "route=prefsql" in out or "route=sqlite" in out
