"""Front-end tests: op dispatch, HTTP transport, stdio transport, CLI."""

from __future__ import annotations

import http.client
import io
import json
import threading
import urllib.request

import pytest

from repro.datagen.generators import GRID_FDS, grid_instance
from repro.incremental import IncrementalCqaEngine
from repro.service import server as server_module
from repro.service.broker import RequestBroker
from repro.service.server import (
    FAMILY_CODES,
    MAX_BODY_BYTES,
    ServiceFrontEnd,
    make_http_server,
    serve_stdio,
)


@pytest.fixture
def front():
    broker = RequestBroker()
    broker.register("grid", grid_instance(3, 2), GRID_FDS)
    front = ServiceFrontEnd(broker)
    yield front
    broker.close()


class TestFrontEndOps:
    def test_health(self, front):
        body = front.handle({"op": "health"})
        assert body["status"] == "ok"
        assert body["databases"] == ["grid"]

    def test_open_query(self, front):
        body = front.handle({"query": "EXISTS y . R(x, y)"})
        assert body["kind"] == "open"
        assert body["variables"] == ["x"]
        assert body["certain"] == [[0], [1], [2]]
        assert body["route"] == "sqlite"

    def test_closed_query(self, front):
        body = front.handle({"query": "EXISTS x, y . R(x, y)"})
        assert body["kind"] == "closed"
        assert body["verdict"] == "true"

    @pytest.mark.parametrize(
        "query, variables",
        [
            ("FORALL x, y . R(x, y) IMPLIES y < 1", None),
            ("EXISTS x . R(x, 0) OR R(x, 5)", None),
            ("EXISTS y . R(x, y) AND (y = 0 OR x = 2)", ("x",)),
        ],
    )
    @pytest.mark.parametrize("code", sorted(FAMILY_CODES))
    def test_query_outside_cq_negation_is_enumerated(
        self, front, query, variables, code
    ):
        """Universal and disjunctive queries reach neither SQL nor the
        witness index: they are served by per-repair enumeration, with
        the engine's own answer."""
        body = front.handle({"query": query, "family": code})
        assert (body["engine"], body["route"]) == ("incremental", "indexed")
        engine = IncrementalCqaEngine(grid_instance(3, 2), GRID_FDS)
        family = FAMILY_CODES[code]
        if variables is None:
            direct = engine.answer(query, family)
            assert (body["verdict"], body["repairs_considered"], body["satisfying"]) == (
                direct.verdict.value,
                direct.repairs_considered,
                direct.satisfying,
            )
        else:
            direct = engine.certain_answers(query, variables, family)
            assert body["variables"] == list(variables)
            assert sorted(map(tuple, body["certain"])) == sorted(direct.certain)
            assert sorted(map(tuple, body["possible"])) == sorted(direct.possible)
            assert body["repairs_considered"] == direct.repairs_considered
        assert direct.route == "indexed"

    def test_safe_negated_probe_uses_the_witness_index(self, front):
        body = front.handle({"query": "EXISTS x . R(x, 0) AND NOT R(x, 1)"})
        assert (body["engine"], body["route"]) == ("incremental", "witness-index")
        direct = IncrementalCqaEngine(grid_instance(3, 2), GRID_FDS).answer(
            "EXISTS x . R(x, 0) AND NOT R(x, 1)"
        )
        assert (body["verdict"], body["repairs_considered"], body["satisfying"]) == (
            direct.verdict.value,
            direct.repairs_considered,
            direct.satisfying,
        )

    def test_batch_with_tags(self, front):
        body = front.handle(
            {
                "op": "batch",
                "requests": [
                    {"query": "EXISTS y . R(x, y)", "tag": "a"},
                    {"query": "EXISTS y . R(x, y)", "tag": "b"},
                ],
            }
        )
        results = body["results"]
        assert [r["tag"] for r in results] == ["a", "b"]
        assert results[1]["shared"] is True

    def test_insert_then_query_sees_new_tuple(self, front):
        body = front.handle({"op": "insert", "values": [7, 7]})
        assert body["applied"] is True
        answers = front.handle({"query": "EXISTS y . R(x, y)"})
        assert [7] in answers["certain"]

    def test_delete_unknown_tuple_is_an_error_object(self, front):
        body = front.handle({"op": "delete", "values": [99, 99]})
        assert "error" in body

    def test_family_selection_and_bad_family(self, front):
        good = front.handle({"query": "EXISTS y . R(x, y)", "family": "G"})
        assert good["family"] == "G-Rep"
        bad = front.handle({"query": "EXISTS y . R(x, y)", "family": "nope"})
        assert "unknown family" in bad["error"]

    def test_malformed_requests(self, front):
        assert "error" in front.handle({"op": "wat"})
        assert "error" in front.handle({"query": ""})
        assert "error" in front.handle({"op": "batch", "requests": []})
        assert "error" in front.handle({"op": "insert", "values": "no"})
        assert "error" in front.handle({"query": "EXISTS ( . broken"})

    def test_type_malformed_fields_degrade_to_error_objects(self, front):
        """Shape errors must never escape handle() and kill a transport."""
        assert "error" in front.handle({"query": "EXISTS y . R(x, y)", "variables": 5})
        assert "error" in front.handle({"op": "batch", "requests": "nope"})
        assert "error" in front.handle({"op": "insert", "values": [None, {}]})
        assert "error" in front.handle({"query": "EXISTS y . R(x, y)", "priority": "high"})

    def test_stats_counts_requests(self, front):
        front.handle({"query": "EXISTS y . R(x, y)"})
        stats = front.handle({"op": "stats"})
        assert stats["requests_served"] == 1
        assert stats["databases"]["grid"]["queries"] == 1


class TestHttpTransport:
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

    def _post(self, server, path, payload):
        request = urllib.request.Request(
            self._url(server, path),
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_healthz(self, server):
        status, body = self._get(server, "/healthz")
        assert status == 200 and body["status"] == "ok"

    def test_stats(self, server):
        status, body = self._get(server, "/stats")
        assert status == 200 and "answer_cache" in body

    def test_query_roundtrip(self, server):
        status, body = self._post(
            server, "/query", {"query": "EXISTS y . R(x, y)"}
        )
        assert status == 200
        assert body["certain"] == [[0], [1], [2]]

    def test_batch_roundtrip(self, server):
        status, body = self._post(
            server,
            "/query",
            {"requests": [{"query": "EXISTS y . R(x, y)"}] * 3},
        )
        assert status == 200
        assert len(body["results"]) == 3
        assert body["results"][2]["shared"] is True

    def test_update_roundtrip(self, server):
        status, body = self._post(server, "/update", {"values": [8, 8]})
        assert status == 200 and body["applied"] is True
        status, body = self._post(
            server, "/update", {"op": "delete", "values": [8, 8]}
        )
        assert status == 200 and body["op"] == "delete"

    def test_bad_json_is_400(self, server):
        request = urllib.request.Request(
            self._url(server, "/query"),
            data=b"{nope",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def _post_with_length(self, server, length):
        """POST /query announcing ``length`` bytes but sending none."""
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", "/query")
            connection.putheader("Content-Length", length)
            connection.endheaders()
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    @pytest.mark.parametrize("length", ["abc", "1.5", "-1"])
    def test_bad_content_length_is_400(self, server, length):
        status, body = self._post_with_length(server, length)
        assert status == 400 and "Content-Length" in body["error"]

    def test_oversized_body_is_413(self, server):
        status, body = self._post_with_length(
            server, str(MAX_BODY_BYTES + 1)
        )
        assert status == 413 and "limit" in body["error"]

    def test_body_at_the_limit_is_read(self, server, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 64)
        payload = {"query": "EXISTS y . R(x, y)", "pad": ""}
        payload["pad"] = " " * (64 - len(json.dumps(payload)))
        assert len(json.dumps(payload)) == 64
        status, _ = self._post(server, "/query", payload)
        assert status == 200
        payload["pad"] += " "
        status, _ = self._post(server, "/query", payload)
        assert status == 413

    def test_unknown_paths_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(self._url(server, "/nope"))
        assert excinfo.value.code == 404
        status, _ = self._post(server, "/nope", {})
        assert status == 404

    def test_query_error_is_400(self, server):
        status, body = self._post(server, "/query", {"query": ""})
        assert status == 400 and "error" in body


class TestStdioTransport:
    def test_json_lines_loop(self, front):
        script = "\n".join(
            [
                json.dumps({"op": "health"}),
                "# comment",
                "",
                json.dumps({"query": "EXISTS y . R(x, y)"}),
                "{broken",
                json.dumps({"op": "stats"}),
            ]
        )
        output = io.StringIO()
        exit_code = serve_stdio(front, io.StringIO(script), output)
        assert exit_code == 0
        lines = [json.loads(line) for line in output.getvalue().splitlines()]
        assert lines[0]["status"] == "ok"
        assert lines[1]["certain"] == [[0], [1], [2]]
        assert "bad JSON" in lines[2]["error"]
        assert lines[3]["requests_served"] == 1


class TestServeCli:
    def test_serve_stdio_subcommand(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        csv = tmp_path / "r.csv"
        csv.write_text("A,B\n1,2\n1,3\n2,5\n")
        script = "\n".join(
            [
                json.dumps({"op": "health"}),
                json.dumps({"query": "EXISTS y . R(x, y)"}),
                json.dumps({"op": "insert", "values": [4, 4]}),
                json.dumps({"query": "EXISTS y . R(x, y)"}),
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        exit_code = main(
            [
                "serve",
                "--stdio",
                "--csv",
                str(csv),
                "--relation",
                "R",
                "--fd",
                "A -> B",
            ]
        )
        assert exit_code == 0
        lines = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert lines[0]["status"] == "ok"
        assert lines[1]["certain"] == [[1], [2]]
        assert lines[2]["applied"] is True
        assert [4] in lines[3]["certain"]

    def test_serve_parallel_flag_threads_to_broker(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        csv = tmp_path / "r.csv"
        csv.write_text("A,B\n1,2\n1,3\n")
        script = json.dumps({"op": "stats"})
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        exit_code = main(
            [
                "serve",
                "--stdio",
                "--parallel",
                "2",
                "--csv",
                str(csv),
                "--fd",
                "A -> B",
            ]
        )
        assert exit_code == 0
        stats = json.loads(capsys.readouterr().out.splitlines()[0])
        assert stats["parallel"] == 2

    def test_serve_max_inflight_flag_arms_admission(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        csv = tmp_path / "r.csv"
        csv.write_text("A,B\n1,2\n1,3\n")
        script = json.dumps({"op": "stats"})
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        exit_code = main(
            [
                "serve",
                "--stdio",
                "--max-inflight",
                "3",
                "--max-queue",
                "5",
                "--csv",
                str(csv),
                "--fd",
                "A -> B",
            ]
        )
        assert exit_code == 0
        stats = json.loads(capsys.readouterr().out.splitlines()[0])
        assert stats["admission"]["max_inflight"] == 3
        assert stats["admission"]["max_queue"] == 5

    def test_serve_rejects_bad_max_inflight(self, tmp_path):
        from repro.cli import main

        csv = tmp_path / "r.csv"
        csv.write_text("A,B\n1,2\n")
        with pytest.raises(SystemExit, match="max-inflight"):
            main(
                [
                    "serve",
                    "--stdio",
                    "--max-inflight",
                    "0",
                    "--csv",
                    str(csv),
                    "--fd",
                    "A -> B",
                ]
            )


def test_the_front_end_loads_no_http_pool_or_openssl_stack():
    """Serving in-process never imports http.server (and through it
    ssl), multiprocessing or OpenSSL's hashlib: each costs resident
    memory only an HTTP server, a worker pool or a TLS client needs."""
    import os
    import subprocess
    import sys

    import repro

    source = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "import sys, repro.service.server\n"
        "print(sorted(name for name in"
        " ('http.server', 'multiprocessing', 'ssl', '_hashlib')"
        " if name in sys.modules))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": source},
        capture_output=True,
        text=True,
        check=True,
    )
    assert completed.stdout.strip() == "[]"
