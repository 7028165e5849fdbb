"""Saturation observability: process gauges, throughput/in-flight
metrics, and concurrent scrapes of /metrics and /debug/queries while
the load generator is driving traffic (no torn snapshots, no 500s)."""

from __future__ import annotations

import json
import re
import threading
import urllib.request

import pytest

from repro.datagen.generators import CHAIN_FDS, chain_instance
from repro.obs import RECORDER, REGISTRY, observe_process
from repro.obs.workload import Workload, WorkloadEntry
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.schema import RelationSchema
from repro.service.broker import Request, RequestBroker
from repro.service.loadgen import CellSpec, InProcessTarget, LoadGenerator
from repro.service.server import ServiceFrontEnd, make_http_server

_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.e+-]+$|^.* \+Inf.*$"
)

SCRATCH = RelationSchema("W", ["K:number", "V:number"])

WORKLOAD = Workload(
    entries=(
        WorkloadEntry(
            kind="query",
            query="EXISTS b, c, d . R(a, b, c, d)",
            variables=("a",),
        ),
        WorkloadEntry(
            kind="query",
            query="EXISTS a, b, c, d . R(a, b, c, d) AND a >= 1",
        ),
        WorkloadEntry(kind="churn", relation="W", values=(0, 1)),
    ),
)


@pytest.fixture
def broker():
    broker = RequestBroker()
    broker.register(
        "chain",
        Database([chain_instance(5), RelationInstance(SCRATCH)]),
        CHAIN_FDS,
    )
    yield broker
    broker.close()


@pytest.fixture
def front(broker):
    return ServiceFrontEnd(broker)


class TestProcessGauges:
    def test_observe_process_sets_thread_gc_and_rss_gauges(self):
        observe_process()
        snapshot = REGISTRY.snapshot()
        assert snapshot["repro_process_threads"]["values"][""] >= 1
        generations = snapshot["repro_process_gc_collections"]["values"]
        assert set(generations) == {"0", "1", "2"}
        rss = snapshot.get("repro_process_resident_bytes")
        if rss is not None:  # absent only where /proc and rusage fail
            assert rss["values"][""] > 0

    def test_disabled_registry_records_nothing(self):
        REGISTRY.enabled = False
        try:
            observe_process()
            assert REGISTRY.snapshot() == {}
        finally:
            REGISTRY.enabled = True

    def test_metrics_endpoint_refreshes_process_gauges(self, front):
        exposition = front.metrics()
        assert "repro_process_threads" in exposition
        assert "repro_process_gc_collections" in exposition

    def test_stats_endpoint_refreshes_process_gauges(self, front):
        stats = front.stats()
        assert "repro_process_threads" in stats["metrics"]


class TestThroughputAndInflight:
    def test_requests_total_counts_batch_sizes(self, broker):
        broker.submit([Request("EXISTS a, b, c, d . R(a, b, c, d)")] * 3)
        snapshot = REGISTRY.snapshot()
        assert snapshot["repro_requests_total"]["values"][""] == 3

    def test_inflight_gauge_returns_to_zero(self, broker, front):
        broker.submit([Request("EXISTS a, b, c, d . R(a, b, c, d)")])
        front.metrics()
        snapshot = REGISTRY.snapshot()
        assert snapshot["repro_inflight_requests"]["values"][""] == 0

    def test_rejected_total_appears_on_rejection(self, broker, front):
        broker.admission.max_inflight = 1
        broker.admission.max_queue = 0
        from repro.exceptions import AdmissionError

        with broker.admission.admit():
            with pytest.raises(AdmissionError):
                broker.submit([Request("EXISTS a, b, c, d . R(a, b, c, d)")])
        front.metrics()
        snapshot = REGISTRY.snapshot()
        assert snapshot["repro_rejected_total"]["values"][""] == 1


class TestScrapeUnderLoad:
    """/metrics and /debug/queries stay coherent while loadgen runs."""

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

    def test_concurrent_scrapes_see_no_errors_or_torn_output(
        self, front, server
    ):
        generator = LoadGenerator(InProcessTarget(front), WORKLOAD)
        spec = CellSpec(
            concurrency=4, write_fraction=0.3, requests=300, seed=11
        )
        failures = []
        done = threading.Event()

        def scrape():
            while not done.is_set():
                try:
                    with urllib.request.urlopen(
                        self._url(server, "/metrics"), timeout=5
                    ) as response:
                        if response.status != 200:
                            failures.append(("status", response.status))
                        text = response.read().decode()
                    for line in text.splitlines():
                        if line.startswith("#") or not line:
                            continue
                        if not _SAMPLE.match(line):
                            failures.append(("torn-sample", line))
                    with urllib.request.urlopen(
                        self._url(server, "/debug/queries?limit=50"),
                        timeout=5,
                    ) as response:
                        if response.status != 200:
                            failures.append(("status", response.status))
                        body = json.loads(response.read())
                    if body["count"] != len(body["queries"]):
                        failures.append(("torn-count", body["count"]))
                    for record in body["queries"]:
                        if "trace_id" not in record or "query" not in record:
                            failures.append(("torn-record", record))
                except Exception as exc:  # any scrape error is a failure
                    failures.append(("exception", repr(exc)))

        scrapers = [threading.Thread(target=scrape) for _ in range(2)]
        for scraper in scrapers:
            scraper.start()
        try:
            cell = generator.run_cell(spec)
        finally:
            done.set()
            for scraper in scrapers:
                scraper.join(timeout=10)
        assert not failures, failures[:5]
        assert cell.verified

        # Recorder counters are consistent after the dust settles:
        # everything retained was recorded, nothing was double-counted.
        summary = RECORDER.summary()
        assert summary["recorded"] <= summary["started"]
        assert summary["sampled"] <= summary["recorded"]
        assert summary["ring_entries"] <= summary["sampled"]
        # repro_requests_total counts broker submissions — the serial
        # reference pass (one per distinct query) plus every replayed
        # read; churn ops go through the update path, not submit().
        from repro.service.loadgen import build_schedule

        reads = sum(
            op.entry.is_read
            for ops in build_schedule(WORKLOAD, spec)
            for op in ops
        )
        snapshot = REGISTRY.snapshot()
        assert snapshot["repro_requests_total"]["values"][""] == (
            reads + len(WORKLOAD.reads)
        )
        front.metrics()
        snapshot = REGISTRY.snapshot()
        assert snapshot["repro_inflight_requests"]["values"][""] == 0
