"""Load generator: deterministic schedules, bit-identical verification
against the serial reference, open/closed loops, and admission control
(in-flight limit, bounded queue, 503 rejection over HTTP)."""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.datagen.generators import CHAIN_FDS, chain_instance
from repro.exceptions import AdmissionError
from repro.obs.workload import Workload, WorkloadEntry
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.rows import sorted_rows
from repro.relational.schema import RelationSchema
from repro.service.broker import AdmissionController, Request, RequestBroker
from repro.service.loadgen import (
    CellSpec,
    InProcessTarget,
    LoadGenError,
    LoadGenerator,
    build_schedule,
    canonical_answer,
)
from repro.service.server import ServiceFrontEnd, make_http_server

SCRATCH = RelationSchema("W", ["K:number", "V:number"])

WORKLOAD = Workload(
    entries=(
        WorkloadEntry(
            kind="query",
            query="EXISTS b, c, d . R(a, b, c, d)",
            variables=("a",),
            weight=3,
        ),
        WorkloadEntry(
            kind="query",
            query="EXISTS a, b, c, d . R(a, b, c, d) AND a >= 2",
            family="G",
        ),
        WorkloadEntry(kind="churn", relation="W", values=(0, 7)),
    ),
    name="test",
)


@pytest.fixture
def broker():
    broker = RequestBroker()
    broker.register(
        "default",
        Database([chain_instance(5), RelationInstance(SCRATCH)]),
        CHAIN_FDS,
    )
    yield broker
    broker.close()


@pytest.fixture
def generator(broker):
    return LoadGenerator(InProcessTarget(ServiceFrontEnd(broker)), WORKLOAD)


class TestSchedule:
    def test_same_seed_same_schedule(self):
        spec = CellSpec(concurrency=3, write_fraction=0.4, requests=50, seed=9)
        assert build_schedule(WORKLOAD, spec) == build_schedule(WORKLOAD, spec)

    def test_different_seed_different_schedule(self):
        a = CellSpec(concurrency=2, write_fraction=0.5, requests=50, seed=1)
        b = CellSpec(concurrency=2, write_fraction=0.5, requests=50, seed=2)
        assert build_schedule(WORKLOAD, a) != build_schedule(WORKLOAD, b)

    def test_all_requests_dealt_across_workers(self):
        spec = CellSpec(concurrency=3, write_fraction=0.0, requests=10)
        schedule = build_schedule(WORKLOAD, spec)
        assert len(schedule) == 3
        assert sum(len(ops) for ops in schedule) == 10

    def test_churn_draws_are_globally_unique(self):
        spec = CellSpec(concurrency=4, write_fraction=1.0, requests=30)
        schedule = build_schedule(WORKLOAD, spec)
        draws = [op.draw for ops in schedule for op in ops]
        assert len(draws) == len(set(draws)) == 30

    def test_write_fraction_without_churn_entries_is_an_error(self):
        reads_only = Workload(entries=WORKLOAD.reads)
        with pytest.raises(LoadGenError, match="churn"):
            build_schedule(
                reads_only,
                CellSpec(concurrency=1, write_fraction=0.5, requests=5),
            )

    def test_read_fraction_without_query_entries_is_an_error(self):
        writes_only = Workload(entries=WORKLOAD.writes)
        with pytest.raises(LoadGenError, match="query"):
            build_schedule(
                writes_only,
                CellSpec(concurrency=1, write_fraction=0.5, requests=5),
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"concurrency": 0, "write_fraction": 0.0},
            {"concurrency": 1, "write_fraction": 1.5},
            {"concurrency": 1, "write_fraction": 0.0, "requests": 0},
            {"concurrency": 1, "write_fraction": 0.0, "mode": "wat"},
            {"concurrency": 1, "write_fraction": 0.0, "mode": "open"},
        ],
    )
    def test_bad_specs_are_rejected(self, kwargs):
        with pytest.raises(LoadGenError):
            CellSpec(**kwargs)


class TestCanonicalAnswer:
    def test_volatile_provenance_is_stripped(self):
        a = {"kind": "open", "certain": [[1]], "cached": True,
             "shared": False, "trace_id": "x", "tag": "t"}
        b = {"kind": "open", "certain": [[1]], "cached": False,
             "shared": True, "trace_id": "y"}
        assert canonical_answer(a) == canonical_answer(b)

    def test_answer_content_differences_survive(self):
        a = {"kind": "open", "certain": [[1]]}
        b = {"kind": "open", "certain": [[2]]}
        assert canonical_answer(a) != canonical_answer(b)


class TestReplay:
    def test_closed_cell_verifies_bit_identical_under_churn(self, generator):
        cell = generator.run_cell(
            CellSpec(concurrency=4, write_fraction=0.3, requests=60, seed=3)
        )
        assert cell.verified
        assert cell.completed == 60
        assert cell.rejected == 0
        assert len(cell.latencies_ms) == 60
        assert cell.throughput > 0
        assert cell.percentile(50) <= cell.percentile(95) <= cell.percentile(99)

    def test_open_cell_measures_from_planned_start(self, generator):
        cell = generator.run_cell(
            CellSpec(
                concurrency=2, write_fraction=0.0, requests=20,
                mode="open", rate=1000.0, seed=5,
            )
        )
        assert cell.verified and cell.completed == 20
        # 20 ops at 1000 ops/s arrive over ~20ms: the cell cannot
        # finish faster than its arrival schedule.
        assert cell.duration_s >= 0.019

    def test_churn_leaves_the_instance_unchanged(self, broker, generator):
        before = broker.engine().graph.vertex_count
        cell = generator.run_cell(
            CellSpec(concurrency=3, write_fraction=1.0, requests=30, seed=1)
        )
        assert cell.verified
        assert broker.engine().graph.vertex_count == before

    def test_replay_detects_diverging_answers(self, broker, generator):
        reference = generator.serial_reference()
        # Mutate the queried relation after the reference pass: replayed
        # answers now legitimately differ and must be flagged.
        row = sorted_rows(chain_instance(9).rows - chain_instance(5).rows)[0]
        broker.insert(row)
        cell = generator.run_cell(
            CellSpec(concurrency=2, write_fraction=0.0, requests=20, seed=2),
            reference,
        )
        assert not cell.verified
        assert cell.mismatches

    def test_reference_failure_is_an_error(self, broker):
        bad = Workload(
            entries=(WorkloadEntry(kind="query", query="EXISTS ( . broken"),)
        )
        generator = LoadGenerator(
            InProcessTarget(ServiceFrontEnd(broker)), bad
        )
        with pytest.raises(LoadGenError, match="reference"):
            generator.serial_reference()

    def test_sweep_covers_the_grid(self, generator):
        results = generator.sweep(
            [1, 2], [0.0, 0.5], requests=16, seed=4
        )
        assert len(results) == 4
        assert all(result.verified for result in results)
        grid = {
            (r.spec.concurrency, r.spec.write_fraction) for r in results
        }
        assert grid == {(1, 0.0), (2, 0.0), (1, 0.5), (2, 0.5)}


class TestAdmissionController:
    def test_unlimited_by_default_still_counts(self):
        controller = AdmissionController()
        with controller.admit():
            assert controller.stats()["inflight"] == 1
        assert controller.stats()["inflight"] == 0
        assert controller.stats()["max_inflight"] is None

    def test_overflow_beyond_queue_is_rejected(self):
        controller = AdmissionController(max_inflight=1, max_queue=0)
        with controller.admit():
            with pytest.raises(AdmissionError, match="saturated"):
                with controller.admit():
                    pass
        assert controller.stats()["rejected"] == 1

    def test_queued_submission_proceeds_when_slot_frees(self):
        controller = AdmissionController(max_inflight=1, max_queue=1)
        entered = threading.Event()
        release = threading.Event()
        served = []

        def holder():
            with controller.admit():
                entered.set()
                release.wait(timeout=5)

        def waiter():
            with controller.admit():
                served.append(True)

        hold = threading.Thread(target=holder)
        hold.start()
        entered.wait(timeout=5)
        wait = threading.Thread(target=waiter)
        wait.start()
        while controller.stats()["queued"] == 0 and wait.is_alive():
            pass
        release.set()
        hold.join(timeout=5)
        wait.join(timeout=5)
        assert served == [True]
        assert controller.stats()["rejected"] == 0

    @pytest.mark.parametrize("kwargs", [
        {"max_inflight": 0}, {"max_inflight": 2, "max_queue": -1},
    ])
    def test_bad_limits_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionController(**kwargs)


class TestBrokerAdmission:
    def test_submit_raises_when_saturated(self, broker):
        broker.admission.max_inflight = 1
        broker.admission.max_queue = 0
        with broker.admission.admit():
            with pytest.raises(AdmissionError):
                broker.submit([Request("EXISTS a, b, c, d . R(a, b, c, d)")])
        assert broker.stats()["admission"]["rejected"] == 1

    def test_stats_reports_admission_block(self, broker):
        block = broker.stats()["admission"]
        assert block == {
            "max_inflight": None, "max_queue": 0,
            "inflight": 0, "queued": 0, "rejected": 0,
        }


class TestCliWorkloadLoadtest:
    """`repro workload export/show` and `repro loadtest` end to end."""

    @pytest.fixture
    def csv_file(self, tmp_path):
        path = tmp_path / "emp.csv"
        path.write_text(
            "Name,Dept\nalice,cs\nalice,math\nbob,cs\nbob,bio\ncarol,cs\n"
        )
        return str(path)

    @pytest.fixture
    def debug_payload(self, tmp_path):
        records = [
            {"trace_id": f"t{i}", "query": query, "family": "G-Rep",
             "engine": "sqlite", "route": "sqlite", "millis": 1.0,
             "seconds": 0.001, "started_at": float(i)}
            for i, query in enumerate(
                ["EXISTS d . emp(x, d)", "EXISTS d . emp(x, d)",
                 'EXISTS x . emp(x, "cs")']
            )
        ]
        path = tmp_path / "debug.json"
        path.write_text(json.dumps({"queries": records}))
        return str(path)

    def _export(self, tmp_path, debug_payload) -> str:
        from repro.cli import main

        out = str(tmp_path / "w.jsonl")
        assert main([
            "workload", "export", "--from-json", debug_payload,
            "--churn", "scratch:0,1", "--name", "demo", "-o", out,
        ]) == 0
        return out

    def test_export_writes_deterministic_weighted_file(
        self, tmp_path, debug_payload, capsys
    ):
        from repro.obs.workload import load

        path = self._export(tmp_path, debug_payload)
        assert "wrote 3 entries" in capsys.readouterr().out
        workload = load(path)
        assert workload.name == "demo"
        weights = {e.query: e.weight for e in workload.reads}
        assert weights == {
            "EXISTS d . emp(x, d)": 2, 'EXISTS x . emp(x, "cs")': 1,
        }
        assert [e.relation for e in workload.writes] == ["scratch"]

    def test_show_summarizes_and_validates(
        self, tmp_path, debug_payload, capsys
    ):
        from repro.cli import main

        path = self._export(tmp_path, debug_payload)
        capsys.readouterr()
        assert main(["workload", "show", path]) == 0
        out = capsys.readouterr().out
        assert "3 entries (2 query, 1 churn)" in out
        assert main(["workload", "show", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["header"]["workload"] == "repro-workload"
        assert len(payload["entries"]) == 3

    def test_show_rejects_corrupt_files(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text("not a workload\n")
        with pytest.raises(SystemExit, match="header"):
            main(["workload", "show", str(bad)])

    def test_export_needs_a_source(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--url or --from-json"):
            main(["workload", "export"])

    def test_bad_churn_spec_is_rejected(self, debug_payload):
        from repro.cli import main

        with pytest.raises(SystemExit, match="churn"):
            main([
                "workload", "export", "--from-json", debug_payload,
                "--churn", "nocolon",
            ])

    def test_loadtest_sweeps_verifies_and_reports(
        self, tmp_path, csv_file, debug_payload, capsys
    ):
        from repro.cli import main

        path = self._export(tmp_path, debug_payload)
        capsys.readouterr()
        assert main([
            "loadtest", path, "--csv", csv_file, "--fd", "Name -> Dept",
            "--concurrency", "1,2", "--write-fraction", "0,0.25",
            "--requests", "20", "--seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out
        assert out.count("yes") == 4

    def test_loadtest_json_carries_cells_and_exemplars(
        self, tmp_path, csv_file, debug_payload, capsys
    ):
        from repro.cli import main

        path = self._export(tmp_path, debug_payload)
        capsys.readouterr()
        assert main([
            "loadtest", path, "--csv", csv_file, "--fd", "Name -> Dept",
            "--concurrency", "2", "--write-fraction", "0.2",
            "--requests", "20", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "demo"
        (cell,) = payload["cells"]
        assert cell["verified"] is True
        assert cell["completed"] == 20
        assert cell["trace_exemplars"]

    def test_loadtest_rejects_bad_grid_and_missing_file(self, csv_file):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["loadtest", "/nonexistent.jsonl", "--csv", csv_file,
                  "--fd", "Name -> Dept"])


class TestHttpRejection:
    def test_saturated_service_answers_503(self, broker):
        broker.admission.max_inflight = 1
        broker.admission.max_queue = 0
        front = ServiceFrontEnd(broker)
        server = make_http_server(front, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            request = urllib.request.Request(
                f"http://{host}:{port}/query",
                data=json.dumps(
                    {"query": "EXISTS a, b, c, d . R(a, b, c, d)"}
                ).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with broker.admission.admit():
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request)
                assert excinfo.value.code == 503
                body = json.loads(excinfo.value.read())
                assert body["rejected"] is True
                assert "saturated" in body["error"]
            # Slot released: the same request now succeeds.
            with urllib.request.urlopen(request) as response:
                assert response.status == 200
        finally:
            server.shutdown()
            server.server_close()
