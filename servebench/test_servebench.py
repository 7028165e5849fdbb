"""Tests of the benchmark itself, at tiny sizes."""

from __future__ import annotations

import json

import pytest

from repro.obs import RECORDER, REGISTRY
from repro.query import parser
from repro.incremental import engine as incremental_engine
from repro.service import broker as service_broker
from repro.service.server import ServiceFrontEnd

from servebench import loop, reference
from servebench import run as bench
from servebench.ledger import SpanLog, tree_problems
from servebench.workloads import WORKLOADS, request_key

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

#: Scales that keep each run to a second or two.
TINY = {"pushed-read": 0.02, "memory-read": 0.3, "write-mix": 0.15}


@pytest.fixture(autouse=True)
def quick_and_isolated(monkeypatch):
    monkeypatch.setattr(loop, "WARMUP_CAP_S", 1.0)
    yield
    REGISTRY.reset()
    RECORDER.reset()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["pushed-read", "memory-read"])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result, metadata = bench.run(workload, 3, 0.4, trace, TINY[workload], str(tmp_path))
    assert result["correct"], metadata["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    written = json.loads((tmp_path / f"{workload}-seed3-trace{int(trace)}.json").read_text())
    assert written["result"] == result


def test_written_spans_form_well_nested_request_trees(tmp_path):
    result, metadata = bench.run("pushed-read", 4, 0.4, True, TINY["pushed-read"], str(tmp_path))
    assert result["correct"], metadata
    assert metadata["ledger"]["span_tree_problems"] == []
    assert metadata["ledger"]["gap_share"] <= bench.LEDGER_TOLERANCE
    spans = [
        json.loads(line)
        for line in (tmp_path / "pushed-read-seed4-trace1-spans.jsonl").read_text().splitlines()
    ]
    assert len(spans) == metadata["ledger"]["spans"] > 0
    by_id = {span["id"]: span for span in spans}
    roots = 0
    for span in spans:
        assert span["start_ms"] <= span["end_ms"]
        if span["parent"] is None:
            roots += 1
            continue
        parent = by_id[span["parent"]]
        assert parent["start_ms"] <= span["start_ms"]
        assert span["end_ms"] <= parent["end_ms"]
        assert parent["request"] == span["request"]
    # One server span per traced op.
    assert roots == metadata["ledger"]["traced_ops"]
    assert {span["name"] for span in spans if span["parent"] is None} == {"server"}


def test_tree_problems_flags_orphans_and_escaping_children():
    root = ["server", 0.0, 1.0, None, 1, False]
    child = ["broker", 0.1, 0.9, root, 1, False]
    escaping = ["broker", 0.5, 1.5, root, 1, False]
    orphan = ["broker", 0.1, 0.2, ["server", 0.0, 1.0, None, 1, False], 1, False]
    foreign = ["broker", 0.2, 0.3, root, 2, False]
    assert tree_problems([root, child]) == []
    assert len(tree_problems([root, child, escaping, orphan, foreign])) == 3


def test_span_shims_cover_aliases_and_are_removed_after_use():
    def bound():
        return (
            parser.parse_query,
            incremental_engine.parse_query,
            service_broker.analyze_routes,
            ServiceFrontEnd.handle,
        )

    before = bound()
    log = SpanLog()
    log.install()
    try:
        # ``analyze_routes`` is the broker's alias of repro.analysis.analyze.
        assert all(now is not then for now, then in zip(bound(), before))
    finally:
        log.uninstall()
    assert bound() == before


def test_a_corrupted_reference_answer_counts_as_a_failure(tmp_path, monkeypatch):
    compute = reference.Reference._compute
    corrupted = []

    def corrupt_first(self, key):
        answer = json.loads(compute(self, key))
        if not corrupted:
            corrupted.append(key)
            answer["repairs_considered"] = -1
        return json.dumps(answer, sort_keys=True)

    monkeypatch.setattr(reference.Reference, "_compute", corrupt_first)
    result, metadata = bench.run("memory-read", 5, 0.3, False, TINY["memory-read"], str(tmp_path))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert sum(kinds["mismatch"] for kinds in metadata["failures"].values()) == result["failed"]


def test_a_write_that_changes_an_answer_is_a_mismatch():
    workload = WORKLOADS["write-mix"](6, TINY["write-mix"])
    broker, front, _ = bench.build_service(workload)
    expected = reference.Reference(workload)
    try:
        payload = {"query": "R(0, a, b)", "database": "plain"}
        before = front.handle(payload)
        # Key 0 is probed, so this write is one the workload never makes.
        front.handle(
            {"op": "insert", "database": "plain", "relation": "R", "values": [0, 999, "x"]}
        )
        after = front.handle(payload)
        replies = reference.Replies()
        replies.add(request_key(payload), before)
        replies.add(request_key(payload), after)
        assert replies.check(expected) == {
            "error": 0, "escaped": 0, "rejected": 0, "mismatch": 1
        }
    finally:
        expected.close()
        broker.close()


def test_error_replies_and_unapplied_writes_are_failures():
    workload = WORKLOADS["memory-read"](7, TINY["memory-read"])
    expected = reference.Reference(workload)
    replies = reference.Replies()
    for key, reply in [
        (None, {"op": "insert", "applied": True}),
        (None, {"op": "insert", "applied": False}),
        (("grid", "R(a, b)", None, None), {"error": "boom"}),
        (("grid", "R(a, b)", None, None), {"error": "busy", "rejected": True}),
        (("grid", "R(a, b)", None, None), {"error": "x", "escaped": True}),
    ]:
        replies.add(key, reply)
    try:
        kinds = replies.check(expected)
    finally:
        expected.close()
    assert kinds == {"error": 1, "escaped": 1, "rejected": 1, "mismatch": 1}


def test_write_latencies_are_reported_only_for_runs_with_writes():
    phase = loop.Phase("measured")
    phase.started, phase.ended = 0.0, 1.0
    phase.samples = [
        loop.Sample(0, index, index % 10 == 0, index * 1e-3, index * 1e-3 + 5e-4, False, None, 0)
        for index in range(200)
    ]
    with_writes = bench.end_to_end(phase.select(1.0), [1.0], 10.0)
    assert with_writes["write_p50_ms"] == {"value": pytest.approx(0.5), "unit": "ms"}
    assert "write_p95_ms" in with_writes
    phase.samples = [sample for sample in phase.samples if not sample.write]
    assert not {"write_p50_ms", "write_p95_ms"} & set(
        bench.end_to_end(phase.select(1.0), [1.0], 10.0)
    )


def test_metrics_come_from_the_least_stolen_blocks():
    phase = loop.Phase("measured")
    phase.blocks = [
        loop.Block(0.0, 1.0, 0.0),
        loop.Block(1.0, 2.0, 0.3),
        loop.Block(2.0, 3.0, None),
        loop.Block(3.0, 4.0, 0.005),
    ]
    # One op per 0.1 s, 0.05 s long, plus two that straddle a boundary.
    phase.samples = [
        loop.Sample(0, index, False, start, start + 0.05, False, None, 0)
        for index, start in enumerate([0.1 * step for step in range(40)] + [0.98, 1.98])
    ]
    selected = phase.select(2.5)
    assert [block.start for block in selected.blocks] == [0.0, 2.0, 3.0]
    assert selected.seconds == pytest.approx(3.0)
    assert selected.steal == pytest.approx(0.005 / 3)
    assert all(not 1.0 <= sample.start < 2.0 for sample in selected.samples)
    # The op from 0.98 s ends in a dropped block and counts for nothing;
    # the one from 1.98 s ends in a kept block and counts for throughput.
    assert len(selected.samples) == 30
    assert selected.throughput == pytest.approx(31 / 3.0)
