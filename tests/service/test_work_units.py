"""The broker's work units and its one route ladder.

Every request text is parsed, checked and routed once into a cached
work unit.  These tests pin that ``backend_of`` reports the engine that
actually serves a rewritable query under every registration and
priority state, that a growing schema re-analyzes the unit, that a
repeated text costs no parse, and that only a unit routed to a pushed
engine keeps the classification its probe compiles from.
"""

from __future__ import annotations

import itertools

import pytest

from repro.analysis import analyze
from repro.constraints.fd import FunctionalDependency
from repro.query import parser
from repro.query.parser import parse_query
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row
from repro.relational.schema import RelationSchema
from repro.service.broker import RequestBroker

R = RelationSchema("R", ["K:number", "A:number"])
FDS = (FunctionalDependency(["K"], ["A"], "R"),)
QUERY = "EXISTS k . R(k, 2)"


def _instance() -> RelationInstance:
    # One K -> A conflict: R(1, 1) vs R(1, 2); R(2, 2) is clean.
    return RelationInstance(R, [Row(R, values) for values in ([1, 1], [1, 2], [2, 2])])


@pytest.mark.parametrize(
    "mirror, prefsql, active",
    list(itertools.product([True, False], repeat=3)),
)
def test_backend_of_names_the_engine_serving_a_rewritable_query(
    mirror, prefsql, active
):
    priority = [(Row(R, [1, 1]), Row(R, [1, 2]))] if active else []
    with RequestBroker() as broker:
        broker.register(
            "db", _instance(), FDS, priority,
            sqlite_pushdown=mirror, prefsql_pushdown=prefsql,
        )
        assert broker.analyze(QUERY).plan_kind is not None  # rewritable
        result = broker.query(QUERY)
        assert broker.backend_of("db") == result.engine
        assert broker.stats()["databases"]["db"]["backend"] == result.engine


def test_prioritized_reads_without_prefsql_are_served_in_memory():
    priority = [(Row(R, [1, 1]), Row(R, [1, 2]))]
    with RequestBroker() as broker:
        broker.register("db", _instance(), FDS, priority, prefsql_pushdown=False)
        result = broker.query(QUERY)
        assert (result.engine, result.route) == ("incremental", "witness-index")
        assert broker.backend_of("db") == "incremental"


def test_schema_growth_refreshes_the_route_report():
    with RequestBroker() as broker:
        broker.register("db", _instance(), FDS)
        before = broker.analyze("EXISTS k . R(k, 1)")
        broker.insert(Row(RelationSchema("W", ["X:number"]), [7]), "db")
        after = broker.analyze("EXISTS k . R(k, 1)")
        engine = broker.engine("db")
        fresh = analyze(
            engine.schema,
            engine.dependencies,
            parse_query("EXISTS k . R(k, 1)"),
            (),
        )
        assert after.fingerprint == fresh.fingerprint
        assert after.fingerprint != before.fingerprint


def test_a_repeated_text_is_parsed_once(monkeypatch):
    calls = []
    original = parser.parse_query

    def counting(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr("repro.query.validate.parse_query", counting)
    with RequestBroker() as broker:
        broker.register("db", _instance(), FDS)
        first = broker.query(QUERY)
        broker.insert(Row(R, [3, 2]), "db")  # new state: answer-cache miss
        second = broker.query(QUERY)
        assert not second.cached
        assert (first.engine, second.engine) == ("sqlite", "sqlite")
    assert calls == [QUERY]


@pytest.mark.parametrize(
    "mirror, query",
    [(True, "FORALL k, a . R(k, a) IMPLIES a < 9"), (False, QUERY)],
    ids=["blocked-on-a-mirror", "no-mirror"],
)
def test_a_unit_served_in_memory_keeps_no_classification(mirror, query):
    with RequestBroker() as broker:
        broker.register("db", _instance(), FDS, sqlite_pushdown=mirror)
        result = broker.query(query)
        assert result.engine == "incremental"
        report = broker.analyze(query)
        assert report.classification is None
        # Dropping it changes nothing the report is compared by.
        engine = broker.engine("db")
        fresh = analyze(
            engine.schema, engine.dependencies, parse_query(query), ()
        )
        assert fresh.classification is not None
        assert report == fresh


@pytest.mark.parametrize(
    "priority",
    [(), ((Row(R, [1, 1]), Row(R, [1, 2])),)],
    ids=["unprioritized", "prioritized"],
)
def test_a_pushed_unit_keeps_its_classification(priority):
    with RequestBroker() as broker:
        broker.register("db", _instance(), FDS, priority)
        report = broker.analyze(QUERY)
        assert report.classification is not None
        target = "prefsql" if priority else "sqlite"
        assert broker.explain(QUERY).pushed
        assert broker.query(QUERY).engine == target
        assert broker.analyze(QUERY) is report
