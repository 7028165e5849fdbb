"""Instrumentation tests: the shared helpers, cache counters, and the
differential guarantee that tracing/metrics never change answers."""

from __future__ import annotations

import sqlite3

import pytest

from repro.backend import SqlCqaEngine
from repro.cache import tally
from repro.constraints.conflict_graph import build_conflict_graph
from repro.constraints.denial import fd_as_denial
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.cqa.engine import CqaEngine
from repro.cqa.hypergraph_cqa import DenialCqaEngine
from repro.incremental import IncrementalCqaEngine
from repro.obs import (
    REGISTRY,
    MetricsRegistry,
    observe_broker,
    observe_fallback,
    observe_query,
    trace,
)
from repro.prefsql import PrefSqlCqaEngine
from repro.priorities.builders import priority_from_ranking
from repro.query.evaluator import ContextCache
from repro.query.parser import parse_query
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.schema import RelationSchema
from repro.relational.sqlite_io import save_database
from repro.service.broker import AdmissionController

SCHEMA = RelationSchema("Mgr", ["Name", "Dept", "Salary:number"])
ROWS = [("Mary", "RD", 40), ("Mary", "IT", 20), ("John", "RD", 10)]
FDS = [FunctionalDependency.parse("Name -> Dept, Salary", "Mgr")]
CLOSED = "EXISTS d, s . Mgr(Mary, d, s) AND s > 30"
OPEN = "EXISTS d . Mgr(x, d, s)"

ALL_FAMILIES = [
    Family.REP,
    Family.LOCAL,
    Family.SEMI_GLOBAL,
    Family.GLOBAL,
    Family.COMMON,
]


def _instance() -> RelationInstance:
    return RelationInstance.from_values(SCHEMA, ROWS)


def _priority(instance: RelationInstance):
    graph = build_conflict_graph(instance, FDS)
    return priority_from_ranking(graph, lambda row: row["Salary"])


def _run_untraced(build):
    """Execute with metrics disabled and no tracer installed."""
    REGISTRY.enabled = False
    try:
        return build()
    finally:
        REGISTRY.enabled = True


def _run_traced(build):
    """Execute with metrics enabled inside an active trace."""
    with trace() as tracer:
        result = build()
    assert tracer.root.children, "instrumented run recorded no spans"
    return result


class TestObserveQuery:
    def test_records_route_counter_and_latency(self):
        registry = MetricsRegistry()
        observe_query("sql", "sqlite", "Rep", 0.01, registry=registry)
        snapshot = registry.snapshot()
        assert snapshot["repro_queries_total"]["values"] == {
            "sql,sqlite,Rep": 1.0
        }
        assert snapshot["repro_query_seconds"]["values"]["sqlite"]["count"] == 1
        assert "repro_fallbacks_total" not in snapshot

    def test_fallback_reason_split_off_route_label(self):
        registry = MetricsRegistry()
        observe_fallback("query not rewritable", registry=registry)
        observe_query("incremental", "indexed", "G-Rep", 0.2, registry=registry)
        snapshot = registry.snapshot()
        assert snapshot["repro_queries_total"]["values"] == {
            "incremental,indexed,G-Rep": 1.0
        }
        assert snapshot["repro_fallbacks_total"]["values"] == {
            "query not rewritable": 1.0
        }

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        observe_query("cqa", "indexed", "Rep", 0.1, registry=registry)
        observe_broker(
            {"answer": {"entries": 1, "hits": 1, "misses": 0, "evictions": 0}},
            AdmissionController().stats(),
            registry=registry,
        )
        assert registry.snapshot() == {}


class TestCacheCounters:
    def test_context_cache_counts_and_mirrors_to_registry(self):
        instance = _instance()
        rows = sorted(instance.rows, key=repr)
        cache = ContextCache(max_entries=1)
        first, second = frozenset(rows[:1]), frozenset(rows[1:2])
        cache.context_for(first)   # miss
        cache.context_for(first)   # hit
        cache.context_for(second)  # miss + eviction of `first`
        assert cache.stats() == {
            "entries": 1, "hits": 1, "misses": 2, "evictions": 1,
        }
        observe_broker(tally([cache]), AdmissionController().stats())
        events = REGISTRY.snapshot()["repro_cache_events_total"]["values"]
        assert events["context,miss"] == 2.0
        assert events["context,hit"] == 1.0
        assert events["context,eviction"] == 1.0

    def test_incremental_engine_repair_cache_counts(self):
        instance = _instance()
        engine = IncrementalCqaEngine(
            instance, FDS, _priority(instance).edges, Family.GLOBAL
        )
        engine.answer(CLOSED)
        engine.answer(CLOSED)
        stats = engine.summary()["cache"]["component_repair"]
        assert set(stats) >= {"hits", "misses", "evictions"}
        assert stats["misses"] > 0
        observe_broker(tally(engine.caches()), AdmissionController().stats())
        events = REGISTRY.snapshot()["repro_cache_events_total"]["values"]
        assert events.get("component_repair,miss", 0) > 0


class TestQueryMetrics:
    def test_engine_answer_lands_in_route_counter(self):
        instance = _instance()
        engine = CqaEngine(instance, FDS, _priority(instance), Family.GLOBAL)
        engine.answer(CLOSED)
        values = REGISTRY.snapshot()["repro_queries_total"]["values"]
        assert any(key.startswith("cqa,") for key in values)
        latency = REGISTRY.snapshot()["repro_query_seconds"]["values"]
        assert sum(entry["count"] for entry in latency.values()) == 1


class TestDifferential:
    """Traced + metered runs must return bit-identical answers."""

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=str)
    def test_in_memory_engine_all_families(self, family):
        def run():
            instance = _instance()
            engine = CqaEngine(instance, FDS, _priority(instance), family)
            return (
                engine.answer(CLOSED),
                engine.certain_answers(parse_query(OPEN)),
            )

        untraced_closed, untraced_open = _run_untraced(run)
        traced_closed, traced_open = _run_traced(run)
        assert traced_closed == untraced_closed
        assert traced_open.certain == untraced_open.certain
        assert traced_open.possible == untraced_open.possible

    def test_incremental_engine(self):
        def run():
            instance = _instance()
            engine = IncrementalCqaEngine(
                instance, FDS, _priority(instance).edges, Family.GLOBAL
            )
            return engine.answer(CLOSED), engine.certain_answers(
                parse_query(OPEN)
            )

        untraced_closed, untraced_open = _run_untraced(run)
        traced_closed, traced_open = _run_traced(run)
        assert traced_closed == untraced_closed
        assert traced_open.certain == untraced_open.certain
        assert traced_open.possible == untraced_open.possible

    def test_sql_engine(self):
        def run():
            connection = sqlite3.connect(":memory:")
            save_database(Database.single(_instance()), connection, FDS)
            with SqlCqaEngine(connection, FDS) as engine:
                return (
                    engine.answer(CLOSED),
                    engine.certain_answers(parse_query(OPEN)),
                )

        untraced_closed, untraced_open = _run_untraced(run)
        traced_closed, traced_open = _run_traced(run)
        assert traced_closed == untraced_closed
        assert traced_open.certain == untraced_open.certain
        assert traced_open.possible == untraced_open.possible

    def test_prefsql_engine(self):
        def run():
            instance = _instance()
            connection = sqlite3.connect(":memory:")
            save_database(Database.single(instance), connection, FDS)
            edges = _priority(instance).dominance_rows()
            with PrefSqlCqaEngine(
                connection, FDS, edges, Family.GLOBAL
            ) as engine:
                return engine.answer(CLOSED)

        assert _run_traced(run) == _run_untraced(run)

    def test_denial_engine(self):
        def run():
            denials = [fd_as_denial(fd, SCHEMA) for fd in FDS]
            engine = DenialCqaEngine(_instance(), denials)
            return engine.answer(CLOSED)

        assert _run_traced(run) == _run_untraced(run)
