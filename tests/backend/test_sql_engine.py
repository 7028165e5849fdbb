"""Integration tests for :class:`SqlCqaEngine` and the session mirror."""

import sqlite3

import pytest

from repro.backend import SqlCqaEngine, SqliteMirror
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.cqa.answers import Verdict
from repro.cqa.engine import CqaEngine
from repro.datagen.paper_instances import mgr_scenario
from repro.exceptions import QueryError
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.schema import RelationSchema
from repro.relational.sqlite_io import save_database
from repro.service.broker import RequestBroker

R_SCHEMA = RelationSchema("R", ["K", "A:number", "B"])
FDS = [FunctionalDependency.parse("K -> A", "R")]

ROWS = [
    ("k1", 0, "x"),
    ("k1", 1, "x"),
    ("k2", 5, "y"),
    ("k3", 7, "w"),
]


@pytest.fixture
def db_path(tmp_path):
    path = tmp_path / "db.sqlite"
    database = Database([RelationInstance.from_values(R_SCHEMA, ROWS)])
    save_database(database, path, FDS)
    return path


@pytest.fixture
def memory_engine():
    database = Database([RelationInstance.from_values(R_SCHEMA, ROWS)])
    return CqaEngine(database, FDS)


class TestPushdown:
    def test_open_query_is_pushed_and_equivalent(self, db_path, memory_engine):
        query = "EXISTS b . R(x, y, b)"
        with SqlCqaEngine(db_path, FDS) as engine:
            pushed = engine.certain_answers(query)
            assert engine.last_route == "sqlite"
        reference = memory_engine.certain_answers(query)
        assert pushed.certain == reference.certain
        assert pushed.possible == reference.possible
        assert pushed.variables == reference.variables

    def test_closed_query_verdicts(self, db_path, memory_engine):
        cases = [
            ("EXISTS k, a, b . R(k, a, b) AND a > 6", Verdict.TRUE),
            ("EXISTS k, b . R(k, 1, b)", Verdict.UNDETERMINED),
            ("EXISTS k, b . R(k, 99, b)", Verdict.FALSE),
        ]
        with SqlCqaEngine(db_path, FDS) as engine:
            for query, expected in cases:
                assert engine.answer(query).verdict is expected
                assert engine.last_route == "sqlite"
                assert memory_engine.answer(query).verdict is expected

    def test_is_consistently_true(self, db_path):
        with SqlCqaEngine(db_path, FDS) as engine:
            assert engine.is_consistently_true("EXISTS b . R('k3', 7, b)")
            assert not engine.is_consistently_true("EXISTS b . R('k1', 0, b)")

    def test_sql_frontend(self, db_path, memory_engine):
        sql = "SELECT t.K FROM R t WHERE t.A >= 1"
        with SqlCqaEngine(db_path, FDS) as engine:
            pushed = engine.sql_certain_answers(sql)
            assert engine.last_route == "sqlite"
        assert pushed.certain == memory_engine.sql_certain_answers(sql).certain

    def test_explicit_answer_variables(self, db_path, memory_engine):
        query = "EXISTS b . R(x, y, b)"
        with SqlCqaEngine(db_path, FDS) as engine:
            pushed = engine.certain_answers(query, variables=("y",))
        assert pushed.certain == memory_engine.certain_answers(
            query, variables=("y",)
        ).certain

    def test_answer_requires_closed_formula(self, db_path):
        with SqlCqaEngine(db_path, FDS) as engine:
            with pytest.raises(QueryError):
                engine.answer("R(x, y, z)")

    def test_unknown_relation_is_loud(self, db_path):
        with SqlCqaEngine(db_path, FDS) as engine:
            with pytest.raises(QueryError):
                engine.certain_answers("EXISTS x . Nope(x)")

    def test_family_argument_honoured_without_priority(self, db_path):
        database = Database([RelationInstance.from_values(R_SCHEMA, ROWS)])
        for family in Family:
            reference = CqaEngine(database, FDS, family=family)
            with SqlCqaEngine(db_path, FDS, family=family) as engine:
                pushed = engine.certain_answers("EXISTS b . R(x, y, b)")
                assert engine.last_route == "sqlite"
            assert pushed.family is family
            assert (
                pushed.certain
                == reference.certain_answers("EXISTS b . R(x, y, b)").certain
            )

    def test_decision_cache_is_bounded(self, db_path):
        with SqlCqaEngine(db_path, FDS) as engine:
            for value in range(1100):
                assert engine.explain(f"EXISTS b . R(k, {value}, b)").pushed
            assert len(engine.decisions) == 1024

    def test_summary_reports_route(self, db_path):
        with SqlCqaEngine(db_path, FDS) as engine:
            engine.certain_answers("EXISTS b . R(x, y, b)")
            summary = engine.summary()
        assert summary["backend"] == "sqlite"
        assert summary["last_route"] == "sqlite"
        assert summary["relations"] == 1


class TestFallback:
    """The engine declines what it cannot push; the broker serves it."""

    def test_non_conjunctive_query_falls_back(self, db_path, memory_engine):
        query = "FORALL k, a, b . R(k, a, b) IMPLIES a < 10"
        with SqlCqaEngine(db_path, FDS) as engine:
            reason = engine.explain(query).reason
            with pytest.raises(QueryError, match="non-conjunctive"):
                engine.answer(query)
        database = Database([RelationInstance.from_values(R_SCHEMA, ROWS)])
        with RequestBroker() as broker:
            broker.register("db", database, FDS)
            assert broker.explain(query).reason == reason
            served = broker.query(query)
        assert served.engine == "incremental"
        assert served.outcome.verdict is memory_engine.answer(query).verdict

    def test_priority_edges_force_fallback(self, db_path):
        winner = RelationInstance.from_values(R_SCHEMA, ROWS).row("k1", 1, "x")
        loser = RelationInstance.from_values(R_SCHEMA, ROWS).row("k1", 0, "x")
        edges = [(winner, loser)]
        with SqlCqaEngine(db_path, FDS, edges, Family.GLOBAL) as engine:
            decision = engine.explain("EXISTS b . R(x, y, b)")
            assert decision.fallback_route.startswith("fallback: priority")
            with pytest.raises(QueryError, match="priority"):
                engine.certain_answers("EXISTS b . R(x, y, b)")

    def test_differing_fd_lhs_falls_back_and_matches(self, tmp_path):
        scenario = mgr_scenario(with_priority=False)
        from repro.datagen.paper_instances import mgr_dependencies

        dependencies = mgr_dependencies()
        path = tmp_path / "mgr.sqlite"
        save_database(Database([scenario.instance]), path, dependencies)
        reference = CqaEngine(scenario.instance, dependencies)
        query = "EXISTS n, d, s, r . Mgr(n, d, s, r) AND s > 30"
        with SqlCqaEngine(path, dependencies) as engine:
            assert "left-hand sides" in engine.explain(query).reason
        with RequestBroker() as broker:
            broker.register("mgr", scenario.instance, dependencies)
            route = broker.explain(query).fallback_route
            served = broker.query(query)
        assert "left-hand sides" in route
        assert served.outcome.verdict is reference.answer(query).verdict


class TestExternalTables:
    def test_engine_over_foreign_table(self, tmp_path):
        path = tmp_path / "ext.sqlite"
        with sqlite3.connect(path) as connection:
            connection.execute(
                "CREATE TABLE T (X TEXT NOT NULL, N INTEGER NOT NULL)"
            )
            connection.executemany(
                "INSERT INTO T VALUES (?, ?)", [("a", 1), ("a", 2), ("b", 3)]
            )
        fds = [FunctionalDependency.parse("X -> N", "T")]
        with SqlCqaEngine(path, fds, relation_names=["T"]) as engine:
            # every repair keeps one N-class per X-group, so each group's
            # X value is certain ...
            projected = engine.certain_answers("EXISTS n . T(x, n)")
            assert engine.last_route == "sqlite"
            # ... but only the unconflicted (X, N) pair survives intact
            full = engine.certain_answers("T(x, n)", variables=("x", "n"))
        assert projected.certain == frozenset({("a",), ("b",)})
        assert full.certain == frozenset({("b", 3)})
        assert full.possible == frozenset({("a", 1), ("a", 2), ("b", 3)})


class TestSqliteMirror:
    def _database(self, rows):
        return Database([RelationInstance.from_values(R_SCHEMA, rows)])

    def test_refresh_cycle(self):
        with SqliteMirror(FDS) as mirror:
            engine = mirror.engine_for(self._database(ROWS))
            before = engine.certain_answers("EXISTS b . R(x, y, b)")
            assert ("k3", 7) in before.certain

            grown = ROWS + [("k3", 8, "w2")]
            # without mark_dirty the mirror serves the stale snapshot
            stale = mirror.engine_for(self._database(grown))
            assert ("k3", 7) in stale.certain_answers(
                "EXISTS b . R(x, y, b)"
            ).certain

            mirror.mark_dirty()
            fresh = mirror.engine_for(self._database(grown))
            after = fresh.certain_answers("EXISTS b . R(x, y, b)")
            assert ("k3", 7) not in after.certain  # k3 now has two classes

    def test_relation_removal_syncs(self):
        with SqliteMirror(FDS) as mirror:
            other = RelationSchema("S", ["A:number", "C"])
            both = Database(
                [
                    RelationInstance.from_values(R_SCHEMA, ROWS),
                    RelationInstance.from_values(other, [(1, "c")]),
                ]
            )
            mirror.engine_for(both)
            mirror.mark_dirty()
            engine = mirror.engine_for(self._database(ROWS))
            assert tuple(engine.schema.relation_names) == ("R",)
