"""Fallback-reason regressions: every shape prefsql still rejects.

The engine must decline — with a stable, human-readable reason — exactly
the shapes outside the pushdown fragment, and the broker that serves
them in memory instead must agree with the in-memory engine bit-for-bit.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.cqa.engine import CqaEngine
from repro.exceptions import QueryError
from repro.prefsql import PrefSqlCqaEngine
from repro.query.ast import And, Atom, Exists, Forall, Implies, Not, Or, Var
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row
from repro.relational.schema import RelationSchema
from repro.relational.sqlite_io import save_database
from repro.service.broker import RequestBroker

R_SCHEMA = RelationSchema("R", ["K", "A:number", "B"])
MIXED_SCHEMA = RelationSchema(
    "M", ["A:number", "B:number", "C:number", "D:number"]
)
FDS = [
    FunctionalDependency.parse("K -> A", "R"),
    FunctionalDependency.parse("A -> B", "M"),
    FunctionalDependency.parse("C -> D", "M"),
]

R_ROWS = [("k0", 0, "x"), ("k0", 1, "y"), ("k1", 5, "w")]
M_ROWS = [(0, 0, 5, 1), (0, 1, 6, 2)]

x, y, z = Var("x"), Var("y"), Var("z")
k, a, b = Var("k"), Var("a"), Var("b")


def _row(*values) -> Row:
    return Row(R_SCHEMA, values)


PRIORITY = [(_row("k0", 1, "y"), _row("k0", 0, "x"))]


def _database() -> Database:
    return Database(
        [
            RelationInstance.from_values(R_SCHEMA, R_ROWS),
            RelationInstance.from_values(MIXED_SCHEMA, M_ROWS),
        ]
    )


@pytest.fixture
def engine():
    connection = sqlite3.connect(":memory:")
    save_database(_database(), connection, FDS)
    with PrefSqlCqaEngine(connection, FDS, PRIORITY) as built:
        yield built


#: (label, formula, phrase expected in the fallback reason).
REJECTED_SHAPES = [
    (
        "disjunction",
        Exists(["k", "a", "b"], Or([Atom("R", [k, a, b]), Atom("R", [k, a, b])])),
        "non-conjunctive",
    ),
    (
        "negation",
        Exists(["k", "a", "b"], Not(Atom("R", [k, a, b]))),
        "non-conjunctive",
    ),
    (
        "universal",
        Forall(["k", "a", "b"], Implies(Atom("R", [k, a, b]), Atom("R", [k, a, b]))),
        "non-conjunctive",
    ),
    (
        "dirty-self-join",
        Exists(
            ["k", "a", "b", "a2", "b2"],
            And([Atom("R", [k, a, b]), Atom("R", [k, Var("a2"), Var("b2")])]),
        ),
        "more than one atom",
    ),
    (
        "mixed-lhs-relation",
        Exists(["x", "y", "z", "w"], Atom("M", [x, y, z, Var("w")])),
        "differing left-hand sides",
    ),
]


class TestRejectedShapes:
    @pytest.mark.parametrize(
        "label,formula,phrase",
        REJECTED_SHAPES,
        ids=[shape[0] for shape in REJECTED_SHAPES],
    )
    def test_reason_and_fallback_parity(self, engine, label, formula, phrase):
        decision = engine.explain(formula)
        assert not decision.pushed, label
        assert phrase in decision.reason, (label, decision.reason)
        with pytest.raises(QueryError) as raised:
            engine.answer(formula, Family.COMMON)
        assert str(raised.value) == decision.reason, label
        with RequestBroker() as broker:
            broker.register("db", _database(), FDS, PRIORITY)
            assert broker.explain(formula, Family.COMMON).reason == (
                decision.reason
            ), label
            served = broker.query(formula, Family.COMMON)
        assert served.engine == "incremental", label
        reference = CqaEngine(_database(), FDS, PRIORITY).answer(
            formula, Family.COMMON
        )
        assert served.outcome.verdict is reference.verdict, label


class TestDuplicateRows:
    def test_prioritized_relation_with_duplicates_falls_back(self):
        """Duplicate physical rows make rowid-bound edges ambiguous, so
        a file-backed source with them is declined (RA303).  A served
        mirror is saved from a set of rows and never has them."""
        connection = sqlite3.connect(":memory:")
        save_database(_database(), connection, FDS)
        connection.execute("INSERT INTO R VALUES ('k0', 0, 'x')")
        engine = PrefSqlCqaEngine(connection, FDS, PRIORITY)
        query = Exists(["z"], Atom("R", [x, y, z]))
        decision = engine.explain(query)
        assert not decision.pushed
        assert "duplicate rows" in decision.reason
        assert decision.diagnostics[0].code == "RA303"
        with pytest.raises(QueryError, match="duplicate rows"):
            engine.certain_answers(query, family=Family.COMMON)


class TestPriorityOnMixedLhsRelation:
    def test_queries_elsewhere_still_push(self):
        """A priority on an un-rewritable relation must not poison
        queries that never mention it."""
        winner = Row(MIXED_SCHEMA, (0, 0, 5, 1))
        loser = Row(MIXED_SCHEMA, (0, 1, 6, 2))
        connection = sqlite3.connect(":memory:")
        save_database(_database(), connection, FDS)
        engine = PrefSqlCqaEngine(connection, FDS, [(winner, loser)])
        query = Exists(["z"], Atom("R", [x, y, z]))
        decision = engine.explain(query)
        assert decision.pushed
        assert decision.route == "sqlite"  # R itself carries no edges
        result = engine.certain_answers(query, family=Family.COMMON)
        reference = CqaEngine(
            _database(), FDS, [(winner, loser)]
        ).certain_answers(query, family=Family.COMMON)
        assert result.certain == reference.certain
        assert result.possible == reference.possible
