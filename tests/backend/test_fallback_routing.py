"""Routing coverage: every documented un-rewritable shape falls back.

ROADMAP records the query shapes the SQLite pushdown cannot rewrite:
disjunction, negation, universal quantification, implication, self-joins
of a dirty relation, non-key joins of two dirty relations (key-join
forests push since the C_forest compilation), relations whose FDs
have differing left-hand sides, unsafe (active-domain) variables, pure
active-domain queries, shadowed quantifiers, and any declared priority.
Each gets a test asserting (a) the engine's ``explain()`` reports no
plan with the right reason, (b) the broker's ``explain()`` reports the
same fallback route, and (c) the broker serves the query in memory with
the answers of an independent in-memory engine.  The pushed engine
itself declines: ``answer()`` on such a shape raises.
"""

import sqlite3

import pytest

from repro.backend import SqlCqaEngine
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.cqa.engine import CqaEngine
from repro.exceptions import QueryError
from repro.query.ast import (
    And,
    Atom,
    Comparison,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    Var,
)
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.schema import RelationSchema
from repro.relational.sqlite_io import save_database
from repro.service.broker import RequestBroker

R_SCHEMA = RelationSchema("R", ["K", "A:number", "B"])
S_SCHEMA = RelationSchema("S", ["A:number", "C"])
FDS = [FunctionalDependency.parse("K -> A", "R")]
#: Both relations dirty: joins between them cannot be rewritten.
BOTH_DIRTY_FDS = FDS + [FunctionalDependency.parse("A -> C", "S")]
#: R constrained by FDs whose left-hand sides differ.
MULTI_LHS_FDS = [
    FunctionalDependency.parse("K -> A", "R"),
    FunctionalDependency.parse("B -> A", "R"),
]

R_ROWS = [("k1", 0, "u"), ("k1", 1, "u"), ("k2", 5, "v"), ("k3", 7, "w")]
S_ROWS = [(0, "c0"), (1, "c1"), (5, "c0")]

k, a, b, v, w = Var("k"), Var("a"), Var("b"), Var("v"), Var("w")


def _database():
    return Database(
        [
            RelationInstance.from_values(R_SCHEMA, R_ROWS),
            RelationInstance.from_values(S_SCHEMA, S_ROWS),
        ]
    )


@pytest.fixture
def database():
    return _database()


def _engine(dependencies, priority=()):
    connection = sqlite3.connect(":memory:")
    save_database(_database(), connection, dependencies)
    return SqlCqaEngine(connection, dependencies, priority)


def _broker(dependencies, priority=()):
    """The instance served with the SQLite mirror on, prefsql off."""
    broker = RequestBroker()
    broker.register(
        "db", _database(), dependencies, priority, prefsql_pushdown=False
    )
    return broker


#: (shape id, query, FDs, phrase the recorded reason must contain).
UNREWRITABLE_SHAPES = [
    (
        "disjunction",
        Exists(["k", "a", "b"], Or([Atom("R", [k, a, b]), Atom("R", [k, a, b])])),
        FDS,
        "non-conjunctive construct Or",
    ),
    (
        "negation",
        Exists(["k", "a", "b"], And([Atom("R", [k, a, b]), Not(Atom("S", [a, "c0"]))])),
        FDS,
        "non-conjunctive construct Not",
    ),
    (
        "universal-quantification",
        Forall(["k", "a", "b"], Implies(Atom("R", [k, a, b]), Comparison("<", a, 9))),
        FDS,
        "non-conjunctive construct Forall",
    ),
    (
        "implication",
        Implies(Exists(["b"], Atom("R", ["k1", 0, b])), Exists(["b"], Atom("R", ["k2", 5, b]))),
        FDS,
        "non-conjunctive construct Implies",
    ),
    (
        "dirty-self-join",
        Exists(
            ["k", "a", "b", "a2", "b2"],
            And([Atom("R", [k, a, b]), Atom("R", [k, Var("a2"), Var("b2")])]),
        ),
        FDS,
        "more than one atom over inconsistent relation(s) ['R']",
    ),
    (
        # A key join of two dirty relations is C_forest and pushes; the
        # fallback shape is the join through S's NON-key column C.
        "two-dirty-non-key-join",
        Exists(
            ["k", "a", "b", "c"],
            And([Atom("R", [k, a, b]), Atom("S", [Var("c"), b])]),
        ),
        BOTH_DIRTY_FDS,
        "more than one atom over inconsistent relation(s) ['R', 'S']",
    ),
    (
        "differing-fd-lhs",
        Exists(["k", "a", "b"], Atom("R", [k, a, b])),
        MULTI_LHS_FDS,
        "differing left-hand sides",
    ),
    (
        "unsafe-variable",
        Exists(["k", "a", "b", "u"], And([Atom("R", [k, a, b]), Comparison("=", Var("u"), Var("u"))])),
        FDS,
        "unsafe variable(s) ['u']",
    ),
    (
        "pure-active-domain",
        Exists(["u"], Comparison("=", Var("u"), Var("u"))),
        FDS,
        "no relational atom",
    ),
    (
        "shadowed-quantifier",
        Exists(["k"], Exists(["k", "a", "b"], Atom("R", [k, a, b]))),
        FDS,
        "shadows an outer variable",
    ),
]


class TestDocumentedFallbackShapes:
    @pytest.mark.parametrize(
        "label,query,dependencies,phrase",
        UNREWRITABLE_SHAPES,
        ids=[shape[0] for shape in UNREWRITABLE_SHAPES],
    )
    def test_shape_records_reason_and_matches_memory(
        self, label, query, dependencies, phrase, database
    ):
        with _engine(dependencies) as engine:
            decision = engine.explain(query)
        assert decision.plan is None, label
        assert phrase in decision.reason, (label, decision.reason)
        with _broker(dependencies) as broker:
            served = broker.explain(query)
            assert served.fallback_route == decision.fallback_route, label
            result = broker.query(query)
        assert result.engine == "incremental", label
        reference = CqaEngine(database, dependencies)
        assert result.outcome.verdict is reference.answer(query).verdict, label

    @pytest.mark.parametrize(
        "label,query,dependencies,phrase",
        UNREWRITABLE_SHAPES,
        ids=[shape[0] for shape in UNREWRITABLE_SHAPES],
    )
    def test_open_variant_also_falls_back(
        self, label, query, dependencies, phrase, database
    ):
        # Strip one leading EXISTS variable (when present) to get an
        # open query of the same shape; the routing must be identical.
        if not isinstance(query, Exists):
            pytest.skip("shape has no existential prefix to open")
        if label == "shadowed-quantifier":
            pytest.skip("opening the outer block removes the shadow")
        rest = query.variables[1:]
        opened = Exists(rest, query.body) if rest else query.body
        with _broker(dependencies) as broker:
            route = broker.explain(opened).fallback_route
            assert route.startswith("fallback:"), label
            assert phrase in route, (label, route)
            result = broker.query(opened).outcome
        reference = CqaEngine(database, dependencies).certain_answers(opened)
        assert result.certain == reference.certain, label
        assert result.possible == reference.possible, label

    @pytest.mark.parametrize(
        "label,query,dependencies,phrase",
        UNREWRITABLE_SHAPES,
        ids=[shape[0] for shape in UNREWRITABLE_SHAPES],
    )
    def test_pushed_engine_raises_with_the_reason(
        self, label, query, dependencies, phrase
    ):
        with _engine(dependencies) as engine:
            reason = engine.explain(query).reason
            with pytest.raises(QueryError) as raised:
                engine.answer(query)
            assert str(raised.value) == reason, label
            assert engine.last_route is None, label


class TestPriorityFallback:
    def test_declared_priority_forces_fallback(self, database):
        winner = RelationInstance.from_values(R_SCHEMA, R_ROWS).row("k1", 1, "u")
        loser = RelationInstance.from_values(R_SCHEMA, R_ROWS).row("k1", 0, "u")
        query = Exists(["b"], Atom("R", [k, a, b]))
        with _engine(FDS, [(winner, loser)]) as engine:
            decision = engine.explain(query)
            assert decision.plan is None
            assert "preference-blind" in decision.reason
            with pytest.raises(QueryError, match="preference-blind"):
                engine.certain_answers(query)
        # With prefsql off, a prioritized read never reaches the mirror.
        with _broker(FDS, [(winner, loser)]) as broker:
            assert broker.explain(query) is None
            served = broker.query(query)
        assert served.engine == "incremental"
        reference = CqaEngine(database, FDS, [(winner, loser)]).certain_answers(query)
        assert served.outcome.certain == reference.certain
        assert served.outcome.possible == reference.possible

    def test_no_priority_same_query_is_pushed(self):
        query = Exists(["b"], Atom("R", [k, a, b]))
        with _engine(FDS) as engine:
            engine.certain_answers(query)
            assert engine.last_route == "sqlite"


class TestFallbackRouteBookkeeping:
    def test_route_flips_between_calls(self):
        pushed_query = Exists(["b"], Atom("R", [k, a, b]))
        fallback_query = Exists(
            ["k", "a", "b"], Or([Atom("R", [k, a, b]), Atom("R", [k, a, b])])
        )
        with _broker(FDS) as broker:
            assert broker.query(pushed_query).engine == "sqlite"
            assert broker.query(fallback_query).engine == "incremental"
            assert broker.query(pushed_query).engine == "sqlite"

    def test_fallback_results_carry_indexed_route(self):
        fallback_query = Exists(
            ["k", "a", "b"], Or([Atom("R", [k, a, b]), Atom("R", [k, a, b])])
        )
        with _broker(FDS) as broker:
            answer = broker.query(fallback_query).outcome
        assert answer.route == "indexed"  # in-memory engine, indexed path
