"""Differential fuzz harness: naive vs indexed vs SQLite evaluation.

The indexing layer and the conjunct-ordering planner change the cost of
query evaluation, never its answers — and the SQLite backend computes
certain answers by a completely independent rewriting.  This harness
pins all three routes to the same results on hypothesis-generated
databases, functional dependencies, queries, and repair families:

* **naive** — ``CqaEngine(..., naive=True)``: scan-based candidate
  narrowing, no indexes, no planner (the reference semantics);
* **indexed** — the default engine: per-(relation, column) hash
  indexes probed in the planner's selectivity order, contexts shared
  across repairs;
* **served** — a :class:`~repro.service.broker.RequestBroker` with the
  SQLite mirror on: rewritable shapes run as one pushed-down SQL query,
  everything else exercises the broker's fallback (its incremental
  engine, independent of ``CqaEngine``).

Queries cover the rewritable fragment *and* the shapes outside it
(disjunction, negation, universal quantification, dirty self-joins),
so both the pushdown and the fallback are differentially checked.
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import SqlCqaEngine
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.cqa.engine import CqaEngine
from repro.priorities.builders import priority_from_ranking
from repro.query.ast import And, Atom, Comparison, Exists, Forall, Implies, Not, Or, Var
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.rows import sorted_rows
from repro.relational.schema import RelationSchema
from repro.relational.sqlite_io import save_database
from repro.service.broker import RequestBroker

R_SCHEMA = RelationSchema("R", ["K", "A:number", "B"])
S_SCHEMA = RelationSchema("S", ["A:number", "C"])

FD_VARIANTS = {
    "key-like": [FunctionalDependency.parse("K -> A", "R")],
    "merged-rhs": [FunctionalDependency.parse("K -> A, B", "R")],
    "multi-lhs": [
        FunctionalDependency.parse("K -> A", "R"),
        FunctionalDependency.parse("B -> A", "R"),
    ],
}


def _r(*terms):
    return Atom("R", list(terms))


def _s(*terms):
    return Atom("S", list(terms))


x, y, z, c = Var("x"), Var("y"), Var("z"), Var("c")

#: Open query pool: rewritable shapes and deliberately un-rewritable
#: ones (the SQLite engine must fall back and still agree).
OPEN_QUERIES = [
    ("atom", _r(x, y, z)),
    ("projection", Exists(["z"], _r(x, y, z))),
    ("selection", Exists(["z"], And([_r(x, y, z), Comparison(">=", y, 1)]))),
    ("mixed-order", Exists(["z"], And([_r(x, y, z), Comparison("<", x, 1)]))),
    ("clean-join", Exists(["z"], And([_r(x, y, z), _s(y, c)]))),
    ("disjunction", Exists(["z"], Or([_r(x, y, z), _r(x, y, z)]))),
    (
        "negation",
        Exists(["z"], And([_r(x, y, z), Not(_s(y, "c0"))])),
    ),
    (
        "dirty-self-join",
        Exists(
            ["z", "y2", "z2"],
            And([_r(x, y, z), _r(x, Var("y2"), Var("z2"))]),
        ),
    ),
]

CLOSED_QUERIES = [
    ("exists", Exists(["k", "a", "b"], _r(Var("k"), Var("a"), Var("b")))),
    (
        "exists-selected",
        Exists(
            ["k", "a", "b"],
            And([_r(Var("k"), Var("a"), Var("b")), Comparison(">", Var("a"), 0)]),
        ),
    ),
    (
        "forall",
        Forall(
            ["k", "a", "b"],
            Implies(_r(Var("k"), Var("a"), Var("b")), Comparison("<", Var("a"), 2)),
        ),
    ),
    (
        "negated-ground",
        Not(Exists(["b"], _r("k0", 2, Var("b")))),
    ),
    (
        "join-closed",
        Exists(
            ["k", "a", "b", "cc"],
            And([_r(Var("k"), Var("a"), Var("b")), _s(Var("a"), Var("cc"))]),
        ),
    ),
]

ALL_FAMILIES = list(Family)


@st.composite
def databases(draw):
    r_rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["k0", "k1", "k2"]),
                st.integers(min_value=0, max_value=2),
                st.sampled_from(["k0", "u", "v"]),
            ),
            max_size=7,
            unique=True,
        )
    )
    s_rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.sampled_from(["c0", "c1"]),
            ),
            max_size=3,
            unique=True,
        )
    )
    return Database(
        [
            RelationInstance.from_values(R_SCHEMA, r_rows),
            RelationInstance.from_values(S_SCHEMA, s_rows),
        ]
    )


def _sqlite_engine(database, dependencies, family=Family.REP):
    connection = sqlite3.connect(":memory:")
    save_database(database, connection, dependencies)
    return SqlCqaEngine(connection, dependencies, family=family)


def _served(database, dependencies, priority=(), family=Family.REP):
    """The database registered on a broker with the SQLite mirror on
    and prefsql off: prioritized reads stay in memory."""
    broker = RequestBroker()
    broker.register(
        "db", database, dependencies, priority, family,
        prefsql_pushdown=False,
    )
    return broker


class TestOpenQueriesAgreeAcrossRoutes:
    @pytest.mark.parametrize("variant", sorted(FD_VARIANTS), ids=str)
    @given(databases())
    @settings(max_examples=20, deadline=None)
    def test_all_three_routes_agree(self, variant, database):
        dependencies = FD_VARIANTS[variant]
        naive = CqaEngine(database, dependencies, naive=True)
        indexed = CqaEngine(database, dependencies)
        with _served(database, dependencies) as broker:
            for label, formula in OPEN_QUERIES:
                reference = naive.certain_answers(formula)
                fast = indexed.certain_answers(formula)
                assert reference.route == "naive" and fast.route == "indexed"
                assert fast.certain == reference.certain, (label, variant)
                assert fast.possible == reference.possible, (label, variant)
                assert fast.variables == reference.variables, (label, variant)
                served = broker.query(formula)
                sql_result = served.outcome
                assert sql_result.certain == reference.certain, (
                    label,
                    variant,
                    served.route,
                )
                assert sql_result.possible == reference.possible, (
                    label,
                    variant,
                    served.route,
                )
                if served.engine == "sqlite":
                    assert sql_result.route == "sqlite", label


class TestClosedQueriesAgreeAcrossRoutes:
    @pytest.mark.parametrize("variant", sorted(FD_VARIANTS), ids=str)
    @given(databases())
    @settings(max_examples=20, deadline=None)
    def test_verdicts_agree(self, variant, database):
        dependencies = FD_VARIANTS[variant]
        naive = CqaEngine(database, dependencies, naive=True)
        indexed = CqaEngine(database, dependencies)
        with _served(database, dependencies) as broker:
            for label, formula in CLOSED_QUERIES:
                reference = naive.answer(formula)
                fast = indexed.answer(formula)
                assert fast.verdict is reference.verdict, (label, variant)
                assert fast.repairs_considered == reference.repairs_considered
                assert fast.satisfying == reference.satisfying, (label, variant)
                served = broker.query(formula)
                assert served.outcome.verdict is reference.verdict, (
                    label, variant, served.route,
                )


class TestAllRepairFamiliesAgree:
    """Per-family agreement, including under a declared priority.

    With a priority the preference-blind SQLite engine declines, and a
    broker with prefsql off serves the query in memory — the assertion
    still pins all three code paths together, now with the
    preferred-family filters active.
    """

    @given(databases())
    @settings(max_examples=8, deadline=None)
    def test_families_without_priority(self, database):
        dependencies = FD_VARIANTS["key-like"]
        query = Exists(["z"], _r(x, y, z))
        for family in ALL_FAMILIES:
            naive = CqaEngine(database, dependencies, family=family, naive=True)
            indexed = CqaEngine(database, dependencies, family=family)
            reference = naive.certain_answers(query)
            fast = indexed.certain_answers(query)
            assert fast.certain == reference.certain, family
            assert fast.possible == reference.possible, family
            with _sqlite_engine(database, dependencies, family) as pushed:
                sql_result = pushed.certain_answers(query)
            assert sql_result.certain == reference.certain, family
            assert sql_result.possible == reference.possible, family

    @given(databases())
    @settings(max_examples=8, deadline=None)
    def test_families_with_priority(self, database):
        dependencies = FD_VARIANTS["key-like"]
        query = Exists(["z"], _r(x, y, z))
        closed = Exists(["k", "b"], _r(Var("k"), 1, Var("b")))
        for family in ALL_FAMILIES:
            graph_probe = CqaEngine(database, dependencies)
            position = {
                row: index
                for index, row in enumerate(
                    sorted_rows(graph_probe.graph.vertices)
                )
            }
            priority = priority_from_ranking(
                graph_probe.graph, lambda row: -position[row]
            )
            edges = list(priority.edges)
            naive = CqaEngine(database, dependencies, edges, family, naive=True)
            indexed = CqaEngine(database, dependencies, edges, family)
            reference = naive.certain_answers(query)
            fast = indexed.certain_answers(query)
            assert fast.certain == reference.certain, family
            assert fast.possible == reference.possible, family
            assert naive.answer(closed).verdict is indexed.answer(closed).verdict
            if edges:
                with _sqlite_engine(database, dependencies, family) as pushed:
                    pushed.priority_edges = tuple(edges)
                    decision = pushed.explain(query)
                assert decision.fallback_route.startswith("fallback: priority")
                with _served(database, dependencies, edges, family) as broker:
                    sql_result = broker.query(query).outcome
                assert sql_result.certain == reference.certain, family
                assert sql_result.possible == reference.possible, family
