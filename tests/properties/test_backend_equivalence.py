"""Equivalence of the SQLite-pushed backend and the in-memory engine.

For every *rewritable* query shape the ConQuer-style rewriting must
produce exactly the certain (and possible) answers the repair-streaming
:class:`CqaEngine` computes — on arbitrary instances.  The strategies
below draw small random databases over a mixed-type dirty relation
``R(K, A:number, B)`` (plus a clean companion ``S(A:number, C)``) whose
tiny domains force plenty of FD violations, and compare both engines on
each shape of the rewritable fragment:

* single atom, full answer tuple;
* existential projection (and explicit answer-variable subsets);
* constant selections on group/class columns (both domains);
* order and (in)equality comparisons, including the statically
  decidable cross-domain cases;
* joins with a consistent relation;
* closed (boolean) queries, via ``answer()`` verdicts;
* everything above for each FD variant that keeps one left-hand side
  (single FD, merged same-LHS FDs) and for every repair family (with no
  priority all families coincide with Rep — the property the pushdown
  relies on);
* C_forest shapes — *both* relations dirty, joined through ``S``'s full
  key (or not joined at all): the multi-dirty recursive certification
  must agree with repair streaming on every drawn instance.
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze
from repro.backend import SqlCqaEngine
from repro.backend.rewrite import analyze_query
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.cqa.engine import CqaEngine
from repro.query.ast import And, Atom, Comparison, Exists, Var
from repro.query.validate import check_against_schema
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.sqlite_io import save_database

R_SCHEMA = RelationSchema("R", ["K", "A:number", "B"])
S_SCHEMA = RelationSchema("S", ["A:number", "C"])
SCHEMA = DatabaseSchema([R_SCHEMA, S_SCHEMA])

FD_VARIANTS = {
    "key-like": [FunctionalDependency.parse("K -> A", "R")],
    "merged-rhs": [FunctionalDependency.parse("K -> A, B", "R")],
    "same-lhs-pair": [
        FunctionalDependency.parse("K -> A", "R"),
        FunctionalDependency.parse("K -> B", "R"),
    ],
}


def _r(*terms):
    return Atom("R", list(terms))


def _s(*terms):
    return Atom("S", list(terms))


x, y, z, c = Var("x"), Var("y"), Var("z"), Var("c")

#: (label, formula, explicit answer variables or None) — every entry
#: must be pushed down (analyze_query returns a plan, never a fallback).
REWRITABLE_SHAPES = [
    ("atom", _r(x, y, z), None),
    ("projection", Exists(["z"], _r(x, y, z)), None),
    ("variable-subset", _r(x, y, z), ("y",)),
    ("group-constant", Exists(["z"], _r("k0", y, z)), None),
    ("class-constant", Exists(["z"], _r(x, 1, z)), None),
    ("order-comparison", Exists(["z"], And([_r(x, y, z), Comparison(">=", y, 1)])), None),
    ("name-inequality", Exists(["z"], And([_r(x, y, z), Comparison("!=", x, "k0")])), None),
    ("variable-equality", Exists(["z"], And([_r(x, y, z), Comparison("=", x, z)])), None),
    ("clean-join", Exists(["z"], And([_r(x, y, z), _s(y, c)])), None),
    ("clean-join-projected", Exists(["z", "c"], And([_r(x, y, z), _s(y, c)])), None),
    ("clean-only", _s(y, c), None),
    ("cross-domain-equality", Exists(["z"], And([_r(x, y, z), Comparison("=", x, 1)])), None),
    ("cross-domain-inequality", Exists(["z"], And([_r(x, y, z), Comparison("!=", y, "k0")])), None),
    ("order-on-names", Exists(["z"], And([_r(x, y, z), Comparison("<", x, z)])), None),
    ("repeated-variable", Exists(["y"], _r(x, y, x)), None),
    # One dirty atom certified over every other atom, in shapes the
    # multi-dirty C_forest analysis would reject: a clean self-join whose
    # variable y occurs in three atoms, and a comparison between the
    # dirty atom and a clean atom it shares no variable with.
    (
        "clean-self-join",
        Exists(["z", "d"], And([_r(x, y, z), _s(y, c), _s(y, Var("d"))])),
        None,
    ),
    (
        "clean-only-comparison",
        Exists(
            ["y", "z", "w", "c"],
            And([_r(x, y, z), _s(Var("w"), c), Comparison("<", y, Var("w"))]),
        ),
        None,
    ),
]

#: Both relations dirty: R(K -> A) joins S(A -> C) through S's full key.
BOTH_DIRTY_FDS = [
    FunctionalDependency.parse("K -> A", "R"),
    FunctionalDependency.parse("A -> C", "S"),
]

#: (label, formula, explicit answer variables or None) — every entry is
#: a C_forest under BOTH_DIRTY_FDS and must compile (kind "forest").
C_FOREST_SHAPES = [
    ("key-join", Exists(["z"], And([_r(x, y, z), _s(y, c)])), None),
    (
        "key-join-projected",
        Exists(["z", "c"], And([_r(x, y, z), _s(y, c)])),
        None,
    ),
    (
        "key-join-variable-subset",
        Exists(["z"], And([_r(x, y, z), _s(y, c)])),
        ("x", "c"),
    ),
    (
        "independent-trees",
        Exists(["z"], And([_r(x, y, z), _s(1, c)])),
        None,
    ),
    (
        "key-join-child-comparison",
        Exists(
            ["z", "c"],
            And([_r(x, y, z), _s(y, c), Comparison("!=", c, "c0")]),
        ),
        None,
    ),
    (
        "key-join-root-comparison",
        Exists(["z"], And([_r(x, y, z), _s(y, c), Comparison(">=", y, 1)])),
        None,
    ),
]

C_FOREST_CLOSED_SHAPES = [
    (
        "closed-key-join",
        Exists(
            ["k", "a", "b", "cc"],
            And([_r(Var("k"), Var("a"), Var("b")), _s(Var("a"), Var("cc"))]),
        ),
    ),
    (
        "closed-independent-trees",
        Exists(
            ["k", "a", "b", "cc"],
            And([_r(Var("k"), Var("a"), Var("b")), _s(0, Var("cc"))]),
        ),
    ),
]

CLOSED_SHAPES = [
    ("exists", Exists(["k", "a", "b"], _r(Var("k"), Var("a"), Var("b")))),
    (
        "exists-selected",
        Exists(
            ["k", "a", "b"],
            And([_r(Var("k"), Var("a"), Var("b")), Comparison(">", Var("a"), 0)]),
        ),
    ),
    ("exists-ground-atom", Exists(["b"], _r("k0", 1, Var("b")))),
    (
        "exists-join",
        Exists(
            ["k", "a", "b", "cc"],
            And([_r(Var("k"), Var("a"), Var("b")), _s(Var("a"), Var("cc"))]),
        ),
    ),
]


@st.composite
def databases(draw):
    r_rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["k0", "k1", "k2"]),
                st.integers(min_value=0, max_value=2),
                st.sampled_from(["k0", "u", "v"]),
            ),
            max_size=8,
            unique=True,
        )
    )
    s_rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.sampled_from(["c0", "c1"]),
            ),
            max_size=4,
            unique=True,
        )
    )
    return Database(
        [
            RelationInstance.from_values(R_SCHEMA, r_rows),
            RelationInstance.from_values(S_SCHEMA, s_rows),
        ]
    )


def _engines(database, dependencies, family=Family.REP):
    connection = sqlite3.connect(":memory:")
    save_database(database, connection, dependencies)
    sql_engine = SqlCqaEngine(connection, dependencies, family=family)
    memory_engine = CqaEngine(database, dependencies, family=family)
    return sql_engine, memory_engine


def _predicted_route(formula, dependencies, variables=None):
    """The static analyzer's prediction of ``last_route`` (differential
    oracle: the analyzer must BE the routing logic, so its prediction is
    compared against the engine on every example)."""
    checked = check_against_schema(formula, SCHEMA)
    report = analyze(SCHEMA, dependencies, checked, variables)
    return report.expected_last_route("sqlite")


class TestShapesArePushed:
    @pytest.mark.parametrize(
        "label,formula,variables",
        REWRITABLE_SHAPES,
        ids=[shape[0] for shape in REWRITABLE_SHAPES],
    )
    def test_open_shape_compiles(self, label, formula, variables):
        for dependencies in FD_VARIANTS.values():
            checked = check_against_schema(formula, SCHEMA)
            decision = analyze_query(checked, SCHEMA, dependencies, variables)
            assert decision.pushed, decision.reason

    @pytest.mark.parametrize(
        "label,formula", CLOSED_SHAPES, ids=[shape[0] for shape in CLOSED_SHAPES]
    )
    def test_closed_shape_compiles(self, label, formula):
        for dependencies in FD_VARIANTS.values():
            decision = analyze_query(formula, SCHEMA, dependencies, ())
            assert decision.pushed, decision.reason


class TestOpenQueryEquivalence:
    @given(databases())
    @settings(max_examples=30, deadline=None)
    def test_certain_and_possible_answers_agree(self, database):
        for dependencies in FD_VARIANTS.values():
            sql_engine, memory_engine = _engines(database, dependencies)
            with sql_engine:
                for label, formula, variables in REWRITABLE_SHAPES:
                    pushed = sql_engine.certain_answers(formula, variables)
                    assert sql_engine.last_route == "sqlite", label
                    assert (
                        _predicted_route(formula, dependencies, variables)
                        == sql_engine.last_route
                    ), label
                    reference = memory_engine.certain_answers(formula, variables)
                    assert pushed.certain == reference.certain, label
                    assert pushed.possible == reference.possible, label
                    assert pushed.variables == reference.variables, label


class TestClosedQueryEquivalence:
    @given(databases())
    @settings(max_examples=30, deadline=None)
    def test_verdicts_agree(self, database):
        for dependencies in FD_VARIANTS.values():
            sql_engine, memory_engine = _engines(database, dependencies)
            with sql_engine:
                for label, formula in CLOSED_SHAPES:
                    pushed = sql_engine.answer(formula)
                    assert sql_engine.last_route == "sqlite", label
                    assert (
                        _predicted_route(formula, dependencies)
                        == sql_engine.last_route
                    ), label
                    reference = memory_engine.answer(formula)
                    assert pushed.verdict is reference.verdict, label


class TestCForestEquivalence:
    """Multi-dirty key-join forests: the recursive NOT EXISTS
    certification must be bit-identical to repair streaming."""

    @pytest.mark.parametrize(
        "label,formula,variables",
        C_FOREST_SHAPES,
        ids=[shape[0] for shape in C_FOREST_SHAPES],
    )
    def test_forest_shape_compiles(self, label, formula, variables):
        checked = check_against_schema(formula, SCHEMA)
        decision = analyze_query(checked, SCHEMA, BOTH_DIRTY_FDS, variables)
        assert decision.pushed, decision.reason
        assert decision.plan.kind == "forest", label

    @given(databases())
    @settings(max_examples=30, deadline=None)
    def test_certain_and_possible_answers_agree(self, database):
        sql_engine, memory_engine = _engines(database, BOTH_DIRTY_FDS)
        with sql_engine:
            for label, formula, variables in C_FOREST_SHAPES:
                pushed = sql_engine.certain_answers(formula, variables)
                assert sql_engine.last_route == "sqlite", label
                assert (
                    _predicted_route(formula, BOTH_DIRTY_FDS, variables)
                    == sql_engine.last_route
                ), label
                reference = memory_engine.certain_answers(formula, variables)
                assert pushed.certain == reference.certain, label
                assert pushed.possible == reference.possible, label
                assert pushed.variables == reference.variables, label

    @given(databases())
    @settings(max_examples=30, deadline=None)
    def test_closed_verdicts_agree(self, database):
        sql_engine, memory_engine = _engines(database, BOTH_DIRTY_FDS)
        with sql_engine:
            for label, formula in C_FOREST_CLOSED_SHAPES:
                pushed = sql_engine.answer(formula)
                assert sql_engine.last_route == "sqlite", label
                assert (
                    _predicted_route(formula, BOTH_DIRTY_FDS)
                    == sql_engine.last_route
                ), label
                reference = memory_engine.answer(formula)
                assert pushed.verdict is reference.verdict, label


class TestFamilyInvariance:
    """With no priority, every preferred family equals Rep — the pushed
    answers must match each family's in-memory answers."""

    @given(databases())
    @settings(max_examples=10, deadline=None)
    def test_all_families_agree_with_pushdown(self, database):
        dependencies = FD_VARIANTS["key-like"]
        formula = Exists(["z"], _r(x, y, z))
        for family in Family:
            sql_engine, memory_engine = _engines(database, dependencies, family)
            with sql_engine:
                pushed = sql_engine.certain_answers(formula)
                assert sql_engine.last_route == "sqlite"
            reference = memory_engine.certain_answers(formula)
            assert pushed.certain == reference.certain
            assert pushed.possible == reference.possible
