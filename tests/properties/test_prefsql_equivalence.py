"""Equivalence of the preference-aware pushdown and the in-memory engine.

For every rewritable query shape, every FD variant with one left-hand
side, every repair family, and *arbitrary acyclic priorities* —
partial and total — :class:`PrefSqlCqaEngine` must produce exactly the
certain and possible answers the repair-streaming
:class:`~repro.cqa.engine.CqaEngine` computes.  This is the
preference-aware extension of ``test_backend_equivalence``: instances
draw from tiny domains to force FD violations, and the priority
strategy orients a random subset of the actual conflict edges along a
random vertex permutation (which guarantees acyclicity by
construction, including through composed chains).
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze
from repro.constraints.conflict_graph import build_conflict_graph
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.cqa.engine import CqaEngine
from repro.prefsql import PrefSqlCqaEngine
from repro.query.ast import And, Atom, Comparison, Exists, Var
from repro.query.validate import check_against_schema
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.rows import sorted_rows
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

x, y, z, c = Var("x"), Var("y"), Var("z"), Var("c")

#: Rewritable shapes exercised against every family and priority.
SHAPES = [
    ("atom", Atom("R", [x, y, z])),
    ("projection", Exists(["z"], Atom("R", [x, y, z]))),
    ("group-constant", Exists(["z"], Atom("R", ["k0", y, z]))),
    (
        "order-comparison",
        Exists(["z"], And([Atom("R", [x, y, z]), Comparison(">=", y, 1)])),
    ),
    ("clean-join", Exists(["z"], And([Atom("R", [x, y, z]), Atom("S", [y, c])]))),
    ("closed", Exists(["k", "a", "b"], Atom("R", [Var("k"), Var("a"), Var("b")]))),
    # One dirty atom certified over every other atom, in shapes the
    # multi-dirty C_forest analysis would reject: a clean self-join whose
    # variable y occurs in three atoms, and a comparison between the
    # dirty atom and a clean atom it shares no variable with.
    (
        "clean-self-join",
        Exists(
            ["z", "d"],
            And([Atom("R", [x, y, z]), Atom("S", [y, c]), Atom("S", [y, Var("d")])]),
        ),
    ),
    (
        "clean-only-comparison",
        Exists(
            ["y", "z", "w", "c"],
            And(
                [
                    Atom("R", [x, y, z]),
                    Atom("S", [Var("w"), c]),
                    Comparison("<", y, Var("w")),
                ]
            ),
        ),
    ),
]


#: Both relations dirty: R(K -> A) joins S(A -> C) through S's full key.
BOTH_DIRTY_FDS = [
    FunctionalDependency.parse("K -> A", "R"),
    FunctionalDependency.parse("A -> C", "S"),
]

#: C_forest shapes under BOTH_DIRTY_FDS: the multi-dirty recursive
#: certification runs over each dirty atom's class-survivor table.
C_FOREST_SHAPES = [
    ("key-join", Exists(["z"], And([Atom("R", [x, y, z]), Atom("S", [y, c])]))),
    (
        "key-join-projected",
        Exists(["z", "c"], And([Atom("R", [x, y, z]), Atom("S", [y, c])])),
    ),
    (
        "independent-trees",
        Exists(["z"], And([Atom("R", [x, y, z]), Atom("S", [1, c])])),
    ),
    (
        "key-join-comparison",
        Exists(
            ["z", "c"],
            And(
                [
                    Atom("R", [x, y, z]),
                    Atom("S", [y, c]),
                    Comparison("!=", c, "c0"),
                ]
            ),
        ),
    ),
    (
        "closed-key-join",
        Exists(
            ["k", "a", "b", "cc"],
            And(
                [
                    Atom("R", [Var("k"), Var("a"), Var("b")]),
                    Atom("S", [Var("a"), Var("cc")]),
                ]
            ),
        ),
    ),
]


@st.composite
def prioritized_settings(draw):
    """A database, an FD variant, and an acyclic priority over its
    conflicts (empty through total)."""
    r_rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["k0", "k1", "k2"]),
                st.integers(min_value=0, max_value=2),
                st.sampled_from(["u", "v"]),
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
            max_size=3,
            unique=True,
        )
    )
    database = Database(
        [
            RelationInstance.from_values(R_SCHEMA, r_rows),
            RelationInstance.from_values(S_SCHEMA, s_rows),
        ]
    )
    dependencies = FD_VARIANTS[draw(st.sampled_from(sorted(FD_VARIANTS)))]
    priority = _draw_acyclic_priority(draw, database, dependencies)
    return database, dependencies, priority


def _draw_acyclic_priority(draw, database, dependencies):
    graph = build_conflict_graph(database, dependencies)
    edges = sorted(tuple(sorted_rows(pair)) for pair in graph.edges())
    oriented = draw(
        st.lists(st.booleans(), min_size=len(edges), max_size=len(edges))
    )
    vertices = sorted_rows(graph.vertices)
    ranks = draw(st.permutations(range(len(vertices))))
    position = {row: ranks[index] for index, row in enumerate(vertices)}
    return [
        (first, second) if position[first] < position[second] else (second, first)
        for (first, second), keep in zip(edges, oriented)
        if keep
    ]


@st.composite
def both_dirty_settings(draw):
    """A database and an acyclic priority whose conflicts now span both
    relations (S is dirty under ``A -> C`` as well)."""
    r_rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["k0", "k1", "k2"]),
                st.integers(min_value=0, max_value=2),
                st.sampled_from(["u", "v"]),
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
    database = Database(
        [
            RelationInstance.from_values(R_SCHEMA, r_rows),
            RelationInstance.from_values(S_SCHEMA, s_rows),
        ]
    )
    priority = _draw_acyclic_priority(draw, database, BOTH_DIRTY_FDS)
    return database, priority


def _engines(database, dependencies, priority, family):
    connection = sqlite3.connect(":memory:")
    save_database(database, connection, dependencies)
    pushed = PrefSqlCqaEngine(connection, dependencies, priority, family)
    memory = CqaEngine(database, dependencies, priority, family)
    return pushed, memory


class TestPrefsqlEquivalence:
    @pytest.mark.parametrize(
        "family", list(Family), ids=[family.name for family in Family]
    )
    @given(prioritized_settings())
    @settings(max_examples=25, deadline=None)
    def test_all_shapes_agree(self, family, setting):
        database, dependencies, priority = setting
        pushed, memory = _engines(database, dependencies, priority, family)
        with pushed:
            for label, formula in SHAPES:
                if formula.is_closed:
                    got = pushed.answer(formula)
                    reference = memory.answer(formula)
                    assert got.verdict is reference.verdict, label
                else:
                    got = pushed.certain_answers(formula)
                    reference = memory.certain_answers(formula)
                    assert got.certain == reference.certain, label
                    assert got.possible == reference.possible, label
                    assert got.variables == reference.variables, label
                expected = "prefsql" if priority else "sqlite"
                assert pushed.last_route == expected, label
                # Differential against the static analyzer: its
                # prediction must match the engine on every drawn
                # database, FD variant, family, and priority.
                report = analyze(
                    SCHEMA,
                    dependencies,
                    check_against_schema(formula, SCHEMA),
                    priority=priority,
                )
                assert (
                    report.expected_last_route("prefsql")
                    == pushed.last_route
                ), label


class TestCForestPrefsqlEquivalence:
    """Key-join forests over TWO dirty relations: the recursive
    certification composed with class-survivor tables must agree with
    preference-aware repair streaming for every family and priority."""

    @pytest.mark.parametrize(
        "family", list(Family), ids=[family.name for family in Family]
    )
    @given(both_dirty_settings())
    @settings(max_examples=15, deadline=None)
    def test_forest_shapes_agree(self, family, setting):
        database, priority = setting
        pushed, memory = _engines(database, BOTH_DIRTY_FDS, priority, family)
        with pushed:
            for label, formula in C_FOREST_SHAPES:
                if formula.is_closed:
                    got = pushed.answer(formula)
                    reference = memory.answer(formula)
                    assert got.verdict is reference.verdict, label
                else:
                    got = pushed.certain_answers(formula)
                    reference = memory.certain_answers(formula)
                    assert got.certain == reference.certain, label
                    assert got.possible == reference.possible, label
                    assert got.variables == reference.variables, label
                expected = "prefsql" if priority else "sqlite"
                assert pushed.last_route == expected, label
                report = analyze(
                    SCHEMA,
                    BOTH_DIRTY_FDS,
                    check_against_schema(formula, SCHEMA),
                    priority=priority,
                )
                assert (
                    report.expected_last_route("prefsql")
                    == pushed.last_route
                ), label


class TestWinnowRouteParity:
    """The survivor machinery must agree with the *winnow* reading of
    the families: under a total priority, Algorithm 1's unique outcome
    is the single common repair and prefsql's COMMON answers collapse
    to plain evaluation over it."""

    @given(prioritized_settings())
    @settings(max_examples=25, deadline=None)
    def test_total_priority_common_collapse(self, setting):
        database, dependencies, _ = setting
        graph = build_conflict_graph(database, dependencies)
        vertices = sorted_rows(graph.vertices)
        position = {row: index for index, row in enumerate(vertices)}
        total = [
            (first, second)
            if position[first] < position[second]
            else (second, first)
            for first, second in (tuple(sorted_rows(p)) for p in graph.edges())
        ]
        pushed, memory = _engines(
            database, dependencies, total, Family.COMMON
        )
        with pushed:
            formula = Exists(["z"], Atom("R", [x, y, z]))
            got = pushed.certain_answers(formula)
            reference = memory.certain_answers(formula)
            assert got.certain == reference.certain
            assert got.possible == reference.possible
            # A total priority leaves nothing disputed under C-Rep.
            assert got.certain == got.possible
