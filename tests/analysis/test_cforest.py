"""C_forest recognition: multi-atom dirty joins that follow key paths.

The fixtures here are the multi-atom shapes the recognizer must accept
(chain of two, chain of three, branching tree, independent trees, clean
mediation into a key) plus the shapes it must reject (non-key join,
join cycle, dirty self-join, clean mediation into a *non*-key).  Since
the compiler landed, recognition is actionable: a sound RA011 replaces
the blocking RA201 and both pushed engines compile the shape — which
the differentials against :class:`CqaEngine` pin, including the
historical clean-atom blind spot (two dirty atoms correlated through a
clean atom used to be misflagged as independent).
"""

import sqlite3

import pytest

from repro.analysis import analyze, recognize_c_forest
from repro.analysis.shapes import classify
from repro.backend import SqlCqaEngine
from repro.constraints.fd import FunctionalDependency
from repro.cqa.engine import CqaEngine
from repro.query.ast import And, Atom, Exists, Var
from repro.query.validate import check_against_schema
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.sqlite_io import save_database
from repro.service.broker import RequestBroker

R_SCHEMA = RelationSchema("R", ["K", "A", "B"])
T_SCHEMA = RelationSchema("T", ["A", "C", "D"])
U_SCHEMA = RelationSchema("U", ["C", "E"])
W_SCHEMA = RelationSchema("W", ["B", "F"])
SCHEMA = DatabaseSchema([R_SCHEMA, T_SCHEMA, U_SCHEMA, W_SCHEMA])

#: Every relation dirty, keyed on its first attribute.
FDS = [
    FunctionalDependency.parse("K -> A", "R"),
    FunctionalDependency.parse("A -> C", "T"),
    FunctionalDependency.parse("C -> E", "U"),
    FunctionalDependency.parse("B -> F", "W"),
]

k, a, b, c, d, e, f = (
    Var("k"), Var("a"), Var("b"), Var("c"), Var("d"), Var("e"), Var("f"),
)


def _report(formula, dependencies=FDS):
    checked = check_against_schema(formula, SCHEMA)
    return analyze(SCHEMA, dependencies, checked)


def _codes(report):
    return [diag.full_code for diag in report.diagnostics]


def _database():
    return Database(
        [
            RelationInstance.from_values(
                R_SCHEMA,
                [("k1", "a1", "b1"), ("k1", "a2", "b1"), ("k2", "a1", "b2")],
            ),
            RelationInstance.from_values(
                T_SCHEMA,
                [("a1", "c1", "d1"), ("a1", "c2", "d1"), ("a2", "c1", "d2")],
            ),
            RelationInstance.from_values(
                U_SCHEMA, [("c1", "e1"), ("c1", "e2"), ("c2", "e1")]
            ),
            RelationInstance.from_values(
                W_SCHEMA, [("b1", "f1"), ("b1", "f2")]
            ),
        ]
    )


def _engines(database=None):
    database = database if database is not None else _database()
    connection = sqlite3.connect(":memory:")
    save_database(database, connection, FDS)
    return SqlCqaEngine(connection, FDS), CqaEngine(database, FDS)


CHAIN_OF_TWO = Exists(
    ["k", "a", "b", "c", "d"],
    And([Atom("R", [k, a, b]), Atom("T", [a, c, d])]),
)

CHAIN_OF_THREE = Exists(
    ["k", "a", "b", "c", "d", "e"],
    And([Atom("R", [k, a, b]), Atom("T", [a, c, d]), Atom("U", [c, e])]),
)

BRANCHING_TREE = Exists(
    ["k", "a", "b", "c", "d", "f"],
    And([Atom("R", [k, a, b]), Atom("T", [a, c, d]), Atom("W", [b, f])]),
)

RECOGNIZED = [
    ("chain-of-two", CHAIN_OF_TWO, "T joins R through its key ['A']"),
    ("chain-of-three", CHAIN_OF_THREE, "U joins T through its key ['C']"),
    ("branching-tree", BRANCHING_TREE, "W joins R through its key ['B']"),
]


class TestRecognizedShapes:
    @pytest.mark.parametrize(
        "label,query,phrase",
        RECOGNIZED,
        ids=[case[0] for case in RECOGNIZED],
    )
    def test_ra011_with_explanation(self, label, query, phrase):
        report = _report(query)
        assert "RA011-rewritable-c-forest" in _codes(report), label
        info = next(d for d in report.diagnostics if d.code == "RA011")
        assert phrase in info.message, (label, info.message)
        # Recognition is actionable: a sound forest unblocks both
        # pushed engines (no RA201 rides along).
        assert not report.blocked("sqlite"), label
        assert not report.blocked("prefsql"), label
        assert "RA201-self-join-dirty" not in _codes(report), label
        assert report.plan_kind == "forest", label
        assert report.expected_last_route("sqlite") == "sqlite", label

    @pytest.mark.parametrize(
        "label,query,phrase",
        RECOGNIZED,
        ids=[case[0] for case in RECOGNIZED],
    )
    def test_engine_pushes_as_predicted_and_matches_memory(
        self, label, query, phrase
    ):
        pushed, memory = _engines()
        report = _report(query)
        with pushed:
            got = pushed.answer(query)
            assert pushed.last_route == "sqlite", label
            assert report.expected_last_route("sqlite") == pushed.last_route
        assert got.verdict is memory.answer(query).verdict, label


class TestCleanAtomMediation:
    """The recognizer's historical blind spot: two dirty atoms with no
    *direct* shared variable are still correlated when a clean atom
    chains them — soundness depends on where the chain enters."""

    X_SCHEMA = RelationSchema("X", ["K", "U"])
    C_SCHEMA = RelationSchema("C", ["U", "V"])
    S_SCHEMA = RelationSchema("S", ["Y", "V"])
    MEDIATED_SCHEMA = DatabaseSchema([X_SCHEMA, C_SCHEMA, S_SCHEMA])
    MEDIATED_FDS = [
        FunctionalDependency.parse("K -> U", "X"),
        FunctionalDependency.parse("Y -> V", "S"),
    ]

    #: The confirmed counterexample: C feeds S's NON-key V, so the
    #: repair choice of X (through U) constrains which S-class can
    #: witness — NOT rewritable, must stay blocked.
    UNSOUND = Exists(
        ["k", "u", "y", "v"],
        And(
            [
                Atom("X", [Var("k"), Var("u")]),
                Atom("C", [Var("u"), Var("v")]),
                Atom("S", [Var("y"), Var("v")]),
            ]
        ),
    )

    #: The sound variant: C feeds S's FULL key Y — a key join mediated
    #: by a clean atom, inside C_forest.
    SOUND = Exists(
        ["k", "u", "y", "v"],
        And(
            [
                Atom("X", [Var("k"), Var("u")]),
                Atom("C", [Var("u"), Var("y")]),
                Atom("S", [Var("y"), Var("v")]),
            ]
        ),
    )

    def _mediated_report(self, formula):
        checked = check_against_schema(formula, self.MEDIATED_SCHEMA)
        return analyze(self.MEDIATED_SCHEMA, self.MEDIATED_FDS, checked)

    def _mediated_engines(self, x_rows, c_rows, s_rows):
        database = Database(
            [
                RelationInstance.from_values(self.X_SCHEMA, x_rows),
                RelationInstance.from_values(self.C_SCHEMA, c_rows),
                RelationInstance.from_values(self.S_SCHEMA, s_rows),
            ]
        )
        connection = sqlite3.connect(":memory:")
        save_database(database, connection, self.MEDIATED_FDS)
        return (
            SqlCqaEngine(connection, self.MEDIATED_FDS),
            CqaEngine(database, self.MEDIATED_FDS),
        )

    def test_unsound_shape_stays_blocked(self):
        report = self._mediated_report(self.UNSOUND)
        assert "RA011-rewritable-c-forest" not in _codes(report)
        assert report.blocking("sqlite")[0].code == "RA201"

    def test_unsound_shape_routes_to_fallback_and_agrees(self):
        # The ISSUE's 4-repair instance: certain is UNDETERMINED; a
        # compiled plan would wrongly certify it.
        pushed, memory = self._mediated_engines(
            x_rows=[("k1", "u1"), ("k1", "u2")],
            c_rows=[("u1", "v1"), ("u2", "v2")],
            s_rows=[("y1", "v1"), ("y1", "v2")],
        )
        report = self._mediated_report(self.UNSOUND)
        with pushed:
            route = pushed.explain(self.UNSOUND).fallback_route
        assert report.expected_last_route("sqlite") == route
        with RequestBroker() as broker:
            broker.register("db", memory.data, self.MEDIATED_FDS)
            assert broker.explain(self.UNSOUND).fallback_route == route
            served = broker.query(self.UNSOUND)
        reference = memory.answer(self.UNSOUND)
        assert served.engine == "incremental"
        assert served.outcome.verdict is reference.verdict
        assert reference.verdict.value == "undetermined"

    def test_sound_variant_is_recognized_through_the_clean_atom(self):
        report = self._mediated_report(self.SOUND)
        assert "RA011-rewritable-c-forest" in _codes(report)
        info = next(d for d in report.diagnostics if d.code == "RA011")
        assert "S joins C through its key ['Y']" in info.message
        assert not report.blocked("sqlite")

    def test_sound_variant_pushes_and_agrees(self):
        cases = [
            # The witness chain must survive every X-repair.
            (
                [("k1", "u1"), ("k1", "u2")],
                [("u1", "y1"), ("u2", "y1")],
                [("y1", "v1")],
            ),
            # One X-class reaches an empty S-group: not certain.
            (
                [("k1", "u1"), ("k1", "u2")],
                [("u1", "y1"), ("u2", "y2")],
                [("y1", "v1")],
            ),
            # Both classes reach keyed S-groups whose classes witness.
            (
                [("k1", "u1"), ("k1", "u2")],
                [("u1", "y1"), ("u2", "y2")],
                [("y1", "v1"), ("y2", "v2"), ("y2", "v3")],
            ),
        ]
        for x_rows, c_rows, s_rows in cases:
            pushed, memory = self._mediated_engines(x_rows, c_rows, s_rows)
            with pushed:
                got = pushed.answer(self.SOUND)
                assert pushed.last_route == "sqlite", (x_rows, c_rows, s_rows)
            reference = memory.answer(self.SOUND)
            assert got.verdict is reference.verdict, (x_rows, c_rows, s_rows)


class TestRejectedShapes:
    def test_non_key_join_is_not_recognized(self):
        # T joins R through D (a non-key position of T).
        query = Exists(
            ["k", "a", "b", "x", "c"],
            And([Atom("R", [k, a, b]), Atom("T", [Var("x"), c, a])]),
        )
        report = _report(query)
        assert report.blocking("sqlite")[0].code == "RA201"
        assert "RA011-rewritable-c-forest" not in _codes(report)

    def test_shared_variable_outside_key_is_not_recognized(self):
        # The key of T is covered, but a second shared variable lands in
        # a non-key position — repair choices would correlate.
        query = Exists(
            ["k", "a", "b", "d"],
            And([Atom("R", [k, a, b]), Atom("T", [a, b, d])]),
        )
        report = _report(query)
        assert report.blocking("sqlite")[0].code == "RA201"
        assert "RA011-rewritable-c-forest" not in _codes(report)

    def test_dirty_self_join_is_not_recognized(self):
        query = Exists(
            ["k", "a", "b", "a2", "b2"],
            And([Atom("R", [k, a, b]), Atom("R", [k, Var("a2"), Var("b2")])]),
        )
        report = _report(query)
        assert report.blocking("sqlite")[0].code == "RA201"
        assert "RA011-rewritable-c-forest" not in _codes(report)

    def test_join_cycle_is_not_recognized(self):
        # R-T share a; T-U share c; U-R share k: a cycle, not a forest.
        query = Exists(
            ["k", "a", "b", "c", "d"],
            And(
                [
                    Atom("R", [k, a, b]),
                    Atom("T", [a, c, d]),
                    Atom("U", [c, k]),
                ]
            ),
        )
        report = _report(query)
        assert report.blocking("sqlite")[0].code == "RA201"
        assert "RA011-rewritable-c-forest" not in _codes(report)

    def test_clean_query_has_no_recognition(self):
        query = Exists(["z"], Atom("R", [k, a, Var("z")]))
        classification = classify(
            check_against_schema(query, SCHEMA), SCHEMA, FDS
        )
        assert recognize_c_forest(classification, SCHEMA) is None


class TestConstantsInKeys:
    def test_constant_key_position_counts_as_covered(self):
        # T's key position holds a constant and no variables are
        # shared: two independent trees whose certifications factor.
        query = Exists(
            ["k", "a", "b", "c", "d"],
            And([Atom("R", [k, a, b]), Atom("T", ["a1", c, d])]),
        )
        report = _report(query)
        assert "RA011-rewritable-c-forest" in _codes(report)
        info = next(d for d in report.diagnostics if d.code == "RA011")
        # The isolated case has its own phrasing (it used to render the
        # contradictory "follows key paths: isolated dirty atoms").
        assert "independent dirty atoms R, T" in info.message
        assert "cross product" in info.message
        assert "follows key paths" not in info.message
        assert not report.blocked("sqlite")

    def test_independent_trees_push_and_agree(self):
        query = Exists(
            ["k", "a", "b", "c", "d"],
            And([Atom("R", [k, a, b]), Atom("T", ["a1", c, d])]),
        )
        pushed, memory = _engines()
        with pushed:
            got = pushed.answer(query)
            assert pushed.last_route == "sqlite"
        assert got.verdict is memory.answer(query).verdict
