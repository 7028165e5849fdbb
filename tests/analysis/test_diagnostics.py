"""Golden tests: one per diagnostic code, plus engine differentials.

Every ROADMAP un-rewritable shape (the same fixtures
``tests/backend/test_fallback_routing.py`` pins against the engine) is
classified here by :func:`repro.analysis.analyze`, and the predicted
``expected_last_route`` is compared against the route the engine's own
``explain`` decides — the analyzer is only useful if it *is* the routing
logic, not a parallel approximation of it.
"""

import sqlite3

import pytest

from repro.analysis import CATALOG, FULL_CODES, Severity, analyze
from repro.backend import SqlCqaEngine
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.cqa.engine import CqaEngine
from repro.prefsql import PrefSqlCqaEngine
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
from repro.query.validate import check_against_schema
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.sqlite_io import save_database

R_SCHEMA = RelationSchema("R", ["K", "A:number", "B"])
S_SCHEMA = RelationSchema("S", ["A:number", "C"])
SCHEMA = DatabaseSchema([R_SCHEMA, S_SCHEMA])

FDS = [FunctionalDependency.parse("K -> A", "R")]
BOTH_DIRTY_FDS = FDS + [FunctionalDependency.parse("A -> C", "S")]
MULTI_LHS_FDS = [
    FunctionalDependency.parse("K -> A", "R"),
    FunctionalDependency.parse("B -> A", "R"),
]

R_ROWS = [("k1", 0, "u"), ("k1", 1, "u"), ("k2", 5, "v"), ("k3", 7, "w")]
S_ROWS = [(0, "c0"), (1, "c1"), (5, "c0")]

k, a, b, c = Var("k"), Var("a"), Var("b"), Var("c")
x, y, z = Var("x"), Var("y"), Var("z")


def _database():
    return Database(
        [
            RelationInstance.from_values(R_SCHEMA, R_ROWS),
            RelationInstance.from_values(S_SCHEMA, S_ROWS),
        ]
    )


def _sql_engine(dependencies, priority=()):
    connection = sqlite3.connect(":memory:")
    save_database(_database(), connection, dependencies)
    return SqlCqaEngine(connection, dependencies, priority)


def _analyze(formula, dependencies=FDS, variables=None, **kwargs):
    checked = check_against_schema(formula, SCHEMA)
    return analyze(SCHEMA, dependencies, checked, variables, **kwargs)


def _codes(report):
    return [d.full_code for d in report.diagnostics]


#: The ROADMAP un-rewritable shapes (same fixtures the backend routing
#: tests pin), each with the diagnostic code that must explain it.
UNREWRITABLE_SHAPES = [
    (
        "disjunction",
        Exists(["k", "a", "b"], Or([Atom("R", [k, a, b]), Atom("R", [k, a, b])])),
        FDS,
        "RA102",
    ),
    (
        "negation",
        Exists(["k", "a", "b"], And([Atom("R", [k, a, b]), Not(Atom("S", [a, "c0"]))])),
        FDS,
        "RA102",
    ),
    (
        "universal-quantification",
        Forall(["k", "a", "b"], Implies(Atom("R", [k, a, b]), Comparison("<", a, 9))),
        FDS,
        "RA102",
    ),
    (
        "implication",
        Implies(
            Exists(["b"], Atom("R", ["k1", 0, b])),
            Exists(["b"], Atom("R", ["k2", 5, b])),
        ),
        FDS,
        "RA102",
    ),
    (
        "dirty-self-join",
        Exists(
            ["k", "a", "b", "a2", "b2"],
            And([Atom("R", [k, a, b]), Atom("R", [k, Var("a2"), Var("b2")])]),
        ),
        FDS,
        "RA201",
    ),
    (
        # Key joins of two dirty relations are C_forest and push; only
        # the join through S's NON-key column C still blocks.
        "two-dirty-non-key-join",
        Exists(
            ["k", "a", "b", "c"],
            And([Atom("R", [k, a, b]), Atom("S", [Var("c"), b])]),
        ),
        BOTH_DIRTY_FDS,
        "RA201",
    ),
    (
        "differing-fd-lhs",
        Exists(["k", "a", "b"], Atom("R", [k, a, b])),
        MULTI_LHS_FDS,
        "RA301",
    ),
    (
        "unsafe-variable",
        Exists(
            ["k", "a", "b", "u"],
            And([Atom("R", [k, a, b]), Comparison("=", Var("u"), Var("u"))]),
        ),
        FDS,
        "RA101",
    ),
    (
        "pure-active-domain",
        Exists(["u"], Comparison("=", Var("u"), Var("u"))),
        FDS,
        "RA103",
    ),
    (
        "shadowed-quantifier",
        Exists(["k"], Exists(["k", "a", "b"], Atom("R", [k, a, b]))),
        FDS,
        "RA104",
    ),
]


class TestCatalog:
    def test_every_code_has_unique_full_code(self):
        assert len(FULL_CODES) == len(CATALOG)

    def test_error_codes_block_at_least_one_engine(self):
        for spec in CATALOG.values():
            if spec.severity is Severity.ERROR:
                assert spec.blocks, spec.code
            else:
                assert not spec.blocks, spec.code

    def test_memory_engine_is_never_blocked(self):
        for spec in CATALOG.values():
            assert "memory" not in spec.blocks, spec.code


class TestUnrewritableShapes:
    @pytest.mark.parametrize(
        "label,query,dependencies,code",
        UNREWRITABLE_SHAPES,
        ids=[shape[0] for shape in UNREWRITABLE_SHAPES],
    )
    def test_code_and_route_prediction(self, label, query, dependencies, code):
        report = _analyze(query, dependencies)
        blocking = report.blocking("sqlite")
        assert blocking, label
        assert blocking[0].code == code, (label, _codes(report))
        assert report.blocked("prefsql"), label
        assert not report.blocked("memory"), label
        assert report.plan_kind is None, label

        with _sql_engine(dependencies) as engine:
            route = engine.explain(query).fallback_route
        assert report.expected_last_route("sqlite") == route, label

    @pytest.mark.parametrize(
        "label,query,dependencies,code",
        UNREWRITABLE_SHAPES,
        ids=[shape[0] for shape in UNREWRITABLE_SHAPES],
    )
    def test_memory_engine_route_report_agrees(
        self, label, query, dependencies, code
    ):
        engine = CqaEngine(_database(), dependencies)
        report = engine.route_report(query)
        assert code in {d.code for d in report.diagnostics}, label
        engine.answer(query)
        assert report.expected_last_route("memory") == "indexed", label


class TestInfoCodes:
    def test_ra001_pushdown_rewritable(self):
        report = _analyze(Exists(["z"], Atom("R", [x, y, z])))
        assert _codes(report) == ["RA001-pushdown-rewritable"]
        assert report.plan_kind == "dirty"
        assert not report.errors
        assert report.expected_last_route("sqlite") == "sqlite"
        assert report.expected_last_route("prefsql") == "sqlite"
        assert report.expected_last_route("memory") == "indexed"

    def test_ra001_clean_plan(self):
        report = _analyze(Atom("S", [y, c]))
        assert report.plan_kind == "clean"
        assert "RA001-pushdown-rewritable" in _codes(report)

    def test_ra002_statically_empty(self):
        # K is a name column; comparing it to a number can never hold.
        query = Exists(["z"], And([Atom("R", [x, y, z]), Comparison("=", x, 1)]))
        report = _analyze(query)
        assert report.plan_kind == "empty"
        assert _codes(report) == ["RA002-statically-empty"]
        assert report.expected_last_route("sqlite") == "sqlite"

    def test_ra002_preempts_ra201(self):
        """A statically-empty multi-dirty join still pushes: the empty
        plan needs no repair reasoning, so RA201 must not fire."""
        query = Exists(
            ["z", "c"],
            And([Atom("R", [x, y, z]), Atom("S", [y, c]), Comparison("=", x, 1)]),
        )
        report = _analyze(query, BOTH_DIRTY_FDS)
        assert report.plan_kind == "empty"
        assert not report.blocked("sqlite")
        assert "RA201-self-join-dirty" not in _codes(report)
        with _sql_engine(BOTH_DIRTY_FDS) as engine:
            engine.certain_answers(query)
            assert engine.last_route == "sqlite"


class TestTheoryCodes:
    def _priority(self):
        instance = RelationInstance.from_values(R_SCHEMA, R_ROWS)
        return [(instance.row("k1", 1, "u"), instance.row("k1", 0, "u"))]

    def test_ra302_blocks_sqlite_only(self):
        query = Exists(["b"], Atom("R", [k, a, b]))
        report = _analyze(query, FDS, priority=self._priority())
        assert report.blocked("sqlite")
        assert not report.blocked("prefsql")
        assert report.blocking("sqlite")[0].code == "RA302"
        assert report.prioritized == ("R",)
        assert report.routes["prefsql"] == "prefsql"

        with _sql_engine(FDS, self._priority()) as engine:
            route = engine.explain(query).fallback_route
        assert report.expected_last_route("sqlite") == route

    def test_ra302_fires_before_shape_analysis(self):
        """SqlCqaEngine refuses priority before looking at the query, so
        RA302 must be the *first* blocker even for un-rewritable shapes."""
        query = Exists(
            ["k", "a", "b"], Or([Atom("R", [k, a, b]), Atom("R", [k, a, b])])
        )
        report = _analyze(query, FDS, priority=self._priority())
        assert report.blocking("sqlite")[0].code == "RA302"
        with _sql_engine(FDS, self._priority()) as engine:
            route = engine.explain(query).fallback_route
        assert report.expected_last_route("sqlite") == route

    def test_ra303_blocks_prefsql_only(self):
        query = Exists(["z"], Atom("R", [x, y, z]))
        report = _analyze(
            query,
            FDS,
            priority=self._priority(),
            duplicate_row_relations=frozenset({"R"}),
        )
        assert report.blocked("prefsql")
        assert report.blocking("prefsql")[0].code == "RA303"
        # sqlite is blocked by RA302 here, not RA303.
        assert report.blocking("sqlite")[0].code == "RA302"

    def test_ra303_differential_with_duplicate_rows(self):
        connection = sqlite3.connect(":memory:")
        save_database(_database(), connection, FDS)
        connection.execute("INSERT INTO R VALUES ('k1', 0, 'u')")
        query = Exists(["z"], Atom("R", [x, y, z]))
        with PrefSqlCqaEngine(connection, FDS, self._priority()) as engine:
            route = engine.explain(query).fallback_route
        report = _analyze(
            query,
            FDS,
            priority=self._priority(),
            duplicate_row_relations=frozenset({"R"}),
        )
        assert report.expected_last_route("prefsql") == route


class TestPrefsqlRoutePrediction:
    def test_unprioritized_query_predicts_plain_sqlite(self):
        """prefsql serves non-prioritized relations with the plain
        rewriting: the report's route label must say so."""
        instance = RelationInstance.from_values(R_SCHEMA, R_ROWS)
        priority = [(instance.row("k1", 1, "u"), instance.row("k1", 0, "u"))]
        query = Atom("S", [y, c])  # mentions only the clean relation
        report = _analyze(query, FDS, priority=priority)
        assert report.routes["prefsql"] == "sqlite"
        assert report.prioritized == ()

        connection = sqlite3.connect(":memory:")
        save_database(_database(), connection, FDS)
        with PrefSqlCqaEngine(connection, FDS, priority) as engine:
            engine.certain_answers(query)
            assert report.expected_last_route("prefsql") == engine.last_route


class TestReasonStrings:
    """The rendered messages are the engines' historical reason strings
    (metric labels and test phrases depend on them verbatim)."""

    @pytest.mark.parametrize(
        "query,dependencies,phrase",
        [
            (
                Exists(["k", "a", "b"], Or([Atom("R", [k, a, b]), Atom("R", [k, a, b])])),
                FDS,
                "non-conjunctive construct Or",
            ),
            (
                Exists(
                    ["k", "a", "b", "a2", "b2"],
                    And([Atom("R", [k, a, b]), Atom("R", [k, Var("a2"), Var("b2")])]),
                ),
                FDS,
                "more than one atom over inconsistent relation(s) ['R']",
            ),
            (
                Exists(["k", "a", "b"], Atom("R", [k, a, b])),
                MULTI_LHS_FDS,
                "differing left-hand sides",
            ),
            (
                Exists(
                    ["k", "a", "b", "u"],
                    And([Atom("R", [k, a, b]), Comparison("=", Var("u"), Var("u"))]),
                ),
                FDS,
                "unsafe variable(s) ['u']",
            ),
            (
                Exists(["u"], Comparison("=", Var("u"), Var("u"))),
                FDS,
                "no relational atom",
            ),
            (
                Exists(["k"], Exists(["k", "a", "b"], Atom("R", [k, a, b]))),
                FDS,
                "shadows an outer variable",
            ),
        ],
    )
    def test_message_contains_legacy_phrase(self, query, dependencies, phrase):
        report = _analyze(query, dependencies)
        assert any(phrase in d.message for d in report.diagnostics), phrase


class TestSpans:
    def test_subject_is_located_in_query_text(self):
        query = Exists(
            ["k", "a", "b", "u"],
            And([Atom("R", [k, a, b]), Comparison("=", Var("u"), Var("u"))]),
        )
        report = _analyze(query)
        unsafe = report.blocking("sqlite")[0]
        assert unsafe.span is not None
        start, end = unsafe.span.start, unsafe.span.end
        assert report.query[start:end] == unsafe.subject


class TestFingerprint:
    def test_same_inputs_same_fingerprint(self):
        query = Exists(["z"], Atom("R", [x, y, z]))
        first = _analyze(query)
        second = _analyze(query)
        assert first.fingerprint == second.fingerprint

    def test_theory_change_changes_fingerprint(self):
        query = Exists(["z"], Atom("R", [x, y, z]))
        assert _analyze(query).fingerprint != _analyze(query, BOTH_DIRTY_FDS).fingerprint

    def test_priority_changes_fingerprint(self):
        instance = RelationInstance.from_values(R_SCHEMA, R_ROWS)
        priority = [(instance.row("k1", 1, "u"), instance.row("k1", 0, "u"))]
        query = Exists(["z"], Atom("R", [x, y, z]))
        assert (
            _analyze(query).fingerprint
            != _analyze(query, FDS, priority=priority).fingerprint
        )

    def test_digest_is_sha256_of_the_canonical_json(self):
        import hashlib

        from repro.analysis.model import theory_fingerprint

        payload = {"b": [1, "x"], "a": None}
        canonical = b'{"a":null,"b":[1,"x"]}'
        assert theory_fingerprint(payload) == hashlib.sha256(canonical).hexdigest()


class TestReportShape:
    def test_to_dict_is_json_ready(self):
        import json

        report = _analyze(Exists(["z"], Atom("R", [x, y, z])))
        payload = report.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["routes"]["sqlite"] == "sqlite"
        assert payload["relations"] == ["R"]
        assert payload["diagnostics"][0]["code"] == "RA001-pushdown-rewritable"

    def test_binding_error_matches_engines(self):
        from repro.exceptions import QueryBindingError

        with pytest.raises(QueryBindingError):
            _analyze(Exists(["z"], Atom("R", [x, y, z])), variables=("nope",))
