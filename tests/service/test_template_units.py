"""Work units keyed by the constant-lifted text: a differential test.

The broker keys each text's work unit by the text with its number and
quoted literals lifted out, so texts of one shape share the parse, the
analysis and each family's compiled plan, and a request only binds its
values.  Nothing a caller can observe may tell the shared unit from a
unit of the text alone: for random texts over the served schema —
conjunctive or not, with literals in atoms and comparisons, repeated
and cross-domain constants, comments holding digits, identifiers with
digits and uppercase name constants — a broker that has served a
sibling text of the same shape must answer, route, analyze and explain
exactly as a fresh broker does, and as the paths that use no template
do: the in-memory engine and the pushed engine handed the text, and the
one-shot analysis.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis import analyze
from repro.backend import engine as sql_engine_module
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.cqa.answers import OpenAnswers
from repro.obs import trace
from repro.prefsql import engine as pref_engine_module
from repro.query.parser import lift_literals
from repro.query.validate import parse_checked
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row
from repro.relational.schema import RelationSchema
from repro.service.broker import RequestBroker

R = RelationSchema("R", ["K:number", "A:number", "B"])
S = RelationSchema("S", ["A:number", "C"])
FDS = (
    FunctionalDependency.parse("K -> A", "R"),
    FunctionalDependency.parse("A -> C", "S"),
)
R_ROWS = [
    (0, 0, "b0"), (0, 1, "b0x"), (1, 1, "B1"), (2, 0, "b2"), (2, 2, "b2x"),
    (3, 1, "b3"), (4, 2, "B1"),
]
S_ROWS = [(0, "c0"), (0, "c0x"), (1, "c1"), (2, "B1"), (2, "c2")]
FAMILIES = (None, Family.LOCAL, Family.SEMI_GLOBAL, Family.GLOBAL, Family.COMMON)


def _database() -> Database:
    return Database(
        [
            RelationInstance.from_values(R, R_ROWS),
            RelationInstance.from_values(S, S_ROWS),
        ]
    )


#: The ranked copy orients every conflict of R and of S.
PRIORITY = (
    (Row(R, (0, 0, "b0")), Row(R, (0, 1, "b0x"))),
    (Row(R, (2, 2, "b2x")), Row(R, (2, 0, "b2"))),
    (Row(S, (0, "c0")), Row(S, (0, "c0x"))),
)


def _broker() -> RequestBroker:
    broker = RequestBroker()
    broker.register("plain", _database(), FDS)
    broker.register("ranked", _database(), FDS, PRIORITY)
    return broker


# ---------------------------------------------------------------------------
# Random texts: a shape with literal slots, rendered with two value sets
# ---------------------------------------------------------------------------

VARIABLES = ("k", "a", "b", "c", "b1", "x_2")
NAMES = ("b0", "b0x", "B1", "c1", "7", "q#1", "it's")
NUMBERS = st.integers(0, 4)
OPS = ("=", "!=", "<", ">", "<=", ">=")

#: A term: ("var", name), ("ident", Name) — an uppercase name constant,
#: part of the shape — or a literal slot, ("number",) / ("name",).
TERMS = st.one_of(
    st.sampled_from(VARIABLES).map(lambda name: ("var", name)),
    st.sampled_from(("B1", "Mary")).map(lambda name: ("ident", name)),
    st.just(("number",)),
    st.just(("name",)),
)


def _atom(draw) -> tuple:
    relation = draw(st.sampled_from(("R", "S")))
    arity = 3 if relation == "R" else 2
    return ("atom", relation, [draw(TERMS) for _ in range(arity)])


@st.composite
def shapes(draw):
    """A query shape: a token list whose literal slots are filled later."""
    atoms = [_atom(draw) for _ in range(draw(st.integers(1, 2)))]
    bound = sorted(
        {term[1] for atom in atoms for term in atom[2] if term[0] == "var"}
    )
    operand = st.one_of(
        st.sampled_from(bound).map(lambda name: ("var", name))
        if bound
        else st.just(("number",)),
        st.just(("number",)),
        st.just(("name",)),
    )
    comparisons = draw(
        st.lists(
            st.tuples(operand, st.sampled_from(OPS), operand), max_size=2
        )
    )
    form = draw(st.sampled_from(("and", "or", "not")))
    quantified = draw(st.lists(st.sampled_from(bound), unique=True)) if bound else []
    comment = draw(st.booleans())
    parts = list(atoms) + [("cmp",) + comparison for comparison in comparisons]
    if form == "or":
        # The same atom twice, with its own literals: equal free variables.
        parts = [("or", atoms[0], atoms[0])] + parts[1:]
    elif form == "not":
        negated = draw(
            st.lists(
                st.one_of(
                    st.sampled_from(bound).map(lambda name: ("var", name))
                    if bound
                    else st.just(("number",)),
                    st.just(("number",)),
                ),
                min_size=2,
                max_size=2,
            )
        )
        parts.append(("not", ("atom", "S", negated)))
    return quantified, parts, comment


def _render(shape, values) -> str:
    """The text of ``shape`` with its literal slots filled from
    ``values`` (an iterator), in text order."""
    quantified, parts, comment = shape

    def term(spec) -> str:
        if spec[0] in ("var", "ident"):
            return spec[1]
        value = next(values)
        if spec[0] == "number":
            return str(value)
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"

    def part(spec) -> str:
        if spec[0] == "atom":
            return f"{spec[1]}({', '.join(term(t) for t in spec[2])})"
        if spec[0] == "cmp":
            left = term(spec[1])
            return f"{left} {spec[2]} {term(spec[3])}"
        if spec[0] == "or":
            first = part(spec[1])
            return f"({first} OR {part(spec[2])})"
        return f"NOT {part(spec[1])}"

    body = [part(spec) for spec in parts]
    if comment:
        body[0] += " # note 42, 'x'\n"
    text = " AND ".join(body)
    if quantified:
        text = f"EXISTS {', '.join(quantified)} . {text}"
    return text


def _slots(shape) -> list:
    """The literal kinds of ``shape``, in text order."""
    kinds: list = []

    def walk(spec) -> None:
        if spec[0] in ("number", "name"):
            kinds.append(spec[0])
        elif spec[0] == "atom":
            for term in spec[2]:
                walk(term)
        elif spec[0] == "cmp":
            walk(spec[1])
            walk(spec[3])
        elif spec[0] == "or":
            walk(spec[1])
            walk(spec[2])
        elif spec[0] == "not":
            walk(spec[1])

    for spec in shape[1]:
        walk(spec)
    return kinds


@st.composite
def sibling_texts(draw):
    """Two texts of one shape that differ only in their literals."""
    shape = draw(shapes())
    kinds = _slots(shape)

    def values():
        return [
            draw(NUMBERS) if kind == "number" else draw(st.sampled_from(NAMES))
            for kind in kinds
        ]

    return _render(shape, iter(values())), _render(shape, iter(values()))


# ---------------------------------------------------------------------------
# The differential test
# ---------------------------------------------------------------------------


def _decision(decision):
    """A pushdown decision as compared: reason, route, diagnostics and
    the plan (its SQL and bound parameters)."""
    if decision is None:
        return None
    plan = decision.plan
    return (
        decision.reason,
        decision.route,
        decision.diagnostics,
        None
        if plan is None
        else (
            plan.kind,
            plan.description,
            plan.certain_sql,
            plan.certain_params,
            plan.possible_sql,
            plan.possible_params,
        ),
    )


def _observed(broker: RequestBroker, database: str, text: str, family):
    """Everything a caller sees of one text: answer, route, the route
    report (spans included) and the pushdown decision."""
    result = broker.query(text, family, database=database)
    report = broker.analyze(text, family, database=database)
    decision = broker.explain(text, family, database=database)
    return {
        "outcome": result.outcome,
        "served": (result.engine, result.route),
        "report": report.to_dict(),
        "decision": _decision(decision),
    }


def _columns(broker: RequestBroker, database: str, text: str):
    formula = parse_checked(text, broker.engine(database).schema)
    if formula.is_closed:
        return ()
    return tuple(sorted(formula.free_variables()))


def _untemplated_outcome(broker: RequestBroker, database: str, text: str, family):
    """The in-memory engine's answer to the text itself (no broker, no
    work unit): the verdict, or both answer sets."""
    engine = broker.engine(database)
    variables = _columns(broker, database, text)
    if not variables:
        return engine.answer(text, family).verdict
    answers = engine.certain_answers(text, variables, family)
    return answers.certain, answers.possible


def _served_outcome(outcome):
    if isinstance(outcome, OpenAnswers):
        return outcome.certain, outcome.possible
    return outcome.verdict


def _untemplated_decision(broker: RequestBroker, database: str, text: str, family):
    """The decision the mirror's pushed engine makes for the text
    itself, on the engine the broker's route ladder picks."""
    entry = broker._entry(database)
    engine = broker.engine(database)
    active = engine.active_priority_edges()
    if active:
        pushed = entry.mirror.pref_engine_for(engine.current_database, active)
    else:
        pushed = entry.mirror.engine_for(engine.current_database)
    return pushed.explain(
        text, _columns(broker, database, text), family=family or entry.family
    )


def _one_shot_report(broker: RequestBroker, database: str, text: str):
    engine = broker.engine(database)
    formula = parse_checked(text, engine.schema)
    variables = (
        () if formula.is_closed else tuple(sorted(formula.free_variables()))
    )
    return analyze(
        engine.schema,
        engine.dependencies,
        formula,
        variables,
        priority=tuple(engine.active_priority_edges()),
    ).to_dict()


@pytest.fixture(scope="module")
def warm():
    with _broker() as broker:
        yield broker


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(texts=sibling_texts())
# Two pushed literals of one domain: bound in the wrong order, the
# plan would still run.
@example(texts=("EXISTS b . R(3, 4, b)", "EXISTS b . R(1, 2, b)"))
def test_a_shared_unit_is_indistinguishable_from_the_texts_own(warm, texts):
    first, second = texts
    assert lift_literals(second)[0] == lift_literals(first)[0]
    with _broker() as fresh:
        for database in ("plain", "ranked"):
            families = (None,) if database == "plain" else FAMILIES
            for family in families:
                warm.query(first, family, database=database)
                misses = warm.route_report_misses
                served = _observed(warm, database, second, family)
                # The second text reuses the first one's unit.
                assert warm.route_report_misses == misses, second
                alone = _observed(fresh, database, second, family)
                assert served == alone, second
                # Against the paths that use no template.
                assert _served_outcome(served["outcome"]) == (
                    _untemplated_outcome(fresh, database, second, family)
                ), second
                assert served["report"] == _one_shot_report(
                    fresh, database, second
                )
                if served["served"][0] != "incremental":
                    assert served["decision"] == _decision(
                        _untemplated_decision(fresh, database, second, family)
                    ), second


# ---------------------------------------------------------------------------
# Shared units, decisions and parse spans, pinned
# ---------------------------------------------------------------------------


def test_texts_of_one_shape_share_one_unit_and_one_decision_per_family(
    monkeypatch,
):
    compiled = []
    for module in (sql_engine_module, pref_engine_module):
        original = module.analyze_query

        def counting(*args, _original=original, **kwargs):
            compiled.append(args[0])
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "analyze_query", counting)
    texts = [f"EXISTS b . R({key}, a, b) AND a >= {key % 3}" for key in range(5)]
    with _broker() as broker:
        for database, families in (("plain", (None,)), ("ranked", FAMILIES)):
            for family in families:
                for text in texts:
                    broker.query(text, family, database=database)
        assert broker.stats()["route_reports"]["entries"] == 2
        assert broker.route_report_misses == 2
        # One compiled decision per database and family, not per text.
        assert len(compiled) == 1 + len(FAMILIES)


@pytest.mark.parametrize(
    "first, second",
    [
        # RA201 names R, whose first mention follows a literal.
        (
            "EXISTS k, a, b, k2, b2 . S(a, 'c0x') AND R(k, a, b) AND R(k2, a, b2)",
            "EXISTS k, a, b, k2, b2 . S(a, 'c1') AND R(k, a, b) AND R(k2, a, b2)",
        ),
        # RA101 names the unsafe z, after a literal of another length.
        ("R(k, 1, b) AND z > 3", "R(k, 12345, b) AND z > 3"),
    ],
    ids=["self-join", "unsafe"],
)
def test_spans_are_located_in_the_text_not_the_template(first, second):
    with _broker() as broker:
        broker.query(first, database="plain")
        report = broker.analyze(second, database="plain")
        assert broker.route_report_misses == 1
        assert any(d.span is not None for d in report.errors)
        assert report.to_dict() == _one_shot_report(broker, "plain", second)


def test_a_literal_named_by_a_message_is_analyzed_per_text():
    # A name in a number column: an empty plan whose reason names it.
    with _broker() as broker:
        first = broker.analyze("EXISTS a, b . R('x', a, b)", database="plain")
        second = broker.analyze("EXISTS a, b . R('y', a, b)", database="plain")
        reasons = [
            d.message for d in second.diagnostics if d.code == "RA002"
        ]
        assert reasons == [
            "statically unsatisfiable: constant 'y' can never occur in R.K"
        ]
        assert first.fingerprint != second.fingerprint
        assert second.to_dict() == _one_shot_report(
            broker, "plain", "EXISTS a, b . R('y', a, b)"
        )
        decision = broker.explain("EXISTS a, b . R('y', a, b)", database="plain")
        assert decision.plan.kind == "empty"
        assert "'y'" in decision.plan.description
        assert broker.route_report_misses == 1


def test_an_identifier_equal_to_a_literal_shares_the_unit():
    # ``B1`` (a name constant, part of the key) and ``'B1'`` (a literal,
    # a slot) build the same constant; the template keeps them apart.
    texts = [
        "EXISTS k, a . R(k, a, B1) AND S(a, 'B1')",
        "EXISTS k, a . R(k, a, B1) AND S(a, 'c2')",
    ]
    with _broker() as broker:
        served = [broker.query(text, database="plain") for text in texts]
        assert broker.stats()["route_reports"]["entries"] == 1
        assert broker.route_report_misses == 1
        for text, result in zip(texts, served):
            with _broker() as fresh:
                alone = fresh.query(text, database="plain")
            assert result.outcome == alone.outcome
            assert broker.analyze(text, database="plain").to_dict() == (
                _one_shot_report(broker, "plain", text)
            )


@pytest.mark.parametrize(
    "text",
    [
        "R(k, 1 b)",  # a syntax error after a literal
        "R(k, 'x', b",  # ... at the end of the input
        "R(k, 1, b) AND T(2)",  # an unknown relation
        "R(k, 12345) AND a > 'y'",  # an arity error naming the atom
        "R(k, 1, b) AND \ue000 = 2",  # a mark of the template's own
        "R(k, 'x', b) # \ue001 in a comment",  # valid: comments are dropped
    ],
)
def test_a_text_reports_its_own_errors(text):
    engine_error = None
    try:
        parse_checked(text, _database().schema)
    except Exception as error:  # noqa: BLE001 - compared below
        engine_error = error
    with _broker() as broker:
        if engine_error is None:
            assert broker.query(text, database="plain").outcome is not None
            return
        with pytest.raises(type(engine_error)) as served:
            broker.query(text, database="plain")
    assert str(served.value) == str(engine_error)


def _spans(node: dict, name: str) -> int:
    return (node["name"] == name) + sum(
        _spans(child, name) for child in node.get("children", ())
    )


@pytest.mark.parametrize("database", ["plain", "ranked"])
def test_a_served_miss_parses_once_and_a_hit_not_at_all(database):
    with _broker() as broker:
        broker.query("R(0, a, b)", database=database)  # builds the mirror
        with trace("query") as miss:
            result = broker.query("EXISTS b . R(1, a, b)", database=database)
        assert result.engine in ("sqlite", "prefsql")
        with trace("query") as hit:
            broker.query("EXISTS b . R(2, a, b)", database=database)
    assert _spans(miss.root.to_dict(), "parse") == 1
    assert _spans(hit.root.to_dict(), "parse") == 0
