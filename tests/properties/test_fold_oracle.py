"""Property tests: engine answers equal Definition 3 computed by hand.

The engines, the sharded executor and the incremental enumeration
fallback all fold repairs through :mod:`repro.cqa.answers`, so the
serial-versus-sharded harnesses compare that fold with itself.  This
oracle does not go through it: it takes ``preferred_repairs(family,
priority)`` and builds the counts, the certain intersection, the
possible union and the verdict in test code, then checks every path
against them.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.families import Family, preferred_repairs
from repro.cqa.answers import Verdict
from repro.cqa.engine import CqaEngine
from repro.incremental.engine import IncrementalCqaEngine
from repro.query.evaluator import answers, evaluate
from repro.query.parser import parse_query

from tests.conftest import TWO_FDS, two_fd_priorities

#: Conjunctive: the incremental engine answers these from its witness index.
CONJUNCTIVE_CLOSED = parse_query(
    "EXISTS a, b1, b2, c1, c2, d1, d2 . "
    "R(a, b1, c1, d1) AND R(a, b2, c2, d2) AND b1 != b2"
)
CONJUNCTIVE_OPEN = parse_query("EXISTS b, c, d . R(a, b, c, d) AND c = d")
#: Disjunctive: out of the witness index's scope, so enumerated per repair.
DISJUNCTIVE_CLOSED = parse_query(
    "EXISTS a, c, d . R(a, 0, c, d) OR R(a, 1, d, c)"
)
DISJUNCTIVE_OPEN = parse_query(
    "EXISTS b, c, d . R(a, b, c, d) AND (b = 0 OR c = d)"
)
#: Safe negation (CQ¬): answered from the witness index, each witness
#: blocked by the fact its negated atom names.  The closed query's
#: blocker always shares its support row's A → B component; the open
#: query's blocker may sit in any component.
NEGATED_CLOSED = parse_query(
    "EXISTS a, c, d . R(a, 0, c, d) AND NOT R(a, 1, c, d)"
)
NEGATED_OPEN = parse_query(
    "EXISTS b, c, d . R(a, b, c, d) AND NOT R(c, b, a, d)"
)
#: Out of the witness index's scope: an unsafe negation (``e`` is bound
#: by no positive atom) and a negated conjunction.
UNSAFE_NEGATION = parse_query(
    "EXISTS a, c, d, e . R(a, 0, c, d) AND NOT R(a, 1, c, e)"
)
NEGATED_CONJUNCTION = parse_query(
    "EXISTS a, c, d . R(a, 0, c, d) AND NOT (R(a, 1, c, d) AND R(a, 2, c, d))"
)

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _expected_closed(repairs, formula):
    considered = len(repairs)
    satisfying = sum(1 for repair in repairs if evaluate(formula, repair))
    if considered and satisfying == considered:
        verdict = Verdict.TRUE
    elif considered and satisfying == 0:
        verdict = Verdict.FALSE
    else:
        verdict = Verdict.UNDETERMINED
    return verdict, considered, satisfying


def _expected_open(repairs, formula, variables):
    per_repair = [answers(formula, repair, variables) for repair in repairs]
    certain = set(per_repair[0]) if per_repair else set()
    possible = set()
    for result in per_repair:
        certain &= result
        possible |= result
    return certain, possible, len(per_repair)


def _check_closed(result, repairs, formula):
    verdict, considered, satisfying = _expected_closed(repairs, formula)
    assert result.verdict is verdict
    assert result.repairs_considered == considered
    assert result.satisfying == satisfying
    if satisfying == considered:
        assert result.counterexample is None
    else:
        assert result.counterexample in repairs
        assert not evaluate(formula, result.counterexample)


def _check_open(result, repairs, formula, variables):
    certain, possible, considered = _expected_open(repairs, formula, variables)
    assert result.certain == certain
    assert result.possible == possible
    assert result.repairs_considered == considered


@given(setting=two_fd_priorities(max_tuples=6), family=st.sampled_from(Family))
@_SETTINGS
def test_cqa_engine_matches_hand_built_fold(setting, family):
    instance, priority = setting
    repairs = preferred_repairs(family, priority)
    for parallel in (None, 1):
        engine = CqaEngine(instance, TWO_FDS, priority, family)
        for formula in (CONJUNCTIVE_CLOSED, DISJUNCTIVE_CLOSED):
            _check_closed(
                engine.answer(formula, parallel=parallel), repairs, formula
            )
            assert engine.is_consistently_true(formula, parallel=parallel) is (
                _expected_closed(repairs, formula)[0] is Verdict.TRUE
            )
        for formula in (CONJUNCTIVE_OPEN, DISJUNCTIVE_OPEN):
            result = engine.certain_answers(formula, ("a",), parallel=parallel)
            _check_open(result, repairs, formula, ("a",))


@given(setting=two_fd_priorities(max_tuples=6), family=st.sampled_from(Family))
@_SETTINGS
def test_incremental_engine_matches_hand_built_fold(setting, family):
    instance, priority = setting
    repairs = preferred_repairs(family, priority)
    engine = IncrementalCqaEngine(instance, TWO_FDS, priority.edges, family)
    for formula, route in (
        (CONJUNCTIVE_CLOSED, "witness-index"),
        (DISJUNCTIVE_CLOSED, "indexed"),
    ):
        result = engine.answer(formula)
        assert result.route == route
        _check_closed(result, repairs, formula)
        assert engine.is_consistently_true(formula) is (
            result.verdict is Verdict.TRUE
        )
    for formula, route in (
        (CONJUNCTIVE_OPEN, "witness-index"),
        (DISJUNCTIVE_OPEN, "indexed"),
    ):
        result = engine.certain_answers(formula, ("a",))
        assert result.route == route
        _check_open(result, repairs, formula, ("a",))


@given(setting=two_fd_priorities(max_tuples=6), family=st.sampled_from(Family))
@_SETTINGS
def test_incremental_engine_covers_safe_negation(setting, family):
    instance, priority = setting
    repairs = preferred_repairs(family, priority)
    engine = IncrementalCqaEngine(instance, TWO_FDS, priority.edges, family)
    for formula, route in (
        (NEGATED_CLOSED, "witness-index"),
        (UNSAFE_NEGATION, "indexed"),
        (NEGATED_CONJUNCTION, "indexed"),
    ):
        result = engine.answer(formula)
        assert result.route == route
        _check_closed(result, repairs, formula)
        assert engine.is_consistently_true(formula) is (
            result.verdict is Verdict.TRUE
        )
    result = engine.certain_answers(NEGATED_OPEN, ("a",))
    assert result.route == "witness-index"
    _check_open(result, repairs, NEGATED_OPEN, ("a",))
