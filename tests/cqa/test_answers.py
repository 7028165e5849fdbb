"""Unit tests for the answer types (verdicts, open answers)."""

from repro.core.families import Family
from repro.cqa.answers import (
    ClosedAnswer,
    ClosedFold,
    OpenAnswers,
    OpenFold,
    Verdict,
    fold_closed,
    fold_open,
)
from repro.query.parser import parse_query
from repro.relational.instance import RelationInstance
from repro.relational.schema import RelationSchema

SCHEMA = RelationSchema("R", ["A:number"])


class TestVerdict:
    def test_as_bool(self):
        assert Verdict.TRUE.as_bool is True
        assert Verdict.FALSE.as_bool is False
        assert Verdict.UNDETERMINED.as_bool is None

    def test_values_for_cli(self):
        assert {v.value for v in Verdict} == {"true", "false", "undetermined"}

    def test_rule(self):
        assert Verdict.of(every=True, some=True) is Verdict.TRUE
        assert Verdict.of(every=False, some=False) is Verdict.FALSE
        assert Verdict.of(every=False, some=True) is Verdict.UNDETERMINED
        # No repairs at all: vacuously every, but not some.
        assert Verdict.of(every=True, some=False) is Verdict.UNDETERMINED


def _repairs(*value_sets):
    return [
        RelationInstance.from_values(SCHEMA, [(v,) for v in values]).rows
        for values in value_sets
    ]


class TestFold:
    def test_closed_fold_counts_and_first_falsifier(self):
        repairs = _repairs([1], [2], [1, 2], [3])
        folded = fold_closed(repairs, parse_query("R(1)"), start=10)
        assert (folded.considered, folded.satisfying) == (4, 2)
        assert folded.counterexample == repairs[1]
        assert folded.falsifier_at == 11
        assert folded.verdict is Verdict.UNDETERMINED

    def test_stop_on_false_ends_the_fold(self):
        repairs = _repairs([1], [2], [3])
        folded = fold_closed(repairs, parse_query("R(1)"), stop_on_false=True)
        assert (folded.considered, folded.satisfying) == (2, 1)

    def test_empty_fold_is_undetermined(self):
        folded = fold_closed([], parse_query("R(1)"))
        assert folded == ClosedFold(0, 0)
        assert folded.to_answer(Family.REP, "indexed").verdict is (
            Verdict.UNDETERMINED
        )

    def test_closed_merge_keeps_the_smallest_position(self):
        repairs = _repairs([2], [3])
        late = ClosedFold(3, 2, repairs[1], 7)
        early = ClosedFold(2, 1, repairs[0], 4)
        merged = ClosedFold.merge([late, ClosedFold(1, 1), early])
        assert merged == ClosedFold(6, 4, repairs[0], 4)

    def test_open_fold_and_merge(self):
        repairs = _repairs([1, 2], [2, 3], [2])
        query = parse_query("R(a)")
        whole = fold_open(repairs, query, ("a",))
        assert whole == OpenFold(
            3, frozenset({(2,)}), frozenset({(1,), (2,), (3,)})
        )
        parts = [
            fold_open(repairs[:1], query, ("a",)),
            fold_open([], query, ("a",)),
            fold_open(repairs[1:], query, ("a",)),
        ]
        assert OpenFold.merge(parts) == whole


class TestClosedAnswer:
    def test_is_consistent_answer_true(self):
        answer = ClosedAnswer(Family.REP, Verdict.TRUE, 3, 3)
        assert answer.is_consistent_answer_true
        assert not ClosedAnswer(
            Family.REP, Verdict.UNDETERMINED, 3, 1
        ).is_consistent_answer_true


class TestOpenAnswers:
    def test_disputed(self):
        answers = OpenAnswers(
            Family.REP,
            ("n",),
            certain=frozenset({("a",)}),
            possible=frozenset({("a",), ("b",)}),
            repairs_considered=2,
        )
        assert answers.disputed == {("b",)}

    def test_no_dispute_when_equal(self):
        answers = OpenAnswers(
            Family.GLOBAL,
            ("n",),
            certain=frozenset({("a",)}),
            possible=frozenset({("a",)}),
            repairs_considered=1,
        )
        assert answers.disputed == frozenset()
