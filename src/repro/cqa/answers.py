"""Answer types for (preferred) consistent query answering.

For a closed query ``Q`` and a family of preferred repairs, the paper
defines ``true`` to be the X-consistent answer when every preferred
repair satisfies ``Q`` (Definition 3).  Symmetrically ``false`` is the
X-consistent answer when no preferred repair satisfies ``Q``; otherwise
the answer is undetermined — the inconsistency leaves both outcomes
possible.  :class:`Verdict` captures this three-valued outcome.

For open queries, :class:`OpenAnswers` carries the *certain* answers
(tuples in the answer of every preferred repair) and the *possible*
answers (tuples in the answer of at least one).

Definition 3 is one fold over the preferred repairs, written here once:
:func:`fold_closed` counts satisfying repairs and keeps the first
falsifier, :func:`fold_open` intersects and unions per-repair answer
sets, and :meth:`Verdict.of` is the verdict rule.  Every engine that
answers by visiting repairs — serially from its own repair iterator or
through the sharded executor — folds them here and converts the
:class:`ClosedFold` / :class:`OpenFold` in one call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Iterable, Optional, Tuple

from repro.core.families import Family
from repro.query.ast import Formula, constants_of
from repro.query.evaluator import ContextCache, EvaluationContext
from repro.query.evaluator import answers as evaluate_answers
from repro.query.evaluator import evaluate
from repro.relational.domain import Value
from repro.relational.rows import Row

Repair = FrozenSet[Row]
AnswerSet = FrozenSet[Tuple[Value, ...]]


class Verdict(enum.Enum):
    """Three-valued outcome of a closed query over preferred repairs."""

    TRUE = "true"
    FALSE = "false"
    UNDETERMINED = "undetermined"

    @classmethod
    def of(cls, every: bool, some: bool) -> "Verdict":
        """Definition 3's verdict rule: true when the query holds in
        every repair *and* in some repair, false when it holds in none,
        undetermined otherwise — so an empty repair family (every, but
        not some) stays undetermined."""
        if every and some:
            return cls.TRUE
        if not every and not some:
            return cls.FALSE
        return cls.UNDETERMINED

    @property
    def as_bool(self) -> Optional[bool]:
        """The classical truth value, or ``None`` when undetermined."""
        if self is Verdict.TRUE:
            return True
        if self is Verdict.FALSE:
            return False
        return None


@dataclass(frozen=True)
class ClosedAnswer:
    """Result of closed-query CQA under one family."""

    family: Family
    verdict: Verdict
    repairs_considered: int
    satisfying: int
    #: A preferred repair falsifying the query, when one exists and the
    #: engine kept it (drives the "why not certain?" diagnostics).
    counterexample: Optional[FrozenSet[Row]] = None
    #: Which evaluation route produced the verdict: ``"indexed"`` /
    #: ``"naive"`` (per-repair evaluation), ``"witness-index"`` (the
    #: incremental engine's covering check), or ``"sqlite"`` (pushdown).
    #: Provenance only — excluded from equality so answers from
    #: different routes compare by content.
    route: Optional[str] = field(default=None, compare=False)

    @property
    def is_consistent_answer_true(self) -> bool:
        """Definition 3: true holds in *every* preferred repair."""
        return self.verdict is Verdict.TRUE


@dataclass(frozen=True)
class OpenAnswers:
    """Certain and possible answers of an open query under one family."""

    family: Family
    variables: Tuple[str, ...]
    certain: FrozenSet[Tuple[Value, ...]]
    possible: FrozenSet[Tuple[Value, ...]]
    repairs_considered: int
    #: Which evaluation route produced the answer sets (see
    #: :attr:`ClosedAnswer.route`); excluded from equality.
    route: Optional[str] = field(default=None, compare=False)

    @property
    def disputed(self) -> FrozenSet[Tuple[Value, ...]]:
        """Answers true in some but not all preferred repairs."""
        return self.possible - self.certain


# ---------------------------------------------------------------------------
# The Definition 3 fold
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedFold:
    """A closed query folded over a sequence of repairs."""

    considered: int
    satisfying: int
    #: The first falsifying repair, and its position in the folded
    #: sequence (counted from the fold's ``start``).
    counterexample: Optional[Repair] = None
    falsifier_at: Optional[int] = None

    @property
    def verdict(self) -> Verdict:
        return Verdict.of(
            self.satisfying == self.considered, self.satisfying > 0
        )

    def to_answer(self, family: Family, route: Optional[str]) -> ClosedAnswer:
        return ClosedAnswer(
            family,
            self.verdict,
            self.considered,
            self.satisfying,
            self.counterexample,
            route=route,
        )

    @classmethod
    def merge(cls, parts: Iterable["ClosedFold"]) -> "ClosedFold":
        """Combine folds over disjoint ranges: counts add and the
        falsifier at the smallest position wins."""
        parts = list(parts)
        first = min(
            (part for part in parts if part.falsifier_at is not None),
            key=lambda part: part.falsifier_at,
            default=cls(0, 0),
        )
        return cls(
            sum(part.considered for part in parts),
            sum(part.satisfying for part in parts),
            first.counterexample,
            first.falsifier_at,
        )


@dataclass(frozen=True)
class OpenFold:
    """An open query folded over a sequence of repairs."""

    considered: int
    certain: AnswerSet
    possible: AnswerSet

    def to_answers(
        self,
        family: Family,
        variables: Tuple[str, ...],
        route: Optional[str],
    ) -> OpenAnswers:
        return OpenAnswers(
            family,
            tuple(variables),
            self.certain,
            self.possible,
            self.considered,
            route=route,
        )

    @classmethod
    def merge(cls, parts: Iterable["OpenFold"]) -> "OpenFold":
        """Combine folds over disjoint ranges (empty ranges drop out)."""
        return _fold_answer_sets(
            (part.considered, part.certain, part.possible) for part in parts
        )


def _context_source(
    formula: Formula, contexts: Optional[ContextCache], naive: bool
) -> Callable[[Repair], EvaluationContext]:
    """Per-repair contexts: shared through ``contexts`` when given,
    otherwise built fresh for each repair."""
    constants = constants_of(formula)
    if contexts is None:
        return lambda repair: EvaluationContext(repair, constants, naive=naive)
    return lambda repair: contexts.context_for(repair, constants)


def fold_closed(
    repairs: Iterable[Repair],
    formula: Formula,
    contexts: Optional[ContextCache] = None,
    stop_on_false: bool = False,
    naive: bool = False,
    start: int = 0,
) -> ClosedFold:
    """Evaluate a closed ``formula`` in each repair, in order.

    ``stop_on_false`` ends the fold at the first falsifier (the counts
    then cover only the prefix visited).  Positions count from
    ``start``, so a shard folding the index range ``[start, stop)``
    reports the falsifier's global index.  ``naive`` only applies when
    no ``contexts`` cache (which carries its own choice) is given.
    """
    context_for = _context_source(formula, contexts, naive)
    considered = satisfying = 0
    counterexample: Optional[Repair] = None
    falsifier_at: Optional[int] = None
    for position, repair in enumerate(repairs, start):
        considered += 1
        if evaluate(formula, repair, context=context_for(repair)):
            satisfying += 1
        elif counterexample is None:
            counterexample, falsifier_at = repair, position
            if stop_on_false:
                break
    return ClosedFold(considered, satisfying, counterexample, falsifier_at)


def fold_open(
    repairs: Iterable[Repair],
    formula: Formula,
    variables: Tuple[str, ...],
    contexts: Optional[ContextCache] = None,
    naive: bool = False,
) -> OpenFold:
    """Certain (∩) and possible (∪) answers of ``formula`` over the
    repairs; see :func:`fold_closed` for ``contexts`` and ``naive``."""
    context_for = _context_source(formula, contexts, naive)
    variables = tuple(variables)
    return _fold_answer_sets(
        (1, result, result)
        for result in (
            evaluate_answers(
                formula, repair, variables, context=context_for(repair)
            )
            for repair in repairs
        )
    )


def _fold_answer_sets(
    parts: Iterable[Tuple[int, AnswerSet, AnswerSet]],
) -> OpenFold:
    """Fold ``(considered, certain, possible)`` triples: one per repair,
    or one per already-folded range."""
    considered = 0
    certain: Optional[AnswerSet] = None
    possible: AnswerSet = frozenset()
    for count, result, some in parts:
        if not count:
            continue
        considered += count
        certain = result if certain is None else certain & result
        possible = possible | some
    return OpenFold(
        considered, certain if certain is not None else frozenset(), possible
    )
