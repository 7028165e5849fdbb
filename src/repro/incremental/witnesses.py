"""Witness indexes: incremental support sets for conjunctive queries.

The index covers *safe conjunctive queries with negated atoms* (CQ¬):
an existential block over a conjunction of positive relational atoms,
negated relational atoms and comparisons, where every variable — free,
quantified, or used by a negated atom or a comparison — occurs in some
positive atom.  Safety grounds every satisfying valuation through the
positive atoms, so the query's truth in a repair ``r'`` is decided by
its **witnesses**: valuations over the current instance, each carrying

* its *support rows* — the rows the positive atoms match, and
* its *blocker keys* — the ``(relation, values)`` facts the negated
  atoms name under the same valuation.

The query holds in ``r'`` iff some witness has every support row in
``r'`` and none of its blockers (the **blocker rule**).  A blocker that
names no current row can never be in a repair and is ignored.

The engine therefore never evaluates such a query per repair.  It keeps,
per query, a :class:`WitnessIndex` mapping answer tuples to their
supports over the *current* instance and maintains it under updates
semi-naively, keyed on support rows only:

* ``apply_delete(row)`` drops the supports containing the row (via a
  row → support reverse index);
* ``apply_insert(row)`` joins only the valuations that use the new row
  in at least one positive atom.

Blocker keys are resolved against the current rows at query time, so
inserting or deleting a blocker row needs no index upkeep.  Containment
then factors through connected components (a repair is one fragment
per component), which is what :mod:`repro.incremental.engine` exploits
for component-scoped answering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.query.ast import (
    And,
    Atom,
    COMPARISON_OPS,
    Comparison,
    Const,
    EQUALITY_OPS,
    Exists,
    Formula,
    Not,
    TrueFormula,
)
from repro.relational.domain import Value, values_comparable
from repro.relational.rows import Row

AnswerTuple = Tuple[Value, ...]
#: A fact named by a negated atom: relation name and values.
BlockerKey = Tuple[str, Tuple[Value, ...]]
#: The current rows of each relation, keyed by their values.
RowsByRelation = Mapping[str, Mapping[Tuple[Value, ...], Row]]

_NO_BLOCKERS: FrozenSet[BlockerKey] = frozenset()


class Support(NamedTuple):
    """One witness: the rows it needs in a repair and the facts it
    needs absent from it."""

    rows: FrozenSet[Row]
    blockers: FrozenSet[BlockerKey]


@dataclass(frozen=True)
class ConjunctivePlan:
    """A safe CQ¬ query decomposed for witness enumeration."""

    answer_variables: Tuple[str, ...]
    atoms: Tuple[Atom, ...]
    comparisons: Tuple[Comparison, ...]
    negated: Tuple[Atom, ...]


def conjunctive_plan(
    formula: Formula, answer_variables: Tuple[str, ...] = ()
) -> Optional[ConjunctivePlan]:
    """Extract a witness plan, or ``None`` if the query is out of scope.

    In scope: (nested) ``EXISTS`` blocks over a conjunction of positive
    atoms, top-level ``NOT Atom`` conjuncts, comparisons and TRUE, where
    every variable — quantified or free, including those of negated
    atoms and comparisons — occurs in at least one positive atom
    (safety; an unsafe variable would range over the repair's active
    domain, which is not support-local).  A witness of the plan holds
    in a repair iff its support rows are in it and its blockers, the
    negated atoms' facts under its valuation, are not.  Negated
    conjunctions, negated comparisons and nested quantifiers are out
    of scope.
    """
    body = formula
    while isinstance(body, Exists):
        body = body.body
    atoms: List[Atom] = []
    negated: List[Atom] = []
    comparisons: List[Comparison] = []
    parts = body.parts if isinstance(body, And) else (body,)
    for part in parts:
        if isinstance(part, Atom):
            atoms.append(part)
        elif isinstance(part, Not) and isinstance(part.body, Atom):
            negated.append(part.body)
        elif isinstance(part, Comparison):
            comparisons.append(part)
        elif isinstance(part, TrueFormula):
            continue
        else:
            return None
    if not atoms:
        return None
    atom_variables = frozenset().union(*(atom.free_variables() for atom in atoms))
    if not body.free_variables() <= atom_variables:
        return None
    if not frozenset(answer_variables) <= atom_variables:
        return None
    return ConjunctivePlan(
        tuple(answer_variables), tuple(atoms), tuple(comparisons), tuple(negated)
    )


def _compare(op: str, left: Value, right: Value) -> bool:
    if op not in EQUALITY_OPS and not values_comparable(left, right):
        return False
    return COMPARISON_OPS[op](left, right)


def _resolve(term, binding: Mapping[str, Value]) -> Optional[Value]:
    if isinstance(term, Const):
        return term.value
    return binding.get(term.name)


def _unify(
    atom: Atom, row: Row, binding: Dict[str, Value]
) -> Optional[List[str]]:
    """Bind the atom's variables against ``row``; returns the new names.

    Returns ``None`` (binding untouched) on mismatch.
    """
    if len(row.values) != len(atom.terms):
        return None
    introduced: List[str] = []
    for term, value in zip(atom.terms, row.values):
        if isinstance(term, Const):
            if term.value != value:
                break
        elif term.name in binding:
            if binding[term.name] != value:
                break
        else:
            binding[term.name] = value
            introduced.append(term.name)
    else:
        return introduced
    for name in introduced:
        del binding[name]
    return None


def enumerate_witnesses(
    plan: ConjunctivePlan,
    rows_by_relation: RowsByRelation,
    forced: Optional[Tuple[int, Row]] = None,
) -> Iterator[Tuple[AnswerTuple, Support]]:
    """All (answer tuple, support) witnesses over the given rows.

    Positive atoms range over the rows; each negated atom contributes
    its fact under the valuation as a blocker key, whether or not a
    row holds it.

    ``forced`` pins one atom position to one row — the semi-naive delta
    step: every witness *using* a row appears with the row forced at
    some position, so the union over positions is exactly the new
    witness set after inserting that row.
    """
    checked: List[List[Comparison]] = [[] for _ in plan.atoms]
    remaining = list(plan.comparisons)

    def assign_checks(prefix_vars: Set[str], index: int) -> None:
        for comparison in list(remaining):
            names = comparison.free_variables()
            if names <= prefix_vars:
                checked[index].append(comparison)
                remaining.remove(comparison)

    seen: Set[str] = set()
    for index, atom in enumerate(plan.atoms):
        seen |= atom.free_variables()
        assign_checks(seen, index)
    # Comparisons over unbound variables cannot occur (safety), but a
    # comparison between two constants lands on the last atom.
    for comparison in remaining:  # pragma: no cover - constant folding
        checked[-1].append(comparison)

    binding: Dict[str, Value] = {}
    support: List[Row] = []

    def recurse(index: int) -> Iterator[Tuple[AnswerTuple, Support]]:
        if index == len(plan.atoms):
            answer = tuple(binding[name] for name in plan.answer_variables)
            blockers = _NO_BLOCKERS
            if plan.negated:
                blockers = frozenset(
                    (atom.relation, tuple(_resolve(t, binding) for t in atom.terms))
                    for atom in plan.negated
                )
            yield answer, Support(frozenset(support), blockers)
            return
        atom = plan.atoms[index]
        if forced is not None and forced[0] == index:
            candidates = (forced[1],) if forced[1].relation == atom.relation else ()
        else:
            candidates = tuple(rows_by_relation.get(atom.relation, {}).values())
        for row in candidates:
            introduced = _unify(atom, row, binding)
            if introduced is None:
                continue
            if all(
                _compare(
                    c.op, _resolve(c.left, binding), _resolve(c.right, binding)
                )
                for c in checked[index]
            ):
                support.append(row)
                yield from recurse(index + 1)
                support.pop()
            for name in introduced:
                del binding[name]

    yield from recurse(0)


class WitnessIndex:
    """Answer → supports map for one plan, maintained under updates.

    Maintenance keys on support rows only; blockers are resolved by the
    reader against the rows current at query time.
    """

    def __init__(
        self,
        plan: ConjunctivePlan,
        rows_by_relation: RowsByRelation,
    ) -> None:
        self.plan = plan
        self._supports: Dict[AnswerTuple, Set[Support]] = {}
        self._by_row: Dict[Row, Set[Tuple[AnswerTuple, Support]]] = {}
        for answer, support in enumerate_witnesses(plan, rows_by_relation):
            self._add(answer, support)

    def _add(self, answer: AnswerTuple, support: Support) -> None:
        bucket = self._supports.setdefault(answer, set())
        if support in bucket:
            return
        bucket.add(support)
        for row in support.rows:
            self._by_row.setdefault(row, set()).add((answer, support))

    def apply_insert(self, row: Row, rows_by_relation: RowsByRelation) -> None:
        """Account for ``row`` having been inserted (post-insert rows)."""
        for index, atom in enumerate(self.plan.atoms):
            if atom.relation != row.relation:
                continue
            for answer, support in enumerate_witnesses(
                self.plan, rows_by_relation, forced=(index, row)
            ):
                self._add(answer, support)

    def apply_delete(self, row: Row) -> None:
        """Drop every witness whose support uses ``row``."""
        for answer, support in self._by_row.pop(row, ()):
            bucket = self._supports.get(answer)
            if bucket is None or support not in bucket:
                continue
            bucket.discard(support)
            if not bucket:
                del self._supports[answer]
            for other in support.rows:
                if other != row:
                    entries = self._by_row.get(other)
                    if entries is not None:
                        entries.discard((answer, support))
                        if not entries:
                            del self._by_row[other]

    # Read API -----------------------------------------------------------------

    def answers(self) -> List[AnswerTuple]:
        return list(self._supports)

    def supports_for(self, answer: AnswerTuple) -> FrozenSet[Support]:
        return frozenset(self._supports.get(answer, ()))

    @property
    def witness_count(self) -> int:
        return sum(len(bucket) for bucket in self._supports.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WitnessIndex({len(self._supports)} answers, "
            f"{self.witness_count} witnesses)"
        )
