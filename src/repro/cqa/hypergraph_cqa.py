"""Consistent query answering over denial constraints (paper Section 6).

The paper's closing generalization: replace the conflict graph with a
conflict *hypergraph* [6] so that denial constraints — where a single
violation can involve more than two tuples, possibly across relations —
are supported.  Repairs are the maximal subsets containing no full
hyperedge; consistent answers keep Definition 3's shape (true iff true
in every repair).

Priorities are deliberately *not* lifted here: the paper notes that
with hyperedges "the current notion of priority does not have a clear
meaning", so this engine serves the classic ``Rep`` family only.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence, Tuple, Union

from repro.obs import annotate, observe_query
from repro.obs import span as obs_span
from repro.constraints.denial import (
    ConflictHypergraph,
    DenialConstraint,
    build_conflict_hypergraph,
)
from repro.core.families import Family
from repro.cqa.answers import ClosedAnswer, OpenAnswers, fold_closed, fold_open
from repro.exceptions import QueryError
from repro.query.ast import Formula
from repro.query.evaluator import ContextCache
from repro.query.validate import parse_checked
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row
from repro.relational.schema import DatabaseSchema


class DenialCqaEngine:
    """Consistent answers w.r.t. a set of denial constraints."""

    #: Route label of every answer (repairs are evaluated one by one).
    _route = "indexed"

    def __init__(
        self,
        data: Union[RelationInstance, Database, Iterable[Row]],
        constraints: Sequence[DenialConstraint],
    ) -> None:
        if isinstance(data, RelationInstance):
            data = Database([data])
        if isinstance(data, Database):
            rows, self.schema = data.all_rows(), data.schema
        else:
            rows = frozenset(data)
            self.schema = DatabaseSchema(
                {row.schema.name: row.schema for row in rows}.values()
            )
        self.constraints = tuple(constraints)
        self.hypergraph: ConflictHypergraph = build_conflict_hypergraph(
            rows, self.constraints
        )
        self._repairs = None
        self._contexts = ContextCache()

    def repairs(self):
        """All hypergraph repairs (cached)."""
        if self._repairs is None:
            self._repairs = self.hypergraph.maximal_independent_sets()
        return self._repairs

    def _to_formula(self, query: Union[str, Formula]) -> Formula:
        return parse_checked(query, self.schema)

    def answer(self, query: Union[str, Formula]) -> ClosedAnswer:
        """Three-valued consistent answer to a closed query."""
        started = time.perf_counter()
        formula = self._to_formula(query)
        if not formula.is_closed:
            raise QueryError("answer() requires a closed formula")
        with obs_span("hypergraph-repairs", route=self._route):
            folded = fold_closed(self.repairs(), formula, self._contexts)
            annotate(repairs=folded.considered)
        observe_query(
            "denial", self._route, str(Family.REP),
            time.perf_counter() - started,
        )
        return folded.to_answer(Family.REP, self._route)

    def certain_answers(
        self,
        query: Union[str, Formula],
        variables: Optional[Tuple[str, ...]] = None,
    ) -> OpenAnswers:
        """Certain/possible answers of an open query over the repairs."""
        started = time.perf_counter()
        formula = self._to_formula(query)
        if variables is None:
            variables = tuple(sorted(formula.free_variables()))
        with obs_span("hypergraph-repairs", route=self._route):
            folded = fold_open(
                self.repairs(), formula, variables, self._contexts
            )
            annotate(repairs=folded.considered)
        observe_query(
            "denial", self._route, str(Family.REP),
            time.perf_counter() - started,
        )
        return folded.to_answers(Family.REP, variables, self._route)
