"""The preferred consistent-query-answering engine.

:class:`CqaEngine` wires the whole stack together: it builds the
conflict graph of an instance w.r.t. its FDs, attaches a priority,
materializes (lazily, with caching) the preferred repairs of any family,
and answers closed and open queries under Definition 3 semantics.

Preferred consistent answering is a *counterexample search* — a closed
query fails to be consistently true as soon as one preferred repair
falsifies it — so the certainty check exits at the first falsifier.
The repairs come from one :class:`~repro.service.parallel.ShardPlan`
per family, built once per engine (the engine is immutable): the
preferred fragments of each conflict-graph component, selected
component by component, so no whole repair is ever re-checked for
optimality.

Per-repair :class:`~repro.query.evaluator.EvaluationContext` objects
(with their lazily-built hash indexes and join plans) are cached in a
:class:`~repro.query.evaluator.ContextCache` and shared across every
query of one engine's lifetime; ``naive=True`` pins the engine to the
scan-based reference evaluator instead.  Whether the plan is folded in
this process or sharded across a pool (``parallel=``) is decided by
:func:`~repro.service.parallel.run_closed` /
:func:`~repro.service.parallel.run_open`, and every path goes through
the one Definition 3 fold in :mod:`repro.cqa.answers`, so counts,
answer sets and the counterexample agree on every path and family.
"""

from __future__ import annotations

import time
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    TYPE_CHECKING,
    Tuple,
    Union,
)

from repro.obs import annotate, observe_query

from repro.constraints.conflict_graph import ConflictGraph, build_conflict_graph
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family, preferred_repairs
from repro.cqa.answers import ClosedAnswer, OpenAnswers
from repro.exceptions import QueryError
from repro.priorities.priority import Priority, PriorityEdge
from repro.query.ast import Formula
from repro.query.evaluator import ContextCache
from repro.query.sql import sql_to_formula
from repro.query.validate import parse_checked
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row

if TYPE_CHECKING:
    # The service layer imports this module, so the executor is
    # imported where it runs.
    from repro.service.parallel import ShardPlan

Repair = FrozenSet[Row]


class CqaEngine:
    """Answers queries over an inconsistent instance under a repair family."""

    def __init__(
        self,
        data: Union[RelationInstance, Database],
        dependencies: Sequence[FunctionalDependency],
        priority: Union[Priority, Iterable[PriorityEdge], None] = None,
        family: Family = Family.REP,
        naive: bool = False,
    ) -> None:
        self.data = data
        self.dependencies = tuple(dependencies)
        self.graph: ConflictGraph = build_conflict_graph(data, self.dependencies)
        if isinstance(priority, Priority):
            if priority.graph != self.graph:
                raise QueryError(
                    "priority was built over a different conflict graph"
                )
            self.priority = priority
        else:
            self.priority = Priority(self.graph, priority or ())
        self.family = family
        self.naive = naive
        self._repair_cache: Dict[Family, List[Repair]] = {}
        self._plans: Dict[Family, ShardPlan] = {}
        self._contexts = ContextCache(naive=naive)

    @property
    def _route(self) -> str:
        return "naive" if self.naive else "indexed"

    @property
    def database_schema(self):
        """The full database schema, whether built over one relation or
        many (the analysis layer and validation both need this view)."""
        if isinstance(self.data, Database):
            return self.data.schema
        from repro.relational.schema import DatabaseSchema

        return DatabaseSchema([self.data.schema])

    def route_report(
        self,
        query: Union[str, Formula],
        variables: Optional[Sequence[str]] = None,
    ):
        """Static :class:`~repro.analysis.model.RouteReport` for
        ``query`` under this engine's theory and priority.

        This engine always streams repairs (route ``"naive"`` or
        ``"indexed"``); the report additionally predicts what the
        SQLite-pushed engines would do with the same quadruple, so
        callers can see which answers were one backend switch away from
        a pushed plan.
        """
        from repro.analysis import analyze

        formula = self._to_formula(query)
        return analyze(
            self.database_schema,
            self.dependencies,
            formula,
            variables,
            priority=self.priority.edges,
            naive=self.naive,
        )

    # Repair access ----------------------------------------------------------

    def repairs(self, family: Optional[Family] = None) -> List[Repair]:
        """Materialized preferred repairs of the (given or default) family."""
        family = family or self.family
        if family not in self._repair_cache:
            pool = self._repair_cache.get(Family.REP)
            self._repair_cache[family] = preferred_repairs(
                family, self.priority, pool
            )
        return self._repair_cache[family]

    # Closed queries -----------------------------------------------------------

    def _to_formula(self, query: Union[str, Formula]) -> Formula:
        return parse_checked(query, self.database_schema)

    def _plan(self, family: Family) -> ShardPlan:
        """``family``'s preferred repairs as a per-component plan,
        built on first use (racing builds are equal; one is kept)."""
        plan = self._plans.get(family)
        if plan is None:
            from repro.service.parallel import shard_plan

            plan = shard_plan(self.graph, self.priority, family)
            self._plans[family] = plan
        return plan

    def is_consistently_true(
        self,
        query: Union[str, Formula],
        family: Optional[Family] = None,
        parallel: Optional[int] = None,
    ) -> bool:
        """Definition 3 with early exit on the first falsifying repair.

        ``parallel`` shards the repair space across a process pool
        (``0`` = hardware width, ``1`` = shard path in-process, ``None``
        = fold in this process); verdicts are identical on every path.
        """
        family = family or self.family
        formula = self._to_formula(query)
        if not formula.is_closed:
            raise QueryError(
                "closed-query CQA requires a closed formula; "
                "use certain_answers() for open queries"
            )
        from repro.service.parallel import run_closed

        folded = run_closed(
            self._plan(family), formula, self._contexts, parallel,
            stop_on_false=True,
        )
        return folded.counterexample is None

    def answer(
        self,
        query: Union[str, Formula],
        family: Optional[Family] = None,
        parallel: Optional[int] = None,
    ) -> ClosedAnswer:
        """Full three-valued verdict with counts and a counterexample.

        ``parallel`` routes through the sharded executor (see
        :meth:`is_consistently_true`); counts and the counterexample
        repair are the same on every path.
        """
        started = time.perf_counter()
        family = family or self.family
        formula = self._to_formula(query)
        if not formula.is_closed:
            raise QueryError("answer() requires a closed formula")
        from repro.service.parallel import run_closed

        result = run_closed(
            self._plan(family), formula, self._contexts, parallel
        ).to_answer(family, self._route)
        annotate(route=result.route, verdict=result.verdict.value)
        observe_query(
            "cqa", result.route or self._route, str(family),
            time.perf_counter() - started,
        )
        return result

    # Open queries ---------------------------------------------------------------

    def certain_answers(
        self,
        query: Union[str, Formula],
        variables: Optional[Tuple[str, ...]] = None,
        family: Optional[Family] = None,
        parallel: Optional[int] = None,
    ) -> OpenAnswers:
        """Certain/possible answer sets of an open query (along [1, 7]).

        ``parallel`` shards per-repair evaluation across a process pool
        (see :meth:`is_consistently_true`); the merged answer sets are
        bit-identical to the in-process fold.
        """
        started = time.perf_counter()
        family = family or self.family
        formula = self._to_formula(query)
        if variables is None:
            variables = tuple(sorted(formula.free_variables()))
        from repro.service.parallel import run_open

        answers = run_open(
            self._plan(family), formula, variables, self._contexts, parallel
        ).to_answers(family, variables, self._route)
        annotate(route=answers.route, certain=len(answers.certain))
        observe_query(
            "cqa", answers.route or self._route, str(family),
            time.perf_counter() - started,
        )
        return answers

    def sql_certain_answers(
        self,
        sql: str,
        family: Optional[Family] = None,
        parallel: Optional[int] = None,
    ) -> OpenAnswers:
        """Certain answers for a conjunctive SQL query."""
        if not isinstance(self.data, Database):
            schema_source = Database.single(self.data)
        else:
            schema_source = self.data
        formula, variables = sql_to_formula(sql, schema_source.schema)
        return self.certain_answers(formula, variables, family, parallel)

    # Diagnostics -------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Human-oriented snapshot of the engine's inconsistency state."""
        return {
            "tuples": self.graph.vertex_count,
            "conflicts": self.graph.edge_count,
            "oriented": len(self.priority.edges),
            "priority_total": self.priority.is_total,
            "family": str(self.family),
            "evaluation": self._route,
            "contexts_cached": len(self._contexts),
        }
