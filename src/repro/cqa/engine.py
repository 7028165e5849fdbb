"""The preferred consistent-query-answering engine.

:class:`CqaEngine` wires the whole stack together: it builds the
conflict graph of an instance w.r.t. its FDs, attaches a priority,
materializes (lazily, with caching) the preferred repairs of any family,
and answers closed and open queries under Definition 3 semantics.

The evaluation strategy mirrors the complexity results of Section 4:
preferred consistent answering is a *counterexample search* — a closed
query fails to be consistently true as soon as one preferred repair
falsifies it — so repairs stream through the engine with early exit,
and for the polynomial families (L, S, C) each candidate repair is
admitted by its PTIME membership check before the query is evaluated.

Per-repair :class:`~repro.query.evaluator.EvaluationContext` objects
(with their lazily-built hash indexes and join plans) are cached in a
:class:`~repro.query.evaluator.ContextCache` and shared across every
query of one engine's lifetime; ``naive=True`` pins the engine to the
scan-based reference evaluator instead.  Whichever repair source runs —
the serial :meth:`CqaEngine._stream_repairs` or the sharded executor
(``parallel=``) — its repairs go through the one Definition 3 fold in
:mod:`repro.cqa.answers`, so both paths share counting, intersection
and the verdict rule.
"""

from __future__ import annotations

import time
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs import annotate, observe_query
from repro.obs import span as obs_span

from repro.constraints.conflict_graph import ConflictGraph, build_conflict_graph
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family, preferred_repairs
from repro.core.optimality import is_locally_optimal, is_semi_globally_optimal
from repro.cqa.answers import (
    ClosedAnswer,
    ClosedFold,
    OpenAnswers,
    OpenFold,
    fold_closed,
    fold_open,
)
from repro.exceptions import QueryError
from repro.priorities.priority import Priority, PriorityEdge
from repro.query.ast import Formula
from repro.query.evaluator import ContextCache
from repro.query.sql import sql_to_formula
from repro.query.validate import parse_checked
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row
from repro.repairs.enumerate import enumerate_repairs, repair_sort_key

Repair = FrozenSet[Row]

_STREAMING_FILTERS = {
    Family.REP: lambda repair, priority: True,
    Family.LOCAL: lambda repair, priority: is_locally_optimal(repair, priority),
    Family.SEMI_GLOBAL: lambda repair, priority: is_semi_globally_optimal(
        repair, priority
    ),
}


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

    def _stream_repairs(self, family: Family) -> Iterator[Repair]:
        """Preferred repairs with early-exit-friendly streaming.

        A stream that runs to completion has seen the whole family, so
        it populates :attr:`_repair_cache` — repeated ``answer()`` calls
        must not re-run Bron–Kerbosch.  Early-exited streams (a
        counterexample was found) leave the cache untouched.
        """
        if family in self._repair_cache:
            yield from self._repair_cache[family]
            return
        if family in _STREAMING_FILTERS:
            accept = _STREAMING_FILTERS[family]
            collected: List[Repair] = []
            for repair in enumerate_repairs(self.graph):
                if accept(repair, self.priority):
                    collected.append(repair)
                    yield repair
            # Store in the deterministic order repairs() promises.
            self._repair_cache.setdefault(
                family, sorted(collected, key=repair_sort_key)
            )
            return
        # G and C need global information; materialize through the cache.
        yield from self.repairs(family)

    # Closed queries -----------------------------------------------------------

    def _to_formula(self, query: Union[str, Formula]) -> Formula:
        return parse_checked(query, self.database_schema)

    def _shard_plan(self, family: Family):
        """The sharded view of this engine's preferred-repair space."""
        from repro.service.parallel import shard_plan

        return shard_plan(self.graph, self.priority, family)

    def is_consistently_true(
        self,
        query: Union[str, Formula],
        family: Optional[Family] = None,
        parallel: Optional[int] = None,
    ) -> bool:
        """Definition 3 with early exit on the first falsifying repair.

        ``parallel`` shards the repair space across a process pool
        (``0`` = hardware width, ``1`` = shard path in-process, ``None``
        = serial streaming); verdicts are identical on every path.
        """
        family = family or self.family
        formula = self._to_formula(query)
        if not formula.is_closed:
            raise QueryError(
                "closed-query CQA requires a closed formula; "
                "use certain_answers() for open queries"
            )
        return self._fold_closed(
            formula, family, parallel, stop_on_false=True
        ).counterexample is None

    def answer(
        self,
        query: Union[str, Formula],
        family: Optional[Family] = None,
        parallel: Optional[int] = None,
    ) -> ClosedAnswer:
        """Full three-valued verdict with counts and a counterexample.

        ``parallel`` routes through the sharded executor (see
        :meth:`is_consistently_true`); counts and the counterexample
        repair match the serial stream exactly for the streaming
        families (Rep, L, S) and agree on content for G and C.
        """
        started = time.perf_counter()
        family = family or self.family
        formula = self._to_formula(query)
        if not formula.is_closed:
            raise QueryError("answer() requires a closed formula")
        result = self._fold_closed(formula, family, parallel).to_answer(
            family, self._route
        )
        annotate(route=result.route, verdict=result.verdict.value)
        observe_query(
            "cqa", result.route or self._route, str(family),
            time.perf_counter() - started,
        )
        return result

    def _fold_closed(
        self,
        formula: Formula,
        family: Family,
        parallel: Optional[int],
        stop_on_false: bool = False,
    ) -> ClosedFold:
        """Fold ``family``'s repairs, serially or sharded."""
        from repro.service.parallel import resolve_workers, run_closed

        workers = resolve_workers(parallel)
        if workers is not None:
            with obs_span("shard-fan-out", workers=workers):
                return run_closed(
                    self._shard_plan(family),
                    formula,
                    workers=workers,
                    naive=self.naive,
                    stop_on_false=stop_on_false,
                )
        with obs_span("stream-repairs", route=self._route):
            folded = fold_closed(
                self._stream_repairs(family), formula, self._contexts,
                stop_on_false,
            )
            if not stop_on_false:
                annotate(repairs=folded.considered)
        return folded

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
        bit-identical to serial streaming.
        """
        started = time.perf_counter()
        family = family or self.family
        formula = self._to_formula(query)
        if variables is None:
            variables = tuple(sorted(formula.free_variables()))
        answers = self._fold_open(
            formula, tuple(variables), family, parallel
        ).to_answers(family, variables, self._route)
        annotate(route=answers.route, certain=len(answers.certain))
        observe_query(
            "cqa", answers.route or self._route, str(family),
            time.perf_counter() - started,
        )
        return answers

    def _fold_open(
        self,
        formula: Formula,
        variables: Tuple[str, ...],
        family: Family,
        parallel: Optional[int],
    ) -> OpenFold:
        """Fold ``family``'s repairs' answer sets, serially or sharded."""
        from repro.service.parallel import resolve_workers, run_open

        workers = resolve_workers(parallel)
        if workers is not None:
            with obs_span("shard-fan-out", workers=workers):
                return run_open(
                    self._shard_plan(family),
                    formula,
                    variables,
                    workers=workers,
                    naive=self.naive,
                )
        with obs_span("stream-repairs", route=self._route):
            folded = fold_open(
                self._stream_repairs(family), formula, variables,
                self._contexts,
            )
            annotate(repairs=folded.considered)
        return folded

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
