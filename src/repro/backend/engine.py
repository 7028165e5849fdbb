"""The SQLite-pushed certain-answer engine.

:class:`SqlCqaEngine` offers the ``answer()`` / ``certain_answers()`` /
``sql_certain_answers()`` surface of the in-memory engines but
evaluates rewritable queries *inside* SQLite (see
:mod:`repro.backend.rewrite`): no conflict-graph construction, no repair
streaming, one SQL statement per answer set.  That opens the workload
the in-memory engines cannot reach — file-backed instances with orders
of magnitude more rows than fit a per-repair evaluation loop.

The engine only pushes.  :meth:`~SqlCqaEngine.explain` decides without
running anything; a query outside the rewritable fragment (and every
query when priority edges are declared — this rewriting is
preference-blind; :class:`~repro.prefsql.engine.PrefSqlCqaEngine`
handles declared priorities) is declined: ``answer()`` and
``certain_answers()`` raise :class:`~repro.exceptions.QueryError` with
the blocking diagnostic's message.  The service broker
(:mod:`repro.service.broker`) probes first and serves declined queries
from its incremental engine, the one in-memory fallback.

Because the rewriting quantifies over *all* repairs, its answers are
exactly the classic (``Rep``) certain answers — and with no declared
priority every preferred family coincides with ``Rep`` (winnow keeps
everything, no repair dominates another), so any ``family`` argument is
honoured.

Result-count caveat: pushed answers report ``repairs_considered`` (and
``satisfying``) as 0 — the whole point is that no repair was ever
materialized.
"""

from __future__ import annotations

import sqlite3
import time
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.analysis.model import make_diagnostic
from repro.analysis.shapes import Classification
from repro.backend.rewrite import PlanResult, RewriteDecision, analyze_query
from repro.cache import BoundedCache
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.cqa.answers import ClosedAnswer, OpenAnswers, Verdict
from repro.exceptions import QueryError
from repro.obs import annotate, observe_query
from repro.obs import span as obs_span
from repro.query.ast import Formula
from repro.query.sql import sql_to_formula
from repro.query.validate import CheckedQuery, checked
from repro.relational.sqlite_io import load_schema

# The catalogued diagnostic renders the historical reason string
# verbatim (metric labels and tests pin it); keeping the module-level
# name preserves the old import surface.
_PRIORITY_DIAGNOSTIC = make_diagnostic("RA302")
_PRIORITY_REASON = _PRIORITY_DIAGNOSTIC.message


class SqlCqaEngine:
    """Certain-answer engine over a SQLite-persisted database.

    ``source`` is a database file path or an open connection;
    ``relation_names`` widens the visible schema to tables created
    outside repro.  ``priority`` accepts ``(winner, loser)`` row-pair
    edges — any non-empty priority declines every query (RA302).
    """

    def __init__(
        self,
        source: Union[str, Path, sqlite3.Connection],
        dependencies: Sequence[FunctionalDependency],
        priority: Iterable = (),
        family: Family = Family.REP,
        relation_names: Optional[Iterable[str]] = None,
    ) -> None:
        self._own = not isinstance(source, sqlite3.Connection)
        self._connection = sqlite3.connect(source) if self._own else source
        self.dependencies = tuple(dependencies)
        self.family = family
        self.priority_edges = tuple(priority or ())
        self.schema = load_schema(
            self._connection, tuple(relation_names) if relation_names else None
        )
        # Formulas are hashable, so explain() followed by answer()/
        # certain_answers() (the session routing pattern) and repeated
        # queries compile once; the broker passes templates, so one
        # decision serves every text of a shape.  Bounded: a mirror's
        # engine lives as long as its data, and client traffic brings
        # new query shapes.
        self._decision_cache: BoundedCache[
            Tuple[Formula, Optional[Tuple[str, ...]]], RewriteDecision
        ] = BoundedCache(1024, "sql_decision")
        #: Routing of the most recent answered call: ``"sqlite"``.
        self.last_route: Optional[str] = None

    # Lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Close the connection (no-op when one was passed in)."""
        if self._own:
            self._connection.close()

    def __enter__(self) -> "SqlCqaEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # Routing -----------------------------------------------------------------

    def explain(
        self,
        query: Union[str, Formula, CheckedQuery],
        variables: Optional[Sequence[str]] = None,
        family: Optional[Family] = None,
        classification: Optional[Classification] = None,
    ) -> RewriteDecision:
        """The routing decision for ``query``, without executing it.

        ``family`` is accepted for interface parity with the
        preference-aware engine; this engine's decisions are
        family-independent (no priority, all families coincide).
        ``classification``, when the caller has one for this query and
        schema (a :class:`~repro.analysis.RouteReport` carries it),
        spares a second classification on a decision-cache miss.  A
        :class:`~repro.query.validate.CheckedQuery` is not checked
        again: the broker passes its work unit's template, and the
        decision it gets is the template's (as ``answer()`` and
        ``certain_answers()`` run it with the query's values).
        """
        return self._decide(
            checked(query, self.schema).formula, variables, classification
        )

    def _decide(
        self,
        formula: Formula,
        variables: Optional[Sequence[str]],
        classification: Optional[Classification] = None,
    ) -> RewriteDecision:
        if self.priority_edges:
            return RewriteDecision(
                None, _PRIORITY_REASON, diagnostics=(_PRIORITY_DIAGNOSTIC,)
            )
        key = (formula, tuple(variables) if variables is not None else None)
        decision = self._decision_cache.get(key)
        if decision is None:
            decision = analyze_query(
                formula, self.schema, self.dependencies, variables,
                classification=classification,
            )
            self._decision_cache.put(key, decision)
        return decision

    def _run(
        self,
        query: CheckedQuery,
        variables: Tuple[str, ...],
        family: Family,
        started: float,
    ) -> PlanResult:
        """Decide and execute one query; a declined query raises
        :class:`QueryError` with the decision's reason."""
        with obs_span("route-decision"):
            decision = self._decide(query.formula, variables)
        if decision.plan is None:
            raise QueryError(decision.reason)
        self.last_route = "sqlite"
        annotate(route="sqlite")
        with obs_span("sql-execute"):
            result = decision.plan.run(self._connection, query.values)
        observe_query(
            "sql", "sqlite", str(family), time.perf_counter() - started
        )
        return result

    # Closed queries ----------------------------------------------------------

    def answer(
        self,
        query: Union[str, Formula, CheckedQuery],
        family: Optional[Family] = None,
    ) -> ClosedAnswer:
        """Three-valued verdict of a closed query (Definition 3)."""
        started = time.perf_counter()
        family = family or self.family
        query = checked(query, self.schema)
        if not query.formula.is_closed:
            raise QueryError("answer() requires a closed formula")
        result = self._run(query, (), family, started)
        verdict = Verdict.of(bool(result.certain), bool(result.possible))
        return ClosedAnswer(family, verdict, 0, 0, None, route="sqlite")

    def is_consistently_true(
        self, query: Union[str, Formula], family: Optional[Family] = None
    ) -> bool:
        """Whether the closed query holds in every (preferred) repair."""
        return self.answer(query, family).verdict is Verdict.TRUE

    # Open queries ------------------------------------------------------------

    def certain_answers(
        self,
        query: Union[str, Formula, CheckedQuery],
        variables: Optional[Tuple[str, ...]] = None,
        family: Optional[Family] = None,
    ) -> OpenAnswers:
        """Certain/possible answer sets of an open query."""
        started = time.perf_counter()
        family = family or self.family
        query = checked(query, self.schema)
        if variables is None:
            variables = tuple(sorted(query.formula.free_variables()))
        result = self._run(query, tuple(variables), family, started)
        return OpenAnswers(
            family,
            tuple(variables),
            result.certain,
            result.possible,
            0,
            route="sqlite",
        )

    def sql_certain_answers(
        self, sql: str, family: Optional[Family] = None
    ) -> OpenAnswers:
        """Certain answers for a conjunctive SQL query."""
        formula, variables = sql_to_formula(sql, self.schema)
        return self.certain_answers(formula, variables, family)

    # Diagnostics -------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Snapshot of the engine's configuration and last routing."""
        return {
            "backend": "sqlite",
            "relations": len(self.schema),
            "dependencies": len(self.dependencies),
            "priority_edges": len(self.priority_edges),
            "family": str(self.family),
            "last_route": self.last_route,
        }
