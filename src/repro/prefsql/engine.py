"""The preference-aware SQLite-pushed certain-answer engine.

:class:`PrefSqlCqaEngine` answers queries over a *prioritized*
SQLite-persisted database with the same surface as
:class:`~repro.backend.engine.SqlCqaEngine` — ``answer()``,
``certain_answers()``, ``sql_certain_answers()``, ``explain()``,
``last_route`` — but does not decline just because a priority is
declared.  Instead it materializes the oriented dominance edges into
side tables (:mod:`repro.prefsql.edges`), derives the per-family
survivor tables of the winnow selection (:mod:`repro.prefsql.winnow`),
and composes them with the backend's NOT-EXISTS rewriting: an answer
is certain iff some preferred witness row's group is certified by
*every preferred class*, and possible iff some preferred class holds a
witness.  Both conditions are single SQL statements.

Routing of the last call, via :attr:`last_route`:

``"prefsql"``
    The query mentioned a prioritized relation and was pushed with the
    preference-aware plan (for ``Family.REP`` the preferences are
    ignored by definition — winnow over the repair family keeps
    everything — and the plain plan runs under the same label).
``"sqlite"``
    The query was pushed but mentioned no prioritized relation, so the
    preference-blind plan sufficed (clean relations, or dirty
    relations whose conflicts carry no orientation).

The engine only pushes.  Outside the pushdown fragment it declines:
``explain()`` returns the decision with the blocking reason, and
``answer()`` / ``certain_answers()`` raise
:class:`~repro.exceptions.QueryError` with it.  The declined shapes:
non-conjunctive bodies (disjunction, negation, universal
quantification), unsafe variables, self-joins of or non-key joins
between dirty relations, relations whose FDs have differing left-hand
sides (no per-group class structure — this includes any priority
declared over such a relation), and prioritized relations stored with
duplicate physical rows (RA303; a file-backed source can hold them, the
broker's mirror never does).  The service broker
(:mod:`repro.service.broker`) probes first and serves declined queries
from its incremental engine, the one in-memory fallback.

Cyclic declared priorities and edges over non-conflicting or absent
tuples raise at construction, exactly like the in-memory engines.

Pushed answers report ``repairs_considered`` as 0 — no repair is ever
materialized, which is the point.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple, Union

from repro.analysis.model import make_diagnostic
from repro.analysis.shapes import Classification
from repro.backend.rewrite import (
    DirtyProfile,
    NotRewritable,
    PlanResult,
    RewriteDecision,
    analyze_query,
    dirty_profile,
)
from repro.cache import BoundedCache
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.cqa.answers import ClosedAnswer, OpenAnswers, Verdict
from repro.exceptions import CyclicPriorityError, QueryError
from repro.obs import annotate, observe_query
from repro.obs import span as obs_span
from repro.prefsql.edges import materialize_conflicts, materialize_edges
from repro.prefsql.winnow import (
    build_survivor_table,
    has_unresolved_group,
    iterate_winnow,
)
from repro.priorities.priority import (
    Priority,
    PriorityEdge,
    digraph_has_cycle,
)
from repro.query.ast import Formula, relations_of
from repro.query.sql import sql_to_formula
from repro.query.validate import CheckedQuery, checked
from repro.relational.sqlite_io import load_schema

#: The families with survivor tables (``Rep`` keeps every repair).
_PREFERRED_FAMILIES = tuple(f for f in Family if f is not Family.REP)


class PrefSqlCqaEngine:
    """Certain-answer engine over a prioritized SQLite database.

    ``source`` is a database file path or an open connection;
    ``priority`` accepts ``(winner, loser)`` row pairs or a
    :class:`~repro.priorities.priority.Priority` (whose dominator index
    is exported through ``dominance_rows()``).  ``relation_names``
    widens the visible schema like :class:`SqlCqaEngine` does.
    """

    def __init__(
        self,
        source: Union[str, Path, sqlite3.Connection],
        dependencies: Sequence[FunctionalDependency],
        priority: Union[Priority, Iterable[PriorityEdge], None] = (),
        family: Family = Family.REP,
        relation_names: Optional[Iterable[str]] = None,
    ) -> None:
        self._own = not isinstance(source, sqlite3.Connection)
        self._connection = sqlite3.connect(source) if self._own else source
        self.dependencies = tuple(dependencies)
        self.family = family
        # Readers share the engine (the broker serves read-only queries
        # concurrently); the priority state below changes only in
        # extend_priority.
        self._lock = threading.RLock()
        if isinstance(priority, Priority):
            self.priority_edges: Tuple[PriorityEdge, ...] = (  # guarded-by: _lock
                priority.dominance_rows()
            )
        else:
            self.priority_edges = tuple(priority or ())
        self.schema = load_schema(
            self._connection, tuple(relation_names) if relation_names else None
        )
        self._profiles: Dict[str, DirtyProfile] = {}
        for relation in self.schema:
            try:
                profile = dirty_profile(relation, self.dependencies)
            except NotRewritable:
                continue  # differing FD LHSs: analyze_query rejects uses
            if profile is not None:
                self._profiles[relation.name] = profile
        # Validation happens eagerly (like the in-memory engines'
        # Priority construction); only edges over profiled relations are
        # materialized — the rest cannot be pushed anyway.
        self._edge_counts: Dict[str, int] = {}  # guarded-by: _lock
        if self.priority_edges:
            self._edge_counts = materialize_edges(
                self._connection,
                self.schema,
                self.dependencies,
                self._profiles,
                self.priority_edges,
            )
        self._blocked: Dict[str, str] = {}  # guarded-by: _lock
        for name in self._edge_counts:
            reason = self._duplicate_rows_reason(name)
            if reason is not None:
                self._blocked[name] = reason
        #: (relation, family) -> (survivor table, fully resolved).
        self._survivors: Dict[Tuple[str, Family], Tuple[str, bool]] = {}  # guarded-by: _lock
        self._conflicts_materialized: Set[str] = set()  # guarded-by: _lock
        self._build_survivors()
        # One decision per formula, variables and family; the broker
        # passes templates, so one serves every text of a shape.
        # Bounded: the broker keeps one engine alive per database for
        # the lifetime of its data, while client traffic brings new
        # query shapes.
        self._decisions: BoundedCache[
            Tuple[Formula, Optional[Tuple[str, ...]], Family], RewriteDecision
        ] = BoundedCache(1024, "prefsql_decision")
        #: Routing of the most recent answered call: ``"prefsql"`` or
        #: ``"sqlite"``.
        self.last_route: Optional[str] = None

    # Lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Close the connection (no-op when one was passed in)."""
        if self._own:
            self._connection.close()

    def __enter__(self) -> "PrefSqlCqaEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # Priority maintenance ----------------------------------------------------

    def extend_priority(
        self, additional: Iterable[PriorityEdge]
    ) -> None:
        """Incrementally orient further conflict edges (``Φ ⊆ Ψ``).

        The incremental-maintenance path for a long-lived mirror: newly
        declared edges are validated against the *combined* digraph
        (acyclicity) and appended to the ``_repro_edges`` side table
        row by row — no re-derivation of the existing orientation.
        Survivor tables and cached decisions are preference-dependent,
        so the tables are rebuilt and the decisions dropped; conflict
        materializations depend on the data only and survive.
        """
        extra = tuple(additional)
        if not extra:
            return
        with self._lock:
            combined = self.priority_edges + extra
            if digraph_has_cycle(combined):
                raise CyclicPriorityError(
                    "extending the priority creates a cycle"
                )
            counts = materialize_edges(
                self._connection,
                self.schema,
                self.dependencies,
                self._profiles,
                extra,
                append=True,
            )
            self.priority_edges = combined
            for name, count in counts.items():
                self._edge_counts[name] = (
                    self._edge_counts.get(name, 0) + count
                )
                if name not in self._blocked:
                    reason = self._duplicate_rows_reason(name)
                    if reason is not None:
                        self._blocked[name] = reason
            self._build_survivors()
            self._decisions.clear()

    # Survivor management -----------------------------------------------------

    def _duplicate_rows_reason(self, relation: str) -> Optional[str]:
        """Priority edges bind to rowids; duplicate physical rows would
        leave one copy unaccounted for, so queries over such relations
        are declined."""
        from repro.relational.sqlite_io import quote_identifier

        table = quote_identifier(relation)
        total = self._connection.execute(
            f"SELECT COUNT(*) FROM {table}"
        ).fetchone()[0]
        distinct = self._connection.execute(
            f"SELECT COUNT(*) FROM (SELECT DISTINCT * FROM {table})"
        ).fetchone()[0]
        if total != distinct:
            # Rendered through the diagnostic catalog so the reason
            # string (a metric label) has exactly one definition.
            return make_diagnostic("RA303", relation=relation).message
        return None

    def _build_survivors(self) -> None:
        """(Re)build the survivor tables of every prioritized relation
        under every preferred family.

        Runs at construction and in :meth:`extend_priority` only, so
        answering a query never writes to the connection: readers
        sharing it (the broker's mirror) see no DDL between their
        statements.
        """
        with self._lock:
            self._survivors = {}
            names = self._edge_counts.keys() - self._blocked.keys()
            for name in sorted(names):
                profile = self._profiles[name]
                if name not in self._conflicts_materialized:
                    materialize_conflicts(self._connection, profile)
                    self._conflicts_materialized.add(name)
                for family in _PREFERRED_FAMILIES:
                    self._survivors[(name, family)] = self._survivor_table(
                        profile, family
                    )

    def _survivor_table(
        self, profile: DirtyProfile, family: Family
    ) -> Tuple[str, bool]:
        """(survivor table, fully resolved) of one relation and family."""
        if family is Family.COMMON:
            # The staged Algorithm 1 fixpoint doubles as the survivor
            # computation when it fully resolves the relation: the
            # committed clean fragment *is* the unique common repair.
            fixpoint = iterate_winnow(self._connection, profile)
            if fixpoint.remaining == 0:
                return fixpoint.committed_table, True
            table = build_survivor_table(self._connection, profile, family)
            return table, False
        table = build_survivor_table(self._connection, profile, family)
        return (
            table,
            not has_unresolved_group(self._connection, profile, table),
        )

    # Routing -----------------------------------------------------------------

    def explain(
        self,
        query: Union[str, Formula, CheckedQuery],
        variables: Optional[Sequence[str]] = None,
        family: Optional[Family] = None,
        classification: Optional[Classification] = None,
    ) -> RewriteDecision:
        """The routing decision for ``query``, without executing it.

        ``classification``, when the caller has one for this query and
        schema (a :class:`~repro.analysis.RouteReport` carries it),
        spares a second classification on a decision-cache miss.  A
        :class:`~repro.query.validate.CheckedQuery` is not checked
        again: the broker passes its work unit's template, and the
        decision it gets is the template's (as ``answer()`` and
        ``certain_answers()`` run it with the query's values).
        """
        return self._decide(
            checked(query, self.schema).formula,
            variables,
            family or self.family,
            classification,
        )

    def _decide(
        self,
        formula: Formula,
        variables: Optional[Sequence[str]],
        family: Family,
        classification: Optional[Classification] = None,
    ) -> RewriteDecision:
        key = (
            formula,
            tuple(variables) if variables is not None else None,
            family,
        )
        decision = self._decisions.get(key)
        if decision is not None:
            return decision
        mentioned = relations_of(formula)
        # Decide and store under the lock, so a decision made on the
        # old priority cannot land after extend_priority's clear.
        with self._lock:
            blocked = min(mentioned & self._blocked.keys(), default=None)
            if blocked is not None:
                decision = RewriteDecision(
                    None,
                    self._blocked[blocked],
                    diagnostics=(
                        make_diagnostic(
                            "RA303", subject=blocked, relation=blocked
                        ),
                    ),
                )
            else:
                prioritized = sorted(mentioned & self._edge_counts.keys())
                survivors: Optional[Dict[str, str]] = None
                resolved: Set[str] = set()
                if prioritized and family is not Family.REP:
                    survivors = {}
                    for name in prioritized:
                        table, is_resolved = self._survivors[(name, family)]
                        survivors[name] = table
                        if is_resolved:
                            resolved.add(name)
                decision = analyze_query(
                    formula,
                    self.schema,
                    self.dependencies,
                    variables,
                    survivors=survivors,
                    resolved=resolved,
                    classification=classification,
                )
                if decision.pushed:
                    route = "prefsql" if prioritized else "sqlite"
                    decision = replace(decision, route=route)
            self._decisions.put(key, decision)
        return decision

    def _run(
        self,
        query: CheckedQuery,
        variables: Tuple[str, ...],
        family: Family,
        started: float,
    ) -> Tuple[PlanResult, str]:
        """Decide and execute one query: ``(result, route)``.  A
        declined query raises :class:`QueryError` with the decision's
        reason."""
        with obs_span("route-decision"):
            decision = self._decide(query.formula, variables, family)
        if decision.plan is None:
            raise QueryError(decision.reason)
        self.last_route = decision.route
        annotate(route=decision.route)
        with obs_span("winnow-execute", route=decision.route):
            result = decision.plan.run(self._connection, query.values)
        observe_query(
            "prefsql", decision.route, str(family),
            time.perf_counter() - started,
        )
        return result, decision.route

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
        result, route = self._run(query, (), family, started)
        verdict = Verdict.of(bool(result.certain), bool(result.possible))
        return ClosedAnswer(family, verdict, 0, 0, None, route=route)

    def is_consistently_true(
        self, query: Union[str, Formula], family: Optional[Family] = None
    ) -> bool:
        """Whether the closed query holds in every preferred repair."""
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
        result, route = self._run(query, tuple(variables), family, started)
        return OpenAnswers(
            family,
            tuple(variables),
            result.certain,
            result.possible,
            0,
            route=route,
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
        with self._lock:
            return {
                "backend": "prefsql",
                "relations": len(self.schema),
                "dependencies": len(self.dependencies),
                "priority_edges": len(self.priority_edges),
                "prioritized_relations": sorted(self._edge_counts),
                "survivor_tables": len(self._survivors),
                "family": str(self.family),
                "last_route": self.last_route,
            }
