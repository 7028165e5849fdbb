"""`analyze(schema, fds, priority, query) -> RouteReport`.

The one place the routing rules of every engine live:

* **memory** (:class:`repro.cqa.engine.CqaEngine`): always streams;
  route ``"naive"`` or ``"indexed"``.
* **sqlite** (:class:`repro.backend.engine.SqlCqaEngine`): blocked by
  declared priority edges (``RA302`` — the rewriting is
  preference-blind) and by every shape/theory blocker of the
  classification; otherwise route ``"sqlite"``.
* **prefsql** (:class:`repro.prefsql.engine.PrefSqlCqaEngine`): blocked
  by duplicate physical rows in a mentioned prioritized relation
  (``RA303``) and the classification blockers; otherwise routes
  ``"prefsql"`` when the query mentions a profiled relation with
  priority edges, else plain ``"sqlite"``.

Everything except the duplicate-row set is data-independent; callers
that know their instance pass ``duplicate_row_relations`` (the engines
compute it once per theory change), so a cached report stays exact.

Blocking order per engine reproduces each engine's historical check
order: the theory gate (RA302 / RA303) fires *before* shape analysis,
exactly as ``SqlCqaEngine._decide`` and ``PrefSqlCqaEngine._analyze``
short-circuit, so :meth:`RouteReport.expected_last_route` matches the
engine's ``last_route`` string bit-for-bit.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.constraints.fd import FunctionalDependency
from repro.query.ast import Formula, relations_of
from repro.relational.schema import DatabaseSchema

from .model import (
    MEMORY,
    PREFSQL,
    SQLITE,
    Diagnostic,
    RouteReport,
    Span,
    make_diagnostic,
    theory_fingerprint,
)
from .profiles import NotRewritable, dirty_profile
from .shapes import Classification, classify


def profiled_relations(
    schema: DatabaseSchema,
    dependencies: Sequence[FunctionalDependency],
    names: AbstractSet[str],
) -> FrozenSet[str]:
    """The subset of ``names`` with a usable conflict profile (violable
    FDs sharing one LHS) — the relations the prefsql engine orients
    edges for."""
    usable = set()
    for name in names:
        try:
            profile = dirty_profile(schema.relation(name), dependencies)
        except NotRewritable:
            continue
        if profile is not None:
            usable.add(name)
    return frozenset(usable)


def _priority_relations(priority_edges: Sequence) -> FrozenSet[str]:
    names = set()
    for preferred, dominated in priority_edges:
        names.add(preferred.relation)
        names.add(dominated.relation)
    return frozenset(names)


def _fingerprint(
    schema: DatabaseSchema,
    dependencies: Sequence[FunctionalDependency],
    priority_edges: Sequence,
    duplicate_row_relations: AbstractSet[str],
    formula: Formula,
    variables: Optional[Sequence[str]],
    naive: bool,
) -> str:
    return theory_fingerprint(
        {
            "schema": [
                [
                    relation.name,
                    [[a.name, a.type.value] for a in relation.attributes],
                ]
                for relation in schema
            ],
            "fds": sorted(
                [fd.relation, sorted(fd.lhs), sorted(fd.rhs)]
                for fd in dependencies
            ),
            "priority": sorted(
                [
                    [preferred.relation, list(preferred.values)],
                    [dominated.relation, list(dominated.values)],
                ]
                for preferred, dominated in priority_edges
            ),
            "duplicates": sorted(duplicate_row_relations),
            "query": str(formula),
            "variables": list(variables) if variables is not None else None,
            "naive": naive,
        }
    )


def _locate(diagnostic: Diagnostic, query_text: Optional[str]) -> Diagnostic:
    """Best-effort span: first occurrence of the subject token."""
    if query_text and diagnostic.subject:
        start = query_text.find(diagnostic.subject)
        if start >= 0:
            return diagnostic.with_span(
                Span(start, start + len(diagnostic.subject))
            )
    return diagnostic


def analyze(
    schema: DatabaseSchema,
    dependencies: Sequence[FunctionalDependency],
    query: Formula,
    variables: Optional[Sequence[str]] = None,
    *,
    priority: Sequence = (),
    duplicate_row_relations: AbstractSet[str] = frozenset(),
    naive: bool = False,
    query_text: Optional[str] = None,
) -> RouteReport:
    """Classify the quadruple and predict every engine's route.

    ``priority`` is a sequence of ``(preferred, dominated)`` row pairs
    (the spelling of :class:`repro.priorities.priority.Priority` edges);
    ``duplicate_row_relations`` names prioritized relations whose stored
    rows are not physically unique (the prefsql engine streams those).
    Raises :class:`repro.exceptions.QueryBindingError` for answer
    variables not free in the formula, like every engine does.
    """
    classification = classify(query, schema, dependencies, variables)
    text = query_text if query_text is not None else str(query)

    diagnostics: List[Diagnostic] = []
    prioritized_all = _priority_relations(priority)
    if prioritized_all:
        # SqlCqaEngine refuses *any* declared priority, before it even
        # looks at the query.
        diagnostics.append(make_diagnostic("RA302"))

    # The prefsql engine intersects relations_of(formula) — the full
    # mention set, even inside non-conjunctive constructs — with its
    # blocked/prioritized maps, and that check precedes shape analysis.
    mentioned = relations_of(query)
    duplicated = sorted(mentioned & set(duplicate_row_relations))
    if duplicated:
        # PrefSqlCqaEngine reports min() of the blocked intersection.
        diagnostics.append(
            make_diagnostic(
                "RA303", subject=duplicated[0], relation=duplicated[0]
            )
        )

    # Classification diagnostics include the C_forest verdict: a sound
    # multi-dirty key-join forest arrives as informational RA011 (both
    # pushed engines compile it), anything else as blocking RA201.
    diagnostics.extend(classification.diagnostics)

    prioritized_mentioned = tuple(
        sorted(
            mentioned
            & profiled_relations(schema, dependencies, prioritized_all)
        )
    )
    routes: Dict[str, str] = {
        MEMORY: "naive" if naive else "indexed",
        SQLITE: "sqlite",
        PREFSQL: "prefsql" if prioritized_mentioned else "sqlite",
    }

    return RouteReport(
        query=text,
        fingerprint=_fingerprint(
            schema,
            dependencies,
            priority,
            duplicate_row_relations,
            query,
            variables,
            naive,
        ),
        routes=routes,
        diagnostics=tuple(_locate(d, text) for d in diagnostics),
        plan_kind=classification.plan_kind,
        relations=tuple(sorted(mentioned)),
        prioritized=prioritized_mentioned,
    )
