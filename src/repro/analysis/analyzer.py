"""`analyze(schema, fds, query, variables, *, priority, ...) -> RouteReport`.

Analysis has two halves.  A :class:`Theory` (schema, FDs, priority
edges, duplicate-row relations) is digested once: its canonical digest
and its prioritized profiled relations do not depend on the query.
:func:`analyze` does the query-dependent work on top of it — classify
the formula and predict every engine's route.  One-shot callers pass the
four theory parts and the theory is built inline; a server that keeps
one ``Theory`` per database state passes it as ``theory=``.

This module is the one place the routing rules of every engine live:

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

import json
from dataclasses import replace
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
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
from .shapes import classify


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


def _canonical(items: Iterable) -> List:
    """``items`` sorted by their JSON: one order whatever the hash seed
    or the mix of value types."""
    return sorted(items, key=lambda item: json.dumps(item, sort_keys=True))


class Theory:
    """The query-independent half of an analysis, digested once.

    Holds the schema, the FDs, the ``(preferred, dominated)`` priority
    edges and the prioritized relations whose stored rows are not
    physically unique.  ``digest`` is a canonical SHA-256 of all four,
    independent of set iteration order; ``prioritized`` names the
    relations that carry priority edges and a usable conflict profile
    (the ones the prefsql engine orients).  A server keeps one per
    database state, so :func:`analyze` does only query work per text.
    """

    __slots__ = (
        "schema", "dependencies", "priority", "duplicate_row_relations",
        "prioritized", "digest",
    )

    def __init__(
        self,
        schema: DatabaseSchema,
        dependencies: Sequence[FunctionalDependency],
        priority: Sequence = (),
        duplicate_row_relations: AbstractSet[str] = frozenset(),
    ) -> None:
        self.schema = schema
        self.dependencies = tuple(dependencies)
        self.priority = tuple(priority)
        self.duplicate_row_relations = frozenset(duplicate_row_relations)
        self.prioritized = profiled_relations(
            schema,
            self.dependencies,
            {row.relation for edge in self.priority for row in edge},
        )
        self.digest = theory_fingerprint(
            {
                "schema": _canonical(
                    [
                        relation.name,
                        [[a.name, a.type.value] for a in relation.attributes],
                    ]
                    for relation in schema
                ),
                "fds": _canonical(
                    [fd.relation, sorted(fd.lhs), sorted(fd.rhs)]
                    for fd in self.dependencies
                ),
                "priority": _canonical(
                    [
                        [preferred.relation, list(preferred.values)],
                        [dominated.relation, list(dominated.values)],
                    ]
                    for preferred, dominated in self.priority
                ),
                "duplicates": sorted(self.duplicate_row_relations),
            }
        )


def _fingerprint(
    theory: Theory,
    query: str,
    variables: Optional[Sequence[str]],
    naive: bool,
) -> str:
    return theory_fingerprint(
        {
            "theory": theory.digest,
            "query": query,
            "variables": list(variables) if variables is not None else None,
            "naive": naive,
        }
    )


def restate(
    report: RouteReport,
    query: str,
    theory: Theory,
    variables: Optional[Sequence[str]] = None,
    naive: bool = False,
) -> RouteReport:
    """``report`` restated for the formula whose text is ``query``.

    ``report`` analyzed a formula under ``theory``, ``variables`` and
    ``naive`` that differs from this one only in its constants, and no
    message of it names a constant: classification does not look at
    values beyond their domain, so only the text, the fingerprint and
    the diagnostic spans change.  The result is what :func:`analyze`
    returns for the formula itself.
    """
    return replace(
        report,
        query=query,
        fingerprint=_fingerprint(theory, query, variables, naive),
        diagnostics=tuple(_locate(d, query) for d in report.diagnostics),
    )


def _locate(diagnostic: Diagnostic, query_text: Optional[str]) -> Diagnostic:
    """``diagnostic`` spanning the first occurrence of its subject
    token in ``query_text`` (no span when there is none)."""
    span = None
    if query_text and diagnostic.subject:
        start = query_text.find(diagnostic.subject)
        if start >= 0:
            span = Span(start, start + len(diagnostic.subject))
    if span == diagnostic.span:
        return diagnostic
    return replace(diagnostic, span=span)


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
    theory: Optional[Theory] = None,
) -> RouteReport:
    """Classify the quadruple and predict every engine's route.

    ``priority`` is a sequence of ``(preferred, dominated)`` row pairs
    (the spelling of :class:`repro.priorities.priority.Priority` edges);
    ``duplicate_row_relations`` names prioritized relations whose stored
    rows are not physically unique (the prefsql engine streams those).
    A caller that keeps a :class:`Theory` of exactly this schema,
    dependencies, priority and duplicate set passes it as ``theory``
    instead, and only the query is analyzed; one-shot callers leave it
    out and the theory is built here.  Raises
    :class:`repro.exceptions.QueryBindingError` for answer variables not
    free in the formula, like every engine does.
    """
    if theory is None:
        theory = Theory(
            schema, dependencies, priority, duplicate_row_relations
        )
    classification = classify(
        query, theory.schema, theory.dependencies, variables
    )
    text = query_text if query_text is not None else str(query)

    diagnostics: List[Diagnostic] = []
    if theory.priority:
        # SqlCqaEngine refuses *any* declared priority, before it even
        # looks at the query.
        diagnostics.append(make_diagnostic("RA302"))

    # The prefsql engine intersects relations_of(formula) — the full
    # mention set, even inside non-conjunctive constructs — with its
    # blocked/prioritized maps, and that check precedes shape analysis.
    mentioned = relations_of(query)
    duplicated = sorted(mentioned & theory.duplicate_row_relations)
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

    prioritized_mentioned = tuple(sorted(mentioned & theory.prioritized))
    routes: Dict[str, str] = {
        MEMORY: "naive" if naive else "indexed",
        SQLITE: "sqlite",
        PREFSQL: "prefsql" if prioritized_mentioned else "sqlite",
    }

    return RouteReport(
        query=text,
        fingerprint=_fingerprint(theory, str(query), variables, naive),
        routes=routes,
        diagnostics=tuple(_locate(d, text) for d in diagnostics),
        plan_kind=classification.plan_kind,
        relations=tuple(sorted(mentioned)),
        prioritized=prioritized_mentioned,
        classification=classification,
    )
