"""The typed diagnostic model of the static analyzer.

Every routing decision the engines make — push a query into SQLite,
compose it with winnow survivor tables, or fall back to in-memory
repair streaming — traces back to a small set of *data-independent*
conditions on the (schema, FD theory, priority, query) quadruple.  This
module gives each condition a stable identity:

* :class:`Diagnostic` — one finding, with a code (``RA101``), a
  kebab-case name (``unsafe-variable``), a severity, the engines whose
  pushdown it blocks, a human-readable message, a fix hint, and an
  optional span into the query text;
* :data:`CATALOG` — the closed set of diagnostic codes.  The message
  *templates* are the exact reason strings the engines have always
  rendered, so ``repro_fallbacks_total{reason}`` metric labels and every
  existing test phrase stay stable while callers can now match on codes;
* :class:`RouteReport` — the analyzer's verdict: the route each engine
  would take, every diagnostic, and a fingerprint of the analyzed
  theory+query (never of the data) under which the report may be cached.

Severity semantics: ``error`` diagnostics block at least one pushed
engine; ``info`` diagnostics explain a decision without blocking
anything (the C_forest recognition, the statically-empty plan).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Dict, FrozenSet, Mapping, Optional, Tuple

if TYPE_CHECKING:
    from .shapes import Classification

# CPython's builtin SHA-256: hashlib would map OpenSSL (~3.5 MB
# resident) for this one digest.
try:  # CPython 3.12+
    from _sha2 import sha256
except ImportError:  # CPython 3.10 / 3.11
    from _sha256 import sha256

#: Engine identifiers a diagnostic can block / a report can route.
SQLITE = "sqlite"
PREFSQL = "prefsql"
MEMORY = "memory"
ENGINES: Tuple[str, ...] = (SQLITE, PREFSQL, MEMORY)

#: Both pushed engines (the common blocking scope of shape diagnostics).
_PUSHED: FrozenSet[str] = frozenset({SQLITE, PREFSQL})


class Severity(Enum):
    """How a diagnostic affects routing."""

    INFO = "info"  #: explains a decision; blocks nothing
    ERROR = "error"  #: blocks the pushdown of at least one engine

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Span:
    """A half-open character range into the analyzed query text."""

    start: int
    end: int

    def to_dict(self) -> Dict[str, int]:
        return {"start": self.start, "end": self.end}


@dataclass(frozen=True)
class DiagnosticSpec:
    """One catalog entry: the identity and rendering of a code."""

    code: str  #: e.g. ``"RA201"``
    name: str  #: e.g. ``"self-join-dirty"``
    severity: Severity
    #: Engines whose pushdown the diagnostic blocks (empty for info).
    blocks: FrozenSet[str]
    #: ``str.format`` template producing the legacy reason string.
    template: str
    hint: str

    @property
    def full_code(self) -> str:
        return f"{self.code}-{self.name}"


def _spec(code, name, severity, blocks, template, hint) -> DiagnosticSpec:
    return DiagnosticSpec(code, name, severity, frozenset(blocks), template, hint)


#: The closed catalog of diagnostic codes.  Templates reproduce the
#: engines' historical reason strings verbatim — rendered text is API.
CATALOG: Dict[str, DiagnosticSpec] = {
    spec.code: spec
    for spec in (
        # --- informational (route explanations, never blocking) -----------
        _spec(
            "RA001", "pushdown-rewritable", Severity.INFO, (),
            "query is inside the rewritable fragment ({kind} plan)",
            "no action needed: certain answers run as one SQL statement",
        ),
        _spec(
            "RA002", "statically-empty", Severity.INFO, (),
            "statically unsatisfiable: {why}",
            "the conjunction can never hold under two-domain semantics; "
            "no SQL runs at all",
        ),
        _spec(
            "RA011", "rewritable-c-forest", Severity.INFO, (),
            "{explanation}",
            "C_forest key-join trees are first-order rewritable "
            "(Fuxman-Miller); the pushdown compiles them to recursive "
            "NOT EXISTS certifications — no action needed",
        ),
        # --- query-shape blockers (both pushed engines) --------------------
        _spec(
            "RA101", "unsafe-variable", Severity.ERROR, _PUSHED,
            "unsafe variable(s) {names} occur in no relational atom",
            "bind every quantified and answer variable in a relational atom",
        ),
        _spec(
            "RA102", "non-conjunctive", Severity.ERROR, _PUSHED,
            "non-conjunctive construct {construct} in the body",
            "only existential prefixes over conjunctions of atoms and "
            "comparisons are rewritable; split disjunctions, push negation "
            "into comparisons, or stream repairs",
        ),
        _spec(
            "RA103", "no-relational-atom", Severity.ERROR, _PUSHED,
            "no relational atom (pure active-domain query)",
            "add a relational atom so the query ranges over stored rows",
        ),
        _spec(
            "RA104", "shadowed-quantifier", Severity.ERROR, _PUSHED,
            "quantified variable {name!r} shadows an outer variable",
            "rename the inner quantified variable",
        ),
        # --- dirty-join blockers -------------------------------------------
        _spec(
            "RA201", "self-join-dirty", Severity.ERROR, _PUSHED,
            "more than one atom over inconsistent relation(s) "
            "{involved}; their repair choices interact",
            "C_forest key-join trees push (RA011); outside that class "
            "— join cycles, non-key correlation, dirty self-joins — "
            "keep at most one atom over an inconsistent relation or "
            "accept repair streaming",
        ),
        # --- theory blockers -----------------------------------------------
        _spec(
            "RA301", "mixed-lhs-priority", Severity.ERROR, _PUSHED,
            "relation {relation!r} has dependencies with differing "
            "left-hand sides; its repairs are not per-group class choices",
            "restate the dependencies over one shared left-hand side, or "
            "accept repair streaming",
        ),
        _spec(
            "RA302", "priority-preference-blind", Severity.ERROR,
            (SQLITE,),
            "priority edges declared: this engine's rewriting is "
            "preference-blind — use PrefSqlCqaEngine (repro.prefsql) for "
            "the winnow-aware pushdown",
            "route prioritized workloads through the preference-aware "
            "engine (--backend prefsql / the broker's prefsql pushdown)",
        ),
        _spec(
            "RA303", "duplicate-prioritized-rows", Severity.ERROR,
            (PREFSQL,),
            "prioritized relation {relation!r} stores duplicate rows; "
            "edge orientation is ambiguous, streaming repairs instead",
            "deduplicate the stored rows of the relation (priority edges "
            "bind to rowids, so each tuple must be physically unique)",
        ),
    )
}

#: Reverse lookup: full code ("RA101-unsafe-variable") -> spec.
FULL_CODES: Dict[str, DiagnosticSpec] = {
    spec.full_code: spec for spec in CATALOG.values()
}


@dataclass(frozen=True)
class Diagnostic:
    """One rendered finding of the analyzer.

    ``message`` is the legacy reason string (stable API: it feeds
    ``RewriteDecision.reason``, ``last_route`` and the
    ``repro_fallbacks_total{reason}`` metric label); ``subject`` is the
    token the finding is about (a variable, relation or keyword) used to
    locate ``span`` in the query text when one is available.
    """

    code: str
    name: str
    severity: Severity
    blocks: FrozenSet[str]
    message: str
    hint: str
    subject: Optional[str] = None
    span: Optional[Span] = None

    @property
    def full_code(self) -> str:
        return f"{self.code}-{self.name}"

    def blocks_engine(self, engine: str) -> bool:
        return engine in self.blocks

    def render(self) -> str:
        """One-line human form: ``[RA101-unsafe-variable] error: ...``."""
        return f"[{self.full_code}] {self.severity.value}: {self.message}"

    def with_span(self, span: Optional[Span]) -> "Diagnostic":
        return replace(self, span=span) if span is not None else self

    def to_dict(self) -> Dict[str, object]:
        body: Dict[str, object] = {
            "code": self.full_code,
            "severity": self.severity.value,
            "blocks": sorted(self.blocks),
            "message": self.message,
            "hint": self.hint,
        }
        if self.span is not None:
            body["span"] = self.span.to_dict()
        return body


def make_diagnostic(
    code: str, subject: Optional[str] = None, **fields: object
) -> Diagnostic:
    """Instantiate a catalog code, rendering its message template."""
    spec = CATALOG[code]
    return Diagnostic(
        code=spec.code,
        name=spec.name,
        severity=spec.severity,
        blocks=spec.blocks,
        message=spec.template.format(**fields),
        hint=spec.hint,
        subject=subject,
    )


def fallback_route(reason: str) -> str:
    """The route label of a fallback, ``fallback: <reason>`` (one
    definition for decisions, reports and ``repro query``)."""
    return f"fallback: {reason}"


@dataclass(frozen=True)
class RouteReport:
    """The analyzer's verdict for one (schema, FDs, priority, query).

    ``routes`` maps each engine to the route label its ``last_route``
    would record (``"fallback"`` is abstracted —
    :meth:`expected_last_route` renders the engine's exact string
    including the reason).  ``fingerprint`` is the SHA-256 of the
    theory's digest (:attr:`repro.analysis.analyzer.Theory.digest`:
    schema, FDs, priority edges and duplicate-row relations), the query
    text, the answer variables and the ``naive`` flag — never instance
    data — so reports are cacheable across requests until the theory
    changes.  ``classification`` is the shape analysis the report was
    built from; a pushed engine's probe compiles from it instead of
    classifying again.  It takes no part in equality or
    :meth:`to_dict`.
    """

    query: str
    fingerprint: str
    routes: Mapping[str, str]
    diagnostics: Tuple[Diagnostic, ...]
    #: ``"clean"`` / ``"dirty"`` / ``"forest"`` / ``"empty"`` when
    #: rewritable, else None.
    plan_kind: Optional[str] = None
    #: Relations the query mentions (diagnostic convenience).
    relations: Tuple[str, ...] = ()
    #: Prioritized relations among them (drives prefsql vs sqlite label).
    prioritized: Tuple[str, ...] = ()
    classification: Optional["Classification"] = field(
        default=None, compare=False, repr=False
    )

    def blocking(self, engine: str) -> Tuple[Diagnostic, ...]:
        """The diagnostics blocking ``engine``, in decision order."""
        return tuple(
            diagnostic
            for diagnostic in self.diagnostics
            if diagnostic.blocks_engine(engine)
        )

    def blocked(self, engine: str) -> bool:
        return any(d.blocks_engine(engine) for d in self.diagnostics)

    def expected_last_route(self, engine: str) -> str:
        """The engine's route label for the query: its ``last_route``
        when pushed, ``fallback: <reason>`` when a diagnostic blocks it."""
        blocking = self.blocking(engine)
        if blocking:
            return fallback_route(blocking[0].message)
        return self.routes[engine]

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(
            d for d in self.diagnostics if d.severity is Severity.ERROR
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "query": self.query,
            "fingerprint": self.fingerprint,
            "routes": dict(self.routes),
            "plan": self.plan_kind,
            "relations": list(self.relations),
            "prioritized": list(self.prioritized),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


def theory_fingerprint(payload: Mapping[str, object]) -> str:
    """A stable hex digest of a JSON-serializable description."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()
