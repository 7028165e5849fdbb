"""Batched request brokering with dedup, routing and answer memoization.

A :class:`RequestBroker` fronts one or more registered databases, each
served by a mutable :class:`~repro.incremental.engine.
IncrementalCqaEngine` and (optionally) a lazily refreshed SQLite mirror.
Batches of :class:`Request` objects are served priority-first; identical
in-flight work — same database state, query, family, answer columns —
is computed once and shared across the batch, and results are memoized
in a bounded, content-keyed :class:`AnswerCache`.

Each constant-lifted request text becomes one cached *work unit*,
keyed by database, lifted text, answer columns, active-priority state
and schema version.  Lifting is one regex pass that replaces each
number and quoted literal by a mark of its domain and returns the
literals' values; name constants written as identifiers (``Mary``) stay
in the text.  The unit holds the template formula — the lifted text
parsed once, each literal a slot, after the text itself is checked
against the schema — the normalized answer columns and the route, and
each pushed engine compiles one plan per template and family, binding
the values as SQL parameters.  A new constant in a known shape
therefore reaches the answer-cache key with no parse, schema check,
analysis or plan compilation; the incremental engine gets the template
bound to the request's values.  Per-text
observables (:meth:`~RequestBroker.analyze`, :meth:`~RequestBroker.
explain`, flight-recorder records) are rebuilt from the template's when
read, and equal a one-shot analysis of the text.  One route ladder
(:meth:`RequestBroker._target`) picks the engine from the registration,
the active priority and the unit's :class:`~repro.analysis.RouteReport`;
serving,
:meth:`~RequestBroker.backend_of`, :meth:`~RequestBroker.analyze` and
the flight recorder all read it, so the predicted route is the served
route by construction:

1. **prefsql pushdown** — a mirror, prefsql enabled, active priority
   edges, and a query the analysis does not block: the
   preference-aware winnow rewriting (:mod:`repro.prefsql`) answers
   prioritized families in one SQL statement;
2. **sqlite pushdown** — a mirror, no active priority edges, and a
   query the analysis does not block: one preference-blind SQL
   statement;
3. **incremental** — everything else, and pushed queries whose engine
   probe finds data-dependent blocking (duplicate rows): the witness
   index (``witness-index``) covers safe conjunctive queries, with or
   without safe negated atoms, and hash-indexed per-repair streaming
   (``indexed``) every other query, optionally sharded across the
   process pool of :mod:`repro.service.parallel`.

This is the only fallback: the pushed engines decline what they cannot
push and never evaluate it in memory themselves.  Each execution the
ladder meant for a pushed engine but served here counts one
``repro_fallbacks_total{reason}``, with the blocking diagnostic's
message as the reason; :meth:`RequestBroker.explain` shows the same
decision without executing.

Cache keys embed the instance's *component fingerprint* — the frozenset
of conflict-graph component vertex sets — plus the *priority
fingerprint* (the frozenset of active oriented edges), so an entry can
only ever hit the exact prioritized state it was computed on.  Updates
therefore invalidate nothing explicitly: entries of outdated states are
no longer looked up and age out under the cache's LRU bound, while a
state that returns (an insert undone by a delete) hits its old entries
again.

Concurrency: each database carries a :class:`~repro.service.rwlock.
ReadWriteLock` — updates are exclusive, read-only queries of one
database run concurrently.  The pushed (SQLite) routes overlap fully;
the in-memory engines keep their single-threaded state behind a
per-database compute mutex.  ``stats()`` reports ``concurrent_reads``,
the number of read sections that overlapped another reader.
"""

from __future__ import annotations

import contextlib
import sqlite3
import threading
import time
from dataclasses import dataclass, field, replace
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis import Diagnostic, RouteReport, Theory, restate
from repro.analysis import analyze as analyze_routes
from repro.backend.mirror import SqliteMirror
from repro.backend.rewrite import RewriteDecision
from repro.cache import BoundedCache
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.cqa.answers import ClosedAnswer, OpenAnswers
from repro.exceptions import AdmissionError, QueryError
from repro.incremental.engine import IncrementalCqaEngine
from repro.obs import RECORDER, REGISTRY, observe_fallback
from repro.priorities.priority import PriorityEdge
from repro.query.ast import Const, Formula, bind
from repro.query.parser import lift_literals
from repro.query.validate import CheckedQuery, parse_template_checked
from repro.relational.domain import Value
from repro.relational.rows import Row
from repro.service.rwlock import ReadWriteLock

Outcome = Union[ClosedAnswer, OpenAnswers]

#: Whether the linked SQLite library runs in serialized threading mode
#: (``THREADSAFE=1``): only then may overlapping readers execute SQL on
#: one shared mirror connection.  On other builds pushed queries
#: serialize on the mirror lock instead.
_SQLITE_SERIALIZED = sqlite3.threadsafety == 3

#: A component fingerprint: the vertex set of one connected component.
Component = FrozenSet[Row]


@dataclass(frozen=True)
class Request:
    """One query request in a batch.

    ``query`` is a first-order query (string or AST); ``variables``
    fixes the answer columns of open queries; ``database`` names a
    registered database (``None`` = the broker default); ``priority``
    orders service within a batch (higher first, ties keep submission
    order); ``tag`` is an opaque client correlation id echoed back on
    the result.
    """

    query: Union[str, Formula]
    family: Optional[Family] = None
    variables: Optional[Tuple[str, ...]] = None
    database: Optional[str] = None
    priority: int = 0
    tag: Optional[str] = None


@dataclass(frozen=True)
class BrokerResult:
    """A served request: the answer plus routing provenance."""

    request: Request
    outcome: Outcome
    database: str
    #: Which engine served it: ``"prefsql"``, ``"sqlite"`` or
    #: ``"incremental"``.
    engine: str
    #: Evaluation route (``"prefsql"`` / ``"sqlite"`` /
    #: ``"witness-index"`` / ``"indexed"`` / ``"naive"``) — identical
    #: for cache hits.
    route: str
    #: Served from the answer cache (a previous batch computed it).
    cached: bool = False
    #: Deduplicated against an identical request in the same batch.
    shared: bool = False
    #: Actual per-request service time (normalize + route + execute),
    #: measured by the broker — what the access log should attribute to
    #: *this* request, not a batch average.
    seconds: float = 0.0
    #: Trace id of the flight-recorder record retained for this
    #: execution; None for cache hits, dedups, and unsampled queries.
    trace_id: Optional[str] = None


@dataclass
class _CacheSlot:
    outcome: Outcome
    engine: str
    route: str


class AnswerCache(BoundedCache[Tuple, _CacheSlot]):
    """Bounded, content-keyed, thread-safe memo of broker answers.

    Keys embed the full component and priority fingerprints of the
    instance state, so a lookup can only hit an answer computed on
    bit-identical data; entries of outdated states age out under the
    LRU bound.
    """

    __slots__ = ()

    def __init__(self, max_entries: int = 1024) -> None:
        super().__init__(max_entries, "answer")


class AdmissionController:
    """Bounded-concurrency admission for the serving path.

    One *submission* (one :meth:`RequestBroker.submit` call — i.e. one
    HTTP request or one stdio line, single query or batch) occupies one
    in-flight slot for its whole service time.  With ``max_inflight``
    set, at most that many submissions execute concurrently; up to
    ``max_queue`` more wait in a bounded accept queue (FIFO via the
    condition variable), and arrivals beyond the queue bound are
    rejected immediately with :class:`~repro.exceptions.AdmissionError`
    — the caller sheds load instead of queueing unboundedly.  With
    ``max_inflight=None`` (the default) nothing blocks or rejects; the
    controller only maintains the saturation gauges.

    Gauges/counters (when the registry is enabled):
    ``repro_inflight_requests``, ``repro_accept_queue_depth``, and
    ``repro_rejected_total``.
    """

    def __init__(
        self,
        max_inflight: Optional[int] = None,
        max_queue: Optional[int] = None,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        if max_queue is not None and max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_inflight = max_inflight
        #: Accept-queue bound; defaults to ``max_inflight`` when a limit
        #: is armed (a saturated service tolerates one extra wave).
        self.max_queue = (
            max_queue if max_queue is not None else (max_inflight or 0)
        )
        self._condition = threading.Condition()
        self.inflight = 0  # guarded-by: _condition
        self.queued = 0  # guarded-by: _condition
        self.rejected = 0  # guarded-by: _condition

    def _set_gauges(self) -> None:
        """Mirror the counters into the registry (caller holds the
        condition lock, so reads here are consistent)."""
        if not REGISTRY.enabled:
            return
        REGISTRY.gauge(
            "repro_inflight_requests",
            "Submissions currently being served",
        ).set(self.inflight)  # lint: unguarded-ok
        REGISTRY.gauge(
            "repro_accept_queue_depth",
            "Submissions waiting in the bounded accept queue",
        ).set(self.queued)  # lint: unguarded-ok

    def admit(self) -> "AdmissionController":
        """``with controller.admit():`` — hold one in-flight slot."""
        return self

    def __enter__(self) -> "AdmissionController":
        with self._condition:
            if (
                self.max_inflight is not None
                and self.inflight >= self.max_inflight
            ):
                if self.queued >= self.max_queue:
                    self.rejected += 1
                    if REGISTRY.enabled:
                        REGISTRY.counter(
                            "repro_rejected_total",
                            "Submissions rejected at admission control",
                        ).inc()
                    raise AdmissionError(
                        f"service saturated: {self.inflight} in flight, "
                        f"{self.queued} queued (limits: "
                        f"{self.max_inflight}/{self.max_queue}); retry later"
                    )
                self.queued += 1
                self._set_gauges()
                while self.inflight >= self.max_inflight:
                    self._condition.wait()
                self.queued -= 1
            self.inflight += 1
            self._set_gauges()
        return self

    def __exit__(self, *exc_info: object) -> None:
        with self._condition:
            self.inflight -= 1
            self._set_gauges()
            self._condition.notify()

    def stats(self) -> Dict[str, object]:
        with self._condition:
            return {
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue if self.max_inflight else 0,
                "inflight": self.inflight,
                "queued": self.queued,
                "rejected": self.rejected,
            }


@dataclass
class _Entry:
    """One registered database: engines plus its lock hierarchy.

    ``rw`` admits concurrent read-only queries and exclusive updates.
    Inside a read section, ``compute_lock`` serializes access to the
    in-memory incremental engine (its witness index and dynamic
    conflict graph are built for single-threaded use) and ``mirror_lock``
    serializes mirror refreshes and pushdown-engine construction; the
    pushed SQL statements themselves run concurrently when the linked
    SQLite is in serialized threading mode (``sqlite3.threadsafety ==
    3``) and fall back to ``mirror_lock`` otherwise.  A
    refresh can never race a pushed read from an older mirror state:
    the mirror only becomes dirty under the write lock.
    """

    name: str
    engine: IncrementalCqaEngine
    mirror: Optional[SqliteMirror]
    family: Family
    #: Whether prioritized requests may use the prefsql rewriting.
    prefsql_pushdown: bool = True
    rw: ReadWriteLock = field(default_factory=ReadWriteLock)
    compute_lock: threading.Lock = field(default_factory=threading.Lock)
    mirror_lock: threading.Lock = field(default_factory=threading.Lock)
    meta_lock: threading.Lock = field(default_factory=threading.Lock)
    queries: int = 0
    updates: int = 0
    #: Cached component fingerprint of the current instance state;
    #: recomputing it per request would cost O(V) on the hot path.
    fingerprint: Optional[FrozenSet[Component]] = None
    #: Cached frozenset of active priority edges (part of cache keys).
    priority_fingerprint: Optional[FrozenSet[PriorityEdge]] = None
    #: The analysis theory of the current state, with the
    #: ``(active priority edges, relation count)`` key it was built for.
    theory: Optional[Tuple[Tuple, Theory]] = None


@dataclass
class _WorkUnit:
    """One query shape, checked and routed once.

    ``formula`` is parsed and schema-checked: for a text, its
    *template*, each number and quoted literal a
    :class:`~repro.query.ast.Slot` that a request's values fill, and
    ``pieces`` the template's text split at the slots.  ``variables``
    are the normalized answer columns, ``active`` the priority state the
    unit was routed under, ``target`` the engine the route ladder chose
    (``None`` while it is being routed) and ``report`` the formula's
    static route analysis (computed when the ladder or a caller first
    needs it).  Only a pushed engine's probe reads the report's
    classification, so a unit routed to ``incremental`` does not keep
    it.  ``values`` are the literals of the text that built the unit,
    ``own`` that text's formula, parsed by the unit's check, and
    ``own_report`` its report once read; other texts of the shape bind
    and rebuild theirs on each use.
    """

    formula: Formula
    variables: Tuple[str, ...]
    active: FrozenSet[PriorityEdge]
    values: Tuple[Value, ...]
    own: Formula
    pieces: Tuple[str, ...] = ()
    target: Optional[str] = None
    report: Optional[RouteReport] = None
    own_report: Optional[RouteReport] = None

    def bound(self, values: Tuple[Value, ...]) -> Formula:
        """The formula of the text whose literals are ``values``."""
        return self.own if values == self.values else bind(self.formula, values)

    def text(self, values: Tuple[Value, ...]) -> str:
        """``str`` of :meth:`bound`, without building the formula."""
        if not values:
            return str(self.formula)
        parts = [self.pieces[0]]
        for value, piece in zip(values, self.pieces[1:]):
            parts.append(str(Const(value)))
            parts.append(piece)
        return "".join(parts)


def _names_a_literal(report: RouteReport) -> bool:
    """Whether a message of a template's report shows a slot (``?``),
    as an empty plan's reason names its constant: such a text's report
    and decision are analyzed from the text itself."""
    return any("?" in diagnostic.message for diagnostic in report.diagnostics)


class RequestBroker:
    """Routes, deduplicates and memoizes batched CQA requests."""

    def __init__(
        self,
        cache_entries: int = 1024,
        parallel: Optional[int] = None,
        max_inflight: Optional[int] = None,
        max_queue: Optional[int] = None,
    ) -> None:
        self._entries: Dict[str, _Entry] = {}
        #: Saturation tracking and (with ``max_inflight``) admission
        #: control; every ``submit`` call holds one slot end to end.
        self.admission = AdmissionController(max_inflight, max_queue)
        self._default: Optional[str] = None
        self._lock = threading.Lock()
        self.cache = AnswerCache(cache_entries)
        # Parsing, schema checks and routing are data-independent
        # (modulo the active priority edges and the schema, which key
        # them) and look at a literal's domain only, so one work unit
        # serves every text of the same constant-lifted shape.
        self._units: BoundedCache[Tuple, _WorkUnit] = BoundedCache(
            1024, "route_report"
        )
        #: Worker count forwarded to the engines' enumeration paths
        #: (``None`` = serial, ``0`` = hardware width).
        self.parallel = parallel
        self.deduplicated = 0
        self.batches = 0

    # Registration -------------------------------------------------------------

    def register(
        self,
        name: str,
        data,
        dependencies: Sequence[FunctionalDependency],
        priority: Iterable[PriorityEdge] = (),
        family: Family = Family.REP,
        sqlite_pushdown: bool = True,
        prefsql_pushdown: bool = True,
    ) -> str:
        """Register a database under ``name``; the first becomes default.

        ``sqlite_pushdown`` enables the mirror entirely;
        ``prefsql_pushdown`` additionally lets *prioritized* requests
        use the preference-aware rewriting (off: they stream repairs
        in memory, the pre-prefsql behaviour).
        """
        with self._lock:
            if name in self._entries:
                raise QueryError(f"database {name!r} is already registered")
            engine = IncrementalCqaEngine(data, dependencies, priority, family)
            mirror = (
                SqliteMirror(tuple(dependencies), family)
                if sqlite_pushdown
                else None
            )
            self._entries[name] = _Entry(
                name, engine, mirror, family,
                prefsql_pushdown=prefsql_pushdown,
            )
            if self._default is None:
                self._default = name
        return name

    def _entry(self, database: Optional[str]) -> _Entry:
        name = database or self._default
        if name is None:
            raise QueryError("no database registered with the broker")
        entry = self._entries.get(name)
        if entry is None:
            raise QueryError(f"unknown database {name!r}")
        return entry

    def engine(self, database: Optional[str] = None) -> IncrementalCqaEngine:
        """The mutable engine behind one registered database."""
        return self._entry(database).engine

    @property
    def databases(self) -> Tuple[str, ...]:
        return tuple(self._entries)

    # Updates ------------------------------------------------------------------

    def _after_update(self, entry: _Entry) -> None:
        entry.updates += 1
        entry.fingerprint = None
        # Conflicts appearing or vanishing can (de)activate declared
        # priority edges, so the priority fingerprint is state-dependent.
        entry.priority_fingerprint = None
        if entry.mirror is not None:
            entry.mirror.mark_dirty()

    def insert(self, row: Row, database: Optional[str] = None):
        """Insert a tuple; later lookups key on the new state."""
        entry = self._entry(database)
        with entry.rw.write():
            delta = entry.engine.insert(row)
            self._after_update(entry)
        return delta

    def delete(self, row: Row, database: Optional[str] = None):
        """Delete a tuple; later lookups key on the new state."""
        entry = self._entry(database)
        with entry.rw.write():
            delta = entry.engine.delete(row)
            self._after_update(entry)
        return delta

    def prefer(
        self, winner: Row, loser: Row, database: Optional[str] = None
    ) -> None:
        """Declare a priority edge; later lookups key on the new
        active-priority state."""
        entry = self._entry(database)
        with entry.rw.write():
            entry.engine.prefer(winner, loser)
            entry.updates += 1
            entry.priority_fingerprint = None

    # Serving ------------------------------------------------------------------

    def _fingerprint(self, entry: _Entry) -> FrozenSet[Component]:
        if entry.fingerprint is None:
            entry.fingerprint = entry.engine.graph.component_set()
        return entry.fingerprint

    def _priority_fingerprint(self, entry: _Entry) -> FrozenSet[PriorityEdge]:
        if entry.priority_fingerprint is None:
            entry.priority_fingerprint = entry.engine.active_priority_edges()
        return entry.priority_fingerprint

    def _unit(
        self, entry: _Entry, request: Request
    ) -> Tuple[_WorkUnit, Tuple[Value, ...]]:
        """The cached work unit of one request, and the values that fill
        its template.

        Keyed by ``(database, key, columns, active-priority state,
        relation count)``: a relation insert may add to the schema (a
        conflicting re-declaration raises instead), so the relation
        count versions it.  A text's key is its constant-lifted form
        (:func:`~repro.query.parser.lift_literals`): one regex pass
        marks each number and quoted literal by its domain, so texts
        differing only in those share the unit.  Name constants written
        as identifiers (``Mary``) stay in the key; a formula is its own
        key.  A miss checks the text, parses the key into the template
        and routes its shape once; a hit costs the lex and one
        lookup."""
        active = self._priority_fingerprint(entry)
        variables = (
            tuple(request.variables) if request.variables is not None else None
        )
        query = request.query
        if isinstance(query, str):
            text_key, values = lift_literals(query)
        else:
            text_key, values = query, ()
        key = (
            entry.name, text_key, variables, active, len(entry.engine.schema),
        )
        unit = self._units.get(key)
        if unit is None:
            if isinstance(query, str):
                own, formula = parse_template_checked(
                    query, text_key, entry.engine.schema
                )
            else:
                own = formula = entry.engine._to_formula(query)
            if variables is None:
                variables = (
                    () if formula.is_closed
                    else tuple(sorted(formula.free_variables()))
                )
            unit = _WorkUnit(formula, variables, active, values, own)
            if values:
                # A slot renders as ``?``, which no other part of a
                # template does: its quoted literals are slots too.
                unit.pieces = tuple(str(formula).split("?"))
            unit.target = self._target(entry, active, unit)
            if unit.target == "incremental" and unit.report is not None:
                unit.report = replace(unit.report, classification=None)
            self._units.put(key, unit)
        return unit, values

    def _theory(
        self, entry: _Entry, active: FrozenSet[PriorityEdge]
    ) -> Theory:
        """The analysis theory of ``entry`` under ``active``, digested
        once per state.

        Keyed like the work units, by the active priority edges and the
        relation count, so ``prefer``, a write that (de)activates an
        edge and schema growth each build a new one.  Readers that race
        here build equal theories; the last one stored wins."""
        key = (active, len(entry.engine.schema))
        built = entry.theory
        if built is None or built[0] != key:
            built = entry.theory = (
                key,
                Theory(
                    entry.engine.schema,
                    entry.engine.dependencies,
                    tuple(active),
                ),
            )
        return built[1]

    def _report(self, entry: _Entry, unit: _WorkUnit) -> RouteReport:
        """The static route analysis of the unit's formula (for a
        template: of its shape), computed on first read.

        Duplicate-row blocking is data-dependent and deliberately *not*
        predicted here — the prefsql engine's own probe stays
        authoritative for it."""
        if unit.report is None:
            theory = self._theory(entry, unit.active)
            report = analyze_routes(
                theory.schema,
                theory.dependencies,
                unit.formula,
                unit.variables,
                theory=theory,
            )
            if unit.target == "incremental":
                report = replace(report, classification=None)
            unit.report = report
        return unit.report

    def _text_report(
        self,
        entry: _Entry,
        unit: _WorkUnit,
        values: Tuple[Value, ...],
        text: Optional[str] = None,
    ) -> RouteReport:
        """The route report of one request's text: exactly what a
        one-shot :func:`~repro.analysis.analyze` of it returns.

        Built from the template's report when read (the text,
        fingerprint and spans change, nothing else), or from the text
        itself when a message of the template's names a literal.  The
        report of the text that built the unit is kept once read, so
        rereading that text's report returns the same object.  ``text``
        is the rendered text when the caller has it."""
        report = self._report(entry, unit)
        if not values:
            return report
        own = values == unit.values
        if own and unit.own_report is not None:
            return unit.own_report
        theory = self._theory(entry, unit.active)
        if _names_a_literal(report):
            report = analyze_routes(
                theory.schema,
                theory.dependencies,
                unit.bound(values),
                unit.variables,
                theory=theory,
            )
            if unit.target == "incremental":
                report = replace(report, classification=None)
        else:
            report = restate(
                report,
                text if text is not None else unit.text(values),
                theory,
                unit.variables,
            )
        if own:
            unit.own_report = report
        return report

    def _target(
        self,
        entry: _Entry,
        active: FrozenSet[PriorityEdge],
        unit: Optional[_WorkUnit] = None,
    ) -> str:
        """The route ladder: the engine that serves a read of ``entry``
        under the ``active`` priority edges — ``"prefsql"``,
        ``"sqlite"`` or ``"incremental"``.

        Without a ``unit`` it answers for a query the analysis blocks
        nowhere (:meth:`backend_of`); with one, a statically blocked
        query skips the mirror entirely: no refresh, no pushed-engine
        construction, no probe."""
        if entry.mirror is None or (active and not entry.prefsql_pushdown):
            return "incremental"
        target = "prefsql" if active else "sqlite"
        if unit is not None and self._report(entry, unit).blocked(target):
            return "incremental"
        return target

    def _blocker(self, entry: _Entry, unit: _WorkUnit) -> Optional[Diagnostic]:
        """The diagnostic that kept ``unit`` off the pushed engine the
        ladder picks for its registration and priority state; None when
        the unit is pushed or that state pushes nothing."""
        if unit.target != "incremental":
            return None
        target = self._target(entry, unit.active)
        if target == "incremental":
            return None
        return self._report(entry, unit).blocking(target)[0]

    @property
    def route_report_hits(self) -> int:
        return self._units.stats()["hits"]

    @property
    def route_report_misses(self) -> int:
        return self._units.stats()["misses"]

    @contextlib.contextmanager
    def _probe(self, entry: _Entry, unit: _WorkUnit, family: Family):
        """Yield ``(pushed engine, decision)`` for a unit routed to a
        pushed engine, inside the guard its execution must share."""
        # Lazy snapshot: assembling the Database is O(instance), so
        # hand the mirror a supplier it only calls when dirty.
        # Refresh and engine construction serialize on mirror_lock;
        # the pushed SQL runs concurrently across readers.
        with entry.mirror_lock:
            if unit.target == "prefsql":
                pushed_engine = entry.mirror.pref_engine_for(
                    entry.engine.current_database, unit.active
                )
            else:
                pushed_engine = entry.mirror.engine_for(
                    entry.engine.current_database
                )
        # The pushed section only reads: every side and survivor
        # table was built under mirror_lock above.  On SQLite builds
        # without serialized threading even concurrent reads of one
        # connection must serialize, on the mirror lock.
        guard = (
            contextlib.nullcontext()
            if _SQLITE_SERIALIZED
            else entry.mirror_lock
        )
        with guard:
            # The probe is keyed exactly like the execution call
            # (closed queries decide under ()) and under the request's
            # family, so one cached decision serves both; only it sees
            # data-dependent (duplicate-row) blocking.  It compiles
            # from the report's classification; for a template it is
            # the template's decision, whose plan binds one parameter
            # per slot.
            decision = pushed_engine.explain(
                CheckedQuery(unit.formula), unit.variables, family=family,
                classification=self._report(entry, unit).classification,
            )
            yield pushed_engine, decision

    def _execute(
        self,
        entry: _Entry,
        unit: _WorkUnit,
        values: Tuple[Value, ...],
        family: Family,
    ) -> Tuple[Outcome, str, str]:
        """Run one work unit, its slots filled by ``values``, on the
        engine its route names; no engine parses or checks it again."""
        with entry.meta_lock:
            entry.queries += 1
        variables = unit.variables
        closed = unit.formula.is_closed and not variables
        if unit.target != "incremental":
            query = CheckedQuery(unit.formula, values)
            with self._probe(entry, unit, family) as (pushed_engine, decision):
                if decision.pushed:
                    if closed:
                        outcome = pushed_engine.answer(query, family)
                    else:
                        outcome = pushed_engine.certain_answers(
                            query, variables, family
                        )
                    return outcome, unit.target, outcome.route or unit.target
            observe_fallback(decision.reason)
        else:
            blocker = self._blocker(entry, unit)
            if blocker is not None:
                observe_fallback(blocker.message)
        query = CheckedQuery(unit.bound(values))
        with entry.compute_lock:
            if closed:
                outcome = entry.engine.answer(query, family, self.parallel)
            else:
                outcome = entry.engine.certain_answers(
                    query, variables, family, self.parallel
                )
        return outcome, "incremental", outcome.route or "indexed"

    def submit(self, requests: Sequence[Request]) -> List[BrokerResult]:
        """Serve a batch: priority order, in-flight dedup, memoization.

        Results come back in submission order regardless of service
        order.  Identical work (same database state, formula — a
        template and its values — answer columns and family) is
        computed once per batch; repeats across batches hit the answer
        cache and report the original route.

        Each call occupies one admission slot; when the broker was
        built with ``max_inflight`` and both the in-flight limit and
        the accept queue are full, the call raises
        :class:`~repro.exceptions.AdmissionError` without serving
        anything.
        """
        with self.admission.admit():
            return self._submit(requests)

    def _submit(self, requests: Sequence[Request]) -> List[BrokerResult]:
        self.batches += 1
        if REGISTRY.enabled:
            REGISTRY.histogram(
                "repro_batch_size",
                "Requests per submitted batch",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
            ).observe(len(requests))
            REGISTRY.counter(
                "repro_requests_total",
                "Requests served (accepted submissions, by batch size)",
            ).inc(len(requests))
        order = sorted(
            range(len(requests)),
            key=lambda position: (-requests[position].priority, position),
        )
        results: List[Optional[BrokerResult]] = [None] * len(requests)
        in_flight: Dict[Tuple, Tuple[Outcome, str, str]] = {}
        for position in order:
            request = requests[position]
            entry = self._entry(request.database)
            started = time.perf_counter()
            with entry.rw.read():
                unit, values = self._unit(entry, request)
                family = request.family or entry.family
                key = (
                    entry.name,
                    self._fingerprint(entry),
                    unit.active,
                    unit.formula,
                    values,
                    unit.variables,
                    family,
                )
                if key in in_flight:
                    outcome, engine_label, route = in_flight[key]
                    self.deduplicated += 1
                    if REGISTRY.enabled:
                        REGISTRY.counter(
                            "repro_deduplicated_total",
                            "Requests shared with identical in-batch work",
                        ).inc()
                    results[position] = BrokerResult(
                        request, outcome, entry.name, engine_label, route,
                        shared=True,
                        seconds=time.perf_counter() - started,
                    )
                    continue
                slot = self.cache.get(key)
                if slot is not None:
                    in_flight[key] = (slot.outcome, slot.engine, slot.route)
                    results[position] = BrokerResult(
                        request, slot.outcome, entry.name, slot.engine,
                        slot.route, cached=True,
                        seconds=time.perf_counter() - started,
                    )
                    continue
                # The flight recorder wraps only actual executions —
                # cache hits and dedups never re-run, so there is no
                # trace to collect.  The report provider hands the
                # record the analysis layer's fingerprint and blocking
                # diagnostics lazily (dropped records never pay for it).
                text = unit.text(values)
                capture = RECORDER.capture(
                    text,
                    database=entry.name,
                    report_provider=lambda: self._text_report(
                        entry, unit, values, text
                    ),
                )
                with capture:
                    outcome, engine_label, route = self._execute(
                        entry, unit, values, family
                    )
                    capture.note(
                        engine=engine_label, route=route, family=str(family)
                    )
                in_flight[key] = (outcome, engine_label, route)
                self.cache.put(key, _CacheSlot(outcome, engine_label, route))
                results[position] = BrokerResult(
                    request, outcome, entry.name, engine_label, route,
                    seconds=time.perf_counter() - started,
                    trace_id=capture.trace_id if capture.recorded else None,
                )
        return [result for result in results if result is not None]

    def query(
        self,
        query: Union[str, Formula],
        family: Optional[Family] = None,
        variables: Optional[Tuple[str, ...]] = None,
        database: Optional[str] = None,
    ) -> BrokerResult:
        """Serve a single request (a batch of one)."""
        return self.submit(
            [Request(query, family, variables, database)]
        )[0]

    def analyze(
        self,
        query: Union[str, Formula],
        family: Optional[Family] = None,
        variables: Optional[Tuple[str, ...]] = None,
        database: Optional[str] = None,
    ) -> RouteReport:
        """Static route analysis of one query — nothing executes.

        Returns the report of the text, built from the same cached work
        unit the broker routes by when serving, so the diagnostics seen
        here are exactly the routing the next ``submit`` of the same
        query will follow.
        """
        entry = self._entry(database)
        with entry.rw.read():
            unit, values = self._unit(
                entry, Request(query, family, variables, database)
            )
            return self._text_report(entry, unit, values)

    def explain(
        self,
        query: Union[str, Formula],
        family: Optional[Family] = None,
        variables: Optional[Tuple[str, ...]] = None,
        database: Optional[str] = None,
    ) -> Optional[RewriteDecision]:
        """The pushdown decision for one query — nothing executes.

        For a query the ladder routes to a pushed engine, that engine's
        probe, made exactly as serving makes it; for one the analysis
        keeps off the mirror, a declined decision whose reason is the
        blocking diagnostic.  None when the registration pushes nothing
        in its current priority state (no mirror, or active priority
        edges with prefsql off).
        """
        entry = self._entry(database)
        family = family or entry.family
        with entry.rw.read():
            unit, values = self._unit(
                entry, Request(query, family, variables, database)
            )
            if unit.target == "incremental":
                blocker = self._blocker(entry, unit)
                if blocker is None:
                    return None
                report = self._text_report(entry, unit, values)
                return RewriteDecision(
                    None, blocker.message, diagnostics=report.diagnostics
                )
            with self._probe(entry, unit, family) as (pushed_engine, decision):
                if values and _names_a_literal(self._report(entry, unit)):
                    return pushed_engine.explain(
                        CheckedQuery(unit.bound(values)),
                        unit.variables,
                        family=family,
                    )
                return decision.bind(values)

    # Diagnostics --------------------------------------------------------------

    def backend_of(self, database: Optional[str] = None) -> str:
        """The engine a rewritable read-only query of ``database`` is
        served by: ``"prefsql"``, ``"sqlite"`` or ``"incremental"``."""
        entry = self._entry(database)
        return self._target(entry, self._priority_fingerprint(entry))

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """All three cache families, uniformly shaped.

        Each family reports ``{entries, hits, misses, evictions}``; the
        context and component-repair families aggregate across every
        registered database's engine.
        """
        families: Dict[str, Dict[str, int]] = {
            "answer": self.cache.stats(),
            "context": {"entries": 0, "hits": 0, "misses": 0, "evictions": 0},
            "component_repair": {
                "entries": 0, "hits": 0, "misses": 0, "evictions": 0,
            },
        }
        for entry in self._entries.values():
            context = entry.engine._contexts.stats()
            for field_name in ("entries", "hits", "misses", "evictions"):
                families["context"][field_name] += context[field_name]
            component = entry.engine._cache.stats()
            families["component_repair"]["hits"] += component["hits"]
            families["component_repair"]["misses"] += component["misses"]
            families["component_repair"]["evictions"] += component["evictions"]
            families["component_repair"]["entries"] += (
                component["graphs"]
                + component["fragment_sets"]
                + component["preferred_sets"]
            )
        return families

    def stats(self) -> Dict[str, object]:
        """Broker-level counters plus per-database engine summaries."""
        return {
            "databases": {
                name: {
                    "queries": entry.queries,
                    "updates": entry.updates,
                    "sqlite_mirror": entry.mirror is not None,
                    "backend": self.backend_of(name),
                    "concurrent_reads": entry.rw.concurrent_reads,
                    "engine": entry.engine.summary(),
                }
                for name, entry in self._entries.items()
            },
            "batches": self.batches,
            "deduplicated": self.deduplicated,
            "route_reports": self._units.stats(),
            "concurrent_reads": sum(
                entry.rw.concurrent_reads for entry in self._entries.values()
            ),
            "answer_cache": self.cache.stats(),
            "caches": self.cache_stats(),
            "parallel": self.parallel,
            "admission": self.admission.stats(),
        }

    def close(self) -> None:
        """Release SQLite mirrors (engines are plain memory)."""
        for entry in self._entries.values():
            if entry.mirror is not None:
                entry.mirror.close()

    def __enter__(self) -> "RequestBroker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
