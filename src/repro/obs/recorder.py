"""Query flight recorder: sampled always-on tracing with slow capture.

A :class:`FlightRecorder` retains a bounded ring of completed
:class:`QueryRecord` objects — trace id, query text, the analysis
layer's query+theory fingerprint, serving engine/route/family, latency,
blocking diagnostics, and the full span tree of the execution — so the
``repro_query_seconds`` p99 tail is no longer anonymous: ``GET
/debug/queries`` (and ``repro top`` / ``repro trace``) answer *which*
query was slow, *which* route served it, and *where* the time went.

Recording is driven by :meth:`FlightRecorder.capture`, a context
manager the request broker opens around every executed query (and any
caller may open around a direct engine call):

* a per-query **trace id** is drawn and a thread-local tracer is
  installed, so the engines' existing ``span()`` instrumentation
  collects a real span tree for the duration of the capture;
* **sampling**: a seeded RNG keeps a record with probability
  ``sample_rate`` — the decision is drawn *before* execution so the
  span tree exists whenever the record is kept, and a fixed seed makes
  the kept/dropped sequence reproducible;
* **slow capture**: when ``slow_ms`` is set, every query is traced and
  any query at or above the threshold is retained *unconditionally*,
  landing both in the ring and in a separate slow reservoir that
  ring-buffer eviction never touches — tail queries survive arbitrarily
  long bursts of fast traffic;
* engines feed serving details in through :meth:`note` (called by
  :func:`repro.obs.observe_query`), so the record's engine/route/family
  always reflect what actually served the query.

Retained records back-fill **exemplars** onto the shared
``repro_query_seconds`` histogram: the bucket a retained query's
latency falls in remembers its trace id, so the histogram tail in
``snapshot()`` links directly to a recorded trace.

Everything is standard library and thread-safe; a disabled recorder
costs one attribute check per capture and per note.
"""

from __future__ import annotations

import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from .registry import REGISTRY, MetricsRegistry, query_histogram
from .tracing import (
    Span,
    Tracer,
    current_tracer,
    install_tracer,
    new_trace_id,
    restore_tracer,
)

#: Sentinel distinguishing "leave unchanged" from "set to None" in
#: :meth:`FlightRecorder.configure`.
_UNSET = object()


@dataclass(frozen=True)
class QueryRecord:
    """One retained query: identity, provenance, latency, span tree."""

    trace_id: str
    query: str
    engine: str
    route: str
    family: str
    seconds: float
    #: Wall-clock (epoch) time the capture opened.
    started_at: float
    database: Optional[str] = None
    #: The analysis layer's data-independent query+theory fingerprint.
    fingerprint: Optional[str] = None
    #: Full codes of the diagnostics blocking a pushed engine
    #: (``RA201-self-join-dirty`` …) — why a query streamed repairs.
    blocking: Tuple[str, ...] = ()
    #: Retained by the sampler (vs. only by the slow threshold).
    sampled: bool = False
    #: Latency reached the ``slow_ms`` threshold.
    slow: bool = False
    #: The execution's span tree (:meth:`~repro.obs.tracing.Span.
    #: to_dict` form), None when the capture ran untraced.
    trace: Optional[Dict[str, Any]] = None

    @property
    def millis(self) -> float:
        return self.seconds * 1e3

    def span_tree(self) -> Optional[Span]:
        """The span tree rebuilt as :class:`Span` objects."""
        return Span.from_dict(self.trace) if self.trace else None

    def to_dict(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "query": self.query,
            "engine": self.engine,
            "route": self.route,
            "family": self.family,
            "seconds": round(self.seconds, 9),
            "millis": round(self.millis, 6),
            "started_at": round(self.started_at, 6),
            "database": self.database,
            "fingerprint": self.fingerprint,
            "blocking": list(self.blocking),
            "sampled": self.sampled,
            "slow": self.slow,
        }
        if self.trace is not None:
            body["trace"] = self.trace
        return body

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "QueryRecord":
        return cls(
            trace_id=str(payload["trace_id"]),
            query=str(payload["query"]),
            engine=str(payload.get("engine", "?")),
            route=str(payload.get("route", "?")),
            family=str(payload.get("family", "?")),
            seconds=float(payload.get("seconds", 0.0)),
            started_at=float(payload.get("started_at", 0.0)),
            database=payload.get("database"),
            fingerprint=payload.get("fingerprint"),
            blocking=tuple(payload.get("blocking", ())),
            sampled=bool(payload.get("sampled", False)),
            slow=bool(payload.get("slow", False)),
            trace=payload.get("trace"),
        )


class _NoCapture:
    """Shared do-nothing capture for the disabled / nested fast path."""

    __slots__ = ()

    trace_id: Optional[str] = None
    recorded = False
    record: Optional[QueryRecord] = None

    def __enter__(self) -> "_NoCapture":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def note(self, **fields: object) -> None:
        return None


_NO_CAPTURE = _NoCapture()


class _Capture:
    """One in-flight recording: tracer lifetime plus the keep decision."""

    __slots__ = (
        "recorder", "trace_id", "query", "database", "report_provider",
        "keep_sampled", "engine", "route", "family",
        "_tracer", "_previous", "_started", "started_at",
        "recorded", "record",
    )

    def __init__(
        self,
        recorder: "FlightRecorder",
        query: str,
        database: Optional[str],
        report_provider: Optional[Callable[[], Any]],
        keep_sampled: bool,
        traced: bool,
    ) -> None:
        self.recorder = recorder
        self.trace_id = new_trace_id()
        self.query = query
        self.database = database
        self.report_provider = report_provider
        self.keep_sampled = keep_sampled
        self.engine = "?"
        self.route = "?"
        self.family = "?"
        self._tracer: Optional[Tracer] = Tracer("query") if traced else None
        self._previous: Optional[Tracer] = None
        self._started = 0.0
        self.started_at = 0.0
        self.recorded = False
        self.record: Optional[QueryRecord] = None

    def __enter__(self) -> "_Capture":
        self.recorder._push(self)
        if self._tracer is not None:
            self._tracer.root.attributes["trace_id"] = self.trace_id
            self._previous = install_tracer(self._tracer)
        self.started_at = time.time()
        self._started = time.perf_counter()
        return self

    def note(
        self,
        engine: Optional[str] = None,
        route: Optional[str] = None,
        family: Optional[str] = None,
        **extra: object,
    ) -> None:
        """Fill serving details in (engines via ``observe_query``, the
        broker after routing); later calls override earlier ones."""
        if engine is not None:
            self.engine = engine
        if route is not None:
            self.route = route
        if family is not None:
            self.family = family

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._started
        if self._tracer is not None:
            self._tracer.finish()
            restore_tracer(self._previous)
        self.recorder._pop(self)
        self.recorder._finish(self, elapsed, failed=exc_type is not None)


class FlightRecorder:
    """Thread-safe bounded ring of completed :class:`QueryRecord`\\ s.

    ``capacity`` bounds the main ring (FIFO eviction);
    ``slow_capacity`` bounds the slow reservoir, which evicts its
    *fastest* member when full so the retained set converges on the true
    tail.  ``sample_rate`` in ``[0, 1]`` drives the seeded sampler;
    ``slow_ms`` (None = off) arms unconditional slow capture.
    """

    def __init__(
        self,
        capacity: int = 256,
        slow_capacity: int = 64,
        sample_rate: float = 1.0,
        slow_ms: Optional[float] = None,
        seed: Optional[int] = None,
        enabled: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1 or slow_capacity < 1:
            raise ValueError("recorder capacities must be positive")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        #: Master switch; when False capture()/note() are no-ops after
        #: one attribute check.
        self.enabled = enabled
        self.capacity = capacity
        self.slow_capacity = slow_capacity
        self.sample_rate = sample_rate
        self.slow_ms = slow_ms
        self._registry = registry
        self._lock = threading.Lock()
        self._random = random.Random(seed)  # guarded-by: _lock
        self._ring: "OrderedDict[str, QueryRecord]" = OrderedDict()  # guarded-by: _lock
        self._slow: "OrderedDict[str, QueryRecord]" = OrderedDict()  # guarded-by: _lock
        self.started = 0  # guarded-by: _lock
        self.recorded = 0  # guarded-by: _lock
        self.sampled_kept = 0  # guarded-by: _lock
        self.slow_kept = 0  # guarded-by: _lock
        self.dropped = 0  # guarded-by: _lock
        self.evicted = 0  # guarded-by: _lock
        self._active = threading.local()

    # Configuration ------------------------------------------------------------

    def configure(
        self,
        sample_rate: Optional[float] = None,
        slow_ms: object = _UNSET,
        capacity: Optional[int] = None,
        slow_capacity: Optional[int] = None,
        seed: object = _UNSET,
    ) -> None:
        """Adjust sampling/thresholds in place (``repro serve`` flags)."""
        with self._lock:
            if sample_rate is not None:
                if not 0.0 <= sample_rate <= 1.0:
                    raise ValueError(
                        f"sample_rate must be in [0, 1], got {sample_rate}"
                    )
                self.sample_rate = sample_rate
            if slow_ms is not _UNSET:
                self.slow_ms = slow_ms  # type: ignore[assignment]
            if capacity is not None:
                if capacity < 1:
                    raise ValueError("capacity must be positive")
                self.capacity = capacity
            if slow_capacity is not None:
                if slow_capacity < 1:
                    raise ValueError("slow_capacity must be positive")
                self.slow_capacity = slow_capacity
            if seed is not _UNSET:
                self._random = random.Random(seed)  # type: ignore[arg-type]

    def reset(self, seed: Optional[int] = None) -> None:
        """Drop every record and counter (test isolation)."""
        with self._lock:
            self._ring.clear()
            self._slow.clear()
            self._random = random.Random(seed)
            self.started = 0
            self.recorded = 0
            self.sampled_kept = 0
            self.slow_kept = 0
            self.dropped = 0
            self.evicted = 0

    # Capture ------------------------------------------------------------------

    def _push(self, capture: _Capture) -> None:
        self._active.capture = capture

    def _pop(self, capture: _Capture) -> None:
        self._active.capture = None

    def active_capture(self) -> Optional[_Capture]:
        """The capture open on this thread, if any."""
        return getattr(self._active, "capture", None)

    def active_trace_id(self) -> Optional[str]:
        capture = getattr(self._active, "capture", None)
        return capture.trace_id if capture is not None else None

    def capture(
        self,
        query: str,
        database: Optional[str] = None,
        report_provider: Optional[Callable[[], Any]] = None,
    ):
        """Open a recording context around one query execution.

        ``report_provider`` is an optional zero-argument callable
        returning the query's :class:`~repro.analysis.model.
        RouteReport`; it is only invoked when the record is actually
        kept, so dropped queries never pay for analysis.  Nested
        captures (an engine answering inside a broker capture) return a
        shared no-op — the outer capture owns the record.  Inside an
        enclosing trace (``repro query --profile``) the capture installs
        no tracer of its own: the spans land in the enclosing tree, and
        the record keeps none.
        """
        if not self.enabled:
            return _NO_CAPTURE
        if getattr(self._active, "capture", None) is not None:
            return _NO_CAPTURE
        with self._lock:
            self.started += 1
            keep_sampled = (
                self.sample_rate > 0.0
                and self._random.random() < self.sample_rate
            )
            slow_armed = self.slow_ms is not None
        if not keep_sampled and not slow_armed:
            return _NO_CAPTURE
        return _Capture(
            self, query, database, report_provider, keep_sampled,
            traced=current_tracer() is None,
        )

    def note(
        self,
        engine: Optional[str] = None,
        route: Optional[str] = None,
        family: Optional[str] = None,
        seconds: Optional[float] = None,
    ) -> None:
        """Forward serving details to the capture open on this thread
        (no-op otherwise) — how ``observe_query`` feeds the recorder."""
        if not self.enabled:
            return
        capture = getattr(self._active, "capture", None)
        if capture is not None:
            capture.note(engine=engine, route=route, family=family)

    def _finish(self, capture: _Capture, elapsed: float, failed: bool) -> None:
        if failed:
            with self._lock:
                self.dropped += 1
            return
        slow_ms = self.slow_ms
        slow = slow_ms is not None and elapsed * 1e3 >= slow_ms
        if not capture.keep_sampled and not slow:
            with self._lock:
                self.dropped += 1
            return
        fingerprint: Optional[str] = None
        blocking: Tuple[str, ...] = ()
        if capture.report_provider is not None:
            try:
                report = capture.report_provider()
            except Exception:
                report = None
            if report is not None:
                fingerprint = report.fingerprint
                blocking = tuple(d.full_code for d in report.errors)
        trace_dict = (
            capture._tracer.root.to_dict()
            if capture._tracer is not None
            else None
        )
        record = QueryRecord(
            trace_id=capture.trace_id,
            query=capture.query,
            engine=capture.engine,
            route=capture.route,
            family=capture.family,
            seconds=elapsed,
            started_at=capture.started_at,
            database=capture.database,
            fingerprint=fingerprint,
            blocking=blocking,
            sampled=capture.keep_sampled,
            slow=slow,
            trace=trace_dict,
        )
        self._store(record)
        capture.recorded = True
        capture.record = record
        if self._registry is not None:
            query_histogram(self._registry).labels(
                route=record.route
            ).attach_exemplar(record.seconds, record.trace_id)

    def _store(self, record: QueryRecord) -> None:
        with self._lock:
            self.recorded += 1
            if record.sampled:
                self.sampled_kept += 1
            if record.slow:
                self.slow_kept += 1
            if (
                record.trace_id not in self._ring
                and len(self._ring) >= self.capacity
            ):
                self._ring.popitem(last=False)
                self.evicted += 1
            self._ring[record.trace_id] = record
            if record.slow:
                if (
                    record.trace_id not in self._slow
                    and len(self._slow) >= self.slow_capacity
                ):
                    # Evict the *fastest* resident, so the reservoir
                    # converges on the worst tail; an incoming record
                    # slower than none of them is itself dropped.
                    fastest = min(
                        self._slow, key=lambda key: self._slow[key].seconds
                    )
                    if self._slow[fastest].seconds < record.seconds:
                        del self._slow[fastest]
                    else:
                        return
                self._slow[record.trace_id] = record

    # Read side ----------------------------------------------------------------

    def get(self, trace_id: str) -> Optional[QueryRecord]:
        """The retained record under ``trace_id``, ring or reservoir."""
        with self._lock:
            record = self._ring.get(trace_id)
            if record is None:
                record = self._slow.get(trace_id)
            return record

    def records(
        self,
        route: Optional[str] = None,
        min_ms: Optional[float] = None,
        limit: Optional[int] = None,
        slowest: bool = False,
    ) -> List[QueryRecord]:
        """Retained records, most recent first (``slowest=True``: by
        descending latency), filtered by route and minimum latency."""
        with self._lock:
            merged: Dict[str, QueryRecord] = dict(self._slow)
            merged.update(self._ring)
        selected = [
            record
            for record in merged.values()
            if (route is None or record.route == route)
            and (min_ms is None or record.millis >= min_ms)
        ]
        key = (
            (lambda record: record.seconds)
            if slowest
            else (lambda record: record.started_at)
        )
        selected.sort(key=key, reverse=True)
        if limit is not None:
            selected = selected[: max(0, limit)]
        return selected

    def summary(self) -> Dict[str, object]:
        """Counters + configuration for ``/stats`` and diagnostics."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "sample_rate": self.sample_rate,
                "slow_ms": self.slow_ms,
                "capacity": self.capacity,
                "slow_capacity": self.slow_capacity,
                "started": self.started,
                "recorded": self.recorded,
                "sampled": self.sampled_kept,
                "slow": self.slow_kept,
                "dropped": self.dropped,
                "evicted": self.evicted,
                "ring_entries": len(self._ring),
                "slow_entries": len(self._slow),
            }


#: The process-wide flight recorder the broker and CLI surfaces share.
RECORDER = FlightRecorder(registry=REGISTRY)
