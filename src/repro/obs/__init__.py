"""repro.obs — unified metrics registry and query-lifecycle tracing.

One process-wide :data:`REGISTRY` collects counters, gauges, and latency
histograms from every layer (engines, broker, locks, shard pool, HTTP
front end); :mod:`repro.obs.tracing` adds opt-in per-thread span trees
for ``repro query --profile``.  Both are dependency-free and near-free
when disabled.

The helpers below define the metric families every layer shares, so
label vocabularies ("route", "engine", "cache") stay consistent and
exposition (``GET /metrics``) needs no per-module knowledge.
"""

from __future__ import annotations

from typing import Dict, Optional

from .recorder import FlightRecorder, QueryRecord, RECORDER
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    REGISTRY,
    query_histogram,
)
from .tracing import (
    Span,
    Tracer,
    annotate,
    current_tracer,
    format_tree,
    install_tracer,
    new_trace_id,
    restore_tracer,
    span,
    trace,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "QueryRecord",
    "RECORDER",
    "REGISTRY",
    "Span",
    "Tracer",
    "annotate",
    "current_tracer",
    "format_tree",
    "install_tracer",
    "new_trace_id",
    "restore_tracer",
    "span",
    "trace",
    "observe_query",
    "observe_fallback",
    "observe_broker",
    "observe_process",
    "query_histogram",
]


def observe_query(
    engine: str,
    route: str,
    family: str,
    seconds: float,
    registry: MetricsRegistry = REGISTRY,
) -> None:
    """Record one answered query: route counter + latency histogram.

    ``route`` is the engine's own label ("prefsql", "sqlite",
    "witness-index", "indexed" or "naive").  The same call feeds the
    flight recorder's open capture (if any), so recorded queries carry
    the serving engine and route.
    """
    RECORDER.note(engine=engine, route=route, family=family, seconds=seconds)
    if not registry.enabled:
        return
    registry.counter(
        "repro_queries_total",
        "Queries answered, by engine, route, and repair family",
        labels=("engine", "route", "family"),
    ).labels(engine=engine, route=route, family=family).inc()
    query_histogram(registry).labels(route=route).observe(seconds)


def observe_fallback(
    reason: str, registry: MetricsRegistry = REGISTRY
) -> None:
    """Count one pushdown fallback: a query the route ladder meant for
    a pushed engine, served in memory instead.  ``reason`` is the
    blocking diagnostic's message; it gets its own counter so the route
    label set stays small."""
    if registry.enabled:
        registry.counter(
            "repro_fallbacks_total",
            "Pushdown fallbacks to in-memory evaluation, by reason",
            labels=("reason",),
        ).labels(reason=reason).inc()


def _resident_bytes() -> Optional[int]:
    """Current RSS in bytes, or ``None`` where /proc is unavailable."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        import resource

        return pages * resource.getpagesize()
    except (OSError, ValueError, IndexError, ImportError):
        try:
            import resource

            # ru_maxrss is the peak, in KiB on Linux / bytes on macOS;
            # a peak beats nothing when /proc is missing.
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            import sys

            return peak if sys.platform == "darwin" else peak * 1024
        except Exception:
            return None


def observe_process(registry: MetricsRegistry = REGISTRY) -> None:
    """Refresh the process-level saturation gauges.

    Called on every ``/metrics`` and ``/stats`` scrape (pull-model
    sampling: the gauges are only as fresh as the last scrape, which is
    exactly what Prometheus-style collection expects).  Exposes resident
    set size, per-generation GC collection counts, and live thread
    count — the signals that tell a load sweep *why* tails grew
    (memory pressure, collector churn, thread pile-up).
    """
    if not registry.enabled:
        return
    import gc
    import threading as _threading

    registry.gauge(
        "repro_process_threads",
        "Live threads in the serving process",
    ).set(_threading.active_count())
    collections = registry.gauge(
        "repro_process_gc_collections",
        "Garbage collections completed, by generation",
        labels=("generation",),
    )
    for generation, stats in enumerate(gc.get_stats()):
        collections.labels(generation=str(generation)).set(
            stats.get("collections", 0)
        )
    rss = _resident_bytes()
    if rss is not None:
        registry.gauge(
            "repro_process_resident_bytes",
            "Resident set size of the serving process",
        ).set(rss)


#: ``repro_cache_events_total`` event label -> ``cache_stats()`` field.
_CACHE_EVENTS = (("hit", "hits"), ("miss", "misses"), ("eviction", "evictions"))


def observe_broker(
    caches: Dict[str, Dict[str, int]],
    admission: Dict[str, object],
    registry: MetricsRegistry = REGISTRY,
) -> None:
    """Copy a broker's ``cache_stats()`` and ``admission.stats()`` into
    their metrics; called at each scrape, like :func:`observe_process`."""
    if not registry.enabled:
        return
    events = registry.counter(
        "repro_cache_events_total",
        "Cache hits, misses, and evictions by cache family",
        labels=("cache", "event"),
    )
    for cache, counts in caches.items():
        for event, field in _CACHE_EVENTS:
            events.labels(cache=cache, event=event).set(counts[field])
    registry.gauge(
        "repro_inflight_requests",
        "Submissions currently being served",
    ).set(admission["inflight"])
    registry.gauge(
        "repro_accept_queue_depth",
        "Submissions waiting in the bounded accept queue",
    ).set(admission["queued"])
    registry.counter(
        "repro_rejected_total",
        "Submissions rejected at admission control",
    ).set(admission["rejected"])
