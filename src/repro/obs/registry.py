"""A thread-safe, near-zero-overhead metrics registry.

The registry holds three metric kinds, each optionally split into a
*labeled family* of children (Prometheus style):

* :class:`Counter` — monotonically increasing totals (queries served,
  cache hits, fallbacks by reason);
* :class:`Gauge` — a value that goes up and down (last fan-out skew,
  live cache entries);
* :class:`Histogram` — fixed-bucket latency distributions with
  cumulative bucket counts and p50/p95/p99 estimates.

Everything is standard library.  All mutation happens under a per-metric
lock, so engines, broker threads, and the HTTP front end record into one
shared registry safely.  When a registry is disabled
(``registry.enabled = False``) every ``inc``/``set``/``observe`` returns
after a single attribute check, so instrumented hot paths pay one branch
— the "near zero when off" guarantee the bench guard
(``benchmarks/bench_obs.py``) pins below 5%.

Exposition: :meth:`MetricsRegistry.render` emits the Prometheus text
format (``text/plain; version=0.0.4``) served by ``GET /metrics``;
:meth:`MetricsRegistry.snapshot` returns the same data as nested dicts
for ``GET /stats`` and the benchmark result files.

The process-wide default registry is :data:`REGISTRY`; engines reach it
through the helpers in :mod:`repro.obs` so isolated registries remain
possible in tests.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Default latency buckets (seconds): 100µs .. 10s, roughly log-spaced.
#: Chosen so the sub-millisecond pushed routes and the multi-second
#: enumeration fallbacks both land in resolvable buckets.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _format_number(value: float) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _labels_text(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(names, values)
    )
    return "{" + inner + "}"


class Gauge:
    """A value that can go up and down (one child of a gauge family)."""

    __slots__ = ("_registry", "_lock", "_value")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self._registry = registry
        self._lock = threading.Lock()
        self._value = 0.0  # guarded-by: _lock

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        # Exposition snapshot: a torn read is impossible for a float
        # attribute swap and staleness is acceptable.
        return self._value  # lint: unguarded-ok


class Counter(Gauge):
    """A monotonically increasing total (one child of a counter family).

    Callers :meth:`inc` it, or the object that keeps the total copies
    it in with :meth:`set` at scrape time.
    """

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount


class Histogram:
    """Fixed-bucket distribution with percentile estimates.

    ``bounds`` are the inclusive upper edges of the finite buckets; an
    implicit ``+Inf`` bucket catches the overflow.  Percentiles are
    estimated by linear interpolation inside the bucket holding the
    requested rank (the Prometheus ``histogram_quantile`` estimator),
    which is exact at bucket edges and bounded by the bucket width in
    between — plenty for latency reporting.
    """

    __slots__ = (
        "_registry", "_lock", "bounds", "_counts", "_sum", "_count",
        "_exemplars",
    )

    def __init__(
        self,
        registry: "MetricsRegistry",
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        ordered = tuple(sorted(float(bound) for bound in bounds))
        if not ordered:
            raise ValueError("histogram needs at least one bucket bound")
        self._registry = registry
        self._lock = threading.Lock()
        self.bounds = ordered
        # +1 below: the +Inf overflow bucket.
        self._counts = [0] * (len(ordered) + 1)  # guarded-by: _lock
        self._sum = 0.0  # guarded-by: _lock
        self._count = 0  # guarded-by: _lock
        #: bucket position -> (trace_id, value): the last recorded trace
        #: whose observation landed in that bucket, so histogram tails
        #: link directly to a retained flight-recorder trace.
        self._exemplars: Dict[int, Tuple[str, float]] = {}  # guarded-by: _lock

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        if not self._registry.enabled:
            return
        position = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[position] += 1
            self._sum += value
            self._count += 1
            if exemplar is not None:
                self._exemplars[position] = (exemplar, value)

    def attach_exemplar(self, value: float, trace_id: str) -> None:
        """Link ``trace_id`` to the bucket ``value`` falls in, without
        counting a new observation (the observation already happened —
        this back-fills the exemplar once a trace is known to be
        retained)."""
        if not self._registry.enabled:
            return
        position = bisect_left(self.bounds, value)
        with self._lock:
            self._exemplars[position] = (trace_id, value)

    def exemplars(self) -> Dict[str, Dict[str, object]]:
        """Per-bucket last-trace exemplars keyed by the bucket's upper
        bound (``"+Inf"`` for the overflow bucket)."""
        with self._lock:
            taken = dict(self._exemplars)
        bounds = self.bounds + (math.inf,)
        return {
            _format_number(bounds[position]): {
                "trace_id": trace_id,
                "value": round(value, 9),
            }
            for position, (trace_id, value) in sorted(taken.items())
        }

    @property
    def count(self) -> int:
        # Snapshot read for exposition; pairs of (count, sum) read this
        # way may be momentarily inconsistent, which render() accepts.
        return self._count  # lint: unguarded-ok

    @property
    def sum(self) -> float:
        return self._sum  # lint: unguarded-ok

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending at +Inf."""
        with self._lock:
            counts = list(self._counts)
        cumulative = 0
        pairs: List[Tuple[float, int]] = []
        for bound, count in zip(self.bounds + (math.inf,), counts):
            cumulative += count
            pairs.append((bound, cumulative))
        return pairs

    def percentile(self, quantile: float) -> float:
        """Estimated value at ``quantile`` in ``[0, 1]`` (0 when empty).

        Ranks inside a finite bucket interpolate linearly between its
        edges; ranks in the overflow bucket report the largest finite
        bound (there is no upper edge to interpolate toward).
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return 0.0
        rank = quantile * total
        cumulative = 0
        for position, count in enumerate(counts):
            previous = cumulative
            cumulative += count
            if cumulative >= rank and count:
                if position >= len(self.bounds):
                    return self.bounds[-1]
                upper = self.bounds[position]
                lower = self.bounds[position - 1] if position else 0.0
                fraction = (rank - previous) / count
                return lower + (upper - lower) * fraction
        return self.bounds[-1]  # pragma: no cover - rank <= total always hits


#: What a family constructs per distinct label-value combination.
_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """A named metric plus its labeled children.

    With no label names the family has exactly one (anonymous) child and
    the family object itself proxies ``inc``/``set``/``observe`` to it,
    so unlabeled metrics read naturally:
    ``registry.counter("x", "...").inc()``.
    """

    __slots__ = (
        "name", "help", "kind", "label_names", "_label_set", "_registry",
        "_children", "_lock", "_buckets",
    )

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        kind: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.label_names = label_names
        self._label_set = frozenset(label_names)
        self._registry = registry
        self._children: Dict[Tuple[str, ...], object] = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        self._buckets = tuple(buckets) if buckets else DEFAULT_LATENCY_BUCKETS

    def labels(self, **labels: object) -> object:
        """The child metric for one label-value combination (created lazily)."""
        # The keys view compares with the declared names as a set
        # without building one per call.
        if labels.keys() != self._label_set:
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple([str(labels[name]) for name in self.label_names])
        # Double-checked fast path: dict.get on a never-shrinking dict
        # is atomic under the GIL; creation re-checks under the lock.
        child = self._children.get(key)  # lint: unguarded-ok
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    if self.kind == "histogram":
                        child = Histogram(self._registry, self._buckets)
                    else:
                        child = _KINDS[self.kind](self._registry)
                    self._children[key] = child
        return child

    def _solo(self) -> object:
        if self.label_names:
            raise ValueError(f"{self.name} is labeled; call .labels() first")
        child = self._children.get(())  # lint: unguarded-ok
        return child if child is not None else self.labels()

    # Unlabeled conveniences -------------------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        self._solo().observe(value, exemplar)

    @property
    def value(self) -> float:
        return self._solo().value

    def children(self) -> Mapping[Tuple[str, ...], object]:
        with self._lock:
            return dict(self._children)


class MetricsRegistry:
    """A named collection of metric families with one exposition surface."""

    def __init__(self, enabled: bool = True) -> None:
        #: Master switch: when False every record call is a no-op after
        #: one attribute check.  Flip freely at runtime.
        self.enabled = enabled
        self._families: "Dict[str, MetricFamily]" = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    # Declaration -------------------------------------------------------------

    def _family(
        self,
        name: str,
        help_text: str,
        kind: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        # Double-checked fast path, same contract as MetricFamily.labels.
        family = self._families.get(name)  # lint: unguarded-ok
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = MetricFamily(
                        self, name, help_text, kind, tuple(labels), buckets
                    )
                    self._families[name] = family
        if family.kind != kind or family.label_names != tuple(labels):
            raise ValueError(
                f"metric {name!r} already registered as {family.kind} "
                f"with labels {family.label_names}"
            )
        return family

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, help_text, "counter", labels)

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, help_text, "gauge", labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._family(name, help_text, "histogram", labels, buckets)

    def reset(self) -> None:
        """Drop every family (test isolation; exposition starts empty)."""
        with self._lock:
            self._families.clear()

    # Exposition --------------------------------------------------------------

    def render(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            children = sorted(family.children().items())
            if not children:
                continue
            if family.help:
                lines.append(f"# HELP {name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key, child in children:
                label_text = _labels_text(family.label_names, key)
                if family.kind == "histogram":
                    assert isinstance(child, Histogram)
                    for bound, cumulative in child.bucket_counts():
                        bucket_labels = _labels_text(
                            family.label_names + ("le",),
                            key + (_format_number(bound),),
                        )
                        lines.append(
                            f"{name}_bucket{bucket_labels} {cumulative}"
                        )
                    lines.append(
                        f"{name}_sum{label_text} "
                        f"{_format_number(child.sum)}"
                    )
                    lines.append(f"{name}_count{label_text} {child.count}")
                else:
                    lines.append(
                        f"{name}{label_text} {_format_number(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, object]:
        """The registry as nested dicts (for ``/stats`` and bench files).

        Counter/gauge children map label tuples (joined with ``,``) to
        values; histogram children map to ``{count, sum, p50, p95,
        p99}``.  Unlabeled metrics use the empty-string key.
        """
        result: Dict[str, object] = {}
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            values: Dict[str, object] = {}
            for key, child in sorted(family.children().items()):
                label = ",".join(key)
                if isinstance(child, Histogram):
                    entry: Dict[str, object] = {
                        "count": child.count,
                        "sum": round(child.sum, 9),
                        "p50": round(child.percentile(0.50), 9),
                        "p95": round(child.percentile(0.95), 9),
                        "p99": round(child.percentile(0.99), 9),
                    }
                    exemplars = child.exemplars()
                    if exemplars:
                        entry["exemplars"] = exemplars
                    values[label] = entry
                else:
                    values[label] = child.value
            if values:
                result[name] = {"type": family.kind, "values": values}
        return result


#: The process-wide default registry every layer records into.
REGISTRY = MetricsRegistry()


def query_histogram(registry: MetricsRegistry = REGISTRY) -> MetricFamily:
    """The shared per-route query latency histogram family.

    Lives here (not in the package ``__init__``) so the flight recorder
    can back-fill exemplars without importing the package facade.
    """
    return registry.histogram(
        "repro_query_seconds",
        "Query latency by chosen route",
        labels=("route",),
    )
