"""Metrics registry tests: kinds, labels, exposition, thread safety."""

from __future__ import annotations

import math
import threading

import pytest

from repro.obs.registry import DEFAULT_LATENCY_BUCKETS, MetricsRegistry


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestCountersAndGauges:
    def test_counter_accumulates(self, registry):
        counter = registry.counter("hits_total", "hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self, registry):
        counter = registry.counter("hits_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self, registry):
        gauge = registry.gauge("depth")
        gauge.set(7)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value == 5.0

    def test_labeled_children_are_independent(self, registry):
        family = registry.counter("q_total", "", labels=("route",))
        family.labels(route="sqlite").inc(3)
        family.labels(route="fallback").inc()
        assert family.labels(route="sqlite").value == 3
        assert family.labels(route="fallback").value == 1

    def test_same_name_returns_same_family(self, registry):
        first = registry.counter("q_total", "", labels=("route",))
        second = registry.counter("q_total", "", labels=("route",))
        assert first is second

    def test_label_set_mismatch_raises(self, registry):
        family = registry.counter("q_total", "", labels=("route",))
        with pytest.raises(ValueError):
            family.labels(engine="x")

    def test_a_repeated_label_set_hits_its_child(self, registry):
        family = registry.counter("c_total", "", labels=("cache", "event"))
        child = family.labels(cache="answer", event="hit")
        # Keyword order does not matter; values key by their str.
        assert family.labels(event="hit", cache="answer") is child
        assert family.labels(cache="answer", event="miss") is not child
        assert len(family.children()) == 2

    @pytest.mark.parametrize(
        "labels",
        [
            {"cache": "answer"},
            {"cache": "answer", "event": "hit", "route": "sqlite"},
            {"cache": "answer", "kind": "hit"},
        ],
        ids=["missing", "extra", "misnamed"],
    )
    def test_a_wrong_label_set_raises_even_after_a_hit(self, registry, labels):
        family = registry.counter("c_total", "", labels=("cache", "event"))
        family.labels(cache="answer", event="hit")
        with pytest.raises(ValueError, match="expects labels"):
            family.labels(**labels)
        assert len(family.children()) == 1

    def test_kind_mismatch_raises(self, registry):
        registry.counter("thing", "")
        with pytest.raises(ValueError):
            registry.gauge("thing", "")

    def test_unlabeled_proxy_requires_unlabeled_family(self, registry):
        family = registry.counter("q_total", "", labels=("route",))
        with pytest.raises(ValueError):
            family.inc()


class TestDisabledRegistry:
    def test_all_mutations_are_noops(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc()
        registry.gauge("g").set(9)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        assert registry.counter("c").value == 0
        assert registry.gauge("g").value == 0
        assert registry.histogram("h").labels().count == 0

    def test_flip_at_runtime(self, registry):
        counter = registry.counter("c")
        registry.enabled = False
        counter.inc()
        registry.enabled = True
        counter.inc()
        assert counter.value == 1


class TestHistogram:
    def test_bucket_counts_are_cumulative(self, registry):
        histogram = registry.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (1.0, 1.5, 3.0, 10.0):
            histogram.observe(value)
        child = histogram.labels()
        assert child.bucket_counts() == [
            (1.0, 1),
            (2.0, 2),
            (4.0, 3),
            (math.inf, 4),
        ]
        assert child.count == 4
        assert child.sum == 15.5

    def test_percentiles_interpolate_and_clamp(self, registry):
        histogram = registry.histogram("lat", buckets=(1.0, 2.0, 4.0)).labels()
        for value in (1.0, 1.5, 3.0, 10.0):
            histogram.observe(value)
        assert histogram.percentile(0.25) == 1.0
        assert histogram.percentile(0.50) == 2.0
        assert histogram.percentile(0.75) == 4.0
        # Overflow ranks report the largest finite bound.
        assert histogram.percentile(1.0) == 4.0

    def test_midbucket_interpolation(self, registry):
        histogram = registry.histogram("lat", buckets=(10.0,)).labels()
        for _ in range(4):
            histogram.observe(5.0)
        assert histogram.percentile(0.5) == 5.0

    def test_empty_percentile_is_zero(self, registry):
        histogram = registry.histogram("lat").labels()
        assert histogram.percentile(0.99) == 0.0

    def test_quantile_domain_checked(self, registry):
        histogram = registry.histogram("lat").labels()
        with pytest.raises(ValueError):
            histogram.percentile(1.5)

    def test_default_buckets_cover_latency_range(self, registry):
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(0.0001)
        assert DEFAULT_LATENCY_BUCKETS[-1] == 10.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestExposition:
    def test_render_golden(self, registry):
        registry.counter(
            "repro_queries_total", "Queries answered", labels=("route",)
        ).labels(route="sqlite").inc(3)
        histogram = registry.histogram(
            "repro_query_seconds", "Latency", buckets=(0.25, 1.0)
        )
        histogram.observe(0.25)
        histogram.observe(0.5)
        assert registry.render() == (
            "# HELP repro_queries_total Queries answered\n"
            "# TYPE repro_queries_total counter\n"
            'repro_queries_total{route="sqlite"} 3\n'
            "# HELP repro_query_seconds Latency\n"
            "# TYPE repro_query_seconds histogram\n"
            'repro_query_seconds_bucket{le="0.25"} 1\n'
            'repro_query_seconds_bucket{le="1"} 2\n'
            'repro_query_seconds_bucket{le="+Inf"} 2\n'
            "repro_query_seconds_sum 0.75\n"
            "repro_query_seconds_count 2\n"
        )

    def test_render_empty_registry(self, registry):
        assert registry.render() == ""
        # Declared but never recorded families stay out of exposition.
        registry.counter("quiet_total", "never incremented", labels=("x",))
        assert registry.render() == ""

    def test_label_values_escaped(self, registry):
        registry.counter("c", "", labels=("reason",)).labels(
            reason='say "hi"\nplease'
        ).inc()
        assert 'reason="say \\"hi\\"\\nplease"' in registry.render()

    def test_snapshot_shapes(self, registry):
        registry.counter("c_total", "", labels=("route",)).labels(
            route="sqlite"
        ).inc(2)
        registry.histogram("h_seconds", "", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["c_total"] == {
            "type": "counter",
            "values": {"sqlite": 2.0},
        }
        histogram = snapshot["h_seconds"]["values"][""]
        assert histogram["count"] == 1
        assert histogram["sum"] == 0.5
        assert histogram["p50"] == 0.5

    def test_reset_drops_families(self, registry):
        registry.counter("c").inc()
        registry.reset()
        assert registry.render() == ""
        assert registry.snapshot() == {}


class TestThreadSafety:
    def test_two_thread_stress(self, registry):
        """Rendezvous two writer threads on one family; totals stay exact."""
        counter = registry.counter("c_total", "", labels=("side",))
        histogram = registry.histogram("h_seconds", "", buckets=(1.0,))
        rounds = 5000
        barrier = threading.Barrier(2, timeout=5)
        errors = []

        def hammer(side: str) -> None:
            try:
                barrier.wait()
                child = counter.labels(side=side)
                for _ in range(rounds):
                    child.inc()
                    histogram.observe(0.5)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(side,))
            for side in ("left", "right")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        assert counter.labels(side="left").value == rounds
        assert counter.labels(side="right").value == rounds
        assert histogram.labels().count == 2 * rounds
        assert histogram.labels().bucket_counts()[-1] == (math.inf, 2 * rounds)

    def test_concurrent_child_creation(self, registry):
        """Two threads racing to create distinct children lose no updates."""
        family = registry.counter("c_total", "", labels=("k",))
        barrier = threading.Barrier(2, timeout=5)

        def create(start: int) -> None:
            barrier.wait()
            for index in range(start, start + 200):
                family.labels(k=index % 20).inc()

        threads = [
            threading.Thread(target=create, args=(base,)) for base in (0, 200)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        total = sum(child.value for child in family.children().values())
        assert total == 400
        assert len(family.children()) == 20
