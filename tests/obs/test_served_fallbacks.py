"""``repro_fallbacks_total{reason}`` on the served path.

The pushed engines only push; the broker's incremental engine is the one
fallback.  It counts one fallback per execution the route ladder meant
for a pushed engine: a query the static analysis blocks, or one the
engine's probe declines.  Cache hits and in-batch duplicates execute
nothing and count nothing, and a registration that pushes nothing has
nothing to fall back from.
"""

from __future__ import annotations

import pytest

from repro.backend.engine import SqlCqaEngine
from repro.backend.rewrite import RewriteDecision
from repro.constraints.fd import FunctionalDependency
from repro.obs import REGISTRY
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row
from repro.relational.schema import RelationSchema
from repro.service.broker import Request, RequestBroker

R = RelationSchema("R", ["K:number", "A:number"])
FDS = (FunctionalDependency(["K"], ["A"], "R"),)
PRIORITY = [(Row(R, [1, 1]), Row(R, [1, 2]))]
PUSHABLE = "EXISTS k . R(k, 2)"
BLOCKED = "FORALL k, a . R(k, a) IMPLIES a < 9"


def _instance() -> RelationInstance:
    # One K -> A conflict: R(1, 1) vs R(1, 2); R(2, 2) is clean.
    return RelationInstance(
        R, [Row(R, values) for values in ([1, 1], [1, 2], [2, 2])]
    )


def _fallbacks():
    family = REGISTRY.snapshot().get("repro_fallbacks_total", {})
    return family.get("values", {})


@pytest.mark.parametrize(
    "priority, target",
    [((), "sqlite"), (PRIORITY, "prefsql")],
    ids=["sqlite", "prefsql"],
)
def test_a_statically_blocked_query_counts_once_per_execution(
    priority, target
):
    with RequestBroker() as broker:
        broker.register("db", _instance(), FDS, priority)
        assert broker.backend_of("db") == target
        reason = broker.analyze(BLOCKED).blocking(target)[0].message
        assert broker.explain(BLOCKED).reason == reason
        assert broker.query(BLOCKED).engine == "incremental"
        assert _fallbacks() == {reason: 1.0}
        assert broker.query(BLOCKED).cached
        broker.insert(Row(R, [3, 3]), "db")  # new state: cache miss
        results = broker.submit([Request(BLOCKED), Request(BLOCKED)])
        assert [r.shared for r in results] == [False, True]
    assert _fallbacks() == {reason: 2.0}


def test_a_query_the_probe_declines_counts_its_reason(monkeypatch):
    declined = RewriteDecision(None, "declined by the probe")
    monkeypatch.setattr(
        SqlCqaEngine, "explain", lambda self, *args, **kwargs: declined
    )
    with RequestBroker() as broker:
        broker.register("db", _instance(), FDS)
        assert not broker.analyze(PUSHABLE).blocked("sqlite")
        result = broker.query(PUSHABLE)
        assert (result.engine, result.route) == (
            "incremental", "witness-index",
        )
        assert broker.explain(PUSHABLE) is declined
    assert _fallbacks() == {"declined by the probe": 1.0}


@pytest.mark.parametrize(
    "priority, mirror, prefsql",
    [((), False, False), (PRIORITY, True, False)],
    ids=["no-mirror", "prioritized-without-prefsql"],
)
def test_a_registration_that_pushes_nothing_counts_nothing(
    priority, mirror, prefsql
):
    with RequestBroker() as broker:
        broker.register(
            "db", _instance(), FDS, priority,
            sqlite_pushdown=mirror, prefsql_pushdown=prefsql,
        )
        assert broker.backend_of("db") == "incremental"
        for query in (BLOCKED, PUSHABLE):
            assert broker.query(query).engine == "incremental"
            assert broker.explain(query) is None
    assert _fallbacks() == {}
