"""One analysis theory per database state, and one classification per miss.

The broker digests a database's theory (schema, FDs, active priority
edges) once per state and analyzes each new text on top of it.  These
tests count constructions rather than timing them: one theory serves
many texts, a new one is built exactly when the state changes (a
preference, an insert that activates a declared edge, a new relation),
and every served report still fingerprints like a one-shot analysis.
A pushed miss classifies its formula once, because the engine probe
compiles from the report's classification.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.analysis import analyze
from repro.analysis import analyzer as analyzer_module
from repro.backend import rewrite as rewrite_module
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.query.validate import parse_checked
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row
from repro.relational.schema import RelationSchema
from repro.service import broker as broker_module
from repro.service.broker import RequestBroker

R = RelationSchema("R", ["K:number", "A:number"])
FDS = (FunctionalDependency(["K"], ["A"], "R"),)
KEYS = range(8)


def _ranked():
    """Every key holds three conflicting values, ranked 0 > 1 > 2."""
    rows = [Row(R, [key, value]) for key in KEYS for value in range(3)]
    priority = [
        (Row(R, [key, value]), Row(R, [key, value + 1]))
        for key in KEYS
        for value in range(2)
    ]
    return RelationInstance(R, rows), priority


@pytest.fixture
def built(monkeypatch):
    """Every Theory the broker constructs, in order."""
    theories = []

    class Counted(broker_module.Theory):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            theories.append(self)

    monkeypatch.setattr(broker_module, "Theory", Counted)
    return theories


@pytest.fixture
def broker():
    instance, priority = _ranked()
    with RequestBroker() as served:
        served.register("ranked", instance, FDS, priority, family=Family.GLOBAL)
        yield served


def _served_fingerprint_is_one_shot(broker, text):
    result = broker.query(text)
    hits = broker.route_report_hits
    served = broker.analyze(text)
    assert broker.route_report_hits == hits + 1  # the unit the query used
    engine = broker.engine("ranked")
    once = analyze(
        engine.schema,
        engine.dependencies,
        parse_checked(text, engine.schema),
        (),
        priority=tuple(engine.active_priority_edges()),
    )
    assert served.fingerprint == once.fingerprint
    return result


def test_one_theory_serves_every_text_of_a_state(broker, built):
    texts = [f"EXISTS k . R(k, {value})" for value in range(40)] + [
        f"R({key}, a)" for key in range(20)
    ]
    for text in texts:
        broker.query(text)
    assert broker.route_report_misses >= len(texts)
    assert len(built) == 1


def test_prefer_builds_a_new_theory(broker, built):
    text = "EXISTS k . R(k, 2)"
    _served_fingerprint_is_one_shot(broker, text)
    before = broker.analyze(text).fingerprint
    broker.prefer(Row(R, [7, 0]), Row(R, [7, 2]), "ranked")
    _served_fingerprint_is_one_shot(broker, text)
    assert len(built) == 2
    assert broker.analyze(text).fingerprint != before


def test_an_insert_that_activates_a_declared_edge_builds_a_new_theory(built):
    instance, priority = _ranked()
    newcomer = Row(R, [9, 1])
    priority.append((Row(R, [9, 0]), newcomer))  # dormant: no R(9, 1) yet
    with RequestBroker() as broker:
        broker.register("ranked", instance, FDS, priority)
        broker.insert(Row(R, [9, 0]), "ranked")  # no conflict, still dormant
        _served_fingerprint_is_one_shot(broker, "EXISTS k . R(k, 1)")
        assert len(built) == 1
        broker.insert(newcomer, "ranked")
        _served_fingerprint_is_one_shot(broker, "EXISTS k . R(k, 1)")
        assert len(built) == 2


def test_an_insert_into_a_new_relation_builds_a_new_theory(broker, built):
    text = "EXISTS k . R(k, 0)"
    _served_fingerprint_is_one_shot(broker, text)
    broker.insert(Row(RelationSchema("W", ["X:number"]), [7]), "ranked")
    _served_fingerprint_is_one_shot(broker, text)
    assert len(built) == 2
    broker.insert(Row(RelationSchema("W", ["X:number"]), [8]), "ranked")
    _served_fingerprint_is_one_shot(broker, text)
    assert len(built) == 2  # same relations, same active edges


def test_a_served_pushed_miss_classifies_once(broker, monkeypatch):
    calls = []
    original = analyzer_module.classify

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(analyzer_module, "classify", counting)
    monkeypatch.setattr(rewrite_module, "classify", counting)
    broker.query("EXISTS k . R(k, 0)")  # builds the mirror's engine
    calls.clear()
    result = broker.query("EXISTS k . R(k, 1) AND k < 5")
    assert (result.engine, result.cached) == ("prefsql", False)
    assert len(calls) == 1


def test_concurrent_readers_share_one_state_theory(broker, built):
    texts = [
        f"EXISTS k . R(k, {value}) AND k < {bound}"
        for value in range(3)
        for bound in range(12)
    ]
    failures = []

    def serve(offset):
        try:
            for text in texts[offset:] + texts[:offset]:
                broker.query(text)
        except Exception as error:  # reported by the main thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=serve, args=(offset,))
            for offset in range(0, 36, 9)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert 1 <= len(built) <= len(threads)
    for text in texts:
        _served_fingerprint_is_one_shot(broker, text)
