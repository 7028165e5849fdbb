"""A registered orientation rule orients the conflicts inserts create,
and ``/update`` replies report the conflicts each write adds or removes."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.constraints.conflict_graph import build_conflict_graph
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.priorities.builders import priority_from_rule, ranking_rule
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row
from repro.relational.schema import RelationSchema
from repro.service.broker import RequestBroker
from repro.service.server import ServiceFrontEnd

KV = RelationSchema("R", ["A:number", "B:number"])
FDS = [FunctionalDependency.parse("A -> B", "R")]
QUERY = "EXISTS x . R(x, 5)"
PREFER_NEW_B = ranking_rule(lambda row: row["B"])


def _broker(orient, backend: str = "memory") -> RequestBroker:
    instance = RelationInstance.from_values(KV, [(1, 0), (2, 0)])
    priority = priority_from_rule(build_conflict_graph(instance, FDS), PREFER_NEW_B)
    broker = RequestBroker()
    broker.register(
        "kv", instance, FDS, priority.edges, Family.GLOBAL,
        sqlite_pushdown=backend != "memory",
        prefsql_pushdown=backend == "prefsql",
        orient=orient,
    )
    return broker


class TestRegisteredRule:
    @pytest.mark.parametrize("backend", ["memory", "sqlite", "prefsql"])
    def test_insert_orients_its_new_conflicts(self, backend):
        with _broker(PREFER_NEW_B, backend) as broker:
            assert broker.query(QUERY).outcome.verdict.value == "false"
            delta = broker.insert(Row(KV, (1, 5)))
            assert len(delta.added_edges) == 1
            assert broker.engine().active_priority_edges() == frozenset(
                {(Row(KV, (1, 5)), Row(KV, (1, 0)))}
            )
            assert broker.query(QUERY).outcome.verdict.value == "true"

    def test_without_a_rule_new_conflicts_stay_unoriented(self):
        with _broker(None) as broker:
            broker.insert(Row(KV, (1, 5)))
            assert broker.engine().active_priority_edges() == frozenset()
            assert broker.query(QUERY).outcome.verdict.value == "undetermined"


class TestOrientationUnderConcurrentReads:
    def test_readers_never_see_an_unoriented_inserted_conflict(self):
        """The rule runs in the insert's own write section: once ``(k, 1)``
        conflicts with ``(k, 0)``, every reader sees the edge that makes
        it win, so ``R(k, y)`` always has a certain answer."""
        keys = 40
        broker = RequestBroker()
        broker.register(
            "kv", RelationInstance(KV), FDS, (), Family.GLOBAL,
            sqlite_pushdown=False, orient=PREFER_NEW_B,
        )
        inserted = [0]  # keys whose (k, 0) row is in
        stop = threading.Event()
        empty = []

        def reader(seed):
            step = seed
            try:
                while not stop.is_set():
                    if inserted[0]:
                        key = step % inserted[0]
                        step += 7
                        if not broker.query(f"R({key}, y)").outcome.certain:
                            empty.append(key)
            except Exception as exc:  # surfaced by the assertion below
                empty.append(exc)

        readers = [threading.Thread(target=reader, args=(n,)) for n in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            for key in range(keys):
                broker.insert(Row(KV, (key, 0)))
                inserted[0] = key + 1
                broker.insert(Row(KV, (key, 1)))
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
            broker.close()
        assert not any(thread.is_alive() for thread in readers)
        assert empty == []
        assert len(broker.engine().active_priority_edges()) == keys


class TestUpdateReplies:
    def test_insert_and_delete_replies_carry_conflict_counts(self):
        with _broker(PREFER_NEW_B) as broker:
            front = ServiceFrontEnd(broker)
            inserted = front.handle({"op": "insert", "values": [1, 5]})
            assert inserted == {
                "op": "insert", "applied": True, "new_conflicts": 1,
                "tuples": 3, "conflicts": 1,
            }
            repeated = front.handle({"op": "insert", "values": [1, 5]})
            assert (repeated["applied"], repeated["new_conflicts"]) == (False, 0)
            deleted = front.handle({"op": "delete", "values": [1, 0]})
            assert deleted == {
                "op": "delete", "applied": True, "removed_conflicts": 1,
                "tuples": 2, "conflicts": 0,
            }
