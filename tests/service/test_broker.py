"""Unit tests for the request broker and its answer cache."""

from __future__ import annotations

import threading

import pytest

from repro.core.families import Family
from repro.cqa.engine import CqaEngine
from repro.datagen.generators import (
    CHAIN_FDS,
    GRID_FDS,
    GRID_SCHEMA,
    chain_instance,
    grid_instance,
)
from repro.exceptions import QueryError
from repro.relational.rows import Row
from repro.service.broker import AnswerCache, Request, RequestBroker, _CacheSlot

SELF_JOIN = (
    "EXISTS b1, b2, c1, c2, d1, d2 . "
    "R(a, b1, c1, d1) AND R(a, b2, c2, d2) AND b1 != b2"
)


def _grid_broker(**kwargs) -> RequestBroker:
    broker = RequestBroker(**kwargs)
    broker.register("grid", grid_instance(3, 2), GRID_FDS)
    return broker


class TestRouting:
    def test_rewritable_query_pushes_to_sqlite(self):
        with _grid_broker() as broker:
            result = broker.query("EXISTS y . R(x, y)")
            assert (result.engine, result.route) == ("sqlite", "sqlite")

    def test_conjunctive_fallback_uses_witness_index(self):
        broker = RequestBroker()
        broker.register("chain", chain_instance(5), CHAIN_FDS)
        result = broker.query("EXISTS x, y, z, w . R(x, y, z, w)")
        assert (result.engine, result.route) == ("incremental", "witness-index")
        broker.close()

    def test_non_conjunctive_falls_back_to_indexed_streaming(self):
        broker = RequestBroker()
        broker.register("chain", chain_instance(5), CHAIN_FDS)
        result = broker.query(
            "FORALL x, y, z, w . R(x, y, z, w) IMPLIES x >= 0"
        )
        assert (result.engine, result.route) == ("incremental", "indexed")
        broker.close()

    def test_priority_edges_route_to_prefsql(self):
        instance = grid_instance(2, 2)
        rows = sorted(instance.rows)
        priority = [(rows[0], rows[1])]
        broker = RequestBroker()
        broker.register("grid", instance, GRID_FDS, priority=priority)
        result = broker.query("EXISTS y . R(x, y)")
        assert (result.engine, result.route) == ("prefsql", "prefsql")
        reference = CqaEngine(instance, GRID_FDS, priority).certain_answers(
            "EXISTS y . R(x, y)"
        )
        assert result.outcome.certain == reference.certain
        assert result.outcome.possible == reference.possible
        broker.close()

    def test_prefsql_pushdown_can_be_disabled(self):
        instance = grid_instance(2, 2)
        rows = sorted(instance.rows)
        broker = RequestBroker()
        broker.register(
            "grid", instance, GRID_FDS, priority=[(rows[0], rows[1])],
            prefsql_pushdown=False,
        )
        result = broker.query("EXISTS y . R(x, y)")
        assert result.engine == "incremental"
        broker.close()

    def test_answers_match_reference_engine(self):
        with _grid_broker() as broker:
            result = broker.query("EXISTS y . R(x, y)")
            reference = CqaEngine(grid_instance(3, 2), GRID_FDS).certain_answers(
                "EXISTS y . R(x, y)"
            )
            assert result.outcome.certain == reference.certain
            assert result.outcome.possible == reference.possible


class TestBatching:
    def test_duplicates_within_a_batch_compute_once(self):
        with _grid_broker() as broker:
            requests = [Request("EXISTS y . R(x, y)") for _ in range(5)]
            results = broker.submit(requests)
            assert [r.shared for r in results] == [False, True, True, True, True]
            assert broker.deduplicated == 4
            assert all(
                r.outcome == results[0].outcome and r.route == results[0].route
                for r in results
            )

    def test_results_keep_submission_order_under_priorities(self):
        with _grid_broker() as broker:
            results = broker.submit(
                [
                    Request("EXISTS y . R(x, y)", tag="low", priority=0),
                    Request("EXISTS x . R(x, y)", tag="high", priority=9),
                ]
            )
            assert [r.request.tag for r in results] == ["low", "high"]

    def test_higher_priority_request_computes_the_shared_work(self):
        """The priority-9 duplicate is served first; the dup is shared."""
        with _grid_broker() as broker:
            results = broker.submit(
                [
                    Request("EXISTS y . R(x, y)", tag="late", priority=0),
                    Request("EXISTS y . R(x, y)", tag="first", priority=9),
                ]
            )
            by_tag = {r.request.tag: r for r in results}
            assert by_tag["first"].shared is False
            assert by_tag["late"].shared is True

    def test_distinct_variables_are_distinct_work(self):
        with _grid_broker() as broker:
            results = broker.submit(
                [
                    Request("EXISTS y . R(x, y)"),
                    Request("R(x, y)", variables=("x", "y")),
                ]
            )
            assert not any(r.shared for r in results)


class TestAnswerCaching:
    def test_repeat_batches_hit_the_cache_with_same_route(self):
        with _grid_broker() as broker:
            first = broker.query("EXISTS y . R(x, y)")
            second = broker.query("EXISTS y . R(x, y)")
            assert not first.cached and second.cached
            assert second.route == first.route
            assert second.outcome == first.outcome

    def test_update_invalidates_dependent_entries(self):
        with _grid_broker() as broker:
            broker.query("EXISTS y . R(x, y)")
            broker.insert(Row(GRID_SCHEMA, [7, 7]), "grid")
            result = broker.query("EXISTS y . R(x, y)")
            assert not result.cached
            assert (7,) in result.outcome.certain

    def test_reverted_state_hits_content_keyed_entries_again(self):
        with _grid_broker() as broker:
            row = Row(GRID_SCHEMA, [7, 7])
            baseline = broker.query("EXISTS y . R(x, y)")
            broker.insert(row, "grid")
            broker.query("EXISTS y . R(x, y)")
            broker.delete(row, "grid")
            revisited = broker.query("EXISTS y . R(x, y)")
            assert revisited.outcome == baseline.outcome

    def test_component_wise_invalidation_spares_other_databases(self):
        broker = RequestBroker()
        broker.register("a", grid_instance(2, 2), GRID_FDS)
        broker.register("b", grid_instance(2, 2), GRID_FDS)
        broker.query("EXISTS y . R(x, y)", database="a")
        broker.query("EXISTS y . R(x, y)", database="b")
        broker.insert(Row(GRID_SCHEMA, [9, 9]), "a")
        assert broker.query("EXISTS y . R(x, y)", database="b").cached
        assert not broker.query("EXISTS y . R(x, y)", database="a").cached
        broker.close()

    def test_entries_of_unmentioned_relations_survive_update_cycles(self):
        """Component-wise dependencies: an S-only entry outlives R churn.

        Lookups are content-keyed, so while R is perturbed the S entry
        cannot hit (the instance fingerprint changed) — but it is *not*
        evicted, and the moment the R perturbation is reverted the
        original state's key matches the retained entry again.
        """
        from repro.constraints.fd import FunctionalDependency
        from repro.relational.database import Database
        from repro.relational.instance import RelationInstance
        from repro.relational.schema import RelationSchema

        r_schema = RelationSchema("R", ["A:number", "B:number"])
        s_schema = RelationSchema("S", ["C:number", "D:number"])
        fds = [
            FunctionalDependency.parse("A -> B", "R"),
            FunctionalDependency.parse("C -> D", "S"),
        ]
        database = Database(
            [
                RelationInstance.from_values(r_schema, [(0, 0), (0, 1)]),
                RelationInstance.from_values(s_schema, [(5, 5), (5, 6)]),
            ]
        )
        broker = RequestBroker()
        broker.register("db", database, fds)
        broker.query("EXISTS d . S(c, d)")
        perturbation = Row(r_schema, [9, 9])
        broker.insert(perturbation, "db")
        broker.delete(perturbation, "db")
        assert broker.query("EXISTS d . S(c, d)").cached
        # ... while an S update does evict the S entry for good.
        broker.insert(Row(s_schema, [7, 7]), "db")
        assert broker.cache.stats()["entries"] == 0 or not broker.query(
            "EXISTS d . S(c, d)"
        ).cached
        broker.close()

    def test_prefer_drops_the_databases_entries(self):
        instance = grid_instance(2, 2)
        rows = sorted(instance.rows)
        winner, loser = rows[0], rows[1]
        broker = RequestBroker()
        broker.register("grid", instance, GRID_FDS, family=Family.GLOBAL)
        broker.query("EXISTS y . R(x, y)")
        broker.prefer(winner, loser, "grid")
        assert not broker.query("EXISTS y . R(x, y)").cached
        broker.close()


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with _grid_broker() as broker:
            with pytest.raises(QueryError):
                broker.register("grid", grid_instance(2, 2), GRID_FDS)

    def test_unknown_database_rejected(self):
        with _grid_broker() as broker:
            with pytest.raises(QueryError):
                broker.query("EXISTS y . R(x, y)", database="nope")

    def test_empty_broker_rejects_queries(self):
        broker = RequestBroker()
        with pytest.raises(QueryError):
            broker.query("EXISTS y . R(x, y)")

    def test_stats_shape(self):
        with _grid_broker() as broker:
            broker.query("EXISTS y . R(x, y)")
            stats = broker.stats()
            assert stats["databases"]["grid"]["queries"] == 1
            assert stats["answer_cache"]["entries"] == 1


class TestAnswerCache:
    def test_bounded_fifo_eviction(self):
        cache = AnswerCache(max_entries=2)
        for index in range(3):
            cache.put(("db", index), _CacheSlot(None, "e", "r"))
        assert len(cache) == 2
        assert cache.get(("db", 0)) is None
        assert cache.get(("db", 2)) is not None
        assert cache.evictions == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            AnswerCache(0)


class TestThreadSafety:
    def test_concurrent_broker_submissions(self):
        with _grid_broker() as broker:
            errors = []

            def client(worker: int) -> None:
                try:
                    for _ in range(12):
                        result = broker.query("EXISTS y . R(x, y)")
                        assert result.outcome.certain
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(worker,))
                for worker in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
