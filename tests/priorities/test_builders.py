"""Unit tests for priority builders (timestamps, reliability, ranking)."""

import random

import pytest
from hypothesis import given, settings

from repro.constraints.conflict_graph import build_conflict_graph
from repro.datagen.generators import GRID_FDS
from repro.datagen.paper_instances import mgr_scenario, mgr_source_of
from repro.exceptions import CyclicPriorityError, PriorityError
from repro.priorities.builders import (
    priority_from_pairs,
    priority_from_ranking,
    priority_from_relation,
    priority_from_source_reliability,
    priority_from_rule,
    priority_from_timestamps,
    random_priority,
    ranking_rule,
    source_order_rule,
)
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row
from repro.relational.schema import RelationSchema
from tests.conftest import key_instances

KV = RelationSchema("R", ["A:number", "B:number"])


def key_group(*b_values):
    instance = RelationInstance.from_values(KV, [(1, b) for b in b_values])
    return build_conflict_graph(instance, GRID_FDS), [
        Row(KV, (1, b)) for b in b_values
    ]


class TestRanking:
    def test_higher_rank_wins(self):
        graph, (t1, t2) = key_group(1, 2)[0], key_group(1, 2)[1]
        priority = priority_from_ranking(graph, lambda row: row["B"])
        assert priority.dominates(t2, t1)

    def test_lower_wins_when_requested(self):
        graph, rows = key_group(1, 2)
        t1, t2 = rows
        priority = priority_from_ranking(
            graph, lambda row: row["B"], higher_wins=False
        )
        assert priority.dominates(t1, t2)

    def test_ties_stay_unoriented(self):
        graph, rows = key_group(1, 2)
        priority = priority_from_ranking(graph, lambda row: 0)
        assert priority.is_empty

    def test_timestamps(self):
        graph, rows = key_group(1, 2)
        t1, t2 = rows
        priority = priority_from_timestamps(graph, {t1: 100.0, t2: 50.0})
        assert priority.dominates(t1, t2)

    def test_timestamps_must_cover_all_tuples(self):
        graph, rows = key_group(1, 2)
        with pytest.raises(PriorityError):
            priority_from_timestamps(graph, {rows[0]: 1.0})


class TestSourceReliability:
    def test_example3_orientation(self):
        scenario = mgr_scenario()
        priority = priority_from_source_reliability(
            scenario.graph, mgr_source_of(), [("s1", "s3"), ("s2", "s3")]
        )
        assert priority.dominates(scenario.rows["mary_rd"], scenario.rows["mary_it"])
        assert priority.dominates(scenario.rows["john_rd"], scenario.rows["john_pr"])
        # s1 vs s2 is left open.
        assert not priority.dominates(
            scenario.rows["mary_rd"], scenario.rows["john_rd"]
        )
        assert not priority.dominates(
            scenario.rows["john_rd"], scenario.rows["mary_rd"]
        )

    def test_transitive_reliability(self):
        graph, rows = key_group(1, 2)
        t1, t2 = rows
        priority = priority_from_source_reliability(
            graph, {t1: "a", t2: "c"}, [("a", "b"), ("b", "c")]
        )
        assert priority.dominates(t1, t2)

    def test_cyclic_reliability_rejected(self):
        graph, rows = key_group(1, 2)
        t1, t2 = rows
        with pytest.raises(CyclicPriorityError):
            priority_from_source_reliability(
                graph, {t1: "a", t2: "b"}, [("a", "b"), ("b", "a")]
            )


class TestOrientationRules:
    """The rules behind the ranking and source builders orient single
    conflicts (as a broker does for inserted ones) and, folded over a
    graph, give the builders' priorities."""

    def test_ranking_rule_orients_pairs_and_leaves_ties(self):
        _, (t1, t2) = key_group(1, 2)
        rule = ranking_rule(lambda row: row["B"])
        assert rule(t1, t2) == (t2, t1) and rule(t2, t1) == (t2, t1)
        lower_wins = ranking_rule(lambda row: row["B"], higher_wins=False)
        assert lower_wins(t1, t2) == (t1, t2)
        assert ranking_rule(lambda row: 0)(t1, t2) is None

    def test_source_order_rule_is_transitive_and_partial(self):
        _, (t1, t2) = key_group(1, 2)
        sources = {t1: "a", t2: "c"}
        rule = source_order_rule(sources.__getitem__, [("a", "b"), ("b", "c")])
        assert rule(t2, t1) == (t1, t2)
        unrelated = source_order_rule(sources.__getitem__, [("a", "b")])
        assert unrelated(t1, t2) is None

    def test_source_order_rule_rejects_cycles_up_front(self):
        with pytest.raises(CyclicPriorityError):
            source_order_rule(str, [("a", "b"), ("b", "a")])

    def test_folded_rules_match_the_builders(self):
        scenario = mgr_scenario()
        order = [("s1", "s3"), ("s2", "s3")]
        sources = mgr_source_of()
        assert priority_from_rule(
            scenario.graph, source_order_rule(sources.__getitem__, order)
        ).edges == priority_from_source_reliability(
            scenario.graph, sources, order
        ).edges
        rank = lambda row: row["Salary"]  # noqa: E731
        assert priority_from_rule(scenario.graph, ranking_rule(rank)).edges == (
            priority_from_ranking(scenario.graph, rank).edges
        )


class TestRelationAndPairs:
    def test_relation_filtered_to_conflicts(self):
        instance = RelationInstance.from_values(KV, [(1, 1), (1, 2), (2, 5)])
        graph = build_conflict_graph(instance, GRID_FDS)
        t1, t2, t3 = Row(KV, (1, 1)), Row(KV, (1, 2)), Row(KV, (2, 5))
        # (t1, t3) is not a conflict; it is silently dropped.
        priority = priority_from_relation(graph, [(t1, t2), (t1, t3)])
        assert priority.edges == {(t1, t2)}

    def test_relation_must_be_acyclic_globally(self):
        instance = RelationInstance.from_values(KV, [(1, 1), (1, 2), (2, 5)])
        graph = build_conflict_graph(instance, GRID_FDS)
        t1, t2, t3 = Row(KV, (1, 1)), Row(KV, (1, 2)), Row(KV, (2, 5))
        with pytest.raises(CyclicPriorityError):
            priority_from_relation(graph, [(t1, t3), (t3, t1)])

    def test_pairs_builder_validates(self):
        graph, rows = key_group(1, 2)
        priority = priority_from_pairs(graph, [(rows[0], rows[1])])
        assert priority.dominates(rows[0], rows[1])


class TestRandomPriority:
    @given(key_instances())
    @settings(max_examples=40, deadline=None)
    def test_random_priority_valid_and_dense(self, instance):
        graph = build_conflict_graph(instance, GRID_FDS)
        priority = random_priority(graph, density=1.0, rng=random.Random(5))
        assert priority.is_total

    def test_density_zero_gives_empty(self):
        graph, _ = key_group(1, 2, 3)
        priority = random_priority(graph, density=0.0, rng=random.Random(1))
        assert priority.is_empty

    def test_bad_density_rejected(self):
        graph, _ = key_group(1, 2)
        with pytest.raises(PriorityError):
            random_priority(graph, density=2.0)
