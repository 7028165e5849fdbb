"""Unit tests for the sharded executor (`repro.service.parallel`).

The core contract: for every repair family, the shard plan's indexed
product space enumerates exactly the family's preferred repairs (in
``enumerate_repairs`` order for Rep), and the merged shard results are
bit-identical to the in-process fold — with one chunk, with many
in-process chunks, and through a real process pool.
"""

from __future__ import annotations

import pytest

from repro.core.families import Family, preferred_repairs
from repro.cqa.engine import CqaEngine
from repro.datagen.generators import (
    CHAIN_FDS,
    GRID_FDS,
    chain_instance,
    grid_instance,
)
from repro.priorities.priority import Priority
from repro.query.parser import parse_query
from repro.repairs.enumerate import enumerate_repairs, repair_sort_key
from repro.service.parallel import (
    ShardPlan,
    _chunks,
    plan_from_fragments,
    resolve_workers,
    run_closed,
    run_open,
    shard_plan,
)

from tests.conftest import TWO_FDS, TWO_FD_SCHEMA
from repro.relational.instance import RelationInstance

OPEN = parse_query(
    "EXISTS b1, b2, c1, c2, d1, d2 . "
    "R(a, b1, c1, d1) AND R(a, b2, c2, d2) AND b1 != b2"
)
CLOSED = parse_query(
    "EXISTS a, b1, b2, c1, c2, d1, d2 . "
    "R(a, b1, c1, d1) AND R(a, b2, c2, d2) AND b1 != b2"
)


def _two_fd_instance():
    values = [
        (0, 0, 0, 0),
        (0, 1, 0, 1),
        (1, 0, 0, 0),
        (1, 1, 1, 1),
        (2, 2, 1, 1),
        (2, 2, 2, 2),
    ]
    return RelationInstance.from_values(TWO_FD_SCHEMA, values)


def _priority_for(engine: CqaEngine):
    """Orient a deterministic subset of conflicts (acyclic by order)."""
    from repro.relational.rows import sorted_rows

    order = {row: i for i, row in enumerate(sorted_rows(engine.graph.vertices))}
    edges = []
    for index, pair in enumerate(engine.graph.edges()):
        if index % 2:
            continue
        first, second = tuple(sorted_rows(pair))
        edges.append(
            (first, second) if order[first] < order[second] else (second, first)
        )
    return Priority(engine.graph, edges)


class TestShardPlan:
    def test_product_space_matches_enumerate_repairs_order(self):
        instance = chain_instance(8)
        engine = CqaEngine(instance, CHAIN_FDS)
        plan = shard_plan(engine.graph, engine.priority, Family.REP)
        streamed = list(enumerate_repairs(engine.graph))
        assert plan.total == len(streamed)
        assert [plan.repair_at(i) for i in range(plan.total)] == streamed

    @pytest.mark.parametrize("family", list(Family))
    def test_fragment_product_equals_preferred_repairs(self, family):
        instance = _two_fd_instance()
        engine = CqaEngine(instance, TWO_FDS)
        priority = _priority_for(engine)
        plan = shard_plan(engine.graph, priority, family)
        assembled = sorted(
            (plan.repair_at(i) for i in range(plan.total)), key=repair_sort_key
        )
        expected = preferred_repairs(family, priority)
        assert assembled == expected

    def test_empty_graph_has_one_empty_repair(self):
        instance = RelationInstance.from_values(TWO_FD_SCHEMA, [])
        engine = CqaEngine(instance, TWO_FDS)
        plan = shard_plan(engine.graph, engine.priority, Family.REP)
        assert plan.total == 1
        assert plan.repair_at(0) == frozenset()

    def test_plan_from_fragments_pseudo_component(self):
        instance = grid_instance(2, 2)
        engine = CqaEngine(instance, GRID_FDS)
        repairs = engine.repairs(Family.REP)
        plan = plan_from_fragments([repairs])
        assert plan.total == len(repairs)
        assert [plan.repair_at(i) for i in range(plan.total)] == repairs


class TestChunking:
    def test_chunks_cover_range_exactly(self):
        for total, workers in [(1, 4), (7, 2), (16, 4), (100, 3), (5, 50)]:
            ranges = _chunks(total, workers)
            flat = [i for start, stop in ranges for i in range(start, stop)]
            assert flat == list(range(total))

    def test_chunk_count_never_exceeds_total(self):
        assert len(_chunks(3, 8)) == 3

    def test_resolve_workers(self):
        assert resolve_workers(None) is None
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestMergedExecution:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_open_merge_matches_serial(self, workers):
        instance = chain_instance(9)
        serial = CqaEngine(instance, CHAIN_FDS)
        expected = serial.certain_answers(OPEN, ("a",))
        plan = shard_plan(serial.graph, serial.priority, Family.REP)
        merged = run_open(plan, OPEN, ("a",), parallel=workers)
        assert merged.certain == expected.certain
        assert merged.possible == expected.possible
        assert merged.considered == expected.repairs_considered

    @pytest.mark.parametrize("workers", [1, 3])
    def test_closed_merge_matches_serial(self, workers):
        instance = chain_instance(9)
        serial = CqaEngine(instance, CHAIN_FDS)
        expected = serial.answer(CLOSED)
        plan = shard_plan(serial.graph, serial.priority, Family.REP)
        merged = run_closed(plan, CLOSED, parallel=workers)
        assert merged.considered == expected.repairs_considered
        assert merged.satisfying == expected.satisfying
        assert merged.counterexample == expected.counterexample

    def test_stop_on_false_reports_a_real_counterexample(self):
        instance = chain_instance(9)
        engine = CqaEngine(instance, CHAIN_FDS)
        formula = parse_query("EXISTS x, y, z, w . R(x, y, z, w) AND x > 100")
        plan = shard_plan(engine.graph, engine.priority, Family.REP)
        merged = run_closed(plan, formula, parallel=2, stop_on_false=True)
        assert merged.counterexample is not None
        from repro.query.evaluator import evaluate

        assert not evaluate(formula, merged.counterexample)

    def test_engine_parallel_argument_round_trip(self):
        """`parallel=` on the public engine surface hits the shard path."""
        instance = _two_fd_instance()
        serial = CqaEngine(instance, TWO_FDS)
        sharded = CqaEngine(instance, TWO_FDS)
        query = "EXISTS a, b1, b2 . R(a, b1, 0, 0) AND R(a, b2, 0, 1)"
        assert serial.answer(query) == sharded.answer(query, parallel=1)
        assert serial.is_consistently_true(query) == sharded.is_consistently_true(
            query, parallel=1
        )

    def test_naive_flag_threads_through_shards(self):
        instance = chain_instance(7)
        naive = CqaEngine(instance, CHAIN_FDS, naive=True)
        result = naive.certain_answers(OPEN, ("a",), parallel=1)
        assert result.route == "naive"
        indexed = CqaEngine(instance, CHAIN_FDS).certain_answers(
            OPEN, ("a",), parallel=1
        )
        assert result.certain == indexed.certain
        assert result.possible == indexed.possible


class TestProcessPool:
    """One real pool round trip (kept tiny: this box may be 1-core)."""

    def test_pool_execution_is_identical(self):
        instance = chain_instance(8)
        serial = CqaEngine(instance, CHAIN_FDS)
        expected = serial.certain_answers(OPEN, ("a",))
        parallel = CqaEngine(instance, CHAIN_FDS)
        result = parallel.certain_answers(OPEN, ("a",), parallel=2)
        assert result == expected
        assert result.route == expected.route

    def test_rows_and_payloads_pickle(self):
        import pickle

        instance = chain_instance(4)
        engine = CqaEngine(instance, CHAIN_FDS)
        plan = shard_plan(engine.graph, engine.priority, Family.REP)
        clone: ShardPlan = pickle.loads(pickle.dumps(plan))
        assert clone.total == plan.total
        assert [clone.repair_at(i) for i in range(clone.total)] == [
            plan.repair_at(i) for i in range(plan.total)
        ]
