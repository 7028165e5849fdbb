"""Equivalence and behaviour tests for the incremental CQA engine.

The load-bearing property: whatever update sequence the engine absorbs,
its answers for every repair family are identical to a fresh
:class:`CqaEngine` built from scratch over the final rows (with the
declared priority edges filtered to currently-conflicting pairs, which
is the incremental engine's re-validation semantics).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.conflict_graph import build_conflict_graph
from repro.core.families import Family
from repro.cqa.answers import Verdict
from repro.cqa.engine import CqaEngine
from repro.datagen.generators import GRID_FDS, GRID_SCHEMA
from repro.datagen.paper_instances import (
    Q1_TEXT,
    all_scenarios,
    example4_scenario,
    mgr_scenario,
)
from repro.exceptions import CyclicPriorityError, QueryError, UpdateError
from repro.incremental import IncrementalCqaEngine
from repro.query.evaluator import evaluate
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row

from tests.conftest import TWO_FDS, TWO_FD_SCHEMA

FAMILIES = list(Family)

#: Query mix covering the conjunctive fast path (atoms, joins,
#: comparisons) and the enumeration fallback (negation, universal).
KV_QUERIES = [
    "EXISTS x . R(x, 0)",
    "EXISTS x, y . R(x, y) AND y > 0",
    "EXISTS x, y, z . R(x, y) AND R(y, z)",
    "FORALL x, y . R(x, y) IMPLIES y < 2",
    "NOT (EXISTS x . R(x, 1))",
]


def kv(a, b):
    return Row(GRID_SCHEMA, (a, b))


def quad(a, b, c, d):
    return Row(TWO_FD_SCHEMA, (a, b, c, d))


def fresh_twin(engine: IncrementalCqaEngine, dependencies, family):
    """A from-scratch engine over the incremental engine's current state."""
    return CqaEngine(
        engine.current_database(),
        dependencies,
        list(engine.active_priority_edges()),
        family,
    )


def assert_closed_match(incremental, fresh, query, family):
    mine = incremental.answer(query, family)
    theirs = fresh.answer(query)
    assert (mine.verdict, mine.repairs_considered, mine.satisfying) == (
        theirs.verdict,
        theirs.repairs_considered,
        theirs.satisfying,
    ), (family, query)
    assert incremental.is_consistently_true(query, family) == (
        theirs.verdict is Verdict.TRUE
    )


def assert_open_match(incremental, fresh, query, family, variables=None):
    mine = incremental.certain_answers(query, variables, family)
    theirs = fresh.certain_answers(query, variables)
    assert (mine.certain, mine.possible, mine.repairs_considered) == (
        theirs.certain,
        theirs.possible,
        theirs.repairs_considered,
    ), (family, query)


class TestPaperScenarioEquivalence:
    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    def test_repair_sets_match_on_every_scenario(self, family):
        """Figure 1-4 instances: products of per-component preferred
        fragments equal the batch engine's preferred repairs."""
        for scenario in all_scenarios():
            fresh = CqaEngine(
                scenario.instance, scenario.dependencies, scenario.priority, family
            )
            incremental = IncrementalCqaEngine(
                scenario.instance,
                scenario.dependencies,
                scenario.priority.edges,
                family,
            )
            assert set(incremental.repairs()) == set(fresh.repairs()), scenario.name
            assert incremental.count_repairs() == len(fresh.repairs())

    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    def test_mgr_answers_match(self, family):
        scenario = mgr_scenario()
        fresh = CqaEngine(
            scenario.instance, scenario.dependencies, scenario.priority, family
        )
        incremental = IncrementalCqaEngine(
            scenario.instance, scenario.dependencies, scenario.priority.edges, family
        )
        mine = incremental.answer(Q1_TEXT)
        theirs = fresh.answer(Q1_TEXT)
        assert (mine.verdict, mine.repairs_considered, mine.satisfying) == (
            theirs.verdict,
            theirs.repairs_considered,
            theirs.satisfying,
        )
        assert_open_match(
            incremental, fresh, "EXISTS d, s . Mgr(n, d, s, r)", family, ("n", "r")
        )

    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    def test_example4_after_updates(self, family):
        """Figure 1's grid stays equivalent while a key group churns."""
        scenario = example4_scenario(3)
        incremental = IncrementalCqaEngine(
            scenario.instance, scenario.dependencies, family=family
        )
        script = [
            ("insert", kv(0, 2)),   # grow group 0 into a triangle
            ("insert", kv(5, 0)),   # fresh singleton component
            ("delete", kv(0, 0)),   # shrink the triangle back
            ("insert", kv(5, 1)),   # turn the singleton into a pair
            ("delete", kv(1, 1)),   # dissolve group 1's conflict
        ]
        for action, row in script:
            getattr(incremental, action)(row)
            fresh = fresh_twin(incremental, scenario.dependencies, family)
            for query in KV_QUERIES:
                assert_closed_match(incremental, fresh, query, family)
            assert_open_match(incremental, fresh, "R(u, v)", family)


class TestMergeAndSplitEquivalence:
    """Updates that merge and split components, under every family."""

    LEFT, RIGHT, BRIDGE = quad(0, 0, 0, 0), quad(1, 1, 1, 1), quad(0, 1, 1, 0)
    QUERIES = [
        "EXISTS a, b, c, d . R(a, b, c, d) AND b = 0",
        "EXISTS a, b, c, d, e, f . R(a, b, c, d) AND R(e, f, c, b)",
        "FORALL a, b, c, d . R(a, b, c, d) IMPLIES a < 2",
    ]

    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    def test_merge_then_split(self, family):
        declared = [(self.LEFT, self.BRIDGE), (self.BRIDGE, self.RIGHT)]
        incremental = IncrementalCqaEngine(
            [self.LEFT, self.RIGHT], TWO_FDS, declared, family
        )
        assert incremental.graph.component_count == 2

        incremental.insert(self.BRIDGE)  # merge into one component
        assert incremental.graph.component_count == 1
        fresh = fresh_twin(incremental, TWO_FDS, family)
        for query in self.QUERIES:
            assert_closed_match(incremental, fresh, query, family)

        incremental.delete(self.BRIDGE)  # split back apart
        assert incremental.graph.component_count == 2
        fresh = fresh_twin(incremental, TWO_FDS, family)
        for query in self.QUERIES:
            assert_closed_match(incremental, fresh, query, family)
        assert_open_match(incremental, fresh, "R(a, b, c, d)", family)


@st.composite
def update_scripts(draw):
    """A start instance plus a short random update script."""
    universe = [kv(a, b) for a in range(4) for b in range(3)]
    initial = draw(st.sets(st.sampled_from(universe), max_size=6))
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from(universe), st.booleans()),
            min_size=1,
            max_size=8,
        )
    )
    return initial, steps


class TestRandomisedEquivalence:
    @given(update_scripts())
    @settings(max_examples=40, deadline=None)
    def test_all_families_match_fresh_after_random_updates(self, case):
        initial, steps = case
        declared = [(kv(a, 0), kv(a, 1)) for a in range(4)]
        incremental = IncrementalCqaEngine(
            set(initial), GRID_FDS, declared, Family.REP
        )
        present = set(initial)
        for row, is_delete in steps:
            if is_delete and row in present:
                incremental.delete(row)
                present.discard(row)
            elif not is_delete and row not in present:
                incremental.insert(row)
                present.add(row)
        assert incremental.current_rows() == frozenset(present)
        for family in FAMILIES:
            fresh = fresh_twin(incremental, GRID_FDS, family)
            for query in ("EXISTS x . R(x, 1)", "EXISTS x, y . R(x, y) AND R(y, x)"):
                assert_closed_match(incremental, fresh, query, family)
            assert_open_match(incremental, fresh, "R(u, v)", family)


class TestBlockerUpdates:
    """Safe negated queries: witnesses index their support rows only, and
    a blocker row inserted or deleted later is resolved at query time."""

    SUPPORT = quad(0, 0, 0, 0)
    #: Conflicts with SUPPORT under A -> B, so SUPPORT's component has
    #: more than one fragment.
    RIVAL = quad(0, 2, 1, 1)
    #: Blocks SUPPORT's witness of the first query and conflicts with it.
    CONFLICTING_BLOCKER = quad(0, 1, 0, 0)
    FAR_SUPPORT = quad(3, 0, 5, 9)
    #: Blocks FAR_SUPPORT's witness of the second query; conflicts with
    #: no row, so it sits in every repair.
    FAR_BLOCKER = quad(5, 0, 3, 9)
    CLOSED = [
        "EXISTS a, c, d . R(a, 0, c, d) AND NOT R(a, 1, c, d)",
        "EXISTS a, c, d . R(a, 0, c, d) AND NOT R(c, 0, a, d)",
    ]
    OPEN = [
        "EXISTS c, d . R(a, 0, c, d) AND NOT R(a, 1, c, d)",
        "EXISTS c, d . R(a, 0, c, d) AND NOT R(c, 0, a, d)",
    ]

    def assert_matches_fresh_engines(self, engine, declared):
        rebuilt = IncrementalCqaEngine(engine.current_rows(), TWO_FDS, declared)
        for family in FAMILIES:
            for query in self.CLOSED:
                mine = engine.answer(query, family)
                theirs = rebuilt.answer(query, family)
                assert mine.route == theirs.route == "witness-index"
                assert (mine.verdict, mine.repairs_considered, mine.satisfying) == (
                    theirs.verdict,
                    theirs.repairs_considered,
                    theirs.satisfying,
                ), (family, query)
            for query in self.OPEN:
                mine = engine.certain_answers(query, ("a",), family)
                theirs = rebuilt.certain_answers(query, ("a",), family)
                assert mine.route == theirs.route == "witness-index"
                assert (mine.certain, mine.possible, mine.repairs_considered) == (
                    theirs.certain,
                    theirs.possible,
                    theirs.repairs_considered,
                ), (family, query)
            fresh = fresh_twin(engine, TWO_FDS, family)
            for query in self.CLOSED:
                assert_closed_match(engine, fresh, query, family)
            for query in self.OPEN:
                assert_open_match(engine, fresh, query, family, ("a",))

    def test_blocker_inserts_and_deletes_match_fresh_engines(self):
        declared = [(self.CONFLICTING_BLOCKER, self.SUPPORT)]
        engine = IncrementalCqaEngine(
            [self.SUPPORT, self.RIVAL, self.FAR_SUPPORT], TWO_FDS, declared
        )
        self.assert_matches_fresh_engines(engine, declared)
        script = [
            ("insert", self.CONFLICTING_BLOCKER),
            ("insert", self.FAR_BLOCKER),
            ("delete", self.CONFLICTING_BLOCKER),
            ("delete", self.SUPPORT),
            ("insert", self.CONFLICTING_BLOCKER),
            ("insert", self.SUPPORT),
            ("delete", self.FAR_BLOCKER),
        ]
        for action, row in script:
            getattr(engine, action)(row)
            self.assert_matches_fresh_engines(engine, declared)
        # The indexes built before the updates answered after them.
        assert engine.summary()["cache"]["witness_index"]["entries"] == 4

    def test_blocker_outside_the_support_component_decides(self):
        engine = IncrementalCqaEngine([self.FAR_SUPPORT], TWO_FDS)
        query = self.CLOSED[1]
        assert engine.answer(query).verdict is Verdict.TRUE
        engine.insert(self.FAR_BLOCKER)
        assert engine.answer(query).verdict is Verdict.FALSE
        engine.delete(self.FAR_BLOCKER)
        assert engine.answer(query).verdict is Verdict.TRUE


class TestPriorityRevalidation:
    def test_declared_edge_deactivates_and_reactivates(self):
        winner, loser = kv(0, 1), kv(0, 0)
        engine = IncrementalCqaEngine(
            [winner, loser], GRID_FDS, [(winner, loser)], Family.LOCAL
        )
        assert engine.active_priority_edges() == {(winner, loser)}
        engine.delete(loser)
        # The conflict is gone: the edge goes dormant instead of the
        # engine raising, and answers keep flowing.
        assert engine.active_priority_edges() == frozenset()
        assert engine.answer("EXISTS x . R(x, 1)").verdict is Verdict.TRUE
        engine.insert(loser)
        assert engine.active_priority_edges() == {(winner, loser)}
        assert engine.repairs() == [frozenset({winner})]

    def test_declared_cycle_rejected_upfront(self):
        first, second = kv(0, 0), kv(0, 1)
        with pytest.raises(CyclicPriorityError):
            IncrementalCqaEngine(
                [first, second], GRID_FDS, [(first, second), (second, first)]
            )

    def test_prefer_rejects_cycles_and_extends(self):
        first, second = kv(0, 0), kv(0, 1)
        engine = IncrementalCqaEngine([first, second], GRID_FDS, family=Family.LOCAL)
        engine.prefer(first, second)
        assert engine.active_priority_edges() == {(first, second)}
        with pytest.raises(CyclicPriorityError):
            engine.prefer(second, first)
        assert engine.repairs() == [frozenset({first})]

    def test_dormant_edge_may_target_future_rows(self):
        """Priorities may mention tuples not inserted yet."""
        winner, loser = kv(0, 1), kv(0, 0)
        engine = IncrementalCqaEngine([loser], GRID_FDS, [(winner, loser)])
        assert engine.active_priority_edges() == frozenset()
        engine.insert(winner)
        assert engine.active_priority_edges() == {(winner, loser)}


class TestEngineMechanics:
    def test_counterexample_is_a_falsifying_preferred_repair(self):
        engine = IncrementalCqaEngine(
            [kv(0, 0), kv(0, 1), kv(1, 0)], GRID_FDS, family=Family.REP
        )
        query = "EXISTS x . R(x, 1)"
        answer = engine.answer(query)
        assert answer.verdict is Verdict.UNDETERMINED
        assert answer.counterexample in set(engine.repairs())
        assert not evaluate(engine._to_formula(query), answer.counterexample)

    def test_batch_update_applies_deletes_then_inserts(self):
        engine = IncrementalCqaEngine([kv(0, 0), kv(0, 1)], GRID_FDS)
        deltas = engine.batch_update(
            inserts=[kv(1, 0), kv(1, 1)], deletes=[kv(0, 1)]
        )
        assert len(deltas) == 3
        assert engine.current_rows() == {kv(0, 0), kv(1, 0), kv(1, 1)}
        assert engine.updates_applied == 3

    def test_delete_unknown_row_raises(self):
        engine = IncrementalCqaEngine([kv(0, 0)], GRID_FDS)
        with pytest.raises(UpdateError):
            engine.delete(kv(7, 7))

    def test_open_query_rejected_by_closed_api(self):
        engine = IncrementalCqaEngine([kv(0, 0)], GRID_FDS)
        with pytest.raises(QueryError):
            engine.answer("R(x, y)")

    def test_untouched_components_hit_the_cache(self):
        engine = IncrementalCqaEngine(
            [kv(a, b) for a in range(6) for b in (0, 1)], GRID_FDS
        )
        query = "EXISTS x . R(x, 1)"
        engine.answer(query)
        misses_before = engine.summary()["cache"]["component_repair"]["misses"]
        engine.insert(kv(0, 2))  # touches component 0 only
        engine.answer(query)
        stats = engine.summary()["cache"]["component_repair"]
        # One new component fingerprint (the grown component 0) missing
        # at both layers (fragment + preferred); the other five
        # components are served from cache.
        assert stats["misses"] == misses_before + 2
        assert stats["hits"] > 0

    def test_recently_used_witness_index_survives_further_builds(self):
        """Witness indexes are evicted least recently used: a query asked
        between builds keeps its index through 32 further ones."""
        engine = IncrementalCqaEngine(
            [kv(0, 0), kv(0, 1), kv(1, 0)], GRID_FDS
        )
        hot = engine._to_formula("EXISTS x . R(x, 0)")
        index = engine._witness_index(hot, ())
        for threshold in range(32):
            engine.answer(f"EXISTS x, y . R(x, y) AND y > {threshold}")
            engine.answer(hot)
        assert engine.summary()["cache"]["witness_index"]["entries"] == 32
        assert engine._witness_index(hot, ()) is index

    def test_summary_reports_incremental_state(self):
        engine = IncrementalCqaEngine(
            [kv(0, 0), kv(0, 1), kv(1, 0)], GRID_FDS, [(kv(0, 0), kv(0, 1))]
        )
        engine.insert(kv(2, 0))
        summary = engine.summary()
        assert summary["tuples"] == 4
        assert summary["conflicts"] == 1
        assert summary["oriented"] == 1
        assert summary["components"] == 3
        assert summary["conflict_components"] == 1
        assert summary["updates_applied"] == 1
        assert "cache" in summary

    def test_current_database_roundtrip(self):
        scenario = mgr_scenario()
        engine = IncrementalCqaEngine(scenario.instance, scenario.dependencies)
        database = engine.current_database()
        assert database.all_rows() == scenario.instance.rows

    def test_sql_certain_answers(self):
        scenario = mgr_scenario()
        engine = IncrementalCqaEngine(
            scenario.instance, scenario.dependencies, scenario.priority.edges
        )
        fresh = CqaEngine(
            scenario.instance, scenario.dependencies, scenario.priority
        )
        sql = "SELECT m.Name FROM Mgr m WHERE m.Salary > 15"
        mine = engine.sql_certain_answers(sql)
        theirs = fresh.sql_certain_answers(sql)
        assert mine.certain == theirs.certain
        assert mine.possible == theirs.possible

    def test_empty_engine_answers_like_empty_instance(self):
        engine = IncrementalCqaEngine([], GRID_FDS)
        engine.insert(kv(0, 0))
        engine.delete(kv(0, 0))
        # No rows: the single (empty) repair falsifies any existential.
        assert engine.count_repairs() == 1
