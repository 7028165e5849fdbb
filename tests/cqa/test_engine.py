"""Unit tests for the preferred-CQA engine (Definition 3 semantics)."""

import pytest

from repro.core.families import Family
from repro.cqa.answers import Verdict
from repro.cqa.engine import CqaEngine
from repro.datagen.paper_instances import (
    Q1_TEXT,
    Q2_TEXT,
    example8_scenario,
    mgr_scenario,
)
from repro.exceptions import QueryError
from repro.query.parser import parse_query


def mgr_engine(family=Family.REP, with_priority=True):
    scenario = mgr_scenario(with_priority=with_priority)
    return scenario, CqaEngine(
        scenario.instance, scenario.dependencies, scenario.priority, family
    )


class TestClosedQueries:
    def test_q1_not_consistently_true_classically(self):
        """Example 2: true is not a consistent answer to Q1."""
        _, engine = mgr_engine(Family.REP)
        assert not engine.is_consistently_true(Q1_TEXT)
        assert engine.answer(Q1_TEXT).verdict is Verdict.UNDETERMINED

    def test_q2_undetermined_classically(self):
        """Example 3: neither true nor false is consistent for Q2 in r."""
        _, engine = mgr_engine(Family.REP, with_priority=False)
        assert engine.answer(Q2_TEXT).verdict is Verdict.UNDETERMINED

    @pytest.mark.parametrize(
        "family", [Family.LOCAL, Family.SEMI_GLOBAL, Family.GLOBAL, Family.COMMON]
    )
    def test_q2_preferred_consistent_answer_true(self, family):
        """Example 3: with the reliability priority, true is the
        preferred consistent answer to Q2 under every optimal family."""
        _, engine = mgr_engine(family)
        assert engine.is_consistently_true(Q2_TEXT)
        answer = engine.answer(Q2_TEXT)
        assert answer.verdict is Verdict.TRUE
        assert answer.repairs_considered == 2
        assert answer.counterexample is None

    def test_q1_false_under_preferences(self):
        """In both preferred repairs Mary out-earns John, so Q1 (John
        earns more) is consistently false."""
        _, engine = mgr_engine(Family.GLOBAL)
        answer = engine.answer(Q1_TEXT)
        assert answer.verdict is Verdict.FALSE

    def test_counterexample_reported(self):
        scenario, engine = mgr_engine(Family.REP)
        answer = engine.answer(Q2_TEXT)
        assert answer.verdict is Verdict.UNDETERMINED
        assert answer.counterexample == scenario.row_set("mary_it", "john_pr")

    def test_open_query_rejected_for_closed_api(self):
        _, engine = mgr_engine()
        with pytest.raises(QueryError):
            engine.is_consistently_true("Mgr(n, d, s, w)")

    def test_formula_objects_accepted(self):
        _, engine = mgr_engine(Family.GLOBAL)
        assert engine.is_consistently_true(parse_query(Q2_TEXT))


class TestOpenQueries:
    def test_certain_vs_possible(self):
        _, engine = mgr_engine(Family.REP, with_priority=False)
        result = engine.certain_answers(
            "EXISTS d, s, w . Mgr(n, d, s, w)", ("n",)
        )
        # Mary and John each appear in every repair (with some tuple).
        assert result.certain == {("Mary",), ("John",)}
        assert result.possible == {("Mary",), ("John",)}

    def test_disputed_answers(self):
        scenario, engine = mgr_engine(Family.REP, with_priority=False)
        result = engine.certain_answers("Mgr(n, d, s, w)", ("n", "d"))
        assert ("Mary", "R&D") in result.disputed
        assert result.certain == frozenset()

    def test_preferred_certain_answers_grow(self):
        """Narrowing to preferred repairs can only add certain answers."""
        _, classic = mgr_engine(Family.REP)
        _, preferred = mgr_engine(Family.GLOBAL)
        query = "EXISTS n, d, w . Mgr(n, d, s, w)"
        classic_result = classic.certain_answers(query, ("s",))
        preferred_result = preferred.certain_answers(query, ("s",))
        assert classic_result.certain <= preferred_result.certain

    def test_sql_certain_answers(self):
        # Mary earns 40 in one preferred repair and 20 in the other, so
        # she is a certain answer at the >= 20 threshold while John
        # (30 vs 10) is only possible.
        _, engine = mgr_engine(Family.GLOBAL)
        result = engine.sql_certain_answers(
            "SELECT m.Name FROM Mgr m WHERE m.Salary >= 20"
        )
        assert result.certain == {("Mary",)}
        assert result.possible == {("Mary",), ("John",)}


class TestEngineMechanics:
    def test_repairs_cached_and_shared(self):
        _, engine = mgr_engine(Family.GLOBAL)
        first = engine.repairs()
        assert engine.repairs() is first
        assert len(engine.repairs(Family.REP)) == 3

    def test_priority_graph_mismatch_rejected(self):
        scenario = mgr_scenario()
        other = example8_scenario()
        with pytest.raises(QueryError):
            CqaEngine(
                scenario.instance, scenario.dependencies, other.priority
            )

    def test_priority_from_edge_list(self):
        scenario = mgr_scenario()
        engine = CqaEngine(
            scenario.instance,
            scenario.dependencies,
            list(scenario.priority.edges),
            Family.GLOBAL,
        )
        assert engine.is_consistently_true(Q2_TEXT)

    def test_summary(self):
        _, engine = mgr_engine(Family.GLOBAL)
        summary = engine.summary()
        assert summary["tuples"] == 4
        assert summary["conflicts"] == 3
        assert summary["oriented"] == 2
        assert summary["family"] == "G-Rep"

    def test_consistent_database_single_repair(self):
        from repro.relational.instance import RelationInstance

        scenario = mgr_scenario()
        consistent = RelationInstance.from_values(
            scenario.instance.schema, [("Mary", "R&D", 40, 3)]
        )
        engine = CqaEngine(consistent, scenario.dependencies)
        assert engine.answer("Mgr(Mary, 'R&D', 40, 3)").verdict is Verdict.TRUE
        assert engine.repairs() == [consistent.rows]


class TestPlanCaching:
    """Each family's repair plan is built once per engine and reused."""

    @pytest.mark.parametrize("family", list(Family))
    def test_reanswering_reuses_the_plan(self, family, monkeypatch):
        scenario, engine = mgr_engine(family)
        first = engine.answer(Q1_TEXT)

        # Re-answering must not re-run Bron-Kerbosch.
        import repro.service.parallel as parallel_module

        def forbid(*args, **kwargs):  # pragma: no cover - assertion hook
            raise AssertionError("component repairs re-ran on a cached plan")

        monkeypatch.setattr(parallel_module, "_component_repairs", forbid)
        second = engine.answer(Q1_TEXT)
        assert second == first
        assert second.counterexample == first.counterexample
        assert engine.is_consistently_true(Q1_TEXT) == (
            first.verdict is Verdict.TRUE
        )

    @pytest.mark.parametrize("family", list(Family))
    def test_plan_matches_repairs_contract(self, family):
        from repro.core.families import preferred_repairs
        from repro.repairs.enumerate import repair_sort_key

        _, engine = mgr_engine(family)
        engine.answer(Q1_TEXT)
        expected = preferred_repairs(family, engine.priority)
        assert engine.repairs(family) == expected
        assert sorted(engine._plan(family), key=repair_sort_key) == expected

    def test_early_exit_then_full_answer_counts_every_repair(self):
        """is_consistently_true stops at the first counterexample; the
        answer that follows still folds the whole family."""
        _, engine = mgr_engine(Family.REP)
        assert not engine.is_consistently_true(Q1_TEXT)  # falsified early
        full = engine.answer(Q1_TEXT)
        assert full.repairs_considered == len(engine.repairs(Family.REP))
