"""Tests for consistent query answering over denial constraints (§6)."""

import pytest

from repro.constraints.denial import DenialConstraint, fd_as_denial
from repro.constraints.fd import FunctionalDependency
from repro.cqa.answers import Verdict
from repro.cqa.engine import CqaEngine
from repro.cqa.hypergraph_cqa import DenialCqaEngine
from repro.datagen.paper_instances import mgr_scenario
from repro.exceptions import QueryError
from repro.query.ast import Atom, Comparison, Var
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.schema import RelationSchema

EMP = RelationSchema("Emp", ["Name", "Dept", "Salary:number"])
BUDGET = RelationSchema("Budget", ["Dept", "Cap:number"])


def overpaid_engine():
    """Emp joined with Budget: salaries may not exceed the dept cap."""
    emp = RelationInstance.from_values(
        EMP, [("Mary", "R&D", 40), ("John", "R&D", 10), ("Zoe", "IT", 15)]
    )
    budget = RelationInstance.from_values(BUDGET, [("R&D", 20), ("IT", 30)])
    constraint = DenialConstraint(
        (
            Atom("Emp", [Var("n"), Var("d"), Var("s")]),
            Atom("Budget", [Var("d"), Var("c")]),
        ),
        Comparison(">", Var("s"), Var("c")),
    )
    return DenialCqaEngine(Database([emp, budget]), [constraint])


class TestCrossRelationDenial:
    def test_two_repairs(self):
        # Mary(40) vs the R&D cap(20): drop either; Zoe and John safe.
        engine = overpaid_engine()
        assert len(engine.repairs()) == 2

    def test_unaffected_facts_are_certain(self):
        engine = overpaid_engine()
        assert engine.answer("Emp(John, 'R&D', 10)").verdict is Verdict.TRUE
        assert engine.answer("Emp(Zoe, 'IT', 15)").verdict is Verdict.TRUE
        assert engine.answer("Budget('IT', 30)").verdict is Verdict.TRUE

    def test_conflicted_facts_are_undetermined(self):
        engine = overpaid_engine()
        assert engine.answer("Emp(Mary, 'R&D', 40)").verdict is Verdict.UNDETERMINED
        assert engine.answer("Budget('R&D', 20)").verdict is Verdict.UNDETERMINED

    def test_disjunction_across_the_conflict(self):
        engine = overpaid_engine()
        answer = engine.answer("Emp(Mary, 'R&D', 40) OR Budget('R&D', 20)")
        assert answer.verdict is Verdict.TRUE

    def test_certain_answers_open_query(self):
        engine = overpaid_engine()
        result = engine.certain_answers(
            "EXISTS d, s . Emp(n, d, s)", ("n",)
        )
        assert result.certain == {("John",), ("Zoe",)}
        assert result.possible == {("Mary",), ("John",), ("Zoe",)}

    def test_open_query_rejected_by_answer(self):
        engine = overpaid_engine()
        with pytest.raises(QueryError):
            engine.answer("Emp(n, d, s)")


class TestFdEquivalence:
    def test_matches_graph_engine_on_fds(self):
        """FDs as denial constraints give the same verdicts as the
        conflict-graph engine (hypergraph generalizes graph)."""
        scenario = mgr_scenario()
        denials = [
            fd_as_denial(fd, scenario.instance.schema)
            for fd in scenario.dependencies
        ]
        hyper = DenialCqaEngine(scenario.instance, denials)
        graph_engine = CqaEngine(scenario.instance, scenario.dependencies)
        assert set(hyper.repairs()) == set(graph_engine.repairs())
        for query in (
            "Mgr(Mary, 'R&D', 40, 3)",
            "Mgr(Mary, 'R&D', 40, 3) OR Mgr(Mary, 'IT', 20, 1)",
            "EXISTS d, s, w . Mgr(Mary, d, s, w)",
        ):
            assert hyper.answer(query).verdict == graph_engine.answer(query).verdict

    def test_counterexample_surfaces(self):
        engine = overpaid_engine()
        answer = engine.answer("Emp(Mary, 'R&D', 40)")
        assert answer.counterexample is not None
        assert answer.satisfying == 1


class TestQueryValidation:
    """Queries are checked against the schema, as the FD engines do."""

    KEYED = RelationSchema("R", ["K:number", "A:number"])

    @pytest.fixture
    def engine(self):
        instance = RelationInstance.from_values(
            self.KEYED, [(0, 0), (0, 1), (1, 0)]
        )
        fd = FunctionalDependency(["K"], ["A"])
        return DenialCqaEngine(instance, [fd_as_denial(fd, self.KEYED)])

    @pytest.mark.parametrize(
        "query", ["EXISTS x . S(x)", "EXISTS x, y, z . R(x, y, z)"]
    )
    def test_closed_query_rejected(self, engine, query):
        with pytest.raises(QueryError):
            engine.answer(query)

    @pytest.mark.parametrize("query", ["S(x)", "EXISTS z . R(x, y, z)"])
    def test_open_query_rejected(self, engine, query):
        with pytest.raises(QueryError):
            engine.certain_answers(query)

    def test_valid_query_still_answers(self, engine):
        assert engine.answer("EXISTS x . R(1, x)").verdict is Verdict.TRUE
        assert engine.answer("R(0, 0)").verdict is Verdict.UNDETERMINED
