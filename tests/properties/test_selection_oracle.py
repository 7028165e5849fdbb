"""Property tests: the one family-selection function against its oracles.

:func:`repro.core.families.select_preferred` tests only S-optimal repairs
as G and C candidates, and checks dominance with dominator-set
arithmetic.  These properties compare it with selections that do
neither: ≪-maximality over the whole pool, the definitional replacement
test, and Algorithm 1 run over every choice sequence.  They also rebuild
each caller's output with the straightforward per-family ladder (one
``dominates`` test per pair, G by ``maximal_under_preference``, C by
``all_cleaning_results``) and require the same lists, in the same order.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings

from repro.constraints.conflict_graph import build_conflict_graph
from repro.core.cleaning import all_cleaning_results
from repro.core.families import Family, preferred_repairs, select_preferred
from repro.core.lifting import maximal_under_preference
from repro.core.optimality import is_globally_optimal_by_definition
from repro.datagen.generators import GRID_FDS
from repro.incremental.cache import ComponentRepairCache
from repro.incremental.dynamic_graph import DynamicConflictGraph
from repro.priorities.priority import Priority
from repro.relational.instance import RelationInstance
from repro.repairs.enumerate import (
    _component_repairs,
    enumerate_repairs,
    repair_sort_key,
)
from repro.service.parallel import shard_plan

from tests.conftest import (
    TWO_FD_SCHEMA,
    TWO_FDS,
    key_priorities,
    two_fd_priorities,
)

_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _beaten_only_outside_s():
    """Four repairs, two S-optimal; one of those two is strictly
    ≪-beaten only by a repair that is not S-optimal.  Testing G
    candidates against the S-optimal repairs alone keeps it."""
    instance = RelationInstance.from_values(
        TWO_FD_SCHEMA,
        [
            (0, 0, 1, 0),
            (0, 0, 1, 1),
            (0, 1, 1, 1),
            (1, 0, 1, 0),
            (1, 1, 1, 0),
            (1, 1, 1, 1),
        ],
    )
    graph = build_conflict_graph(instance, TWO_FDS)
    row = {r.values: r for r in graph.vertices}
    pairs = [
        ((0, 0, 1, 0), (1, 1, 1, 1)),
        ((0, 0, 1, 1), (0, 0, 1, 0)),
        ((0, 0, 1, 1), (1, 1, 1, 0)),
        ((1, 0, 1, 0), (1, 1, 1, 1)),
        ((1, 1, 1, 0), (0, 1, 1, 1)),
        ((1, 1, 1, 0), (1, 0, 1, 0)),
    ]
    edges = [(row[winner], row[loser]) for winner, loser in pairs]
    return instance, Priority(graph, edges)


BEATEN_ONLY_OUTSIDE_S = _beaten_only_outside_s()


def _locally_optimal(repair, priority):
    graph = priority.graph
    for outsider in graph.vertices - repair:
        inside = graph.neighbours(outsider) & repair
        if len(inside) == 1 and priority.dominates(outsider, next(iter(inside))):
            return False
    return True


def _semi_globally_optimal(repair, priority):
    graph = priority.graph
    for outsider in graph.vertices - repair:
        inside = graph.neighbours(outsider) & repair
        if inside and all(priority.dominates(outsider, x) for x in inside):
            return False
    return True


def _ladder(family, priority, pool):
    """One family's selection, computed without any prefilter."""
    if family is Family.REP:
        return list(pool)
    if family is Family.LOCAL:
        return [r for r in pool if _locally_optimal(r, priority)]
    if family is Family.SEMI_GLOBAL:
        return [r for r in pool if _semi_globally_optimal(r, priority)]
    if family is Family.GLOBAL:
        return maximal_under_preference(priority, pool)
    return all_cleaning_results(priority)


def _conflicted(graph):
    return [c for c in graph.connected_components() if len(c) > 1]


def _check_against_oracles(priority):
    pool = list(enumerate_repairs(priority.graph))
    selected = select_preferred(Family.GLOBAL, priority, pool)
    assert selected == maximal_under_preference(priority, pool)
    for repair in selected:
        assert is_globally_optimal_by_definition(repair, priority)
    common = set(select_preferred(Family.COMMON, priority, pool))
    assert common == set(all_cleaning_results(priority, memoized=True))
    assert common == set(all_cleaning_results(priority, memoized=False))


def _check_callers(priority, dependencies):
    graph = priority.graph
    pool = list(enumerate_repairs(graph))
    dynamic = DynamicConflictGraph(graph.vertices, dependencies)
    cache = ComponentRepairCache()
    for family in Family:
        expected = sorted(_ladder(family, priority, pool), key=repair_sort_key)
        assert preferred_repairs(family, priority) == expected, family
        assert preferred_repairs(family, priority, pool) == expected, family

        plan = shard_plan(graph, priority, family)
        assert plan.fragments == tuple(
            tuple(
                _ladder(
                    family,
                    priority.restricted_to(component),
                    _component_repairs(graph, component, pivoting=True),
                )
            )
            for component in _conflicted(graph)
        ), family

        for component in dynamic.connected_components():
            edges = frozenset(
                (winner, loser)
                for winner, loser in priority.edges
                if winner in component
            )
            local = Priority(cache.component_graph(dynamic, component), edges)
            fragments = sorted(
                enumerate_repairs(local.graph), key=repair_sort_key
            )
            assert cache.preferred_fragments(
                dynamic, component, family, edges
            ) == sorted(_ladder(family, local, fragments), key=repair_sort_key)


class TestSelectionOracle:
    @given(two_fd_priorities(max_tuples=6))
    @example(BEATEN_ONLY_OUTSIDE_S)
    @_SETTINGS
    def test_two_fd_selection_matches_oracles(self, data):
        _check_against_oracles(data[1])

    @given(key_priorities())
    @_SETTINGS
    def test_key_selection_matches_oracles(self, data):
        _check_against_oracles(data[1])

    @given(two_fd_priorities())
    @example(BEATEN_ONLY_OUTSIDE_S)
    @_SETTINGS
    def test_two_fd_callers_match_the_ladder(self, data):
        _check_callers(data[1], TWO_FDS)

    @given(key_priorities())
    @_SETTINGS
    def test_key_callers_match_the_ladder(self, data):
        _check_callers(data[1], GRID_FDS)
