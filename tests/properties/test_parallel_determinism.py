"""Property tests: sharded execution is deterministic and serial-identical.

For random instances and priorities across all five repair families,
``parallel=1`` (shard path in-process), ``parallel=4`` (process pool)
and the in-process fold (``parallel=None``) agree on certain/possible
answers, closed verdicts, counts and counterexamples — and broker
cache hits reproduce the original result bit for bit, including the
``route`` provenance.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.constraints.conflict_graph import build_conflict_graph
from repro.core.families import Family
from repro.cqa.engine import CqaEngine
from repro.incremental.engine import IncrementalCqaEngine
from repro.priorities.priority import Priority
from repro.query.parser import parse_query
from repro.relational.instance import RelationInstance

from tests.conftest import TWO_FD_SCHEMA, TWO_FDS, two_fd_priorities

#: Small but join-heavy: a dirty self-join plus a disjunctive tail, so
#: both the witness path and the enumeration fallback get exercised.
OPEN_QUERY = parse_query(
    "EXISTS b, c, d . R(a, b, c, d) AND (b = 0 OR c = d)"
)
CLOSED_QUERY = parse_query(
    "EXISTS a, b1, b2, c1, c2, d1, d2 . "
    "R(a, b1, c1, d1) AND R(a, b2, c2, d2) AND b1 != b2"
)

#: Three conflict components with several G-preferred fragments each:
#: listing G-Rep in ``repair_sort_key`` order rather than the plan's
#: index order changes which falsifying repair comes first.
_G_ORDER_INSTANCE = RelationInstance.from_values(
    TWO_FD_SCHEMA,
    [
        (0, 0, 0, 1), (0, 1, 0, 1), (0, 2, 0, 1),
        (1, 0, 0, 0), (1, 2, 0, 2), (1, 2, 2, 1),
    ],
)
_G_ORDER_SETTING = (
    _G_ORDER_INSTANCE,
    Priority(build_conflict_graph(_G_ORDER_INSTANCE, TWO_FDS), ()),
)

_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(setting=two_fd_priorities(max_tuples=6), family=st.sampled_from(Family))
@_SETTINGS
def test_parallel_one_and_four_match_serial_open(setting, family):
    instance, priority = setting
    serial = CqaEngine(instance, TWO_FDS, priority, family)
    sharded = CqaEngine(instance, TWO_FDS, priority, family)
    expected = serial.certain_answers(OPEN_QUERY, ("a",))
    one = sharded.certain_answers(OPEN_QUERY, ("a",), parallel=1)
    four = sharded.certain_answers(OPEN_QUERY, ("a",), parallel=4)
    assert one == expected
    assert four == expected
    assert one.repairs_considered == expected.repairs_considered
    assert four.repairs_considered == expected.repairs_considered


@given(setting=two_fd_priorities(max_tuples=6), family=st.sampled_from(Family))
@example(setting=_G_ORDER_SETTING, family=Family.GLOBAL)
@_SETTINGS
def test_parallel_one_and_four_match_serial_closed(setting, family):
    instance, priority = setting
    serial = CqaEngine(instance, TWO_FDS, priority, family)
    sharded = CqaEngine(instance, TWO_FDS, priority, family)
    expected = serial.answer(CLOSED_QUERY)
    one = sharded.answer(CLOSED_QUERY, parallel=1)
    four = sharded.answer(CLOSED_QUERY, parallel=4)
    for merged in (one, four):
        assert merged.verdict == expected.verdict
        assert merged.repairs_considered == expected.repairs_considered
        assert merged.satisfying == expected.satisfying
        # Every path folds the same plan, so the first falsifier in
        # index order is the same repair for every family.
        assert merged.counterexample == expected.counterexample


@given(setting=two_fd_priorities(max_tuples=6), family=st.sampled_from(Family))
@_SETTINGS
def test_incremental_enumeration_fallback_parallel_matches(setting, family):
    """The incremental engine's sharded fallback (non-conjunctive query)."""
    instance, priority = setting
    query = parse_query(
        "EXISTS b, c, d . R(a, b, c, d) AND (b = 0 OR c = d)"
    )
    serial = IncrementalCqaEngine(instance, TWO_FDS, priority.edges, family)
    sharded = IncrementalCqaEngine(instance, TWO_FDS, priority.edges, family)
    expected = serial.certain_answers(query, ("a",))
    four = sharded.certain_answers(query, ("a",), parallel=4)
    assert four.certain == expected.certain
    assert four.possible == expected.possible
    assert four.repairs_considered == expected.repairs_considered


@given(setting=two_fd_priorities(max_tuples=5))
@_SETTINGS
def test_broker_cache_hits_return_the_same_route(setting):
    from repro.service.broker import RequestBroker

    instance, priority = setting
    broker = RequestBroker()
    broker.register("db", instance, TWO_FDS, priority.edges)
    try:
        for query in (
            "EXISTS b, c, d . R(a, b, c, d)",
            "EXISTS a, b, c, d . R(a, b, c, d) AND (b = 0 OR c = d)",
        ):
            first = broker.query(query)
            again = broker.query(query)
            assert again.cached
            assert again.route == first.route
            assert again.engine == first.engine
            assert again.outcome == first.outcome
    finally:
        broker.close()
