"""Priority builders: turning user knowledge into conflict orientations.

Section 1 of the paper lists the information data-cleaning systems
typically expose for conflict resolution — tuple timestamps and source
reliability — and Example 3 resolves conflicts with a *partial* order on
source reliability.  These builders derive priorities from exactly such
inputs.  Each construction orients edges along a strict (partial) order
on tuples, so acyclicity holds by construction; the resulting
:class:`Priority` re-validates anyway.
"""

from __future__ import annotations

import random
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.constraints.conflict_graph import ConflictGraph
from repro.exceptions import CyclicPriorityError, PriorityError
from repro.priorities.priority import Priority, PriorityEdge
from repro.relational.rows import Row, sorted_rows


#: A rule that orients one conflict: ``(first, second)`` maps to the
#: ``(winner, loser)`` edge, or to ``None`` when it stays unoriented.
#: Applied to the loaded conflicts by :func:`priority_from_rule`, and by
#: a broker to the conflicts later inserts create.
OrientationRule = Callable[[Row, Row], Optional[PriorityEdge]]


def priority_from_rule(graph: ConflictGraph, orient: OrientationRule) -> Priority:
    """Priority orienting each conflict edge of ``graph`` by ``orient``."""
    edges: List[PriorityEdge] = []
    for pair in graph.edges():
        oriented = orient(*tuple(pair))
        if oriented is not None:
            edges.append(oriented)
    return Priority(graph, edges)


def priority_from_pairs(
    graph: ConflictGraph, pairs: Iterable[Tuple[Row, Row]]
) -> Priority:
    """Priority from explicit ``(winner, loser)`` pairs (validated)."""
    return Priority(graph, pairs)


def priority_from_relation(
    graph: ConflictGraph, pairs: Iterable[Tuple[Row, Row]]
) -> Priority:
    """Priority from an arbitrary acyclic relation on *all* tuples.

    The paper notes it is often more natural for a user to provide an
    acyclic relation on the whole instance; its restriction to
    conflicting pairs is then used.  Acyclicity of the full relation is
    checked first so the two views stay equivalent.
    """
    pairs = list(pairs)
    _assert_relation_acyclic(pairs)
    filtered = [
        (winner, loser)
        for winner, loser in pairs
        if graph.are_conflicting(winner, loser)
    ]
    return Priority(graph, filtered)


def ranking_rule(
    rank_of: Callable[[Row], float], higher_wins: bool = True
) -> OrientationRule:
    """The rule of :func:`priority_from_ranking`: a conflict is oriented
    away from the tuple that loses on rank; ties stay unoriented."""

    def orient(first: Row, second: Row) -> Optional[PriorityEdge]:
        rank_first, rank_second = rank_of(first), rank_of(second)
        if rank_first == rank_second:
            return None
        if (rank_first > rank_second) == higher_wins:
            return first, second
        return second, first

    return orient


def priority_from_ranking(
    graph: ConflictGraph,
    rank_of: Callable[[Row], float],
    higher_wins: bool = True,
) -> Priority:
    """Orient each conflict edge toward the lower-ranked tuple.

    Ties stay unoriented, yielding a partial priority.  Acyclic because
    every edge strictly decreases the rank.  This also implements
    timestamp-based resolution ("remove from consideration old, outdated
    tuples"): rank by modification time with ``higher_wins=True``.
    """
    return priority_from_rule(graph, ranking_rule(rank_of, higher_wins))


def priority_from_timestamps(
    graph: ConflictGraph, timestamp_of: Mapping[Row, float]
) -> Priority:
    """Newer tuples dominate older conflicting ones (ties unoriented)."""
    missing = [row for row in graph.vertices if row not in timestamp_of]
    if missing:
        raise PriorityError(f"missing timestamps for {len(missing)} tuples")
    return priority_from_ranking(graph, timestamp_of.__getitem__)


def source_order_rule(
    source_of: Callable[[Row], Hashable],
    more_reliable_than: Iterable[Tuple[Hashable, Hashable]],
) -> OrientationRule:
    """The rule of :func:`priority_from_source_reliability`: a conflict
    is oriented from the more to the less reliable source, and stays
    unoriented between sources the order does not compare.

    Raises :class:`CyclicPriorityError` when the transitive closure of
    ``more_reliable_than`` is not a strict partial order.
    """
    closure = _transitive_closure(list(more_reliable_than))
    for source_a, source_b in closure:
        if (source_b, source_a) in closure or source_a == source_b:
            raise CyclicPriorityError(
                f"source reliability order is cyclic around {source_a!r}"
            )

    def orient(first: Row, second: Row) -> Optional[PriorityEdge]:
        src_first, src_second = source_of(first), source_of(second)
        if (src_first, src_second) in closure:
            return first, second
        if (src_second, src_first) in closure:
            return second, first
        return None

    return orient


def priority_from_source_reliability(
    graph: ConflictGraph,
    source_of: Mapping[Row, Hashable],
    more_reliable_than: Iterable[Tuple[Hashable, Hashable]],
) -> Priority:
    """Example 3: orient conflicts from more- to less-reliable sources.

    ``more_reliable_than`` is a set of ``(better, worse)`` source pairs;
    its transitive closure must be a strict partial order (acyclic).
    Conflicts between sources the order does not compare stay
    unoriented — exactly how Example 3 leaves s1 vs s2 open.
    """
    return priority_from_rule(
        graph, source_order_rule(source_of.__getitem__, more_reliable_than)
    )


def random_priority(
    graph: ConflictGraph,
    density: float = 1.0,
    rng: Optional[random.Random] = None,
) -> Priority:
    """A random acyclic orientation of ~``density`` of the conflict edges.

    Draws a random linear order on the vertices and orients each
    selected edge consistently with it, which guarantees acyclicity and
    (for ``density=1``) can produce every total priority obtainable from
    a linear order.
    """
    if not 0.0 <= density <= 1.0:
        raise PriorityError(f"density must be in [0, 1], got {density}")
    rng = rng or random.Random()
    order = sorted_rows(graph.vertices)
    rng.shuffle(order)
    position = {row: pos for pos, row in enumerate(order)}
    edges: List[PriorityEdge] = []
    for pair in graph.edges():
        if rng.random() > density:
            continue
        first, second = tuple(pair)
        if position[first] < position[second]:
            edges.append((first, second))
        else:
            edges.append((second, first))
    return Priority(graph, edges)


def _transitive_closure(
    pairs: Sequence[Tuple[Hashable, Hashable]]
) -> Set[Tuple[Hashable, Hashable]]:
    closure: Set[Tuple[Hashable, Hashable]] = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


def _assert_relation_acyclic(pairs: Sequence[Tuple[Row, Row]]) -> None:
    adjacency: Dict[Row, Set[Row]] = {}
    for winner, loser in pairs:
        adjacency.setdefault(winner, set()).add(loser)
    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[Row, int] = {}

    def visit(start: Row) -> None:
        stack = [(start, iter(adjacency.get(start, ())))]
        colour[start] = GREY
        while stack:
            vertex, children = stack[-1]
            advanced = False
            for child in children:
                state = colour.get(child, WHITE)
                if state == GREY:
                    raise CyclicPriorityError(
                        f"relation contains a cycle through {child!r}"
                    )
                if state == WHITE:
                    colour[child] = GREY
                    stack.append((child, iter(adjacency.get(child, ()))))
                    advanced = True
                    break
            if not advanced:
                colour[vertex] = BLACK
                stack.pop()

    for vertex in adjacency:
        if colour.get(vertex, WHITE) == WHITE:
            visit(vertex)
