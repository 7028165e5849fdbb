"""A mutable conflict graph that absorbs single-tuple updates.

:class:`~repro.constraints.conflict_graph.ConflictGraph` is immutable:
every update to the instance forces a full rebuild.  This module keeps
the same graph *incrementally*: per functional dependency it maintains
the LHS/RHS bucket indexes that
:func:`repro.constraints.conflicts.conflicting_pairs` builds transiently,
so ``insert(row)`` / ``delete(row)`` derives the delta edge set from the
affected buckets alone — time proportional to the touched key groups,
not to the instance.

Connected components are maintained alongside the adjacency:

* an **insert** merges the components of the new row's conflict
  neighbours (plus the row itself) into one;
* a **delete** may split its component — the remaining members are
  re-partitioned by a traversal confined to that one component.

Each mutation returns a :class:`GraphDelta` naming the changed edges and
the components whose vertex sets changed, which is exactly the
invalidation signal the component-scoped caches key on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Sequence,
    Set,
    Tuple,
)

from repro.constraints.conflict_graph import ConflictGraph
from repro.constraints.conflicts import ConflictEdge, edge
from repro.constraints.fd import FunctionalDependency
from repro.exceptions import UpdateError
from repro.relational.rows import Row, row_sort_key

#: Bucket key: (relation name, LHS projection of the row).
_BucketKey = Tuple[str, Tuple]


@dataclass(frozen=True)
class GraphDelta:
    """The effect of one mutation on the conflict graph.

    ``touched_components`` holds the *current* (post-update) vertex sets
    of every component that gained or lost a vertex or edge; a deleted
    row's old component contributes its surviving pieces.  Components
    not listed are bit-for-bit unchanged, so any cache keyed on a
    component's vertex set stays valid for them.
    """

    added_vertices: FrozenSet[Row] = frozenset()
    removed_vertices: FrozenSet[Row] = frozenset()
    added_edges: FrozenSet[ConflictEdge] = frozenset()
    removed_edges: FrozenSet[ConflictEdge] = frozenset()
    touched_components: Tuple[FrozenSet[Row], ...] = ()

    @property
    def is_noop(self) -> bool:
        return not (self.added_vertices or self.removed_vertices)


class DynamicConflictGraph:
    """A conflict graph under tuple-level inserts and deletes.

    Mirrors the read API of :class:`ConflictGraph` (``neighbours``,
    ``edges``, ``edge_labels``, ``connected_components``, ...) while
    supporting mutation.  ``snapshot()`` produces an equivalent
    immutable graph for interop with the batch machinery.
    """

    def __init__(
        self,
        rows: Iterable[Row] = (),
        dependencies: Sequence[FunctionalDependency] = (),
    ) -> None:
        self.dependencies: Tuple[FunctionalDependency, ...] = tuple(dependencies)
        #: Per dependency: (dependency, sorted LHS, sorted RHS).
        self._fd_specs = [
            (dep, tuple(sorted(dep.lhs)), tuple(sorted(dep.rhs)))
            for dep in self.dependencies
        ]
        #: Per dependency index: LHS bucket -> RHS projection -> rows.
        self._buckets: List[Dict[_BucketKey, Dict[Tuple, Set[Row]]]] = [
            {} for _ in self._fd_specs
        ]
        self._vertices: Set[Row] = set()
        self._adjacency: Dict[Row, Set[Row]] = {}
        self._labels: Dict[ConflictEdge, Set[FunctionalDependency]] = {}
        self._comp_of: Dict[Row, int] = {}
        self._members: Dict[int, Set[Row]] = {}
        self._next_component_id = 0
        for row in rows:
            self.insert(row)

    # Mutation ---------------------------------------------------------------

    def insert(self, row: Row) -> GraphDelta:
        """Add ``row``; returns the delta (a no-op if already present)."""
        if row in self._vertices:
            return GraphDelta()
        new_edges: Dict[ConflictEdge, Set[FunctionalDependency]] = {}
        for index, (dependency, lhs, rhs) in enumerate(self._fd_specs):
            if not dependency.applies_to(row.relation):
                continue
            if not all(row.schema.has_attribute(attr) for attr in lhs + rhs):
                continue
            key: _BucketKey = (row.relation, row.project(lhs))
            groups = self._buckets[index].setdefault(key, {})
            my_rhs = row.project(rhs)
            for other_rhs, others in groups.items():
                if other_rhs == my_rhs:
                    continue
                for other in others:
                    new_edges.setdefault(edge(row, other), set()).add(dependency)
            groups.setdefault(my_rhs, set()).add(row)
        self._vertices.add(row)
        self._adjacency[row] = set()
        for pair, labels in new_edges.items():
            first, second = tuple(pair)
            self._adjacency[first].add(second)
            self._adjacency[second].add(first)
            self._labels[pair] = labels
        component = self._merge_components_around(row)
        return GraphDelta(
            added_vertices=frozenset({row}),
            added_edges=frozenset(new_edges),
            touched_components=(component,),
        )

    def delete(self, row: Row) -> GraphDelta:
        """Remove ``row``; raises :class:`UpdateError` if absent."""
        if row not in self._vertices:
            raise UpdateError(f"cannot delete {row!r}: not in the instance")
        for index, (dependency, lhs, rhs) in enumerate(self._fd_specs):
            if not dependency.applies_to(row.relation):
                continue
            if not all(row.schema.has_attribute(attr) for attr in lhs + rhs):
                continue
            key: _BucketKey = (row.relation, row.project(lhs))
            groups = self._buckets[index].get(key)
            if groups is None:
                continue
            my_rhs = row.project(rhs)
            bucket = groups.get(my_rhs)
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del groups[my_rhs]
            if not groups:
                del self._buckets[index][key]
        neighbours = self._adjacency.pop(row)
        removed_edges = set()
        for other in neighbours:
            pair = edge(row, other)
            removed_edges.add(pair)
            del self._labels[pair]
            self._adjacency[other].discard(row)
        self._vertices.discard(row)
        pieces = self._split_component_after(row, neighbours)
        return GraphDelta(
            removed_vertices=frozenset({row}),
            removed_edges=frozenset(removed_edges),
            touched_components=pieces,
        )

    def apply(
        self, inserts: Iterable[Row] = (), deletes: Iterable[Row] = ()
    ) -> List[GraphDelta]:
        """Apply ``deletes`` then ``inserts``; returns one delta each."""
        deltas = [self.delete(row) for row in deletes]
        deltas.extend(self.insert(row) for row in inserts)
        return deltas

    # Component maintenance ----------------------------------------------------

    def _fresh_component(self, members: Set[Row]) -> int:
        cid = self._next_component_id
        self._next_component_id += 1
        self._members[cid] = members
        for member in members:
            self._comp_of[member] = cid
        return cid

    def _merge_components_around(self, row: Row) -> FrozenSet[Row]:
        """Union the components adjacent to a just-inserted ``row``."""
        neighbour_ids = {self._comp_of[other] for other in self._adjacency[row]}
        if not neighbour_ids:
            self._fresh_component({row})
            return frozenset({row})
        # Grow the largest member set in place; relabel the smaller ones.
        target = max(neighbour_ids, key=lambda cid: len(self._members[cid]))
        merged = self._members[target]
        for cid in neighbour_ids:
            if cid == target:
                continue
            for member in self._members.pop(cid):
                self._comp_of[member] = target
                merged.add(member)
        merged.add(row)
        self._comp_of[row] = target
        return frozenset(merged)

    def _split_component_after(
        self, row: Row, old_neighbours: Set[Row]
    ) -> Tuple[FrozenSet[Row], ...]:
        """Re-partition the deleted row's component; returns the pieces."""
        cid = self._comp_of.pop(row)
        members = self._members[cid]
        members.discard(row)
        if not members:
            del self._members[cid]
            return ()
        if not old_neighbours:
            # The row was isolated inside... impossible: an isolated row is
            # its own singleton component, handled above.  Defensive only.
            return (frozenset(members),)  # pragma: no cover
        pieces: List[Set[Row]] = []
        unseen = set(members)
        while unseen:
            start = unseen.pop()
            piece = {start}
            stack = [start]
            while stack:
                vertex = stack.pop()
                for other in self._adjacency[vertex]:
                    if other not in piece:
                        piece.add(other)
                        unseen.discard(other)
                        stack.append(other)
            pieces.append(piece)
        if len(pieces) == 1:
            return (frozenset(members),)
        del self._members[cid]
        return tuple(
            frozenset(self._members[self._fresh_component(piece)])
            for piece in pieces
        )

    # Read API (mirrors ConflictGraph) ----------------------------------------

    @property
    def vertices(self) -> FrozenSet[Row]:
        return frozenset(self._vertices)

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return len(self._labels)

    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, row: object) -> bool:
        return row in self._vertices

    def neighbours(self, row: Row) -> FrozenSet[Row]:
        return frozenset(self._adjacency[row])

    def vicinity(self, row: Row) -> FrozenSet[Row]:
        return frozenset(self._adjacency[row]) | {row}

    def are_conflicting(self, first: Row, second: Row) -> bool:
        return second in self._adjacency.get(first, ())

    def edges(self) -> Iterator[ConflictEdge]:
        return iter(self._labels)

    def edge_labels(self, pair: ConflictEdge) -> FrozenSet[FunctionalDependency]:
        return frozenset(self._labels[pair])

    def degree(self, row: Row) -> int:
        return len(self._adjacency[row])

    def component_of(self, row: Row) -> FrozenSet[Row]:
        """Vertex set of the component containing ``row``."""
        return frozenset(self._members[self._comp_of[row]])

    def component_id_of(self, row: Row) -> int:
        """Opaque id of ``row``'s component (stable between mutations)."""
        return self._comp_of[row]

    def component_set(self) -> FrozenSet[FrozenSet[Row]]:
        """Current components, unordered (no sort, unlike
        :meth:`connected_components`)."""
        return frozenset(frozenset(members) for members in self._members.values())

    def connected_components(self) -> List[FrozenSet[Row]]:
        """Current components in deterministic (min-row) order."""
        frozen = [frozenset(members) for members in self._members.values()]
        return sorted(frozen, key=lambda comp: min(map(row_sort_key, comp)))

    @property
    def component_count(self) -> int:
        return len(self._members)

    @property
    def conflict_component_count(self) -> int:
        """Components holding at least one conflict edge."""
        return sum(1 for members in self._members.values() if len(members) > 1)

    # Interop ------------------------------------------------------------------

    def induced_component(self, component: FrozenSet[Row]) -> ConflictGraph:
        """An immutable induced subgraph for one component's vertex set."""
        labels = {
            pair: frozenset(fds)
            for pair, fds in self._labels.items()
            if pair <= component
        }
        return ConflictGraph(component, labels)

    def snapshot(self) -> ConflictGraph:
        """An immutable copy of the whole current graph."""
        return ConflictGraph(
            self._vertices,
            {pair: frozenset(fds) for pair, fds in self._labels.items()},
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicConflictGraph({len(self._vertices)} vertices, "
            f"{len(self._labels)} edges, {len(self._members)} components)"
        )
