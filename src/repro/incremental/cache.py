"""Component-scoped repair caches with content fingerprints.

Repairs are maximal independent sets of the conflict graph, and maximal
independent sets of a disconnected graph factor through its connected
components — so all repair-level work can be cached *per component*.

The cache key is the component's **fingerprint**: its vertex frozenset
(conflict edges are a function of the vertices and the fixed dependency
set, so the vertex set determines the subgraph), extended with the
active priority edges for family-filtered entries.  Fingerprinting by
content makes invalidation implicit: when an update merges or splits
components, the new components have new vertex sets and simply miss the
cache, while every untouched component keeps hitting its old entry.

Each of the three stores (subgraphs, repair fragments, preferred
fragments) is a :class:`~repro.cache.BoundedCache` of ``max_entries``,
so a long-running engine that churns through many instance versions
stays bounded.  Fragment and preferred lookups report under the
``component_repair`` cache family, subgraph lookups under
``component_graph``.
"""

from __future__ import annotations

from typing import FrozenSet, List, Tuple

from repro.cache import BoundedCache
from repro.constraints.conflict_graph import ConflictGraph
from repro.core.families import Family, select_preferred
from repro.priorities.priority import Priority, PriorityEdge
from repro.relational.rows import Row
from repro.repairs.enumerate import enumerate_repairs, repair_sort_key

from repro.incremental.dynamic_graph import DynamicConflictGraph

Repair = FrozenSet[Row]

#: Fingerprint of a component for family-filtered entries: the vertex
#: set plus the priority edges active inside the component.
FamilyKey = Tuple[Family, FrozenSet[Row], FrozenSet[PriorityEdge]]


class ComponentRepairCache:
    """Per-component repair sets, preferred fragments and subgraphs."""

    def __init__(self, max_entries: int = 4096) -> None:
        self._graphs: BoundedCache[FrozenSet[Row], ConflictGraph] = (
            BoundedCache(max_entries, "component_graph")
        )
        self._fragments: BoundedCache[FrozenSet[Row], List[Repair]] = (
            BoundedCache(max_entries, "component_repair")
        )
        self._preferred: BoundedCache[FamilyKey, List[Repair]] = (
            BoundedCache(max_entries, "component_repair")
        )

    # Entry points -------------------------------------------------------------

    def component_graph(
        self, graph: DynamicConflictGraph, component: FrozenSet[Row]
    ) -> ConflictGraph:
        """The immutable induced subgraph of one component (cached)."""
        cached = self._graphs.get(component)
        if cached is None:
            cached = graph.induced_component(component)
            self._graphs.put(component, cached)
        return cached

    def repair_fragments(
        self, graph: DynamicConflictGraph, component: FrozenSet[Row]
    ) -> List[Repair]:
        """All maximal independent sets of the component."""
        cached = self._fragments.get(component)
        if cached is not None:
            return cached
        subgraph = self.component_graph(graph, component)
        # The component is connected by construction; skip re-factoring.
        # Listed in :func:`repro.core.families.preferred_repairs` order;
        # preferred fragments are filtered from this list and keep it.
        fragments = sorted(
            enumerate_repairs(subgraph, factor_components=False),
            key=repair_sort_key,
        )
        self._fragments.put(component, fragments)
        return fragments

    def preferred_fragments(
        self,
        graph: DynamicConflictGraph,
        component: FrozenSet[Row],
        family: Family,
        active_edges: FrozenSet[PriorityEdge],
    ) -> List[Repair]:
        """The family's preferred repairs *of the component* alone.

        Every preferred-repair family of the paper decomposes across
        connected components: local/semi-global failure witnesses are
        confined to one component, the ≪-lifting compares repairs
        difference-by-difference inside components (priority edges only
        relate conflicting, hence co-component, tuples), and Algorithm 1
        steps in distinct components commute.  Full preferred repairs
        are therefore exactly the unions of one preferred fragment per
        component, which is what the incremental engine assembles.
        """
        key: FamilyKey = (family, component, active_edges)
        cached = self._preferred.get(key)
        if cached is not None:
            return cached
        priority = Priority(self.component_graph(graph, component), active_edges)
        selected = select_preferred(
            family, priority, self.repair_fragments(graph, component)
        )
        self._preferred.put(key, selected)
        return selected

    # Diagnostics --------------------------------------------------------------

    def caches(self) -> Tuple[BoundedCache, ...]:
        """The three stores, each counting its own lookups."""
        return (self._graphs, self._fragments, self._preferred)
