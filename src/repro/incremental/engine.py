"""The mutable counterpart of :class:`repro.cqa.engine.CqaEngine`.

:class:`IncrementalCqaEngine` serves the same preferred-CQA semantics
(Definition 3, all five repair families) over an instance that evolves
tuple by tuple.  Three layers make re-answering after an update cheap:

1. the conflict graph is a :class:`DynamicConflictGraph` — an
   ``insert``/``delete`` recomputes only the affected FD buckets and
   components, never the whole graph;
2. repairs are cached **per connected component** and keyed by content
   fingerprints, so an update invalidates exactly the merged or split
   components and every other component's repair set is reused;
3. safe conjunctive queries, with or without safe negated atoms, are
   answered from an incrementally maintained witness index: the engine
   checks which per-component fragment choices cover a witness (contain
   its support rows and none of its blockers) instead of materializing
   the (exponentially large) cross-product of repairs.

Priority edges are *declared*, not frozen: an edge whose endpoints stop
conflicting after an update is silently deactivated (and reactivates if
the conflict returns) instead of raising ``QueryError`` the way the
immutable engine's constructor would.
"""

from __future__ import annotations

import time
from itertools import product
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    TYPE_CHECKING,
    Tuple,
    Union,
)

from repro.cache import BoundedCache
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.cqa.answers import ClosedAnswer, ClosedFold, OpenAnswers
from repro.exceptions import CyclicPriorityError, QueryError, SchemaError
from repro.priorities.priority import Priority, PriorityEdge, digraph_has_cycle
from repro.query.ast import Formula
from repro.query.evaluator import ContextCache

# Unused here, but kept as a module attribute: servebench's ledger test
# checks that its span shims also replace this alias of the parser.
from repro.query.parser import parse_query  # noqa: F401
from repro.query.sql import sql_to_formula
from repro.obs import annotate, observe_query
from repro.obs import span as obs_span
from repro.query.validate import CheckedQuery, parse_checked
from repro.relational.database import Database
from repro.relational.domain import Value
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.repairs.enumerate import repair_sort_key

from repro.incremental.cache import ComponentRepairCache
from repro.incremental.dynamic_graph import DynamicConflictGraph, GraphDelta
from repro.incremental.witnesses import (
    Support,
    WitnessIndex,
    conjunctive_plan,
)

if TYPE_CHECKING:
    # The service layer imports this module, so the executor is
    # imported where it runs.
    from repro.service.parallel import ShardPlan

Repair = FrozenSet[Row]

#: Key of a cached witness index: the formula plus the answer columns.
_WitnessKey = Tuple[Formula, Tuple[str, ...]]

#: Live witness indexes kept per engine (least recently used evicted).
_WITNESS_INDEXES = 32


#: Cycle check on raw (winner, loser) pairs, no graph needed — the
#: shared colouring DFS from the priorities layer.
_digraph_has_cycle = digraph_has_cycle


class IncrementalCqaEngine:
    """Preferred consistent query answering over a mutable instance."""

    #: Route label of answers computed by evaluating per repair.
    _route = "indexed"

    def __init__(
        self,
        data: Union[RelationInstance, Database, Iterable[Row], None] = None,
        dependencies: Sequence[FunctionalDependency] = (),
        priority: Union[Priority, Iterable[PriorityEdge], None] = None,
        family: Family = Family.REP,
        cache_entries: int = 4096,
    ) -> None:
        self.dependencies = tuple(dependencies)
        self.family = family
        self._schemas: Dict[str, RelationSchema] = {}
        self._db_schema: Optional[DatabaseSchema] = None
        rows: List[Row] = []
        if isinstance(data, RelationInstance):
            self._register_schema(data.schema)
            rows = list(data.rows)
        elif isinstance(data, Database):
            for instance in data:
                self._register_schema(instance.schema)
            rows = list(data.all_rows())
        elif data is not None:
            rows = list(data)
        self.graph = DynamicConflictGraph(dependencies=self.dependencies)
        # Current rows keyed by values: witness joins scan a relation,
        # blocker checks look one fact up.
        self._rows_by_relation: Dict[str, Dict[Tuple[Value, ...], Row]] = {}
        self._cache = ComponentRepairCache(max_entries=cache_entries)
        # Re-validations after updates reassemble the same repairs over
        # and over; contexts are content-keyed, so unchanged repairs
        # keep their indexes and plans across updates.
        self._contexts = ContextCache(max_entries=cache_entries)
        # Each live index pays a semi-naive join on every update, so the
        # working set is bounded; an evicted query simply rebuilds its
        # witnesses on next use.
        self._witnesses: BoundedCache[_WitnessKey, WitnessIndex] = (
            BoundedCache(_WITNESS_INDEXES, "witness_index")
        )
        if isinstance(priority, Priority):
            declared: Tuple[PriorityEdge, ...] = tuple(priority.edges)
        else:
            declared = tuple(priority or ())
        if _digraph_has_cycle(declared):
            raise CyclicPriorityError("declared priority contains a cycle")
        self._declared: List[PriorityEdge] = list(declared)
        # Declared rows carry schemas even before they are inserted, so
        # queries can be validated against relations known only from
        # the priority (or from rows deleted down to an empty relation).
        for winner, loser in self._declared:
            self._register_schema(winner.schema)
            self._register_schema(loser.schema)
        self.updates_applied = 0
        for row in rows:
            self._apply_insert(row)

    # Schema handling ----------------------------------------------------------

    def _register_schema(self, schema: RelationSchema) -> None:
        known = self._schemas.get(schema.name)
        if known is None:
            self._schemas[schema.name] = schema
            self._db_schema = None
        elif (known.name, known.attributes) != (schema.name, schema.attributes):
            raise SchemaError(
                f"conflicting schemas for relation {schema.name!r}"
            )

    @property
    def schema(self) -> DatabaseSchema:
        if self._db_schema is None:
            self._db_schema = DatabaseSchema(self._schemas.values())
        return self._db_schema

    # Updates ------------------------------------------------------------------

    def _apply_insert(self, row: Row) -> GraphDelta:
        self._register_schema(row.schema)
        delta = self.graph.insert(row)
        if delta.is_noop:
            return delta
        self._rows_by_relation.setdefault(row.relation, {})[row.values] = row
        for index in self._witnesses.values():
            index.apply_insert(row, self._rows_by_relation)
        return delta

    def insert(self, row: Row) -> GraphDelta:
        """Add a tuple; returns the conflict-graph delta (no-op if present)."""
        delta = self._apply_insert(row)
        if not delta.is_noop:
            self.updates_applied += 1
        return delta

    def delete(self, row: Row) -> GraphDelta:
        """Remove a tuple; raises :class:`UpdateError` if absent."""
        delta = self.graph.delete(row)
        del self._rows_by_relation[row.relation][row.values]
        for index in self._witnesses.values():
            index.apply_delete(row)
        self.updates_applied += 1
        return delta

    def batch_update(
        self, inserts: Iterable[Row] = (), deletes: Iterable[Row] = ()
    ) -> List[GraphDelta]:
        """Apply ``deletes`` then ``inserts``, returning one delta each."""
        deltas = [self.delete(row) for row in deletes]
        deltas.extend(self.insert(row) for row in inserts)
        return deltas

    def prefer(self, winner: Row, loser: Row) -> None:
        """Declare ``winner ≻ loser``.

        The edge participates whenever the two tuples conflict in the
        *current* graph and is dormant otherwise; the declared relation
        must stay acyclic as a digraph, so no activation pattern can
        ever produce a cyclic priority.
        """
        if (winner, loser) in self._declared:
            return
        candidate = self._declared + [(winner, loser)]
        if _digraph_has_cycle(candidate):
            raise CyclicPriorityError(
                f"declaring {winner!r} over {loser!r} creates a priority cycle"
            )
        self._declared = candidate
        self._register_schema(winner.schema)
        self._register_schema(loser.schema)

    # Priority projection ------------------------------------------------------

    def active_priority_edges(self) -> FrozenSet[PriorityEdge]:
        """Declared edges whose endpoints conflict in the current graph."""
        return frozenset(
            (winner, loser)
            for winner, loser in self._declared
            if self.graph.are_conflicting(winner, loser)
        )

    def _component_edges(
        self, component: FrozenSet[Row]
    ) -> FrozenSet[PriorityEdge]:
        return frozenset(
            (winner, loser)
            for winner, loser in self._declared
            if winner in component
            and loser in component
            and self.graph.are_conflicting(winner, loser)
        )

    # Fragment assembly --------------------------------------------------------

    def _fragment_table(
        self, family: Family
    ) -> Tuple[List[FrozenSet[Row]], ShardPlan]:
        """The components (deterministic order) and the plan holding
        each one's preferred fragments, in the same order."""
        from repro.service.parallel import plan_from_fragments

        components = self.graph.connected_components()
        plan = plan_from_fragments(
            [
                self._cache.preferred_fragments(
                    self.graph,
                    component,
                    family,
                    self._component_edges(component),
                )
                for component in components
            ]
        )
        return components, plan

    def repairs(self, family: Optional[Family] = None) -> List[Repair]:
        """Materialized preferred repairs (mind the cross-product size)."""
        _, plan = self._fragment_table(family or self.family)
        return sorted(plan, key=repair_sort_key)

    def count_repairs(self, family: Optional[Family] = None) -> int:
        """Number of preferred repairs, as a product over components."""
        return self._fragment_table(family or self.family)[1].total

    # Query plumbing -----------------------------------------------------------

    def _to_formula(self, query: Union[str, Formula, CheckedQuery]) -> Formula:
        return parse_checked(query, self.schema)

    def _witness_index(
        self, formula: Formula, variables: Tuple[str, ...]
    ) -> Optional[WitnessIndex]:
        key: _WitnessKey = (formula, variables)
        cached = self._witnesses.get(key)
        if cached is not None:
            return cached
        plan = conjunctive_plan(formula, variables)
        if plan is None:
            return None
        index = WitnessIndex(plan, self._rows_by_relation)
        self._witnesses.put(key, index)
        return index

    # Covering machinery (witness-index fast path) ----------------------------

    def _component_positions(
        self, components: List[FrozenSet[Row]]
    ) -> Dict[int, int]:
        """Component id → position in the fragment table."""
        return {
            self.graph.component_id_of(next(iter(component))): position
            for position, component in enumerate(components)
        }

    def _compatibility(
        self,
        supports: Iterable[Support],
        positions: Dict[int, int],
        fragments: Sequence[Sequence[Repair]],
    ) -> Tuple[Optional[List[int]], Optional[List[Dict[int, FrozenSet[int]]]], bool]:
        """Reduce supports to per-component fragment constraints.

        Returns ``(relevant, compat, always)`` where ``relevant`` lists
        the indexes of multi-fragment components constrained by some
        support, ``compat[s][c]`` is the set of fragment indexes of
        component ``c`` that contain support ``s``'s rows there and none
        of its present blockers, and ``always`` flags a support satisfied
        by *every* repair (then the other two are ``None``).  Supports
        impossible under the fixed single-fragment components are
        dropped.  ``positions`` maps component ids to fragment-table
        positions (:meth:`_component_positions`).
        """
        component_of = self.graph.component_id_of
        by_component: List[Dict[int, FrozenSet[int]]] = []
        relevant: Set[int] = set()
        for support in supports:
            needed: Dict[int, Set[Row]] = {}
            for row in support.rows:
                needed.setdefault(component_of(row), set()).add(row)
            banned: Dict[int, Set[Row]] = {}
            for relation, values in support.blockers:
                blocker = self._rows_by_relation.get(relation, {}).get(values)
                if blocker is not None:
                    component_id = component_of(blocker)
                    needed.setdefault(component_id, set())
                    banned.setdefault(component_id, set()).add(blocker)
            constraints: Dict[int, FrozenSet[int]] = {}
            dead = False
            for component_id, rows_here in needed.items():
                comp_index = positions[component_id]
                options = fragments[comp_index]
                absent = banned.get(component_id, ())
                compatible = frozenset(
                    pos
                    for pos, fragment in enumerate(options)
                    if rows_here <= fragment and fragment.isdisjoint(absent)
                )
                if not compatible:
                    dead = True
                    break
                if len(compatible) < len(options):
                    constraints[comp_index] = compatible
            if dead:
                continue
            if not constraints:
                return None, None, True
            by_component.append(constraints)
            relevant.update(constraints)
        return sorted(relevant), by_component, False

    @staticmethod
    def _clusters(
        relevant: List[int], compat: List[Dict[int, FrozenSet[int]]]
    ) -> List[Tuple[List[int], List[Dict[int, FrozenSet[int]]]]]:
        """Group the relevant components into support-linked clusters.

        Two components belong to one cluster when some support constrains
        both.  A repair choice falsifies the query iff it misses every
        support, and supports are cluster-local, so *uncovered* choice
        counts multiply across clusters — the covering check enumerates
        each cluster's (usually tiny) choice space instead of the
        cross-product over all relevant components.
        """
        parent: Dict[int, int] = {index: index for index in relevant}

        def find(index: int) -> int:
            while parent[index] != index:
                parent[index] = parent[parent[index]]
                index = parent[index]
            return index

        for constraints in compat:
            anchor, *others = constraints
            for other in others:
                root_a, root_b = find(anchor), find(other)
                if root_a != root_b:
                    parent[root_a] = root_b
        members: Dict[int, List[int]] = {}
        for index in relevant:
            members.setdefault(find(index), []).append(index)
        clusters = []
        for root, comp_indexes in sorted(members.items()):
            cluster_supports = [
                constraints
                for constraints in compat
                if find(next(iter(constraints))) == root
            ]
            clusters.append((sorted(comp_indexes), cluster_supports))
        return clusters

    @staticmethod
    def _cluster_uncovered(
        comp_indexes: List[int],
        cluster_supports: List[Dict[int, FrozenSet[int]]],
        fragments: Sequence[Sequence[Repair]],
        count_all: bool,
    ) -> Tuple[int, Optional[Dict[int, int]]]:
        """Uncovered choice count within one cluster (+ one witness choice).

        With ``count_all=False`` stops at the first uncovered choice
        (enough for boolean certainty checks).
        """
        option_ranges = [range(len(fragments[c])) for c in comp_indexes]
        uncovered = 0
        witness: Optional[Dict[int, int]] = None
        for combo in product(*option_ranges):
            chosen = dict(zip(comp_indexes, combo))
            covered = any(
                all(chosen[c] in allowed for c, allowed in constraints.items())
                for constraints in cluster_supports
            )
            if not covered:
                uncovered += 1
                if witness is None:
                    witness = chosen
                if not count_all:
                    break
        return uncovered, witness

    def _assemble_repair(
        self, choices: Dict[int, int], fragments: Sequence[Sequence[Repair]]
    ) -> Repair:
        """A full repair from per-component fragment choices (default 0)."""
        parts = [
            fragments[index][choices.get(index, 0)]
            for index in range(len(fragments))
        ]
        return frozenset().union(*parts) if parts else frozenset()

    # Closed queries -----------------------------------------------------------

    def answer(
        self,
        query: Union[str, Formula],
        family: Optional[Family] = None,
        parallel: Optional[int] = None,
    ) -> ClosedAnswer:
        """Three-valued verdict with exact satisfying/considered counts.

        ``parallel`` shards the enumeration fallback (queries outside
        safe CQ¬) across a process pool; the witness-index fast path
        never materializes repairs, so it ignores the flag.
        """
        started = time.perf_counter()
        result = self._answer(query, family, parallel)
        annotate(route=result.route, verdict=result.verdict.value)
        observe_query(
            "incremental",
            result.route or self._route,
            str(family or self.family),
            time.perf_counter() - started,
        )
        return result

    def _answer(
        self,
        query: Union[str, Formula],
        family: Optional[Family] = None,
        parallel: Optional[int] = None,
    ) -> ClosedAnswer:
        family = family or self.family
        formula = self._to_formula(query)
        if not formula.is_closed:
            raise QueryError("answer() requires a closed formula")
        with obs_span("plan"):
            components, plan = self._fragment_table(family)
        total = plan.total
        if total == 0:
            # Cannot happen for P1-respecting families; defensive only.
            return ClosedFold(0, 0).to_answer(family, "witness-index")
        index = self._witness_index(formula, ())
        if index is None:
            from repro.service.parallel import run_closed

            with obs_span("enumerate-repairs", route=self._route):
                folded = run_closed(plan, formula, self._contexts, parallel)
                return folded.to_answer(family, self._route)
        fragments = plan.fragments
        with obs_span("witness-cover"):
            relevant, compat, always = self._compatibility(
                index.supports_for(()),
                self._component_positions(components),
                fragments,
            )
        if always:
            return ClosedFold(total, total).to_answer(family, "witness-index")
        if not compat:
            counterexample = self._assemble_repair({}, fragments)
            return ClosedFold(total, 0, counterexample).to_answer(
                family, "witness-index"
            )
        scale = total
        for comp_index in relevant:
            scale //= len(fragments[comp_index])
        uncovered_product = 1
        witness_choices: Dict[int, int] = {}
        for comp_indexes, cluster_supports in self._clusters(relevant, compat):
            uncovered, witness = self._cluster_uncovered(
                comp_indexes, cluster_supports, fragments, count_all=True
            )
            uncovered_product *= uncovered
            if witness is not None:
                witness_choices.update(witness)
        counterexample = None
        if uncovered_product:
            counterexample = self._assemble_repair(witness_choices, fragments)
        satisfying = total - uncovered_product * scale
        return ClosedFold(total, satisfying, counterexample).to_answer(
            family, "witness-index"
        )

    def is_consistently_true(
        self, query: Union[str, Formula], family: Optional[Family] = None
    ) -> bool:
        """Definition 3 with early exit on the first uncovered repair."""
        family = family or self.family
        formula = self._to_formula(query)
        if not formula.is_closed:
            raise QueryError(
                "closed-query CQA requires a closed formula; "
                "use certain_answers() for open queries"
            )
        components, plan = self._fragment_table(family)
        index = self._witness_index(formula, ())
        if index is None:
            from repro.service.parallel import run_closed

            folded = run_closed(
                plan, formula, self._contexts, stop_on_false=True
            )
            return folded.counterexample is None
        fragments = plan.fragments
        relevant, compat, always = self._compatibility(
            index.supports_for(()),
            self._component_positions(components),
            fragments,
        )
        if always:
            return True
        if not compat:
            return False
        return any(
            self._cluster_uncovered(
                comp_indexes, cluster_supports, fragments, count_all=False
            )[0]
            == 0
            for comp_indexes, cluster_supports in self._clusters(relevant, compat)
        )

    # Open queries -------------------------------------------------------------

    def certain_answers(
        self,
        query: Union[str, Formula],
        variables: Optional[Tuple[str, ...]] = None,
        family: Optional[Family] = None,
        parallel: Optional[int] = None,
    ) -> OpenAnswers:
        """Certain/possible answer sets of an open query.

        ``parallel`` shards the enumeration fallback across a process
        pool (the witness-index fast path ignores it).
        """
        started = time.perf_counter()
        result = self._certain_answers(query, variables, family, parallel)
        annotate(route=result.route, certain=len(result.certain))
        observe_query(
            "incremental",
            result.route or self._route,
            str(family or self.family),
            time.perf_counter() - started,
        )
        return result

    def _certain_answers(
        self,
        query: Union[str, Formula],
        variables: Optional[Tuple[str, ...]] = None,
        family: Optional[Family] = None,
        parallel: Optional[int] = None,
    ) -> OpenAnswers:
        family = family or self.family
        formula = self._to_formula(query)
        if variables is None:
            variables = tuple(sorted(formula.free_variables()))
        with obs_span("plan"):
            components, plan = self._fragment_table(family)
        total = plan.total
        index = self._witness_index(formula, tuple(variables))
        if index is None or total == 0:
            from repro.service.parallel import run_open

            with obs_span("enumerate-repairs", route=self._route):
                return run_open(
                    plan, formula, variables, self._contexts, parallel
                ).to_answers(family, variables, self._route)
        fragments = plan.fragments
        certain: Set[Tuple] = set()
        possible: Set[Tuple] = set()
        with obs_span("witness-cover"):
            positions = self._component_positions(components)
            for answer in index.answers():
                relevant, compat, always = self._compatibility(
                    index.supports_for(answer), positions, fragments
                )
                if always:
                    certain.add(answer)
                    possible.add(answer)
                    continue
                if not compat:
                    continue
                # A surviving support is itself contained in some repair
                # (choose its compatible fragments), so the answer is
                # possible.
                possible.add(answer)
                if any(
                    self._cluster_uncovered(
                        comp_indexes, cluster_supports, fragments,
                        count_all=False,
                    )[0]
                    == 0
                    for comp_indexes, cluster_supports in self._clusters(
                        relevant, compat
                    )
                ):
                    certain.add(answer)
        return OpenAnswers(
            family,
            tuple(variables),
            frozenset(certain),
            frozenset(possible),
            total,
            route="witness-index",
        )

    def sql_certain_answers(
        self, sql: str, family: Optional[Family] = None
    ) -> OpenAnswers:
        """Certain answers for a conjunctive SQL query."""
        formula, variables = sql_to_formula(sql, self.schema)
        return self.certain_answers(formula, variables, family)

    # Views --------------------------------------------------------------------

    def current_rows(self) -> FrozenSet[Row]:
        """The instance as it stands after all updates."""
        return self.graph.vertices

    def current_database(self) -> Database:
        """The current instance reassembled into a :class:`Database`."""
        return Database.from_rows(self.schema, self.graph.vertices)

    def summary(self) -> Dict[str, object]:
        """Snapshot of the engine's inconsistency and cache state."""
        active = self.active_priority_edges()
        return {
            "tuples": self.graph.vertex_count,
            "conflicts": self.graph.edge_count,
            "oriented": len(active),
            "priority_total": len(active) == self.graph.edge_count,
            "family": str(self.family),
            "components": self.graph.component_count,
            "conflict_components": self.graph.conflict_component_count,
            "updates_applied": self.updates_applied,
            "cache": self._cache.stats(),
            "witness_indexes": len(self._witnesses),
            "evaluation_contexts": len(self._contexts),
        }
