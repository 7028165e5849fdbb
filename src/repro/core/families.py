"""The four preferred-repair families: L-Rep, S-Rep, G-Rep, C-Rep.

Each family maps ``(instance, FDs, priority)`` — equivalently a
:class:`Priority` over a conflict graph — to a subset of the repairs:

===========  ===============================================  ==========
family       selection rule                                    checking
===========  ===============================================  ==========
``REP``      all repairs (no preference; classic CQA [1])      PTIME
``L``        locally optimal repairs                           PTIME
``S``        semi-globally optimal repairs                     PTIME
``G``        globally optimal (≪-maximal) repairs              co-NP-c
``C``        common repairs = outcomes of Algorithm 1          PTIME
===========  ===============================================  ==========

Containments (Propositions 3, 4, 6): C ⊆ G ⊆ S ⊆ L ⊆ Rep.

:func:`select_preferred` filters a complete repair pool.  L and S test
each repair with their PTIME checks.  G and C lean on the containments:
both test only the S-optimal repairs as candidates.  A G candidate is
kept when no repair of the *whole* pool is strictly ≪-preferred over it
(Proposition 5).  A C candidate is kept when it passes the PTIME C-repair
check (Corollary 2).  Without a pool, C-Rep is enumerated directly by
running Algorithm 1 over every choice sequence.
"""

from __future__ import annotations

import enum
from typing import AbstractSet, Callable, Dict, FrozenSet, List, Optional, Sequence

from repro.constraints.conflict_graph import ConflictGraph, build_conflict_graph
from repro.constraints.fd import FunctionalDependency
from repro.core.cleaning import all_cleaning_results, is_common_repair
from repro.core.optimality import (
    globally_optimal_repairs,
    is_globally_optimal,
    is_locally_optimal,
    is_semi_globally_optimal,
)
from repro.priorities.priority import Priority, empty_priority
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row
from repro.repairs.enumerate import enumerate_repairs, repair_sort_key

Repair = FrozenSet[Row]


class Family(enum.Enum):
    """Identifier of a preferred-repair family."""

    REP = "Rep"
    LOCAL = "L-Rep"
    SEMI_GLOBAL = "S-Rep"
    GLOBAL = "G-Rep"
    COMMON = "C-Rep"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Short codes of the families: the CLI's ``--family`` values and the
#: service's and workload files' wire names.
FAMILY_CODES: Dict[str, Family] = {
    "Rep": Family.REP,
    "L": Family.LOCAL,
    "S": Family.SEMI_GLOBAL,
    "G": Family.GLOBAL,
    "C": Family.COMMON,
}


def select_preferred(
    family: Family, priority: Priority, pool: Sequence[Repair]
) -> List[Repair]:
    """The members of ``pool`` in ``X-Rep≻``, in pool order.

    ``pool`` must be the *complete* repair set of the priority's (component)
    graph: G and C test only S-optimal repairs as candidates, and that
    prefilter is sound only when every repair is in the pool.  This is the
    one selection rule behind :func:`preferred_repairs`, the incremental
    engine's per-component fragments and the shard plans.
    """
    if family is Family.REP:
        return list(pool)
    if family is Family.LOCAL:
        return [r for r in pool if is_locally_optimal(r, priority)]
    if family is Family.SEMI_GLOBAL:
        return [r for r in pool if is_semi_globally_optimal(r, priority)]
    if family is Family.GLOBAL:
        return globally_optimal_repairs(priority, pool)
    if family is Family.COMMON:
        return [
            r
            for r in pool
            if is_semi_globally_optimal(r, priority)
            and is_common_repair(r, priority)
        ]
    raise ValueError(f"unknown family {family!r}")  # pragma: no cover


def preferred_repairs(
    family: Family,
    priority: Priority,
    repairs: Optional[Sequence[Repair]] = None,
) -> List[Repair]:
    """``X-Rep≻`` for the given family, in deterministic order.

    ``repairs`` may carry the precomputed list of *all* repairs to share
    enumeration work across families (see :func:`select_preferred`).
    Without it, ``COMMON`` runs Algorithm 1 over every choice sequence
    and never enumerates the full repair set.
    """
    if family is Family.COMMON and repairs is None:
        return all_cleaning_results(priority)
    pool = repairs if repairs is not None else list(enumerate_repairs(priority.graph))
    return sorted(select_preferred(family, priority, pool), key=repair_sort_key)


def is_preferred_repair(
    family: Family,
    candidate: AbstractSet[Row],
    priority: Priority,
    repairs: Optional[Sequence[Repair]] = None,
) -> bool:
    """X-repair checking (problem ``B`` of Section 4.1).

    L-, S- and C-checking run in polynomial time (Theorem 4,
    Corollaries 1 and 2); G-checking performs the co-NP witness search.
    """
    graph = priority.graph
    if family is Family.COMMON:
        return graph.is_maximal_independent(candidate) and is_common_repair(
            candidate, priority
        )
    if not graph.is_maximal_independent(candidate):
        return False
    if family is Family.REP:
        return True
    if family is Family.LOCAL:
        return is_locally_optimal(candidate, priority)
    if family is Family.SEMI_GLOBAL:
        return is_semi_globally_optimal(candidate, priority)
    if family is Family.GLOBAL:
        return is_globally_optimal(candidate, priority, repairs)
    raise ValueError(f"unknown family {family!r}")  # pragma: no cover


def family_chain(
    priority: Priority, repairs: Optional[Sequence[Repair]] = None
) -> Dict[Family, List[Repair]]:
    """All five families at once, sharing one repair enumeration."""
    pool = (
        list(repairs)
        if repairs is not None
        else list(enumerate_repairs(priority.graph))
    )
    return {
        family: preferred_repairs(family, priority, pool) for family in Family
    }


def preferred_repairs_of_instance(
    family: Family,
    instance: RelationInstance,
    dependencies: Sequence[FunctionalDependency],
    priority_edges: Sequence = (),
) -> List[Repair]:
    """Convenience entry point from raw instance + FDs + priority pairs."""
    graph = build_conflict_graph(instance, dependencies)
    priority = Priority(graph, priority_edges)
    return preferred_repairs(family, priority)
