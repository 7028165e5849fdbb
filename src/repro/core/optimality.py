"""Repair optimality notions (paper Section 3).

Given a repair ``r'`` of instance ``r`` and a priority ``≻``:

* **locally optimal** — no single tuple ``x ∈ r'`` can be swapped for a
  dominating tuple ``y ≻ x`` keeping consistency;
* **semi-globally optimal** — no nonempty ``X ⊆ r'`` can be swapped for
  one tuple ``y`` dominating all of ``X`` keeping consistency;
* **globally optimal** — no nonempty ``X ⊆ r'`` can be swapped for a
  *set* ``Y`` covering ``X`` under domination, keeping consistency;
  equivalently (Proposition 5) ``r'`` is ≪-maximal among repairs.

Global ⟹ semi-global ⟹ local.  The local and semi-global checks are
polynomial (Theorem 4, Corollary 1); the global check requires
essential nondeterminism (Theorem 5, co-NP-complete) and is realized
here as an exact exponential witness search.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import AbstractSet, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.constraints.conflict_graph import ConflictGraph
from repro.core.lifting import strictly_prefers
from repro.priorities.priority import Priority
from repro.relational.rows import Row

Repair = FrozenSet[Row]


def is_locally_optimal(repair: AbstractSet[Row], priority: Priority) -> bool:
    """L-repair check, PTIME (Theorem 4).

    ``r'`` fails iff some outside tuple ``y`` has exactly one conflict
    neighbour ``x`` inside ``r'`` and ``y ≻ x`` — then ``(r'∖{x}) ∪ {y}``
    is consistent and locally improves.
    """
    graph = priority.graph
    repair = frozenset(repair)
    for outsider in graph.vertices - repair:
        inside = graph.neighbours(outsider) & repair
        if len(inside) == 1 and inside <= priority.dominated_by(outsider):
            return False
    return True


def is_semi_globally_optimal(repair: AbstractSet[Row], priority: Priority) -> bool:
    """S-repair check, PTIME (Corollary 1).

    ``r'`` fails iff some outside tuple ``y`` dominates *all* of its
    conflict neighbours inside ``r'`` (take ``X = n(y) ∩ r'``; the set is
    nonempty because ``r'`` is maximal).
    """
    graph = priority.graph
    repair = frozenset(repair)
    for outsider in graph.vertices - repair:
        inside = graph.neighbours(outsider) & repair
        if inside and inside <= priority.dominated_by(outsider):
            return False
    return True


def is_globally_optimal(
    repair: AbstractSet[Row],
    priority: Priority,
    repairs: Optional[Sequence[Repair]] = None,
) -> bool:
    """G-repair check via Proposition 5 (co-NP-complete, Theorem 5).

    ``r'`` is globally optimal iff no repair is ≪-preferred over it.
    The search enumerates repairs lazily with early exit; pass a
    precomputed ``repairs`` list when checking many candidates against
    the same instance.
    """
    from repro.repairs.enumerate import enumerate_repairs  # cycle guard

    repair = frozenset(repair)
    candidates: Iterable[Repair] = (
        repairs if repairs is not None else enumerate_repairs(priority.graph)
    )
    for other in candidates:
        if strictly_prefers(priority, repair, other):
            return False
    return True


def globally_optimal_repairs(
    priority: Priority, repairs: Optional[Sequence[Repair]] = None
) -> List[Repair]:
    """All globally optimal repairs (the ≪-maximal repairs), in pool order.

    ``repairs``, when given, must be the *complete* repair set of the
    priority's graph.  Only S-optimal repairs are tested as candidates
    (G ⊆ S, Proposition 6; the S-check is PTIME, Corollary 1), and each
    is still tested against the whole pool.  The prefilter is sound only
    on the complete set: in a partial pool a repair can be ≪-maximal
    without being S-optimal (the repair that improves it is missing), and
    this function would drop it where :func:`maximal_under_preference`
    keeps it.
    """
    from repro.repairs.enumerate import enumerate_repairs  # cycle guard

    pool: List[Repair] = (
        list(repairs) if repairs is not None else list(enumerate_repairs(priority.graph))
    )
    return [
        candidate
        for candidate in pool
        if is_semi_globally_optimal(candidate, priority)
        and is_globally_optimal(candidate, priority, pool)
    ]


def _nonempty_subsets(rows: Sequence[Row]) -> Iterable[FrozenSet[Row]]:
    return (
        frozenset(subset)
        for subset in chain.from_iterable(
            combinations(rows, size) for size in range(1, len(rows) + 1)
        )
    )


def is_globally_optimal_by_definition(
    repair: AbstractSet[Row], priority: Priority
) -> bool:
    """G-optimality by the *definitional* replacement test (Section 3).

    Searches for a nonempty ``X ⊆ r'`` and a set ``Y`` with
    ``∀x∈X ∃y∈Y. y ≻ x`` such that ``(r' ∖ X) ∪ Y`` is consistent.
    Doubly exponential in the repair size — use only on small instances;
    property tests cross-check it against the Proposition 5 form, and
    ablation ABL1 measures the gap.
    """
    graph = priority.graph
    repair = frozenset(repair)
    for removed in _nonempty_subsets(sorted(repair)):
        kept = repair - removed
        # WLOG Y contains only dominators of X that do not conflict with
        # the kept part: other tuples never help consistency or coverage.
        candidates = sorted(
            {
                winner
                for lost in removed
                for winner in priority.dominators_of(lost)
                if not graph.neighbours(winner) & kept
            }
        )
        for gained in _nonempty_subsets(candidates):
            if not graph.is_independent(gained):
                continue
            if all(
                any(priority.dominates(winner, lost) for winner in gained)
                for lost in removed
            ):
                return False
    return True


def optimality_profile(repair: AbstractSet[Row], priority: Priority) -> dict:
    """Which optimality notions the repair satisfies (diagnostics)."""
    local = is_locally_optimal(repair, priority)
    semi = is_semi_globally_optimal(repair, priority)
    overall = is_globally_optimal(repair, priority)
    return {"local": local, "semi_global": semi, "global": overall}
