"""Lifting a tuple priority to a preference on repairs (Proposition 5).

For a priority ``≻`` and repairs ``r1, r2``, repair ``r2`` is *preferred
over* ``r1`` (written ``r1 ≪ r2``) when every tuple lost in moving from
``r1`` to ``r2`` is dominated by some tuple gained::

    ∀ x ∈ r1 \\ r2 . ∃ y ∈ r2 \\ r1 . y ≻ x

Proposition 5: a repair is globally optimal iff it is ≪-maximal.  The
paper notes this lifting pattern also appears in preferred answer-set
semantics [21] and relative-likelihood orderings [15].

``≪`` need not be transitive; maximality is taken w.r.t. the raw
relation on distinct repairs (on equal repairs it holds vacuously and is
ignored).
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet, Iterable, List, Sequence

from repro.priorities.priority import Priority
from repro.relational.rows import Row

Repair = FrozenSet[Row]


def prefers(priority: Priority, worse: AbstractSet[Row], better: AbstractSet[Row]) -> bool:
    """Whether ``worse ≪ better`` (``better`` preferred over ``worse``).

    Vacuously true when ``worse ⊆ better``; for distinct repairs both
    differences are nonempty (two maximal independent sets are
    incomparable under inclusion), so the quantifier has real force.
    """
    worse = frozenset(worse)
    better = frozenset(better)
    gained = better - worse
    return not any(
        priority.dominators_of(lost).isdisjoint(gained) for lost in worse - better
    )


def strictly_prefers(
    priority: Priority, worse: AbstractSet[Row], better: AbstractSet[Row]
) -> bool:
    """``worse ≪ better`` for *distinct* sets (false on equal sets)."""
    return frozenset(worse) != frozenset(better) and prefers(priority, worse, better)


def maximal_under_preference(
    priority: Priority, repairs: Sequence[Repair]
) -> List[Repair]:
    """The ≪-maximal elements among ``repairs``.

    By Proposition 5 applied to the full repair set, these are exactly
    the globally optimal repairs.
    """
    return [
        candidate
        for candidate in repairs
        if not any(
            strictly_prefers(priority, candidate, other) for other in repairs
        )
    ]
