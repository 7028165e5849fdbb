"""Incremental CQA: dynamic conflict graphs and a mutable engine.

The one-shot pipeline (:class:`repro.cqa.engine.CqaEngine`) rebuilds
conflict graph, repairs and answers from scratch per instance; this
package keeps all three alive across tuple-level updates:

* :class:`DynamicConflictGraph` — the conflict graph under
  ``insert``/``delete``, with per-FD bucket indexes and incremental
  connected components;
* :class:`ComponentRepairCache` — repair sets and per-family preferred
  fragments cached per component under content fingerprints;
* :class:`WitnessIndex` — incrementally maintained witness supports for
  safe conjunctive queries with negated atoms;
* :class:`IncrementalCqaEngine` — the mutable engine answering under
  all five repair families without per-update rebuilds.
"""

from repro.incremental.cache import ComponentRepairCache
from repro.incremental.dynamic_graph import DynamicConflictGraph, GraphDelta
from repro.incremental.engine import IncrementalCqaEngine
from repro.incremental.witnesses import (
    ConjunctivePlan,
    WitnessIndex,
    conjunctive_plan,
    enumerate_witnesses,
)

__all__ = [
    "ComponentRepairCache",
    "ConjunctivePlan",
    "DynamicConflictGraph",
    "GraphDelta",
    "IncrementalCqaEngine",
    "WitnessIndex",
    "conjunctive_plan",
    "enumerate_witnesses",
]
