"""SQL pushdown backend: certain answers computed inside SQLite.

The layer below (:mod:`repro.cqa`) answers by streaming repairs; this
layer compiles the safe conjunctive fragment to a single self-join SQL
rewriting (:mod:`repro.backend.rewrite`) and executes it directly on the
SQLite store the relational layer persists to, via
:class:`SqlCqaEngine` (:mod:`repro.backend.engine`).  The engine
declines non-rewritable queries; the service broker serves those in
memory.
"""

from repro.backend.engine import SqlCqaEngine
from repro.backend.mirror import SqliteMirror
from repro.backend.rewrite import (
    DirtyProfile,
    PlanResult,
    RewriteDecision,
    RewritePlan,
    analyze_query,
    dirty_profile,
)

__all__ = [
    "DirtyProfile",
    "PlanResult",
    "RewriteDecision",
    "RewritePlan",
    "SqlCqaEngine",
    "SqliteMirror",
    "analyze_query",
    "dirty_profile",
]
