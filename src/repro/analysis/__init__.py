"""Static analysis of queries against FD theories and priorities.

The single source of truth for route decisions: every fallback
condition the engines enforce is a catalogued :class:`Diagnostic`, and
:func:`analyze` predicts — without touching instance data — the route
each engine takes, as a cacheable :class:`RouteReport`, on top of a
:class:`Theory` digested once per theory.
"""

from .analyzer import Theory, analyze, profiled_relations
from .cforest import CForest, plan_forest, recognize_c_forest
from .model import (
    CATALOG,
    FULL_CODES,
    Diagnostic,
    RouteReport,
    Severity,
    Span,
    fallback_route,
    make_diagnostic,
    theory_fingerprint,
)
from .profiles import DirtyProfile, NotRewritable, dirty_profile
from .shapes import Classification, ConjunctiveShape, classify

__all__ = [
    "CATALOG",
    "CForest",
    "FULL_CODES",
    "Classification",
    "ConjunctiveShape",
    "Diagnostic",
    "DirtyProfile",
    "NotRewritable",
    "RouteReport",
    "Severity",
    "Span",
    "Theory",
    "analyze",
    "classify",
    "dirty_profile",
    "fallback_route",
    "make_diagnostic",
    "plan_forest",
    "profiled_relations",
    "recognize_c_forest",
    "theory_fingerprint",
]
