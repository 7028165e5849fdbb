"""Shape classification of queries against an FD theory.

:func:`classify` is the collect-all counterpart of the rewriting
compiler's historical fail-fast analysis: it walks the same checks in
the same precedence order but records *every* finding as a
:class:`~repro.analysis.model.Diagnostic` instead of raising at the
first.  The first blocking diagnostic is therefore always the exact
reason the legacy code would have raised — ``RewriteDecision.reason``,
``last_route`` strings and metric labels are preserved bit-for-bit —
while later entries enrich explanations (``repro analyze``,
``--explain``).

The precedence, inherited from ``_extract_conjunctive`` +
``compile_plan``:

1. ``RA104`` shadowed quantifier (analysis stops: the prefix is
   ill-formed, nothing below it is meaningful);
2. ``RA102`` non-conjunctive construct, one per offending part in body
   order;
3. ``RA103`` no relational atom (only when every part parsed);
4. ``RA101`` unsafe variables;
5. ``RA301`` mixed-LHS dependencies, per mentioned relation in sorted
   order;
6. static two-domain typing — a statically unsatisfiable conjunct makes
   the plan *empty* (``RA002``, info) and, crucially, pre-empts the
   multi-dirty check exactly like the legacy compiler did: a statically
   empty multi-dirty query still pushes;
7. multiple atoms over inconsistent relations: the C_forest analysis
   (:func:`repro.analysis.cforest.plan_forest`) runs over the full join
   graph; when the dirty atoms form a key-join forest the oriented
   structure is stored on the classification (``RA011``, info — the
   compiler emits recursive ``NOT EXISTS`` certifications for it),
   otherwise ``RA201`` blocks both pushed engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.constraints.fd import FunctionalDependency
from repro.exceptions import QueryBindingError
from repro.query.ast import (
    And,
    Atom,
    Comparison,
    Const,
    Exists,
    Formula,
    Slot,
    Var,
)
from repro.relational.domain import AttributeType
from repro.relational.schema import DatabaseSchema

from .cforest import CForest, plan_forest
from .model import Diagnostic, Severity, make_diagnostic
from .profiles import DirtyProfile, NotRewritable, dirty_profile


@dataclass(frozen=True)
class ConjunctiveShape:
    """The conjunctive skeleton of a query: atoms, comparisons, answers.

    Attribute-compatible with the compiler's former private
    ``_Conjunctive`` record so SQL emission consumes it unchanged.
    """

    atoms: Tuple[Atom, ...]
    comparisons: Tuple[Comparison, ...]
    answer_variables: Tuple[str, ...]


@dataclass
class Classification:
    """Everything :func:`classify` learned about one query."""

    #: The conjunctive skeleton; ``None`` when the quantifier prefix was
    #: ill-formed (shadowing) and nothing below it could be read.
    shape: Optional[ConjunctiveShape]
    diagnostics: Tuple[Diagnostic, ...]
    #: Mentioned relations, sorted.
    mentioned: Tuple[str, ...]
    #: Conflict profiles of the mentioned dirty relations.
    profiles: Dict[str, DirtyProfile] = field(default_factory=dict)
    #: Static two-domain types of the query's variables.
    variable_types: Dict[str, AttributeType] = field(default_factory=dict)
    #: Comparisons surviving the typing pass (vacuous ones dropped).
    kept_comparisons: Tuple[Comparison, ...] = ()
    #: Why the conjunction is statically unsatisfiable, when it is.
    empty_reason: Optional[str] = None
    #: Positions of atoms over dirty relations, in body order.
    dirty_indexes: Tuple[int, ...] = ()
    #: The oriented C_forest structure when several dirty atoms form a
    #: key-join forest (the compiler's input for the multi-dirty path).
    forest: Optional[CForest] = None

    @property
    def blocking(self) -> Tuple[Diagnostic, ...]:
        """Error diagnostics, in legacy raise order (first = the reason
        the fail-fast analysis would have reported)."""
        return tuple(
            d for d in self.diagnostics if d.severity is Severity.ERROR
        )

    @property
    def plan_kind(self) -> Optional[str]:
        """``"empty"``/``"forest"``/``"dirty"``/``"clean"`` when
        rewritable, else None."""
        if self.blocking:
            return None
        if self.empty_reason is not None:
            return "empty"
        if self.forest is not None:
            return "forest"
        return "dirty" if self.dirty_indexes else "clean"


def _term_domain(
    term, variable_types: Dict[str, AttributeType]
) -> AttributeType:
    if isinstance(term, Const):
        value = term.value
        number = (
            value.number if isinstance(value, Slot) else isinstance(value, int)
        )
        return AttributeType.NUMBER if number else AttributeType.NAME
    return variable_types[term.name]


def classify(
    formula: Formula,
    schema: DatabaseSchema,
    dependencies: Sequence[FunctionalDependency],
    variables: Optional[Sequence[str]] = None,
) -> Classification:
    """Classify ``formula`` against ``schema`` + ``dependencies``.

    Raises :class:`QueryBindingError` for answer variables that are not
    free in the formula (a caller error, not a routing fact) — exactly
    like the legacy analysis did.
    """
    free = formula.free_variables()
    if variables is None:
        answer_variables = tuple(sorted(free))
    else:
        unknown = set(variables) - free
        if unknown:
            raise QueryBindingError(
                f"answer variables {sorted(unknown)} are not free in the formula"
            )
        answer_variables = tuple(variables)

    diagnostics: List[Diagnostic] = []

    body: Formula = formula
    seen: Set[str] = set(free)
    while isinstance(body, Exists):
        for name in body.variables:
            if name in seen:
                diagnostics.append(
                    make_diagnostic("RA104", subject=name, name=name)
                )
                return Classification(
                    shape=None,
                    diagnostics=tuple(diagnostics),
                    mentioned=(),
                )
            seen.add(name)
        body = body.body

    parts = body.parts if isinstance(body, And) else (body,)
    atoms: List[Atom] = []
    comparisons: List[Comparison] = []
    for part in parts:
        if isinstance(part, Atom):
            atoms.append(part)
        elif isinstance(part, Comparison):
            comparisons.append(part)
        else:
            construct = type(part).__name__
            diagnostics.append(
                make_diagnostic("RA102", subject=construct, construct=construct)
            )
    conjunctive = not any(d.code == "RA102" for d in diagnostics)
    if not atoms and conjunctive:
        diagnostics.append(make_diagnostic("RA103"))

    if atoms:
        atom_variables: Set[str] = set()
        for atom in atoms:
            atom_variables |= atom.free_variables()
        unsafe = sorted(seen - atom_variables)
        if unsafe:
            diagnostics.append(
                make_diagnostic(
                    "RA101", subject=unsafe[0], names=unsafe
                )
            )

    shape = ConjunctiveShape(tuple(atoms), tuple(comparisons), answer_variables)
    mentioned = tuple(sorted({atom.relation for atom in atoms}))
    classification = Classification(
        shape=shape, diagnostics=(), mentioned=mentioned
    )

    # Theory pass: conflict profiles per mentioned relation, sorted —
    # the legacy analysis raised at the first mixed-LHS relation.
    profiles: Dict[str, DirtyProfile] = {}
    for name in mentioned:
        try:
            profile = dirty_profile(schema.relation(name), dependencies)
        except NotRewritable:
            diagnostics.append(
                make_diagnostic("RA301", subject=name, relation=name)
            )
            continue
        if profile is not None:
            profiles[name] = profile
    classification.profiles = profiles

    blocked = any(d.severity is Severity.ERROR for d in diagnostics)
    if not blocked:
        _type_pass(classification, schema)
        if classification.empty_reason is None:
            dirty_indexes = classification.dirty_indexes
            if len(dirty_indexes) > 1:
                classification.forest = plan_forest(
                    shape,
                    classification.profiles,
                    classification.kept_comparisons,
                    schema,
                )
                if classification.forest is None:
                    involved = sorted(
                        {shape.atoms[i].relation for i in dirty_indexes}
                    )
                    diagnostics.append(
                        make_diagnostic(
                            "RA201", subject=involved[0], involved=involved
                        )
                    )

    # Informational verdicts for unblocked queries.
    if not any(d.severity is Severity.ERROR for d in diagnostics):
        if classification.empty_reason is not None:
            diagnostics.append(
                make_diagnostic("RA002", why=classification.empty_reason)
            )
        elif classification.forest is not None:
            diagnostics.append(
                make_diagnostic(
                    "RA011", explanation=classification.forest.explanation
                )
            )
        else:
            kind = "dirty" if classification.dirty_indexes else "clean"
            diagnostics.append(make_diagnostic("RA001", kind=kind))

    classification.diagnostics = tuple(diagnostics)
    return classification


def _type_pass(
    classification: Classification, schema: DatabaseSchema
) -> None:
    """The compiler's static two-domain typing, verbatim.

    Fills ``variable_types``, ``kept_comparisons``, ``empty_reason`` and
    ``dirty_indexes``; stops at the first unsatisfiable conjunct exactly
    like the fail-fast code so the rendered reason is identical.
    """
    shape = classification.shape
    assert shape is not None
    variable_types: Dict[str, AttributeType] = {}
    classification.variable_types = variable_types
    for atom in shape.atoms:
        relation = schema.relation(atom.relation)
        for position, term in enumerate(atom.terms):
            attribute = relation.attributes[position]
            if isinstance(term, Var):
                known = variable_types.setdefault(term.name, attribute.type)
                if known is not attribute.type:
                    classification.empty_reason = (
                        f"variable {term.name!r} joins a name column with a "
                        "number column (disjoint domains)"
                    )
                    return
            else:
                if _term_domain(term, variable_types) is not attribute.type:
                    classification.empty_reason = (
                        f"constant {term.value!r} can never occur in "
                        f"{atom.relation}.{attribute.name}"
                    )
                    return

    kept: List[Comparison] = []
    for comparison in shape.comparisons:
        left = _term_domain(comparison.left, variable_types)
        right = _term_domain(comparison.right, variable_types)
        if comparison.op in ("=", "!="):
            if left is right:
                kept.append(comparison)
            elif comparison.op == "=":
                classification.empty_reason = (
                    f"cross-domain equality {comparison} never holds"
                )
                return
            # cross-domain != always holds: drop it.
        else:
            if left is AttributeType.NUMBER and right is AttributeType.NUMBER:
                kept.append(comparison)
            else:
                # Order comparisons are interpreted over naturals only.
                classification.empty_reason = (
                    f"order comparison {comparison} involves uninterpreted "
                    "names and is identically false"
                )
                return
    classification.kept_comparisons = tuple(kept)
    classification.dirty_indexes = tuple(
        index
        for index, atom in enumerate(shape.atoms)
        if atom.relation in classification.profiles
    )
