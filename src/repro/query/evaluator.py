"""Model-theoretic evaluation of first-order queries.

Closed formulas are evaluated in the standard sense (``r |= Q``) with
*active-domain* quantifier semantics: quantified variables range over
the values occurring in the instance plus the constants of the query.
This is the usual choice in the consistent-query-answering literature
and coincides with natural semantics on safe queries.

Order comparisons hold only between naturals (the paper interprets
``<``/``>`` over ``N``); comparing names with an order operator yields
false rather than an error, so mixed-domain quantification is harmless.

Evaluation strategy
-------------------

:class:`EvaluationContext` is an indexed view of a row set.  Besides the
per-relation tuple sets and the active domain it lazily materializes
*hash indexes* — per (relation, column subset) maps from value tuples to
the matching rows — and caches the join plans built on top of them, so
repeated queries against the same context never rescan a relation.

Existential blocks (and open-query answer enumeration) are executed as
*ordered index-nested-loop joins*: :mod:`repro.query.planner` orders the
block's conjuncts by estimated selectivity (bound-column count, then
relation cardinality); each positive atom becomes an index probe on its
bound columns, equalities pin variables directly, every other conjunct
filters as early as its variables allow, and variables no atom guards
fall back to the active domain.  The ordering and the indexes change
complexity only, never semantics.

``naive=True`` (on :func:`evaluate`, :func:`answers`,
:func:`make_context`, and the engines built on them) is the escape hatch
to the reference semantics: no indexes, no planner — existential
candidates are narrowed by scanning each conjunct exactly as the
pre-index implementation did.  The differential test-suite pins the two
routes (and the SQLite backend) to identical answers.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.cache import BoundedCache
from repro.exceptions import QueryBindingError
from repro.query.ast import (
    And,
    Atom,
    COMPARISON_OPS,
    Comparison,
    Const,
    EQUALITY_OPS,
    Exists,
    FalseFormula,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    TrueFormula,
    Var,
    constants_of,
)
from repro.query.planner import (
    AtomStep,
    BindStep,
    BlockPlan,
    DomainStep,
    FilterStep,
    conjuncts_of,
    plan_block,
)
from repro.relational.domain import Value, values_comparable
from repro.relational.rows import Row

Binding = Dict[str, Value]

#: Sentinel distinguishing "unbound" from "bound to None" when saving a
#: shadowed binding around a quantifier.
_UNBOUND = object()

#: Cap on the constant-overlay views one context retains (each view
#: copies the active domain, so the map must not grow with the number
#: of distinct query constant sets a long-lived engine sees).
_MAX_VIEWS = 64

#: Cap on the cached block plans per context — same long-lived-engine
#: concern as ``_MAX_VIEWS``, far cheaper entries (no domain copies).
_MAX_PLANS = 256


class EvaluationContext:
    """Indexed view of a set of rows used during evaluation.

    Holds, per relation, the set of value tuples and the active domain
    (instance values plus any extra values, typically query constants).
    Building a context is linear in the data; hash indexes over column
    subsets and the join plans probing them materialize lazily on first
    use and are kept for the context's lifetime, so evaluating many
    queries against the same repair shares one context profitably.

    ``naive=True`` disables both the indexes and the planner: candidate
    narrowing falls back to full-relation scans (the reference
    implementation the indexed path is differentially tested against).
    """

    __slots__ = (
        "relations",
        "adom",
        "naive",
        "_indexes",
        "_plans",
        "_views",
        "_widths",
    )

    def __init__(
        self,
        rows: Iterable[Row],
        extra_domain: Iterable[Value] = (),
        naive: bool = False,
    ) -> None:
        relations: Dict[str, Set[Tuple[Value, ...]]] = {}
        adom: Set[Value] = set(extra_domain)
        for row in rows:
            relations.setdefault(row.relation, set()).add(row.values)
            adom.update(row.values)
        self.relations = relations
        self.adom = adom
        self.naive = naive
        #: (relation, positions) -> {projected values -> [tuples]}
        self._indexes: Dict[
            Tuple[str, Tuple[int, ...]],
            Dict[Tuple[Value, ...], List[Tuple[Value, ...]]],
        ] = {}
        #: (block variables, block body) -> BlockPlan
        self._plans: Dict[Tuple[Tuple[str, ...], Formula], BlockPlan] = {}
        #: extra-constant overlays sharing these indexes and plans
        self._views: Dict[FrozenSet[Value], "EvaluationContext"] = {}
        #: (relation, column) -> expected single-column probe width
        self._widths: Dict[Tuple[str, int], float] = {}

    def tuples_of(self, relation: str) -> Set[Tuple[Value, ...]]:
        return self.relations.get(relation, set())

    def cardinality(self, relation: str) -> int:
        return len(self.relations.get(relation, ()))

    def index(
        self, relation: str, positions: Tuple[int, ...]
    ) -> Dict[Tuple[Value, ...], List[Tuple[Value, ...]]]:
        """Hash index ``values at positions -> matching tuples`` (lazy).

        A single position is a plain column index; several positions
        form the multi-column index repeated atom patterns probe.
        """
        key = (relation, positions)
        index = self._indexes.get(key)
        if index is None:
            index = {}
            width = max(positions) + 1 if positions else 0
            for values in self.relations.get(relation, ()):
                if len(values) < width:
                    continue
                index.setdefault(
                    tuple(values[position] for position in positions), []
                ).append(values)
            self._indexes[key] = index
        return index

    def probe_width(self, relation: str, positions: Tuple[int, ...]) -> float:
        """Expected tuples returned by an index probe on ``positions``.

        Probes are keyed by values drawn from the data itself, so the
        per-column expectation weighs each bucket by its own size:
        ``Σ |b|² / N``.  A uniform column yields ``N / distinct``, while
        a 99%-one-key column yields nearly ``N`` — the skew signal the
        planner's raw cardinality estimate misses.  Multi-column probes
        are estimated by the most selective of their columns, so
        planning only ever materializes the (highly reusable)
        single-column statistics rather than speculative multi-column
        indexes for atoms that may never be chosen.  Empty position
        sets (no bound columns, i.e. a scan) cost the full cardinality.
        """
        total = self.cardinality(relation)
        if not positions or total == 0:
            return float(total)
        return min(
            self._column_width(relation, position) for position in positions
        )

    def _column_width(self, relation: str, position: int) -> float:
        key = (relation, position)
        width = self._widths.get(key)
        if width is None:
            index = self.index(relation, (position,))
            total = self.cardinality(relation)
            width = (
                sum(len(bucket) ** 2 for bucket in index.values()) / total
                if index
                else 0.0
            )
            self._widths[key] = width
        return width

    def with_constants(self, constants: FrozenSet[Value]) -> "EvaluationContext":
        """A view whose active domain also covers ``constants``.

        The view shares this context's relations, indexes, and plan
        cache; only the active domain differs.  Engines cache one base
        context per repair and overlay each query's constants through
        here, so the expensive structures are built once per repair.
        """
        if not constants:
            return self
        # Key views by the genuinely new values only, so constant sets
        # differing in already-covered values share one overlay.
        needed = frozenset(constants) - self.adom
        if not needed:
            return self
        view = self._views.get(needed)
        if view is None:
            if len(self._views) >= _MAX_VIEWS:
                self._views.pop(next(iter(self._views)))
            view = EvaluationContext.__new__(EvaluationContext)
            view.relations = self.relations
            view.adom = self.adom | needed
            view.naive = self.naive
            view._indexes = self._indexes
            view._plans = self._plans
            view._widths = self._widths
            # Own overlay map: re-overlaying a view must union with *its*
            # domain, not the base's.
            view._views = {}
            self._views[needed] = view
        return view

    def plan_for(self, variables: Tuple[str, ...], body: Formula) -> BlockPlan:
        """The (cached) selectivity-ordered join plan for one block."""
        key = (variables, body)
        plan = self._plans.get(key)
        if plan is None:
            if len(self._plans) >= _MAX_PLANS:
                self._plans.pop(next(iter(self._plans)))
            plan = plan_block(
                variables, body, self.cardinality, self.probe_width
            )
            self._plans[key] = plan
        return plan


class ContextCache(BoundedCache[FrozenSet[Row], EvaluationContext]):
    """Bounded, content-keyed cache of per-row-set evaluation contexts.

    Engines that evaluate many queries against recurring row sets (the
    repairs of one :class:`~repro.cqa.engine.CqaEngine` run, the
    re-assembled repairs of the incremental engine's re-validations)
    share contexts — and therefore indexes and plans — through one of
    these.  Keys are the frozen row sets themselves, so a repair that
    reappears after unrelated updates hits the same entry; the least
    recently used context is evicted once ``max_entries`` is reached.

    Get-or-create is thread-safe: the service broker's threaded front
    end can look up a context while another request thread evicts.
    Racing misses of one row set may both build a context (the later
    one is kept); the constant-overlay bookkeeping of a shared context
    is serialized on ``_overlay_lock``.  Evaluation against a returned
    context is not serialized — concurrent lazy index builds merely
    duplicate work, they never corrupt results.
    """

    __slots__ = ("naive", "_overlay_lock")

    def __init__(self, max_entries: int = 1024, naive: bool = False) -> None:
        super().__init__(max_entries, "context")
        self.naive = naive
        self._overlay_lock = threading.Lock()

    def context_for(
        self, rows: FrozenSet[Row], constants: FrozenSet[Value] = frozenset()
    ) -> EvaluationContext:
        """The shared context for ``rows``, overlaid with ``constants``."""
        base = self.get(rows)
        if base is None:
            base = EvaluationContext(rows, naive=self.naive)
            self.put(rows, base)
        with self._overlay_lock:
            return base.with_constants(constants)


def _resolve(term, binding: Binding) -> Value:
    if isinstance(term, Const):
        return term.value
    value = binding.get(term.name)
    if value is None and term.name not in binding:
        raise QueryBindingError(f"unbound variable {term.name!r}")
    return value


def _compare(op: str, left: Value, right: Value) -> bool:
    if op in EQUALITY_OPS:
        return COMPARISON_OPS[op](left, right)
    if not values_comparable(left, right):
        return False
    return COMPARISON_OPS[op](left, right)


def _atom_holds(atom: Atom, context: EvaluationContext, binding: Binding) -> bool:
    values = tuple(_resolve(term, binding) for term in atom.terms)
    return values in context.tuples_of(atom.relation)


def _atom_matches(
    atom: Atom, context: EvaluationContext, binding: Binding
) -> Iterator[Dict[str, Value]]:
    """Bindings of ``atom``'s unbound variables, one per matching tuple.

    On an indexed context the candidate tuples come from a hash-index
    probe on the atom's bound columns (constants plus variables already
    in ``binding``); a naive context scans the relation.  Either way the
    matching checks are identical, including consistency of repeated
    variables.
    """
    arity = len(atom.terms)
    pool: Optional[Iterable[Tuple[Value, ...]]] = None
    if not context.naive:
        positions: List[int] = []
        bound_values: List[Value] = []
        for position, term in enumerate(atom.terms):
            if isinstance(term, Const):
                positions.append(position)
                bound_values.append(term.value)
            elif term.name in binding:
                positions.append(position)
                bound_values.append(binding[term.name])
        if positions:
            pool = context.index(atom.relation, tuple(positions)).get(
                tuple(bound_values), ()
            )
    if pool is None:
        pool = context.tuples_of(atom.relation)
    for values in pool:
        if len(values) != arity:
            continue
        extracted: Dict[str, Value] = {}
        compatible = True
        for term, value in zip(atom.terms, values):
            if isinstance(term, Const):
                if term.value != value:
                    compatible = False
                    break
            else:
                name = term.name
                known = binding.get(name, extracted.get(name, _UNBOUND))
                if known is _UNBOUND:
                    extracted[name] = value
                elif known != value:
                    compatible = False
                    break
        if compatible:
            yield extracted


def _atom_candidates(
    atom: Atom, variable: str, context: EvaluationContext, binding: Binding
) -> Set[Value]:
    """Values ``variable`` can take so that ``atom`` may hold.

    An index probe on indexed contexts, a relation scan on naive ones
    (see :func:`_atom_matches`).
    """
    return {
        extracted[variable]
        for extracted in _atom_matches(atom, context, binding)
        if variable in extracted
    }


def _candidate_values(
    variable: str, body: Formula, context: EvaluationContext, binding: Binding
) -> Set[Value]:
    """Sound candidate set for an existential variable.

    Inspects the top-level conjuncts of ``body``: a positive atom or an
    equality pinning the variable restricts its possible values.  Falls
    back to the active domain when no conjunct constrains the variable.
    """
    best: Optional[Set[Value]] = None
    for conjunct in conjuncts_of(body):
        candidates: Optional[Set[Value]] = None
        if isinstance(conjunct, Atom) and variable in conjunct.free_variables():
            candidates = _atom_candidates(conjunct, variable, context, binding)
        elif isinstance(conjunct, Comparison) and conjunct.op == "=":
            left, right = conjunct.left, conjunct.right
            if isinstance(left, Var) and left.name == variable:
                other = right
            elif isinstance(right, Var) and right.name == variable:
                other = left
            else:
                continue
            if isinstance(other, Const):
                candidates = {other.value}
            elif other.name in binding:
                candidates = {binding[other.name]}
        if candidates is not None and (best is None or len(candidates) < len(best)):
            best = candidates
            if not best:
                return best
    return best if best is not None else set(context.adom)


def _run_plan(
    steps: Tuple, index: int, context: EvaluationContext, binding: Binding
) -> Iterator[Binding]:
    """Depth-first execution of a block plan; yields the live binding.

    Consumers must read the binding before advancing the iterator; on
    abandonment (early exit) closing the generator restores ``binding``
    through the ``finally`` blocks.
    """
    if index == len(steps):
        yield binding
        return
    step = steps[index]
    if type(step) is FilterStep:
        if _holds(step.formula, context, binding):
            yield from _run_plan(steps, index + 1, context, binding)
    elif type(step) is AtomStep:
        for extracted in _atom_matches(step.atom, context, binding):
            binding.update(extracted)
            try:
                yield from _run_plan(steps, index + 1, context, binding)
            finally:
                for name in extracted:
                    del binding[name]
    elif type(step) is BindStep:
        binding[step.variable] = _resolve(step.source, binding)
        try:
            yield from _run_plan(steps, index + 1, context, binding)
        finally:
            del binding[step.variable]
    else:  # DomainStep
        for value in context.adom:
            binding[step.variable] = value
            try:
                yield from _run_plan(steps, index + 1, context, binding)
            finally:
                del binding[step.variable]


def _flatten_exists(formula: Exists) -> Tuple[Tuple[str, ...], Formula]:
    """Merge directly nested EXISTS blocks into one planning block.

    Stops at a block reusing a name already taken (shadowing) — the
    inner block then stays a filter conjunct with its own scope.
    """
    variables = list(formula.variables)
    taken = set(variables) | formula.free_variables()
    body: Formula = formula.body
    while isinstance(body, Exists) and not (set(body.variables) & taken):
        variables.extend(body.variables)
        taken.update(body.variables)
        body = body.body
    return tuple(variables), body


def _exists_planned(
    formula: Exists, context: EvaluationContext, binding: Binding
) -> bool:
    variables, body = _flatten_exists(formula)
    plan = context.plan_for(variables, body)
    shadowed = {
        name: binding.pop(name) for name in plan.variables if name in binding
    }
    walker = _run_plan(plan.steps, 0, context, binding)
    try:
        for _ in walker:
            return True
        return False
    finally:
        walker.close()
        binding.update(shadowed)


def _exists_naive(
    formula: Exists, context: EvaluationContext, binding: Binding
) -> bool:
    variable, rest = formula.variables[0], formula.variables[1:]
    remainder: Formula = Exists(rest, formula.body) if rest else formula.body
    # Pop the whole block, not just the first variable: candidate
    # narrowing inspects the body, and an outer binding shadowed by a
    # *later* block variable must not constrain the candidates.
    shadowed = {
        name: binding.pop(name) for name in formula.variables if name in binding
    }
    try:
        for value in _candidate_values(variable, formula.body, context, binding):
            binding[variable] = value
            try:
                if _holds(remainder, context, binding):
                    return True
            finally:
                del binding[variable]
        return False
    finally:
        binding.update(shadowed)


@lru_cache(maxsize=256)
def violation_body(body: Formula) -> Formula:
    """``NOT body`` with negations pushed inward to expose generators.

    The dual "violation search" plan for universal quantification:
    ``FORALL x . φ`` holds iff ``EXISTS x . ¬φ`` does not, and pushing
    the negation through implications, disjunctions and conjunctions
    turns guard atoms into *positive* top-level conjuncts the planner
    can generate bindings from — ``FORALL x . R(x) IMPLIES ψ`` becomes a
    search over ``R`` for a falsifying tuple instead of a loop over the
    whole active domain.  Every rewrite is a classical equivalence, and
    order comparisons are left under their negation (``NOT (a < b)`` is
    *not* ``a >= b`` on uninterpreted names, where both order atoms are
    false), so active-domain semantics are preserved exactly.
    """
    if isinstance(body, Not):
        return body.body
    if isinstance(body, Implies):
        return And((body.antecedent, violation_body(body.consequent)))
    if isinstance(body, Or):
        return And(tuple(violation_body(part) for part in body.parts))
    if isinstance(body, And):
        return Or(tuple(violation_body(part) for part in body.parts))
    if isinstance(body, TrueFormula):
        return FalseFormula()
    if isinstance(body, FalseFormula):
        return TrueFormula()
    if isinstance(body, Comparison) and body.op in EQUALITY_OPS:
        return body.negated()
    if isinstance(body, Forall):
        return Exists(body.variables, violation_body(body.body))
    if isinstance(body, Exists):
        return Forall(body.variables, violation_body(body.body))
    # Atoms and order comparisons stay under the negation: a negated
    # atom is a filter either way, and order operators are asymmetric
    # on mixed domains (see above).
    return Not(body)


def _holds(formula: Formula, context: EvaluationContext, binding: Binding) -> bool:
    if isinstance(formula, TrueFormula):
        return True
    if isinstance(formula, FalseFormula):
        return False
    if isinstance(formula, Atom):
        return _atom_holds(formula, context, binding)
    if isinstance(formula, Comparison):
        return _compare(
            formula.op,
            _resolve(formula.left, binding),
            _resolve(formula.right, binding),
        )
    if isinstance(formula, Not):
        return not _holds(formula.body, context, binding)
    if isinstance(formula, And):
        return all(_holds(part, context, binding) for part in formula.parts)
    if isinstance(formula, Or):
        return any(_holds(part, context, binding) for part in formula.parts)
    if isinstance(formula, Implies):
        return not _holds(formula.antecedent, context, binding) or _holds(
            formula.consequent, context, binding
        )
    if isinstance(formula, Exists):
        if context.naive:
            return _exists_naive(formula, context, binding)
        return _exists_planned(formula, context, binding)
    if isinstance(formula, Forall):
        if not context.naive:
            # Dual plan: search for one falsifying binding through the
            # planned existential machinery (index probes on the guard
            # atoms) instead of enumerating |adom|^k candidates.
            falsifier = Exists(formula.variables, violation_body(formula.body))
            return not _exists_planned(falsifier, context, binding)
        variable, rest = formula.variables[0], formula.variables[1:]
        remainder = Forall(rest, formula.body) if rest else formula.body
        shadowed = binding.pop(variable, _UNBOUND)
        try:
            for value in context.adom:
                binding[variable] = value
                try:
                    if not _holds(remainder, context, binding):
                        return False
                finally:
                    del binding[variable]
            return True
        finally:
            if shadowed is not _UNBOUND:
                binding[variable] = shadowed
    raise TypeError(f"unknown formula node {formula!r}")


def make_context(
    rows: Iterable[Row],
    query: Optional[Formula] = None,
    naive: bool = False,
) -> EvaluationContext:
    """Build an evaluation context for ``rows`` (plus query constants)."""
    extra = constants_of(query) if query is not None else ()
    return EvaluationContext(rows, extra, naive=naive)


def evaluate(
    formula: Formula,
    rows: Iterable[Row],
    binding: Optional[Mapping[str, Value]] = None,
    context: Optional[EvaluationContext] = None,
    naive: bool = False,
) -> bool:
    """Whether the (possibly pre-bound) formula holds in the given rows.

    ``rows`` may be any iterable of :class:`Row` (an instance, a repair,
    a database's :meth:`all_rows`).  Free variables must be covered by
    ``binding``.  ``naive=True`` routes to the scan-based reference
    semantics (ignored when an explicit ``context`` carries the choice).
    """
    if context is None:
        context = make_context(rows, formula, naive=naive)
    working: Binding = dict(binding) if binding else {}
    missing = formula.free_variables() - set(working)
    if missing:
        raise QueryBindingError(f"unbound free variables: {sorted(missing)}")
    return _holds(formula, context, working)


def _enumerate_bindings(
    variables: Tuple[str, ...],
    formula: Formula,
    context: EvaluationContext,
    binding: Binding,
) -> Iterator[Binding]:
    if not variables:
        if _holds(formula, context, binding):
            yield dict(binding)
        return
    variable, rest = variables[0], variables[1:]
    for value in _candidate_values(variable, formula, context, binding):
        binding[variable] = value
        yield from _enumerate_bindings(rest, formula, context, binding)
        del binding[variable]


def answers(
    formula: Formula,
    rows: Iterable[Row],
    variables: Optional[Tuple[str, ...]] = None,
    context: Optional[EvaluationContext] = None,
    naive: bool = False,
) -> FrozenSet[Tuple[Value, ...]]:
    """Answer set of an open formula: satisfying assignments to ``variables``.

    ``variables`` defaults to the sorted free variables of the formula;
    pass an explicit tuple to control answer-column order.  Free
    variables omitted from ``variables`` are projected away
    (existentially): the answer keeps each combination of the requested
    columns that some extension satisfies.

    On an indexed context the answer variables, the projected variables,
    and any peeled existential prefix are enumerated by one ordered
    index-nested-loop join plan; ``naive=True`` (or a naive context)
    uses per-variable candidate narrowing instead.
    """
    if variables is None:
        variables = tuple(sorted(formula.free_variables()))
    unknown = set(variables) - formula.free_variables()
    if unknown:
        raise QueryBindingError(
            f"answer variables {sorted(unknown)} are not free in the formula"
        )
    projected = tuple(sorted(formula.free_variables() - set(variables)))
    # Peel top-level existential blocks into projected columns: ∃ and
    # projection coincide, and enumerating the quantified variables
    # up front lets the join plan (or the conjunct-guided narrowing)
    # see the body's atoms — with the Exists left in place the root
    # formula has no top-level atom conjuncts and every *free* variable
    # would range over the whole active domain.
    body = formula
    taken = set(variables) | set(projected)
    peeled: List[str] = []
    while isinstance(body, Exists) and not (set(body.variables) & taken):
        peeled.extend(body.variables)
        taken |= set(body.variables)
        body = body.body
    if context is None:
        context = make_context(rows, formula, naive=naive)
    targets = tuple(variables) + projected + tuple(peeled)
    results: List[Tuple[Value, ...]] = []
    if context.naive:
        for binding in _enumerate_bindings(targets, body, context, {}):
            results.append(tuple(binding[name] for name in variables))
    else:
        plan = context.plan_for(targets, body)
        for binding in _run_plan(plan.steps, 0, context, {}):
            results.append(tuple(binding[name] for name in variables))
    return frozenset(results)
