"""ConQuer-style compilation of safe conjunctive queries to SQLite SQL.

The tractability results the paper builds on (and the ConQuer line of
work, Fuxman & Miller) say that for suitable conjunctive queries over
FD-violating instances, the *certain* answers — those true in every
repair — are computable by first-order rewriting instead of repair
enumeration.  This module implements that rewriting for the fragment
where it is sound and complete under this library's semantics:

* the query is conjunctive — an optional existential prefix over a
  conjunction of relational atoms and comparisons (exactly the image of
  the conjunctive-SQL frontend, plus anything of the same shape written
  in first-order syntax);
* every quantified or answer variable occurs in at least one atom
  (safety);
* the atoms over *dirty* relations — those whose functional
  dependencies can actually be violated — either number at most one, or
  form a C_forest key-join forest (see below); every dirty relation's
  FDs share one left-hand side ``K`` (so each ``K``-group's repairs are
  exactly its maximal classes of rows agreeing on the combined
  right-hand side ``Y``);
* comparisons respect the paper's two-domain semantics (see below).

For such a query the certain answers have a closed form: a tuple is
certain iff some witness assignment exists whose dirty row's ``K``-group
*certifies* it — every ``Y``-class of the group contains a row that
extends to a full witness producing the same answer tuple.  That is one
``SELECT`` with a doubly nested ``NOT EXISTS`` self-join, evaluated
entirely inside SQLite:

.. code-block:: sql

    SELECT DISTINCT <answers t>
    FROM R t0, S t1, ...
    WHERE <body over t*>
      AND NOT EXISTS (            -- no class of t's group ...
        SELECT 1 FROM R g
        WHERE g.K = t0.K
          AND NOT EXISTS (        -- ... fails to witness the answer
            SELECT 1 FROM R w0, S w1, ...
            WHERE <body over w*>
              AND w0.K = t0.K AND w0.Y = g.Y
              AND <answers w> = <answers t>))

*Possible* answers of such a query are simply its answers over the full
(unrepaired) instance: conjunctive queries are monotone and any single
row extends to some repair.

Several dirty atoms push too, when they form a *C_forest* — the
ConQuer/Fuxman-Miller class of key-join forests recognized by
:func:`repro.analysis.cforest.plan_forest`: every join path into a
dirty atom (clean chains included) enters through that atom's full key.
The certification then recurses down each tree — one ``NOT EXISTS``
pair per dirty atom, a child certification correlated with its parent
scope only through the child's key — so independent repair choices
factor instead of multiplying:

.. code-block:: sql

    SELECT DISTINCT <answers t>
    FROM R t0, C t1, S t2, ...         -- all atoms, clean ones free
    WHERE <body over t*>
      AND NOT EXISTS (                 -- per root dirty atom R ...
        SELECT 1 FROM R g0 WHERE g0.K = t0.K
          AND NOT EXISTS (             -- ... every class witnesses:
            SELECT 1 FROM R w0_0, C w0_1   -- R's region (clean below)
            WHERE <region body> AND w0_0.K = t0.K AND w0_0.Y = g0.Y
              AND <answers w> = <answers t>
              AND NOT EXISTS (         -- dirty child S, keyed from C
                SELECT 1 FROM S g1 WHERE g1.K2 = w0_1.B
                  AND NOT EXISTS (SELECT 1 FROM S w1_0 WHERE ...))))

Domain semantics: the paper's values split into uninterpreted names and
naturals, and SQLite's comparison affinity rules do not match them (a
``TEXT`` column compared with an integer literal would coerce).  The
compiler therefore type-checks every comparison and atom constant; a
conjunct that can never hold under two-domain semantics makes the whole
conjunction statically unsatisfiable (an *empty* plan — no SQL runs at
all), and a vacuously true ``!=`` across domains is dropped.

Since the ``repro.analysis`` subsystem landed, the *analysis* half of
this pipeline — shape extraction, safety, theory profiling, the static
two-domain typing — lives in :func:`repro.analysis.shapes.classify`;
this module keeps the SQL emission and attaches the classifier's
:class:`~repro.analysis.model.Diagnostic` records to every
:class:`RewriteDecision`.  Queries outside the fragment are reported
with the first blocking diagnostic's message as the fallback reason
(bit-identical to the historical fail-fast strings);
:class:`~repro.backend.engine.SqlCqaEngine` routes those to the
in-memory engine.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, replace
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

# Conflict profiles moved to repro.analysis.profiles; re-exported here
# because the public import path predates the analysis subsystem.
from repro.analysis.model import Diagnostic, fallback_route
from repro.analysis.profiles import (  # noqa: F401  (re-exports)
    DirtyProfile,
    NotRewritable,
    dirty_profile,
)
from repro.analysis.shapes import Classification, classify
from repro.constraints.fd import FunctionalDependency
from repro.query.ast import Comparison, Const, Formula, Slot
from repro.relational.domain import Value
from repro.relational.schema import DatabaseSchema
from repro.relational.sqlite_io import quote_identifier

#: SQL spellings of the AST comparison operators.
_SQL_OPS = {"=": "=", "!=": "<>", "<": "<", ">": ">", "<=": "<=", ">=": ">="}


@dataclass(frozen=True)
class PlanResult:
    """Certain and possible answer sets produced by one plan run.

    Boolean (closed) queries use the nullary-tuple convention of the
    evaluator: ``frozenset({()})`` means satisfied.
    """

    certain: FrozenSet[Tuple[Value, ...]]
    possible: FrozenSet[Tuple[Value, ...]]


@dataclass(frozen=True)
class RewritePlan:
    """A compiled certain-answer query, ready to run on a connection."""

    kind: str  #: ``"clean"`` | ``"dirty"`` | ``"forest"`` | ``"empty"``
    answer_variables: Tuple[str, ...]
    certain_sql: Optional[str]
    certain_params: Tuple[Value, ...]
    possible_sql: Optional[str]
    possible_params: Tuple[Value, ...]
    description: str

    @property
    def is_boolean(self) -> bool:
        return not self.answer_variables

    def bind(self, values: Sequence[Value]) -> "RewritePlan":
        """The plan of a template's text: each :class:`~repro.query.ast.
        Slot` parameter replaced by its value (a template's plan binds
        one parameter per literal, so its SQL serves every text)."""
        if not values:
            return self
        return replace(
            self,
            certain_params=_bound(self.certain_params, values),
            possible_params=_bound(self.possible_params, values),
        )

    def run(
        self, connection: sqlite3.Connection, values: Sequence[Value] = ()
    ) -> PlanResult:
        """Execute the plan's SQL and collect both answer sets;
        ``values`` fill a template plan's slots."""
        if self.kind == "empty":
            return PlanResult(frozenset(), frozenset())
        certain = self._execute(
            connection, self.certain_sql, _bound(self.certain_params, values)
        )
        if self.kind == "clean":
            # Consistent relations are identical in every repair.
            return PlanResult(certain, certain)
        possible = self._execute(
            connection, self.possible_sql, _bound(self.possible_params, values)
        )
        return PlanResult(certain, possible)

    def _execute(
        self,
        connection: sqlite3.Connection,
        sql: Optional[str],
        params: Tuple[Value, ...],
    ) -> FrozenSet[Tuple[Value, ...]]:
        assert sql is not None
        records = connection.execute(sql, params).fetchall()
        if self.is_boolean:
            return frozenset({()}) if records else frozenset()
        return frozenset(tuple(record) for record in records)


def _bound(
    params: Tuple[Value, ...], values: Sequence[Value]
) -> Tuple[Value, ...]:
    if not values:
        return params
    return tuple(
        values[param.index] if isinstance(param, Slot) else param
        for param in params
    )


@dataclass(frozen=True)
class RewriteDecision:
    """Outcome of rewritability analysis: a plan, or a fallback reason."""

    plan: Optional[RewritePlan]
    reason: Optional[str]
    #: Which pushed route would serve the plan (``"sqlite"`` for the
    #: preference-blind rewriting, ``"prefsql"`` when survivor tables
    #: participate); ``None`` on fallback decisions and for callers that
    #: do not distinguish routes.
    route: Optional[str] = None
    #: Every diagnostic the static analysis produced for the query —
    #: blocking ones first (``reason`` is the first blocker's message),
    #: informational ones (RA001/RA002/RA011) after.
    diagnostics: Tuple[Diagnostic, ...] = ()

    @property
    def pushed(self) -> bool:
        return self.plan is not None

    def bind(self, values: Sequence[Value]) -> "RewriteDecision":
        """The decision of a template's text (see :meth:`RewritePlan.
        bind`)."""
        if self.plan is None or not values:
            return self
        return replace(self, plan=self.plan.bind(values))

    @property
    def fallback_route(self) -> str:
        """The route label of a fallback on this decision
        (``fallback: <reason>``)."""
        assert self.reason is not None
        return fallback_route(self.reason)


# ---------------------------------------------------------------------------
# SQL emission
# ---------------------------------------------------------------------------


def conjoin(conditions: Sequence[str]) -> str:
    """AND-join SQL conditions (vacuously true when empty) — shared by
    this compiler and the prefsql survivor builder."""
    return " AND ".join(conditions) if conditions else "1=1"


# Backwards-compatible private alias used throughout this module.
_conjoin = conjoin


def survivor_condition(alias: str, table: str) -> str:
    """Restrict ``alias`` to the rows listed in a survivor side table.

    Survivor tables (see :mod:`repro.prefsql.winnow`) hold one
    ``row_id`` per row whose conflict class belongs to the preferred
    family; the condition plugs straight into the rewriting's alias
    scopes, turning the preference-blind certification into a
    preference-aware one.

    It relies on the table being keyed (``row_id INTEGER PRIMARY
    KEY``): SQLite then plans the ``IN`` as a rowid search of the
    survivor table (``USING ROWID SEARCH ... FOR IN-OPERATOR``) rather
    than a scan of it per statement.
    """
    return f"{alias}.rowid IN (SELECT row_id FROM {quote_identifier(table)})"


def _render_body(
    atoms: Sequence,
    schema: DatabaseSchema,
    aliases: Sequence[str],
    kept_comparisons: Sequence[Comparison],
) -> Tuple[List[str], List[Value], Dict[str, str]]:
    """Body conditions for one alias scope.

    Returns ``(conditions, parameters, canonical)`` where ``canonical``
    maps each variable to its representative qualified column.
    """
    conditions: List[str] = []
    parameters: List[Value] = []
    canonical: Dict[str, str] = {}
    for index, atom in enumerate(atoms):
        relation = schema.relation(atom.relation)
        for position, term in enumerate(atom.terms):
            column = "{}.{}".format(
                aliases[index], quote_identifier(relation.attributes[position].name)
            )
            if isinstance(term, Const):
                conditions.append(f"{column} = ?")
                parameters.append(term.value)
            elif term.name in canonical:
                conditions.append(f"{column} = {canonical[term.name]}")
            else:
                canonical[term.name] = column
    for comparison in kept_comparisons:
        operands: List[str] = []
        for term in (comparison.left, comparison.right):
            if isinstance(term, Const):
                operands.append("?")
                parameters.append(term.value)
            else:
                operands.append(canonical[term.name])
        conditions.append(
            f"{operands[0]} {_SQL_OPS[comparison.op]} {operands[1]}"
        )
    return conditions, parameters, canonical


def _empty_plan(
    answer_variables: Tuple[str, ...], why: str
) -> RewritePlan:
    return RewritePlan(
        kind="empty",
        answer_variables=answer_variables,
        certain_sql=None,
        certain_params=(),
        possible_sql=None,
        possible_params=(),
        description=f"statically unsatisfiable: {why}",
    )


def compile_plan(
    classification: Classification,
    schema: DatabaseSchema,
    survivors: Optional[Dict[str, str]] = None,
    resolved: AbstractSet[str] = frozenset(),
) -> RewritePlan:
    """Emit SQL for a classified conjunctive query.

    ``classification`` must be unblocked (see
    :attr:`Classification.blocking`) — the shape, typing and theory
    analysis all happened in :func:`repro.analysis.shapes.classify`;
    this function is pure emission.

    ``survivors`` (preference-aware mode) maps a dirty relation to the
    side table of rows whose conflict class is preferred under the
    active family — the dirty alias scopes and the class certification
    then range over preferred classes only.  Relations listed in
    ``resolved`` have exactly one surviving class per conflict group,
    so the preferred repair restricted to them is unique and the plan
    collapses to a plain (``kind="clean"``) evaluation over the
    survivor rows.
    """
    blocking = classification.blocking
    if blocking:  # defensive: callers gate on classification.blocking
        raise NotRewritable(blocking[0].message)
    shape = classification.shape
    assert shape is not None
    if classification.empty_reason is not None:
        return _empty_plan(
            shape.answer_variables, classification.empty_reason
        )

    if classification.forest is not None:
        # Several dirty atoms in a certified key-join forest: the
        # recursive multi-dirty emission (single-dirty plans keep the
        # historical shape below, bit for bit).
        return _compile_forest(classification, schema, survivors)

    atoms = shape.atoms
    answer_variables = shape.answer_variables
    kept_comparisons = classification.kept_comparisons
    profiles = classification.profiles
    dirty_indexes = classification.dirty_indexes

    outer = [f"t{index}" for index in range(len(atoms))]
    outer_conditions, outer_params, outer_columns = _render_body(
        atoms, schema, outer, kept_comparisons
    )
    survivor_table = None
    if dirty_indexes and survivors:
        survivor_table = survivors.get(atoms[dirty_indexes[0]].relation)
        if survivor_table is not None:
            # Possible answers and the outer certification witness both
            # range over preferred rows only: a witness row outside every
            # preferred class appears in no preferred repair.
            outer_conditions.append(
                survivor_condition(outer[dirty_indexes[0]], survivor_table)
            )
    from_outer = ", ".join(
        f"{quote_identifier(atom.relation)} AS {alias}"
        for atom, alias in zip(atoms, outer)
    )
    if answer_variables:
        select_list = ", ".join(
            "{} AS {}".format(outer_columns[name], quote_identifier(f"a{pos}"))
            for pos, name in enumerate(answer_variables)
        )
        possible_sql = (
            f"SELECT DISTINCT {select_list} FROM {from_outer} "
            f"WHERE {_conjoin(outer_conditions)}"
        )
    else:
        possible_sql = (
            f"SELECT 1 FROM {from_outer} "
            f"WHERE {_conjoin(outer_conditions)} LIMIT 1"
        )

    if not dirty_indexes:
        return RewritePlan(
            kind="clean",
            answer_variables=answer_variables,
            certain_sql=possible_sql,
            certain_params=tuple(outer_params),
            possible_sql=possible_sql,
            possible_params=tuple(outer_params),
            description="all mentioned relations are consistent; certain = "
            "possible = plain evaluation",
        )

    dirty = dirty_indexes[0]
    profile = profiles[atoms[dirty].relation]
    if survivor_table is not None and profile.relation in resolved:
        # One surviving class per group: the preferred repair projected
        # onto this relation is unique, so certain = possible = plain
        # evaluation over the survivor rows (the "clean" run path).
        return RewritePlan(
            kind="clean",
            answer_variables=answer_variables,
            certain_sql=possible_sql,
            certain_params=tuple(outer_params),
            possible_sql=possible_sql,
            possible_params=tuple(outer_params),
            description=(
                f"priority resolves {profile.relation!r} to a single "
                "preferred class per group; certain = possible = plain "
                f"evaluation over survivor table {survivor_table!r}"
            ),
        )
    inner = [f"w{index}" for index in range(len(atoms))]
    inner_conditions, inner_params, inner_columns = _render_body(
        atoms, schema, inner, kept_comparisons
    )
    from_inner = ", ".join(
        f"{quote_identifier(atom.relation)} AS {alias}"
        for atom, alias in zip(atoms, inner)
    )
    same_group_alt = [
        f"g.{quote_identifier(attr)} = {outer[dirty]}.{quote_identifier(attr)}"
        for attr in profile.group
    ]
    if survivor_table is not None:
        # Certification quantifies over *preferred* classes only: an
        # answer is certain as soon as every surviving class of the
        # witness group extends to a witness.
        same_group_alt.append(survivor_condition("g", survivor_table))
    witness_in_group = [
        f"{inner[dirty]}.{quote_identifier(attr)} = "
        f"{outer[dirty]}.{quote_identifier(attr)}"
        for attr in profile.group
    ]
    witness_in_class = [
        f"{inner[dirty]}.{quote_identifier(attr)} = g.{quote_identifier(attr)}"
        for attr in profile.classifier
    ]
    same_answer = [
        f"{inner_columns[name]} = {outer_columns[name]}"
        for name in answer_variables
    ]
    witness_sql = (
        f"SELECT 1 FROM {from_inner} WHERE "
        + _conjoin(
            inner_conditions + witness_in_group + witness_in_class + same_answer
        )
    )
    uncertified_class_sql = (
        f"SELECT 1 FROM {quote_identifier(profile.relation)} AS g "
        f"WHERE {_conjoin(same_group_alt)} AND NOT EXISTS ({witness_sql})"
    )
    certified = (
        f"{_conjoin(outer_conditions)} AND NOT EXISTS ({uncertified_class_sql})"
    )
    if answer_variables:
        certain_sql = (
            f"SELECT DISTINCT {select_list} FROM {from_outer} WHERE {certified}"
        )
    else:
        certain_sql = f"SELECT 1 FROM {from_outer} WHERE {certified} LIMIT 1"
    return RewritePlan(
        kind="dirty",
        answer_variables=answer_variables,
        certain_sql=certain_sql,
        certain_params=tuple(outer_params) + tuple(inner_params),
        possible_sql=possible_sql,
        possible_params=tuple(outer_params),
        description=(
            f"one inconsistent atom over {profile.relation!r} "
            f"(groups on {list(profile.group)}, classes on "
            f"{list(profile.classifier)}); certain answers via doubly "
            "nested NOT EXISTS self-join"
            + (
                f" over preferred classes (survivor table {survivor_table!r})"
                if survivor_table is not None
                else ""
            )
        ),
    )


def _compile_forest(
    classification: Classification,
    schema: DatabaseSchema,
    survivors: Optional[Dict[str, str]] = None,
) -> RewritePlan:
    """Emit SQL for a C_forest classification (several dirty atoms).

    One certification per dirty atom, nested along the oriented trees of
    ``classification.forest``: a dirty atom quantifies together with the
    clean atoms of its region, and each dirty child is certified inside
    the parent's witness scope, correlated only through the child's full
    key (read from the attach atom's witness row).  Root certifications
    key on the outer witness directly, exactly like the single-dirty
    plan.

    With ``survivors``, every dirty alias scope — outer witnesses and
    each certification's class enumeration — ranges over preferred rows
    only; relations whose priority resolves them to one class per group
    simply certify trivially (no special casing, unlike the single-dirty
    collapse).
    """
    shape = classification.shape
    forest = classification.forest
    assert shape is not None and forest is not None
    atoms = shape.atoms
    answer_variables = shape.answer_variables
    profiles = classification.profiles
    survivor_map = survivors or {}

    outer = [f"t{index}" for index in range(len(atoms))]
    outer_conditions, outer_params, outer_columns = _render_body(
        atoms, schema, outer, classification.kept_comparisons
    )
    used_survivors = []
    for index in classification.dirty_indexes:
        table = survivor_map.get(atoms[index].relation)
        if table is not None:
            outer_conditions.append(survivor_condition(outer[index], table))
            used_survivors.append(table)
    from_outer = ", ".join(
        f"{quote_identifier(atom.relation)} AS {alias}"
        for atom, alias in zip(atoms, outer)
    )
    if answer_variables:
        select_list = ", ".join(
            "{} AS {}".format(outer_columns[name], quote_identifier(f"a{pos}"))
            for pos, name in enumerate(answer_variables)
        )
        possible_sql = (
            f"SELECT DISTINCT {select_list} FROM {from_outer} "
            f"WHERE {_conjoin(outer_conditions)}"
        )
    else:
        possible_sql = (
            f"SELECT 1 FROM {from_outer} "
            f"WHERE {_conjoin(outer_conditions)} LIMIT 1"
        )

    params: List[Value] = list(outer_params)
    cert_counter = [0]

    def emit_cert(
        dirty: int,
        key_exprs: Sequence[Tuple[str, Tuple[Value, ...]]],
        is_root: bool,
    ) -> str:
        """Certification condition for one dirty atom.

        ``key_exprs`` gives, per group attribute, the SQL expression of
        the key value in the caller's scope (plus its parameters, which
        are re-appended at every textual use so ``params`` stays in
        placeholder order).

        A *child* certification must also assert its key group is
        non-empty: "every class extends to a witness" is vacuously true
        over an empty group, but no repair of an empty group holds any
        row at all.  Root certifications key on an outer witness row,
        which already inhabits the group.
        """
        number = cert_counter[0]
        cert_counter[0] += 1
        profile = profiles[atoms[dirty].relation]
        g_alias = f"g{number}"
        exists_sql = None
        if not is_root:
            exists_alias = f"e{number}"
            exists_conditions = []
            for attribute, (expr, expr_params) in zip(
                profile.group, key_exprs
            ):
                exists_conditions.append(
                    f"{exists_alias}.{quote_identifier(attribute)} = {expr}"
                )
                params.extend(expr_params)
            exists_sql = (
                f"EXISTS (SELECT 1 FROM "
                f"{quote_identifier(profile.relation)} AS {exists_alias} "
                f"WHERE {_conjoin(exists_conditions)})"
            )
        group_conditions = []
        for attribute, (expr, expr_params) in zip(profile.group, key_exprs):
            group_conditions.append(
                f"{g_alias}.{quote_identifier(attribute)} = {expr}"
            )
            params.extend(expr_params)
        table = survivor_map.get(profile.relation)
        if table is not None:
            # Certification quantifies over *preferred* classes only.
            group_conditions.append(survivor_condition(g_alias, table))

        region = forest.regions[dirty]
        region_aliases = [f"w{number}_{k}" for k in range(len(region))]
        conditions, region_params, canonical = _render_body(
            [atoms[index] for index in region], schema, region_aliases, ()
        )
        params.extend(region_params)
        witness = region_aliases[0]  # the dirty atom leads its region
        for attribute, (expr, expr_params) in zip(profile.group, key_exprs):
            conditions.append(
                f"{witness}.{quote_identifier(attribute)} = {expr}"
            )
            params.extend(expr_params)
        for attribute in profile.classifier:
            conditions.append(
                f"{witness}.{quote_identifier(attribute)} = "
                f"{g_alias}.{quote_identifier(attribute)}"
            )
        for name in answer_variables:
            if name in canonical:
                conditions.append(f"{canonical[name]} = {outer_columns[name]}")
        scope = dict(canonical)
        for name in answer_variables:
            # Answer values are pinned, so reading them from the outer
            # witness is sound even outside the region's atoms.
            scope.setdefault(name, outer_columns[name])
        for comparison in forest.region_comparisons.get(dirty, ()):
            operands: List[str] = []
            for term in (comparison.left, comparison.right):
                if isinstance(term, Const):
                    operands.append("?")
                    params.append(term.value)
                else:
                    operands.append(scope[term.name])
            conditions.append(
                f"{operands[0]} {_SQL_OPS[comparison.op]} {operands[1]}"
            )
        for child, attach in forest.children.get(dirty, ()):
            child_profile = profiles[atoms[child].relation]
            relation = schema.relation(atoms[child].relation)
            positions = {
                attribute.name: position
                for position, attribute in enumerate(relation.attributes)
            }
            child_keys: List[Tuple[str, Tuple[Value, ...]]] = []
            for attribute in child_profile.group:
                term = atoms[child].terms[positions[attribute]]
                if isinstance(term, Const):
                    child_keys.append(("?", (term.value,)))
                else:
                    child_keys.append((scope[term.name], ()))
            conditions.append(emit_cert(child, child_keys, is_root=False))
        from_region = ", ".join(
            f"{quote_identifier(atoms[index].relation)} AS {alias}"
            for index, alias in zip(region, region_aliases)
        )
        witness_sql = (
            f"SELECT 1 FROM {from_region} WHERE {_conjoin(conditions)}"
        )
        certification = (
            f"NOT EXISTS (SELECT 1 FROM "
            f"{quote_identifier(profile.relation)} AS {g_alias} "
            f"WHERE {_conjoin(group_conditions)} "
            f"AND NOT EXISTS ({witness_sql}))"
        )
        if exists_sql is not None:
            return f"({exists_sql} AND {certification})"
        return certification

    certifications = []
    for root in forest.roots:
        profile = profiles[atoms[root].relation]
        certifications.append(
            emit_cert(
                root,
                [
                    (f"{outer[root]}.{quote_identifier(attribute)}", ())
                    for attribute in profile.group
                ],
                is_root=True,
            )
        )
    certified = _conjoin(outer_conditions + certifications)
    if answer_variables:
        certain_sql = (
            f"SELECT DISTINCT {select_list} FROM {from_outer} WHERE {certified}"
        )
    else:
        certain_sql = f"SELECT 1 FROM {from_outer} WHERE {certified} LIMIT 1"
    involved = [atoms[index].relation for index in classification.dirty_indexes]
    return RewritePlan(
        kind="forest",
        answer_variables=answer_variables,
        certain_sql=certain_sql,
        certain_params=tuple(params),
        possible_sql=possible_sql,
        possible_params=tuple(outer_params),
        description=(
            f"{len(involved)} inconsistent atoms over {involved} in a "
            f"C_forest key-join forest ({len(forest.roots)} tree(s)); "
            "certain answers via recursive NOT EXISTS certification "
            "per dirty atom"
            + (
                " over preferred classes (survivor tables "
                f"{sorted(set(used_survivors))})"
                if used_survivors
                else ""
            )
        ),
    )


def analyze_query(
    formula: Formula,
    schema: DatabaseSchema,
    dependencies: Sequence[FunctionalDependency],
    variables: Optional[Sequence[str]] = None,
    survivors: Optional[Dict[str, str]] = None,
    resolved: AbstractSet[str] = frozenset(),
    classification: Optional[Classification] = None,
) -> RewriteDecision:
    """Decide whether ``formula`` is rewritable and compile it if so.

    ``formula`` must already be validated against ``schema`` (relation
    names and arities); ``variables`` fixes the answer-column order like
    :meth:`CqaEngine.certain_answers` does.  ``survivors`` and
    ``resolved`` switch :func:`compile_plan` into its preference-aware
    mode (see there).  A caller that already classified this formula
    against this schema, dependencies and variables (a
    :class:`~repro.analysis.RouteReport` carries one) passes it as
    ``classification``; otherwise it is computed here.

    The returned decision carries the classifier's diagnostics; on
    fallback, ``reason`` is the first blocker's message — the exact
    string the historical fail-fast analysis raised.
    """
    if classification is None:
        classification = classify(formula, schema, dependencies, variables)
    blocking = classification.blocking
    if blocking:
        return RewriteDecision(
            None, blocking[0].message, diagnostics=classification.diagnostics
        )
    plan = compile_plan(classification, schema, survivors, resolved)
    return RewriteDecision(
        plan, None, diagnostics=classification.diagnostics
    )
