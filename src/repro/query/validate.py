"""Schema validation of formulas.

The evaluator is schema-agnostic (it sees only value tuples), so an
atom with the wrong arity or a misspelled relation name would silently
evaluate to false.  When a schema is available, :func:`check_against_schema`
turns such mistakes into loud :class:`QueryError` diagnostics, and
:func:`parse_checked` is the one front door every engine parses through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from repro.exceptions import QueryError
from repro.obs import span as obs_span
from repro.query.ast import (
    And,
    Atom,
    Comparison,
    Exists,
    FalseFormula,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    TrueFormula,
    bind,
)
from repro.query.parser import parse_query, parse_template
from repro.relational.domain import Value
from repro.relational.schema import DatabaseSchema


@dataclass(frozen=True)
class CheckedQuery:
    """A formula already checked against the schema of the engine it is
    handed to, so the engine skips the ``parse`` span and the check.

    ``formula`` may be a template (see :func:`repro.query.parser.
    parse_template`); ``values`` then fill its slots.  The service
    broker serves through these: it checks each query shape once, in
    its work unit.
    """

    formula: Formula
    values: Tuple[Value, ...] = ()


def checked(
    query: Union[str, Formula, CheckedQuery], schema: DatabaseSchema
) -> CheckedQuery:
    """``query`` checked against ``schema`` once: a :class:`CheckedQuery`
    passes as is (a template stays a template), anything else goes
    through :func:`parse_checked`."""
    if isinstance(query, CheckedQuery):
        return query
    return CheckedQuery(parse_checked(query, schema))


def parse_checked(
    query: Union[str, Formula, CheckedQuery], schema: DatabaseSchema
) -> Formula:
    """Parse ``query`` if it is a string, then validate the formula
    against ``schema``; both steps run inside the ``parse`` span.  A
    :class:`CheckedQuery` was checked already: its formula returns as
    is, its slots filled."""
    if isinstance(query, CheckedQuery):
        if query.values:
            return bind(query.formula, query.values)
        return query.formula
    with obs_span("parse"):
        formula = parse_query(query) if isinstance(query, str) else query
        return check_against_schema(formula, schema)


def parse_template_checked(
    text: str, key: str, schema: DatabaseSchema
) -> Tuple[Formula, Formula]:
    """``text``'s formula and its template: the text's key (see
    :func:`repro.query.parser.lift_literals`) parsed, each literal a
    slot.  The text is parsed and validated against ``schema`` first,
    all inside the ``parse`` span, so a bad text raises its own error;
    a text that parses has a key that parses the same way."""
    with obs_span("parse"):
        formula = check_against_schema(parse_query(text), schema)
        return formula, parse_template(key)


def check_against_schema(formula: Formula, schema: DatabaseSchema) -> Formula:
    """Validate every atom's relation name and arity; return the formula."""
    _walk(formula, schema)
    return formula


def _walk(node: Formula, schema: DatabaseSchema) -> None:
    if isinstance(node, Atom):
        if not schema.has_relation(node.relation):
            raise QueryError(
                f"query mentions unknown relation {node.relation!r} "
                f"(schema has {sorted(schema.relation_names)})"
            )
        expected = schema.relation(node.relation).arity
        if len(node.terms) != expected:
            raise QueryError(
                f"atom {node} has {len(node.terms)} terms but relation "
                f"{node.relation!r} has arity {expected}"
            )
    elif isinstance(node, Not):
        _walk(node.body, schema)
    elif isinstance(node, (And, Or)):
        for part in node.parts:
            _walk(part, schema)
    elif isinstance(node, Implies):
        _walk(node.antecedent, schema)
        _walk(node.consequent, schema)
    elif isinstance(node, (Exists, Forall)):
        _walk(node.body, schema)
    elif not isinstance(node, (Comparison, TrueFormula, FalseFormula)):
        raise TypeError(f"unexpected formula node {node!r}")
