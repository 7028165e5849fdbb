"""Schema validation of formulas.

The evaluator is schema-agnostic (it sees only value tuples), so an
atom with the wrong arity or a misspelled relation name would silently
evaluate to false.  When a schema is available, :func:`check_against_schema`
turns such mistakes into loud :class:`QueryError` diagnostics, and
:func:`parse_checked` is the one front door every engine parses through.
"""

from __future__ import annotations

from typing import Union

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
)
from repro.query.parser import parse_query
from repro.relational.schema import DatabaseSchema


def parse_checked(
    query: Union[str, Formula], schema: DatabaseSchema
) -> Formula:
    """Parse ``query`` if it is a string, then validate the formula
    against ``schema``; both steps run inside the ``parse`` span."""
    with obs_span("parse"):
        formula = parse_query(query) if isinstance(query, str) else query
        return check_against_schema(formula, schema)


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
