"""Abstract syntax of first-order queries.

The paper queries databases with closed first-order formulas over the
alphabet of the relation symbols plus the binary comparison symbols
``=``, ``!=``, ``<``, ``>`` (Section 2); we additionally support ``<=``
and ``>=`` as derived comparisons.  Open formulas (with free variables)
are supported along the lines of [1, 7] for certain-answer computation.

Terms are variables or constants; formulas are atoms, comparisons and
the usual connectives/quantifiers.  All AST nodes are immutable and
hashable, and support substitution and free-variable computation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import FrozenSet, Mapping, Sequence, Tuple, Union

from repro.exceptions import QueryError
from repro.relational.domain import Value

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """A first-order variable."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A constant: an uninterpreted name (str) or a natural number (int)."""

    value: Value

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


Term = Union[Var, Const]


def coerce_term(term: Union[Term, Value]) -> Term:
    """Lift raw Python values into :class:`Const`; pass terms through."""
    if isinstance(term, (Var, Const)):
        return term
    if isinstance(term, bool):
        raise QueryError(f"booleans are not database values: {term!r}")
    if isinstance(term, (str, int)):
        return Const(term)
    raise QueryError(f"cannot use {term!r} as a query term")


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class Formula:
    """Base class of all formula nodes."""

    __slots__ = ()

    def free_variables(self) -> FrozenSet[str]:
        """Names of free variables of the formula."""
        raise NotImplementedError

    def substitute(self, binding: Mapping[str, Value]) -> "Formula":
        """Replace free variables by constants according to ``binding``."""
        raise NotImplementedError

    @property
    def is_closed(self) -> bool:
        """Whether the formula has no free variables (a boolean query)."""
        return not self.free_variables()

    # Connective sugar ------------------------------------------------------

    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return Not(self)

    def implies(self, other: "Formula") -> "Formula":
        return Implies(self, other)

    # Hashing ---------------------------------------------------------------

    def __hash__(self) -> int:
        # Formulas key the decision, witness-index and answer caches, and
        # a structural hash walks the whole tree, so each node hashes
        # once.  ``str`` hashes are salted per interpreter: the cached
        # value must never be pickled (see __reduce__).
        try:
            return self._hash
        except AttributeError:
            value = self._tree_hash()
            object.__setattr__(self, "_hash", value)
            return value

    def _tree_hash(self) -> int:
        raise NotImplementedError

    def __reduce__(self):
        # Rebuild through __init__, leaving the cached hash behind.
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))


def _node(cls):
    """``@dataclass(frozen=True)`` for a formula node, keeping the
    dataclass's structural hash as :meth:`Formula._tree_hash` behind the
    once-per-node :meth:`Formula.__hash__`."""
    cls = dataclass(frozen=True)(cls)
    cls._tree_hash = cls.__hash__
    cls.__hash__ = Formula.__hash__
    return cls


def _substitute_term(term: Term, binding: Mapping[str, Value]) -> Term:
    if isinstance(term, Var) and term.name in binding:
        return Const(binding[term.name])
    return term


@_node
class TrueFormula(Formula):
    """The constant-true formula."""

    def free_variables(self) -> FrozenSet[str]:
        return frozenset()

    def substitute(self, binding: Mapping[str, Value]) -> Formula:
        return self

    def __str__(self) -> str:
        return "TRUE"


@_node
class FalseFormula(Formula):
    """The constant-false formula."""

    def free_variables(self) -> FrozenSet[str]:
        return frozenset()

    def substitute(self, binding: Mapping[str, Value]) -> Formula:
        return self

    def __str__(self) -> str:
        return "FALSE"


@_node
class Atom(Formula):
    """A relational atom ``R(t1, ..., tk)``."""

    relation: str
    terms: Tuple[Term, ...]

    def __init__(self, relation: str, terms: Sequence[Union[Term, Value]]) -> None:
        object.__setattr__(self, "relation", relation)
        object.__setattr__(
            self, "terms", tuple(coerce_term(term) for term in terms)
        )

    def free_variables(self) -> FrozenSet[str]:
        return frozenset(term.name for term in self.terms if isinstance(term, Var))

    def substitute(self, binding: Mapping[str, Value]) -> Formula:
        return Atom(self.relation, [_substitute_term(t, binding) for t in self.terms])

    @property
    def is_ground(self) -> bool:
        return all(isinstance(term, Const) for term in self.terms)

    def __str__(self) -> str:
        inner = ", ".join(str(term) for term in self.terms)
        return f"{self.relation}({inner})"


#: Comparison operators with their Python semantics on naturals.
COMPARISON_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}

#: Operators meaningful on every domain (names and naturals alike).
EQUALITY_OPS = frozenset({"=", "!="})

_NEGATED_OP = {"=": "!=", "!=": "=", "<": ">=", ">": "<=", "<=": ">", ">=": "<"}


@_node
class Comparison(Formula):
    """A comparison ``t1 op t2`` with op in =, !=, <, >, <=, >=.

    Order comparisons (``<`` etc.) have the natural interpretation over
    the naturals ``N`` only; applied to uninterpreted names they are
    *false* (the ordering relation does not hold outside ``N``).
    """

    op: str
    left: Term
    right: Term

    def __init__(
        self, op: str, left: Union[Term, Value], right: Union[Term, Value]
    ) -> None:
        if op not in COMPARISON_OPS:
            raise QueryError(f"unknown comparison operator {op!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", coerce_term(left))
        object.__setattr__(self, "right", coerce_term(right))

    def free_variables(self) -> FrozenSet[str]:
        names = set()
        for term in (self.left, self.right):
            if isinstance(term, Var):
                names.add(term.name)
        return frozenset(names)

    def substitute(self, binding: Mapping[str, Value]) -> Formula:
        return Comparison(
            self.op,
            _substitute_term(self.left, binding),
            _substitute_term(self.right, binding),
        )

    def negated(self) -> "Comparison":
        """The complementary comparison (used by DNF conversion)."""
        return Comparison(_NEGATED_OP[self.op], self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@_node
class Not(Formula):
    """Negation."""

    body: Formula

    def free_variables(self) -> FrozenSet[str]:
        return self.body.free_variables()

    def substitute(self, binding: Mapping[str, Value]) -> Formula:
        return Not(self.body.substitute(binding))

    def __str__(self) -> str:
        return f"NOT ({self.body})"


def _flatten(cls, parts: Sequence[Formula]) -> Tuple[Formula, ...]:
    flat = []
    for part in parts:
        if isinstance(part, cls):
            flat.extend(part.parts)
        else:
            flat.append(part)
    return tuple(flat)


@_node
class And(Formula):
    """N-ary conjunction (nested conjunctions are flattened)."""

    parts: Tuple[Formula, ...]

    def __init__(self, parts: Sequence[Formula]) -> None:
        if not parts:
            raise QueryError("conjunction needs at least one conjunct")
        object.__setattr__(self, "parts", _flatten(And, parts))

    def free_variables(self) -> FrozenSet[str]:
        return frozenset().union(*(part.free_variables() for part in self.parts))

    def substitute(self, binding: Mapping[str, Value]) -> Formula:
        return And([part.substitute(binding) for part in self.parts])

    def __str__(self) -> str:
        return " AND ".join(f"({part})" for part in self.parts)


@_node
class Or(Formula):
    """N-ary disjunction (nested disjunctions are flattened)."""

    parts: Tuple[Formula, ...]

    def __init__(self, parts: Sequence[Formula]) -> None:
        if not parts:
            raise QueryError("disjunction needs at least one disjunct")
        object.__setattr__(self, "parts", _flatten(Or, parts))

    def free_variables(self) -> FrozenSet[str]:
        return frozenset().union(*(part.free_variables() for part in self.parts))

    def substitute(self, binding: Mapping[str, Value]) -> Formula:
        return Or([part.substitute(binding) for part in self.parts])

    def __str__(self) -> str:
        return " OR ".join(f"({part})" for part in self.parts)


@_node
class Implies(Formula):
    """Implication ``antecedent -> consequent``."""

    antecedent: Formula
    consequent: Formula

    def free_variables(self) -> FrozenSet[str]:
        return self.antecedent.free_variables() | self.consequent.free_variables()

    def substitute(self, binding: Mapping[str, Value]) -> Formula:
        return Implies(
            self.antecedent.substitute(binding),
            self.consequent.substitute(binding),
        )

    def __str__(self) -> str:
        return f"({self.antecedent}) IMPLIES ({self.consequent})"


class _Quantifier(Formula):
    """Shared machinery of EXISTS/FORALL."""

    __slots__ = ("variables", "body")

    def __init__(self, variables: Sequence[str], body: Formula) -> None:
        if not variables:
            raise QueryError("quantifier needs at least one variable")
        if len(set(variables)) != len(variables):
            raise QueryError(f"duplicate quantified variables: {variables}")
        self.variables = tuple(variables)
        self.body = body

    def free_variables(self) -> FrozenSet[str]:
        return self.body.free_variables() - frozenset(self.variables)

    def _substituted_body(self, binding: Mapping[str, Value]) -> Formula:
        safe = {
            name: value
            for name, value in binding.items()
            if name not in self.variables
        }
        return self.body.substitute(safe)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.variables == other.variables and self.body == other.body

    __hash__ = Formula.__hash__

    def _tree_hash(self) -> int:
        return hash((type(self).__name__, self.variables, self.body))

    def __reduce__(self):
        return (type(self), (self.variables, self.body))


class Exists(_Quantifier):
    """Existential quantification over a block of variables."""

    def substitute(self, binding: Mapping[str, Value]) -> Formula:
        return Exists(self.variables, self._substituted_body(binding))

    def __str__(self) -> str:
        return f"EXISTS {', '.join(self.variables)} . ({self.body})"


class Forall(_Quantifier):
    """Universal quantification over a block of variables."""

    def substitute(self, binding: Mapping[str, Value]) -> Formula:
        return Forall(self.variables, self._substituted_body(binding))

    def __str__(self) -> str:
        return f"FORALL {', '.join(self.variables)} . ({self.body})"


# ---------------------------------------------------------------------------
# Structural helpers used across the library
# ---------------------------------------------------------------------------


def constants_of(formula: Formula) -> FrozenSet[Value]:
    """All constant values mentioned in the formula."""
    found = set()

    def walk(node: Formula) -> None:
        if isinstance(node, Atom):
            found.update(t.value for t in node.terms if isinstance(t, Const))
        elif isinstance(node, Comparison):
            for term in (node.left, node.right):
                if isinstance(term, Const):
                    found.add(term.value)
        elif isinstance(node, Not):
            walk(node.body)
        elif isinstance(node, (And, Or)):
            for part in node.parts:
                walk(part)
        elif isinstance(node, Implies):
            walk(node.antecedent)
            walk(node.consequent)
        elif isinstance(node, (Exists, Forall)):
            walk(node.body)

    walk(formula)
    return frozenset(found)


def relations_of(formula: Formula) -> FrozenSet[str]:
    """All relation names mentioned in the formula's atoms."""
    found = set()

    def walk(node: Formula) -> None:
        if isinstance(node, Atom):
            found.add(node.relation)
        elif isinstance(node, Not):
            walk(node.body)
        elif isinstance(node, (And, Or)):
            for part in node.parts:
                walk(part)
        elif isinstance(node, Implies):
            walk(node.antecedent)
            walk(node.consequent)
        elif isinstance(node, (Exists, Forall)):
            walk(node.body)

    walk(formula)
    return frozenset(found)


def is_quantifier_free(formula: Formula) -> bool:
    """Whether the formula contains no quantifier ({∀,∃}-free in Fig. 5)."""
    if isinstance(formula, (Exists, Forall)):
        return False
    if isinstance(formula, Not):
        return is_quantifier_free(formula.body)
    if isinstance(formula, (And, Or)):
        return all(is_quantifier_free(part) for part in formula.parts)
    if isinstance(formula, Implies):
        return is_quantifier_free(formula.antecedent) and is_quantifier_free(
            formula.consequent
        )
    return True


def is_ground(formula: Formula) -> bool:
    """Whether the formula is quantifier-free and variable-free."""
    return is_quantifier_free(formula) and formula.is_closed
