"""Recursive-descent parser for the paper's first-order query syntax.

Grammar (case-insensitive keywords, ``#`` comments to end of line)::

    formula     := quantified
    quantified  := (EXISTS | FORALL) var ("," var)* "." quantified
                 | implication
    implication := disjunction (IMPLIES quantified)?
    disjunction := conjunction (OR conjunction)*
    conjunction := negation (AND negation)*
    negation    := NOT negation | primary
    primary     := "(" formula ")" | TRUE | FALSE | atom | comparison
    atom        := RelName "(" term ("," term)* ")"
    comparison  := term ("=" | "!=" | "<>" | "<" | ">" | "<=" | ">=") term
    term        := variable | constant

Identifier convention (matching the paper's typography): identifiers
beginning with a lowercase letter are *variables* (``x1``, ``y``);
identifiers beginning with an uppercase letter are *name constants*
(``Mary``) — except immediately before ``(`` where they are relation
names.  Quoted strings (``'R&D'``) are always name constants; decimal
literals are natural-number constants.  Unicode connectives ``∃ ∀ ∧ ∨ ¬
→ ≠ ≤ ≥`` are accepted as aliases.

Example (query Q1 of the paper)::

    EXISTS x1, y1, z1, x2, y2, z2 .
        Mgr(Mary, x1, y1, z1) AND Mgr(John, x2, y2, z2) AND y1 < y2
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.exceptions import QuerySyntaxError
from repro.query.ast import (
    And,
    Atom,
    Comparison,
    Const,
    Exists,
    FalseFormula,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Slot,
    Term,
    TrueFormula,
    Var,
)
from repro.relational.domain import Value

#: What a number and a quoted literal become in a template key (see
#: :func:`lift_literals`): private-use code points, which the tokenizer
#: reads as slots in a key and rejects in a query text.
_NUMBER_MARK = "\ue000"
_NAME_MARK = "\ue001"

_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<number>\d+)
  | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|!=|<>|≠|≤|≥|=|<|>)
  | (?P<punct>[(),.])
  | (?P<unicode>[∃∀∧∨¬→])
  | (?P<slot>[{_NUMBER_MARK}{_NAME_MARK}])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"EXISTS", "FORALL", "AND", "OR", "NOT", "IMPLIES", "TRUE", "FALSE"}

_UNICODE_ALIASES = {
    "∃": "EXISTS",
    "∀": "FORALL",
    "∧": "AND",
    "∨": "OR",
    "¬": "NOT",
    "→": "IMPLIES",
}

_OP_ALIASES = {"<>": "!=", "≠": "!=", "≤": "<=", "≥": ">="}


@dataclass(frozen=True)
class _Token:
    kind: str  # keyword | ident | number | string | slot | op | punct | eof
    text: str
    position: int


def _tokenize(text: str, template: bool = False) -> List[_Token]:
    """The tokens of ``text``; of a template key (see
    :func:`lift_literals`) when ``template``, where marks are slots."""
    tokens: List[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None or (match.lastgroup == "slot" and not template):
            raise QuerySyntaxError(
                f"unexpected character {text[position]!r} at offset {position}"
            )
        position = match.end()
        if match.lastgroup == "ws":
            continue
        value = match.group()
        if match.lastgroup == "ident":
            upper = value.upper()
            if upper in _KEYWORDS:
                tokens.append(_Token("keyword", upper, match.start()))
            else:
                tokens.append(_Token("ident", value, match.start()))
        elif match.lastgroup == "unicode":
            tokens.append(_Token("keyword", _UNICODE_ALIASES[value], match.start()))
        elif match.lastgroup == "op":
            tokens.append(_Token("op", _OP_ALIASES.get(value, value), match.start()))
        elif match.lastgroup == "number":
            tokens.append(_Token("number", value, match.start()))
        elif match.lastgroup == "string":
            tokens.append(_Token("string", value, match.start()))
        elif match.lastgroup == "slot":
            tokens.append(_Token("slot", value, match.start()))
        else:
            tokens.append(_Token("punct", value, match.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


def _unquote(literal: str) -> str:
    body = literal[1:-1]
    return re.sub(r"\\(.)", r"\1", body)


#: The comments and literals of a query text, read as :data:`_TOKEN_RE`
#: reads them.  Every match starts with one of ``# ' "`` or a digit,
#: which lets the engine skip to those characters.  A digit run counts
#: only where it starts a token: ``b1`` and ``x_2`` are names, and after
#: a name or a non-ASCII digit a digit is inside the run that began
#: there.
_LITERAL_RE = re.compile(
    r"[#'\"\d](?:(?<=\#)[^\n]*"
    r"|(?<=')(?:[^'\\]|\\.)*'"
    r'|(?<=")(?:[^"\\]|\\.)*"'
    r"|(?<![A-Za-z_\d]\d)\d*)"
)


def lift_literals(text: str) -> Tuple[str, Tuple[Value, ...]]:
    """One pass over ``text``: ``(key, values)``, where ``key`` is the
    text with each number and quoted literal replaced by a mark of its
    domain and each comment by a space, and ``values`` are the
    literals' values in text order — the constants
    :func:`parse_query` would build for them.

    Texts that differ only in their literals (and comments) share a
    key, which :func:`parse_template` parses.  Name constants written
    as identifiers (``Mary``) are part of the key, not values.
    """
    values: List[Value] = []

    def mark(match: "re.Match[str]") -> str:
        literal = match.group()
        first = literal[0]
        if first == "#":
            return " "
        if first == "'" or first == '"':
            values.append(_unquote(literal))
            return _NAME_MARK
        values.append(int(literal))
        return _NUMBER_MARK

    return _LITERAL_RE.sub(mark, text), tuple(values)


class _Parser:
    def __init__(self, text: str, template: bool = False) -> None:
        self._text = text
        self._tokens = _tokenize(text, template)
        self._index = 0
        self.slots = 0

    # Token helpers ---------------------------------------------------------

    @property
    def _current(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._current
        self._index += 1
        return token

    def _error(self, message: str) -> QuerySyntaxError:
        token = self._current
        where = f"offset {token.position}" if token.kind != "eof" else "end of input"
        return QuerySyntaxError(f"{message} at {where} (near {token.text!r})")

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        token = self._current
        if token.kind == kind and (text is None or token.text == text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> _Token:
        token = self._accept(kind, text)
        if token is None:
            raise self._error(f"expected {text or kind}")
        return token

    # Grammar ---------------------------------------------------------------

    def parse(self) -> Formula:
        formula = self._formula()
        if self._current.kind != "eof":
            raise self._error("trailing input after formula")
        return formula

    def _formula(self) -> Formula:
        return self._quantified()

    def _quantified(self) -> Formula:
        for keyword, node in (("EXISTS", Exists), ("FORALL", Forall)):
            if self._accept("keyword", keyword):
                variables = [self._variable_name()]
                while self._accept("punct", ","):
                    variables.append(self._variable_name())
                self._expect("punct", ".")
                return node(variables, self._quantified())
        return self._implication()

    def _variable_name(self) -> str:
        token = self._expect("ident")
        if not token.text[0].islower() and token.text[0] != "_":
            raise QuerySyntaxError(
                f"quantified variable {token.text!r} must start lowercase "
                f"(offset {token.position})"
            )
        return token.text

    def _implication(self) -> Formula:
        left = self._disjunction()
        if self._accept("keyword", "IMPLIES"):
            return Implies(left, self._quantified())
        return left

    def _disjunction(self) -> Formula:
        parts = [self._conjunction()]
        while self._accept("keyword", "OR"):
            parts.append(self._conjunction())
        return parts[0] if len(parts) == 1 else Or(parts)

    def _conjunction(self) -> Formula:
        parts = [self._negation()]
        while self._accept("keyword", "AND"):
            parts.append(self._negation())
        return parts[0] if len(parts) == 1 else And(parts)

    def _negation(self) -> Formula:
        if self._accept("keyword", "NOT"):
            return Not(self._negation())
        return self._primary()

    def _primary(self) -> Formula:
        if self._accept("punct", "("):
            inner = self._formula()
            self._expect("punct", ")")
            return inner
        if self._accept("keyword", "TRUE"):
            return TrueFormula()
        if self._accept("keyword", "FALSE"):
            return FalseFormula()
        if (
            self._current.kind == "ident"
            and self._peek_is_punct(1, "(")
        ):
            return self._atom()
        left = self._term()
        op_token = self._expect("op")
        right = self._term()
        return Comparison(op_token.text, left, right)

    def _peek_is_punct(self, offset: int, text: str) -> bool:
        index = self._index + offset
        if index >= len(self._tokens):
            return False
        token = self._tokens[index]
        return token.kind == "punct" and token.text == text

    def _atom(self) -> Formula:
        relation = self._expect("ident").text
        self._expect("punct", "(")
        terms = [self._term()]
        while self._accept("punct", ","):
            terms.append(self._term())
        self._expect("punct", ")")
        return Atom(relation, terms)

    def _term(self) -> Term:
        token = self._current
        if token.kind == "number":
            self._advance()
            return Const(int(token.text))
        if token.kind == "string":
            self._advance()
            return Const(_unquote(token.text))
        if token.kind == "ident":
            self._advance()
            if token.text[0].islower() or token.text[0] == "_":
                return Var(token.text)
            return Const(token.text)
        if token.kind == "slot":
            self._advance()
            self.slots += 1
            return Const(Slot(self.slots - 1, token.text == _NUMBER_MARK))
        raise self._error("expected a term (variable or constant)")


def parse_query(text: str) -> Formula:
    """Parse query text into a :class:`~repro.query.ast.Formula`."""
    return _Parser(text).parse()


def parse_template(key: str) -> Formula:
    """Parse the key :func:`lift_literals` made of a text into the
    text's *template*: its formula with the ``i``-th lifted literal a
    ``Const(Slot(i, ...))``, which the ``i``-th of the text's values
    fills.  The key tokenizes as the text does, each literal a slot and
    each comment a space, so the key of a text that :func:`parse_query`
    reads parses the same way."""
    return _Parser(key, template=True).parse()
