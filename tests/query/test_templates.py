"""Constant lifting: a text's key parses into its template.

:func:`lift_literals` marks a text's number and quoted literals in one
regex pass and :func:`parse_template` reads the marks as slots, so
binding the template to the lifted values must give back exactly the
formula :func:`parse_query` builds from the text.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import QueryError
from repro.query.ast import Const, Slot, bind
from repro.query.parser import lift_literals, parse_query, parse_template

TEXTS = [
    # Identifiers with digits are names, not literals.
    ("EXISTS b1, x_2 . R(b1, x_2, 7)", (7,)),
    # Comments go, whatever they hold.
    ("R(k, 1, b) # 42 'x' \"y\" # z\nAND k > 3", (1, 3)),
    # Quotes, escapes and comment marks inside strings.
    ("R(k, 'it\\'s', \"a#1\")", ("it's", "a#1")),
    # Uppercase name constants stay in the key.
    ("R(Mary, 'Mary', 0)", ("Mary", 0)),
    # Repeated literals and constant-constant comparisons.
    ("R(k, 5, b) AND 5 = 5 AND 'x' != 'y'", (5, 5, 5, "x", "y")),
    # Unicode connectives and digits read as the tokenizer reads them.
    ("∃ b . R(٣, 2, b) ∧ b ≠ 'é'", (3, 2, "é")),
    ("R(k, 5\u0663, b) AND k > \u06635", (53, 35)),
    # A number right after a keyword is read whole, and stays unlifted
    # when it starts with a digit outside ASCII.
    ("R(k, 1, b) AND\u06635 > k", (1,)),
    # A literal right after another token.
    ("R(k,1,b)AND k>=20", (1, 20)),
    # No literal at all.
    ("EXISTS a . R(a, b, Mary)", ()),
]


@pytest.mark.parametrize("text, values", TEXTS)
def test_the_template_binds_back_to_the_texts_formula(text, values):
    key, lifted = lift_literals(text)
    assert lifted == values
    template = parse_template(key)
    assert bind(template, lifted) == parse_query(text)


def test_texts_differing_only_in_literals_share_a_key():
    first = lift_literals("R(k, 1, 'a') AND k > 2 # note 3")
    second = lift_literals("R(k, 10, 'bc') AND k > 0 # other")
    assert first[0] == second[0]
    assert (first[1], second[1]) == ((1, "a", 2), (10, "bc", 0))


def test_slots_carry_their_position_and_domain():
    key, _ = lift_literals("R(k, 1, 'a') AND k > 2")
    slots = [
        term.value
        for atom_or_cmp in parse_template(key).parts
        for term in getattr(atom_or_cmp, "terms", None)
        or (atom_or_cmp.left, atom_or_cmp.right)
        if isinstance(term, Const) and isinstance(term.value, Slot)
    ]
    assert slots == [Slot(0, True), Slot(1, False), Slot(2, True)]


def _templated(text: str):
    """The text's formula through its template."""
    key, values = lift_literals(text)
    return bind(parse_template(key), values)


def test_a_mark_in_a_literal_or_a_comment_is_just_a_character():
    text = "R(k, '\ue000', b) # \ue001"
    assert _templated(text) == parse_query(text)


# Characters that start, end or escape a literal or a comment, or sit
# next to one, and a few that no token starts with.
_ALPHABET = "R(k,a1b)' \"\\#\n5\u0663 AND=>.\ue000$"


@st.composite
def _edited_texts(draw):
    """A valid text with a few characters inserted, replaced or
    deleted: about a third of them still parse."""
    text = list(draw(st.sampled_from([text for text, _ in TEXTS])))
    for _ in range(draw(st.integers(0, 3))):
        position = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert":
            text.insert(position, draw(st.sampled_from(_ALPHABET)))
        elif text:
            position = min(position, len(text) - 1)
            if edit == "replace":
                text[position] = draw(st.sampled_from(_ALPHABET))
            else:
                del text[position]
    return "".join(text)


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(st.text(alphabet=_ALPHABET, max_size=24), _edited_texts()))
def test_a_text_that_parses_has_a_key_that_parses_the_same_way(text):
    try:
        formula = parse_query(text)
    except QueryError:
        return
    assert _templated(text) == formula
