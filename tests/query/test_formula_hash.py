"""Formula nodes hash once, and the cached hash never leaves the process.

Formulas key the decision, witness-index and answer caches, so each node
keeps its structural hash after the first call.  ``str`` hashes are
salted per interpreter, so a pickled formula must carry no hash: the
receiving process recomputes its own.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.cache import BoundedCache
from repro.query.ast import And, Atom, Exists, Forall, Implies, Not, Or, Var
from repro.query.parser import parse_query

TEXT = (
    "EXISTS x, y, z . R(x, y) AND R(y, z) AND NOT R(z, 1) AND x < 3 "
    "AND (S(x) OR (FORALL w . S(w) IMPLIES TRUE))"
)
SRC = str(Path(__file__).resolve().parents[2] / "src")


def _nodes(formula):
    yield formula
    if isinstance(formula, (Exists, Forall, Not)):
        yield from _nodes(formula.body)
    elif isinstance(formula, (And, Or)):
        for part in formula.parts:
            yield from _nodes(part)
    elif isinstance(formula, Implies):
        yield from _nodes(formula.antecedent)
        yield from _nodes(formula.consequent)


def test_each_node_computes_its_hash_once(monkeypatch):
    formula = parse_query(TEXT)
    calls = []
    for cls in {type(node) for node in _nodes(formula)}:
        original = cls._tree_hash

        def counting(self, original=original):
            calls.append(type(self).__name__)
            return original(self)

        monkeypatch.setattr(cls, "_tree_hash", counting)
    first = hash(formula)
    computed = len(calls)
    assert computed == len(list(_nodes(formula)))
    assert hash(formula) == first and hash(parse_query(TEXT)) == first
    assert len(calls) == 2 * computed  # the fresh parse, not the first tree


def test_a_pickle_round_trip_drops_the_cached_hash():
    formula = parse_query(TEXT)
    hash(formula)
    copy = pickle.loads(pickle.dumps(formula))
    assert all("_hash" not in vars(node) for node in _nodes(copy))
    assert copy == formula and hash(copy) == hash(formula)
    cache = BoundedCache(4, "formula_test")
    cache.put((formula, ("x",)), "stored")
    assert cache.get((copy, ("x",))) == "stored"


def test_equal_formulas_hash_equal_whatever_was_hashed_first():
    quantified = Exists(["x"], Atom("R", [Var("x"), 1]))
    again = Exists(["x"], Atom("R", [Var("x"), 1]))
    hash(again.body)
    assert quantified == again and hash(quantified) == hash(again)


_LOOKUP = """
import pickle, sys
from repro.query.parser import parse_query
received = pickle.loads(sys.stdin.buffer.read())
table = {parse_query(%r): "found"}
print(table.get(received, "missing"))
"""


def test_a_formula_hashed_here_is_found_under_another_hash_seed():
    formula = parse_query(TEXT)
    hash(formula)
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    result = subprocess.run(
        [sys.executable, "-c", _LOOKUP % TEXT],
        input=pickle.dumps(formula),
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC),
        capture_output=True, check=True,
    )
    assert result.stdout.decode().strip() == "found"
