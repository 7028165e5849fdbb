"""The theory half of the analysis: digested once, order-independent.

A :class:`~repro.analysis.Theory` carries the schema, FDs, priority
edges and duplicate-row relations; :func:`~repro.analysis.analyze` does
only query work on top of it.  These tests pin that a prebuilt theory
gives the one-shot report, that the digest does not depend on the order
(or the hash seed) in which the theory's parts are iterated, and that
the report keeps the classification it was built from.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import Theory, analyze, classify
from repro.constraints.fd import FunctionalDependency
from repro.query.parser import parse_query
from repro.query.validate import check_against_schema
from repro.relational.rows import Row
from repro.relational.schema import DatabaseSchema, RelationSchema

R = RelationSchema("R", ["K", "A:number"])
S = RelationSchema("S", ["A:number", "C"])
SCHEMA = DatabaseSchema([R, S])
FDS = [
    FunctionalDependency.parse("K -> A", "R"),
    FunctionalDependency.parse("A -> C", "S"),
]
PRIORITY = [
    (Row(R, ["k1", 1]), Row(R, ["k1", 0])),
    (Row(R, ["k2", 3]), Row(R, ["k2", 2])),
    (Row(S, [1, "c"]), Row(S, [1, "d"])),
]
TEXTS = (
    "EXISTS k . R(k, 1)",
    "EXISTS a . R(k, a) AND S(a, 'c')",
    "R(k, a) OR S(a, 'd')",
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _formula(text):
    return check_against_schema(parse_query(text), SCHEMA)


def test_a_prebuilt_theory_gives_the_one_shot_report():
    theory = Theory(SCHEMA, FDS, PRIORITY)
    for text in TEXTS:
        formula = _formula(text)
        once = analyze(SCHEMA, FDS, formula, priority=PRIORITY)
        shared = analyze(SCHEMA, FDS, formula, theory=theory)
        assert shared == once
        assert shared.fingerprint == once.fingerprint
        assert shared.to_dict() == once.to_dict()


def test_the_digest_ignores_the_order_of_the_theory_parts():
    forward = Theory(SCHEMA, FDS, PRIORITY, {"R", "S"})
    backward = Theory(
        DatabaseSchema([S, R]), FDS[::-1], PRIORITY[::-1], ["S", "R"]
    )
    assert forward.digest == backward.digest
    assert forward.prioritized == backward.prioritized == {"R", "S"}


def test_each_theory_part_changes_the_digest():
    digest = Theory(SCHEMA, FDS, PRIORITY).digest
    assert Theory(SCHEMA, FDS[:1], PRIORITY).digest != digest
    assert Theory(SCHEMA, FDS, PRIORITY[:2]).digest != digest
    assert Theory(SCHEMA, FDS, PRIORITY, {"R"}).digest != digest
    assert Theory(DatabaseSchema([R]), FDS[:1], PRIORITY[:2]).digest != (
        Theory(SCHEMA, FDS[:1], PRIORITY[:2]).digest
    )


def test_the_report_keeps_its_classification_outside_equality():
    formula = _formula(TEXTS[1])
    report = analyze(SCHEMA, FDS, formula)
    assert report.classification == classify(formula, SCHEMA, FDS)
    assert "classification" not in report.to_dict()
    assert "classification" not in repr(report)
    other = analyze(SCHEMA, FDS, formula)
    assert report == other and report.classification is not other.classification


_PRINT_FINGERPRINT = """
from repro.analysis import analyze
from repro.constraints.fd import FunctionalDependency
from repro.query.parser import parse_query
from repro.relational.rows import Row
from repro.relational.schema import DatabaseSchema, RelationSchema

R = RelationSchema("R", ["K", "A:number"])
S = RelationSchema("S", ["A:number", "C"])
fds = {
    FunctionalDependency.parse("K -> A", "R"),
    FunctionalDependency.parse("A -> C", "S"),
}
rows = [Row(R, ["k%d" % key, value]) for key in range(12) for value in (0, 1)]
edges = frozenset((rows[i], rows[i + 1]) for i in range(0, len(rows), 2))
report = analyze(
    DatabaseSchema([R, S]), list(fds), parse_query("EXISTS k . R(k, 1)"),
    priority=tuple(edges), duplicate_row_relations={"R", "S"},
)
print(report.fingerprint)
"""


def test_the_fingerprint_does_not_depend_on_the_hash_seed():
    def fingerprint(seed):
        environment = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        return subprocess.run(
            [sys.executable, "-c", _PRINT_FINGERPRINT],
            env=environment, capture_output=True, text=True, check=True,
        ).stdout.strip()

    first, second = fingerprint("1"), fingerprint("2")
    assert len(first) == 64
    assert first == second
