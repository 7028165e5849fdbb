"""Keyed row-id side tables: linear winnow set-up, rowid survivor probes.

Every intermediate ``row_id`` table of :mod:`repro.prefsql.winnow` is
keyed, and every probe searches by that key.  These tests pin the
consequences on a pushed-read-shaped instance (``R(K, A, B)`` with
``K -> A`` and ``S(A, C)`` with ``A -> C``, one key in twenty
conflicting, three of four conflict groups ranked), counting SQLite
VM steps rather than wall time so that the bounds hold on any host:

* building the engine (edges, conflicts, Algorithm 1 fixpoint and the
  survivor tables) grows about linearly with the instance;
* a served L/S/G/C key lookup costs the same on a four times larger
  instance;
* no served preferred-family statement scans a side table.
"""

from __future__ import annotations

import random
import re
import sqlite3
from typing import List, Tuple

import pytest

from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.prefsql import PrefSqlCqaEngine
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row
from repro.relational.schema import RelationSchema
from repro.relational.sqlite_io import save_database

R_SCHEMA = RelationSchema("R", ["K:number", "A:number", "B"])
S_SCHEMA = RelationSchema("S", ["A:number", "C"])
FDS = (
    FunctionalDependency.parse("K -> A", "R"),
    FunctionalDependency.parse("A -> C", "S"),
)
PREFERRED = (Family.LOCAL, Family.SEMI_GLOBAL, Family.GLOBAL, Family.COMMON)
#: Keys of the smaller instance; the larger one has four times as many.
KEYS = 200
#: VM instructions between two progress-handler calls.
STEP = 100


def _orient(rng: random.Random, index: int, rows: List[Row]):
    """Total, top-pair-only, total, unranked: in turn per group."""
    if index % 4 == 3:
        return []
    ranked = list(rows)
    rng.shuffle(ranked)
    if index % 4 == 1:
        return [(ranked[0], ranked[1])]
    return [
        (ranked[i], ranked[j])
        for i in range(len(ranked))
        for j in range(i + 1, len(ranked))
    ]


def _groups(rng: random.Random, universe: int) -> List[Tuple[int, int]]:
    """(value, extra tuples) for one value in twenty; groups alternate
    between two and three conflicting tuples."""
    chosen = sorted(rng.sample(range(universe), max(1, universe // 20)))
    return [(value, 1 + index % 2) for index, value in enumerate(chosen)]


def pushed_instance(keys: int):
    rng = random.Random(keys)
    a_values = keys // 2
    base = [rng.randrange(a_values) for _ in range(keys)]
    r_values = [(key, base[key], f"b{key}") for key in range(keys)]
    s_values = [(a, f"c{a}") for a in range(a_values)]
    priority = []
    for index, (key, count) in enumerate(_groups(rng, keys)):
        group = [Row(R_SCHEMA, r_values[key])]
        others = rng.sample([a for a in range(a_values) if a != base[key]], count)
        for j, a in enumerate(others):
            r_values.append((key, a, f"b{key}x{j}"))
            group.append(Row(R_SCHEMA, r_values[-1]))
        priority.extend(_orient(rng, index, group))
    for index, (a, count) in enumerate(_groups(rng, a_values)):
        group = [Row(S_SCHEMA, s_values[a])]
        for j in range(count):
            s_values.append((a, f"c{a}x{j}"))
            group.append(Row(S_SCHEMA, s_values[-1]))
        priority.extend(_orient(rng, index, group))
    rng.shuffle(r_values)
    rng.shuffle(s_values)
    database = Database(
        [
            RelationInstance.from_values(R_SCHEMA, r_values),
            RelationInstance.from_values(S_SCHEMA, s_values),
        ]
    )
    connection = sqlite3.connect(":memory:")
    save_database(database, connection, FDS)
    return connection, priority


class _Steps:
    """Counts VM steps (in units of ``STEP``) on one connection."""

    def __init__(self, connection: sqlite3.Connection) -> None:
        self.count = 0
        connection.set_progress_handler(self._tick, STEP)

    def _tick(self) -> int:
        self.count += 1
        return 0


def _build(keys: int):
    connection, priority = pushed_instance(keys)
    steps = _Steps(connection)
    engine = PrefSqlCqaEngine(connection, FDS, priority)
    return engine, steps


def _lookups(keys: int) -> List[str]:
    return [f"R({key}, a, b)" for key in range(0, keys, max(1, keys // 50))][:50]


@pytest.fixture(scope="module")
def built():
    small = _build(KEYS)
    large = _build(4 * KEYS)
    yield small, large
    for engine, _ in (small, large):
        engine.close()


def test_engine_build_grows_about_linearly(built):
    (_, small), (_, large) = built
    assert small.count > 0
    # Keyed probes grow about 4x; a winnow pass that scans the edge
    # table per row grows about 14x.
    assert large.count < 8 * small.count


@pytest.mark.parametrize("family", PREFERRED, ids=lambda f: f.name)
def test_key_lookups_cost_does_not_grow_with_the_instance(built, family):
    counts = []
    for (engine, steps), keys in zip(built, (KEYS, 4 * KEYS)):
        texts = _lookups(keys)
        for text in texts:  # routing decisions are cached, not measured
            engine.explain(text, family=family)
        before = steps.count
        for text in texts:
            engine.certain_answers(text, family=family)
            assert engine.last_route == "prefsql"
        counts.append(steps.count - before)
    assert counts[0] > 0
    # A survivor probe that scans its table grows about 4x.
    assert counts[1] < 2 * counts[0]


_SIDE_SCAN = re.compile(r"\bSCAN (TABLE )?_repro_")

SERVED = (
    "R(7, a, b)",
    "EXISTS b . R(7, a, b)",
    "EXISTS b . R(7, a, b) AND S(a, c)",
    "EXISTS a, b . R(7, a, b) AND S(a, c)",
    "EXISTS b . R(k, a, b) AND a >= 3 AND a <= 6",
)


@pytest.mark.parametrize("family", PREFERRED, ids=lambda f: f.name)
@pytest.mark.parametrize("text", SERVED)
def test_served_statements_never_scan_a_side_table(built, family, text):
    engine, _ = built[0]
    plan = engine.explain(text, family=family).plan
    assert plan is not None
    connection = engine._connection
    statements = [
        (sql, params)
        for sql, params in (
            (plan.certain_sql, plan.certain_params),
            (plan.possible_sql, plan.possible_params),
        )
        if sql is not None
    ]
    assert any("_repro_" in sql for sql, _ in statements)
    for sql, params in statements:
        details = [
            row[-1]
            for row in connection.execute("EXPLAIN QUERY PLAN " + sql, params)
        ]
        assert not [line for line in details if _SIDE_SCAN.search(line)], (
            sql,
            details,
        )
