"""Access paths of the pushed plans, read from ``EXPLAIN QUERY PLAN``.

The rewriting's outer block selects witness rows and certifies each
one's key group, so its selection must be an index search: a key
lookup or key join on the dependency's ``(LHS, RHS)`` index, and a
range on a dependent attribute on that attribute's ``(A, LHS)`` index.
Under a preferred family the survivor restriction is a keyed probe of
the survivor table, never the plan's outer loop.  SQLite plans these
without table statistics, so the shapes hold at any instance size.
"""

from __future__ import annotations

import re

import pytest

from repro.backend.mirror import SqliteMirror
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row
from repro.relational.schema import RelationSchema

R_SCHEMA = RelationSchema("R", ["K:number", "A:number", "B"])
S_SCHEMA = RelationSchema("S", ["A:number", "C"])
FDS = (
    FunctionalDependency.parse("K -> A", "R"),
    FunctionalDependency.parse("A -> C", "S"),
)

R_ROWS = [(key, key % 5, f"b{key}") for key in range(12)] + [
    (2, 4, "b2x"),  # key 2: two A values, oriented
    (3, 0, "b3x"),  # key 3: two A values, left unoriented
    (5, 1, "b5x"),  # key 5: three A values, partially oriented
    (5, 3, "b5y"),
]
S_ROWS = [(a, f"c{a}") for a in range(5)] + [
    (1, "c1x"),  # A 1: two C values, oriented
    (3, "c3x"),  # A 3: two C values, left unoriented
]
PRIORITY = [
    (Row(R_SCHEMA, (2, 2, "b2")), Row(R_SCHEMA, (2, 4, "b2x"))),
    (Row(R_SCHEMA, (5, 3, "b5y")), Row(R_SCHEMA, (5, 0, "b5"))),
    (Row(S_SCHEMA, (1, "c1x")), Row(S_SCHEMA, (1, "c1"))),
]

QUERIES = {
    "key lookup": "EXISTS b . R(5, a, b)",
    "key join": "EXISTS b . R(5, a, b) AND S(a, c)",
    "A range": "EXISTS b . R(k, a, b) AND a >= 1 AND a <= 2",
}

#: The outer loop of a pushed plan: an outer alias ``t<n>`` searched
#: through one of the dependencies' covering indexes.
_INDEXED_OUTER = re.compile(r"SEARCH t\d+ USING (COVERING )?INDEX _repro_idx_")


def _database() -> Database:
    return Database(
        [
            RelationInstance.from_values(R_SCHEMA, R_ROWS),
            RelationInstance.from_values(S_SCHEMA, S_ROWS),
        ]
    )


@pytest.fixture(scope="module")
def engines():
    plain = SqliteMirror(FDS)
    ranked = SqliteMirror(FDS)
    database = _database()
    yield {
        "plain": (plain.engine_for(database), None),
        **{
            family.name: (ranked.pref_engine_for(database, PRIORITY), family)
            for family in Family
        },
    }
    plain.close()
    ranked.close()


def _plan_rows(engine, sql, params):
    return engine._connection.execute(
        "EXPLAIN QUERY PLAN " + sql, params
    ).fetchall()


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize(
    "setting", ["plain"] + [family.name for family in Family]
)
def test_outer_selection_is_an_index_search(engines, setting, query):
    engine, family = engines[setting]
    decision = (
        engine.explain(QUERIES[query], family=family)
        if family is not None
        else engine.explain(QUERIES[query])
    )
    plan = decision.plan
    assert plan is not None, decision.reason
    statements = [("certain", plan.certain_sql, plan.certain_params)]
    if plan.possible_sql != plan.certain_sql:
        statements.append(("possible", plan.possible_sql, plan.possible_params))
    if family not in (None, Family.REP):
        # The preferred families do restrict through a survivor table.
        assert "_repro_surv_R_" in plan.certain_sql
    for label, sql, params in statements:
        rows = _plan_rows(engine, sql, params)
        details = [row[3] for row in rows]
        shown = f"{label} plan:\n" + "\n".join(details)
        assert not any(
            re.match(r"SCAN t0\b", detail) for detail in details
        ), shown
        # No IN-operator over a survivor table, which SQLite may turn
        # into the outer loop ...
        assert not any("_repro_surv_" in detail for detail in details), shown
        # ... and every outer loop searches an FD index, not a rowid
        # list handed over by a survivor table.
        outer = [
            detail
            for _, parent, _, detail in rows
            if parent == 0 and detail.startswith(("SCAN", "SEARCH"))
        ]
        assert outer, shown
        assert all(_INDEXED_OUTER.match(detail) for detail in outer), shown
        if query == "A range":
            assert re.match(
                r"SEARCH t0 USING COVERING INDEX _repro_idx_R_A_K \(A>", outer[0]
            ), shown
