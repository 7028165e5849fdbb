"""The winnow operator ω≻ and Algorithm 1, compiled to SQLite SQL.

Everything here operates on one *profiled* relation — its functional
dependencies share a left-hand side ``K`` (the group) with combined
right-hand side ``Y`` (the classifier) — which gives each ``K``-group a
complete multipartite conflict graph over its ``(K, Y)``-classes and
makes each repair keep exactly one class per group.  On that structure
the per-class membership tests of all four preferred families reduce to
first-order conditions over the ``_repro_edges`` side table, so the
whole winnow-driven selection runs server-side:

* ``ω≻`` itself is an anti-join: the rows with no incoming oriented
  edge from a surviving dominator (:func:`winnow_pass`);
* Algorithm 1 is iterated to a fixpoint with staged temp-table
  passes (:func:`iterate_winnow`): each stage
  winnows the remaining rows, commits the winnow rows with no conflict
  inside the winnow set (their class is forced — it appears in *every*
  common repair), and removes the committed rows' conflict
  neighbourhood, exactly the ``r ← r ∖ ({x} ∪ n(x))`` step.  The union
  of committed stages is the *clean fragment*; an empty remainder means
  the priority resolves the relation to a single common repair.
* per-family *survivor tables* (:func:`build_survivor_table`) list the
  rows whose class is kept by the family:

  ======  ====================================================
  family  class ``C`` of group ``G`` survives iff
  ======  ====================================================
  ``C``   some row of ``C`` is ≻-undominated within ``G``
  ``G``   no other class of ``G`` dominates every row of ``C``
  ``S``   no single row of ``G`` dominates every row of ``C``
  ``L``   not (``|C| = 1`` and its row has a dominator)
  ======  ====================================================

  These are the per-stage membership characterizations of Theorem 4,
  Corollaries 1–2 and Proposition 7 specialized to the multipartite
  group structure; the differential suite pins each of them against
  the in-memory family selectors on random instances.

Every intermediate ``row_id`` table (remaining, winnow-stage, commit,
committed and survivor tables) is keyed: ``row_id INTEGER PRIMARY KEY``
makes the row id the table's rowid.  Every probe searches by that key:
row → edge-by-loser (or conflict-by-endpoint) index → keyed lookup of
the edge's other endpoint in the pool table.  Each winnow stage is
thereby linear in the edges it touches.  A served survivor restriction
(:func:`~repro.backend.rewrite.survivor_condition`) is the same keyed
probe, an ``EXISTS`` that searches the survivor table by the candidate
row's rowid: the query's own index on the relation picks the
candidates, and the survivor table is never the outer loop.  Only the
build-time :func:`has_unresolved_group`, which reads every survivor,
lets the survivor table drive its join.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.backend.rewrite import DirtyProfile, conjoin as _conjoin
from repro.core.families import Family
from repro.exceptions import QueryError
from repro.prefsql.edges import SIDE_CONFLICTS, SIDE_EDGES, text_literal
from repro.relational.sqlite_io import quote_identifier


def _eq(left: str, right: str, attributes: Sequence[str]) -> List[str]:
    """Column-wise equality conditions between two alias scopes."""
    return [
        f"{left}.{quote_identifier(attr)} = {right}.{quote_identifier(attr)}"
        for attr in attributes
    ]


def _same_group(left: str, right: str, profile: DirtyProfile) -> str:
    return _conjoin(_eq(left, right, profile.group))


def _same_class(left: str, right: str, profile: DirtyProfile) -> str:
    return _conjoin(_eq(left, right, profile.group + profile.classifier))


def _drop(connection: sqlite3.Connection, table: str) -> None:
    connection.execute(f"DROP TABLE IF EXISTS {quote_identifier(table)}")


def _create_keyed(
    connection: sqlite3.Connection, table: str, select: Optional[str] = None
) -> None:
    """(Re)create ``table`` as a keyed ``row_id`` list, filled by the
    ``select`` (which must yield each row id once) when given."""
    _drop(connection, table)
    connection.execute(
        f"CREATE TEMP TABLE {quote_identifier(table)} "
        "(row_id INTEGER PRIMARY KEY)"
    )
    if select is not None:
        connection.execute(f"INSERT INTO {quote_identifier(table)} {select}")


def _listed(table: str, alias: str, column: str) -> str:
    """``column`` is a row id listed in ``table`` (a keyed lookup)."""
    return (
        f"EXISTS (SELECT 1 FROM {quote_identifier(table)} {alias} "
        f"WHERE {alias}.row_id = {column})"
    )


def _count(connection: sqlite3.Connection, table: str) -> int:
    cursor = connection.execute(
        f"SELECT COUNT(*) FROM {quote_identifier(table)}"
    )
    return cursor.fetchone()[0]


def _undominated(profile: DirtyProfile, alias: str) -> str:
    """``alias`` has no incoming oriented edge (dominators are always
    instance rows of the same group, by edge validation)."""
    tag = text_literal(profile.relation)
    return (
        f"NOT EXISTS (SELECT 1 FROM {SIDE_EDGES} e "
        f"WHERE e.relation = {tag} AND e.loser = {alias}.rowid)"
    )


# ---------------------------------------------------------------------------
# Single winnow pass and the Algorithm 1 fixpoint
# ---------------------------------------------------------------------------


def winnow_pass(
    connection: sqlite3.Connection,
    profile: DirtyProfile,
    source: Optional[str] = None,
    target: Optional[str] = None,
) -> str:
    """ω≻ as one SQL anti-join, materialized into a temp table.

    ``source`` names a temp table of ``row_id`` values (the remaining
    set), keyed so that each dominator probe is a lookup; ``None``
    winnows the whole relation.  Returns the name of the
    created table (``target`` or a derived default) holding the
    undominated rows' ``row_id``.
    """
    tag = text_literal(profile.relation)
    table = target or f"_repro_winnow_{profile.relation}"
    if source is None:
        _create_keyed(
            connection,
            table,
            f"SELECT r.rowid FROM {quote_identifier(profile.relation)} r "
            f"WHERE {_undominated(profile, 'r')}",
        )
    else:
        _create_keyed(
            connection,
            table,
            f"SELECT m.row_id FROM {quote_identifier(source)} m "
            f"WHERE NOT EXISTS (SELECT 1 FROM {SIDE_EDGES} e "
            f"WHERE e.relation = {tag} AND e.loser = m.row_id AND "
            f"{_listed(source, 's', 'e.winner')})",
        )
    return table


def _conflict_partner_in(
    profile: DirtyProfile, alias: str, pool: str
) -> str:
    """``alias.row_id`` has a conflict partner inside the ``pool`` table.

    One ``EXISTS`` per endpoint, so each probe runs on its own
    conflict index and looks the partner up by the pool's key.
    """
    tag = text_literal(profile.relation)
    return (
        f"(EXISTS (SELECT 1 FROM {SIDE_CONFLICTS} k "
        f"WHERE k.relation = {tag} AND k.a = {alias}.row_id "
        f"AND {_listed(pool, 'p', 'k.b')}) "
        f"OR EXISTS (SELECT 1 FROM {SIDE_CONFLICTS} k "
        f"WHERE k.relation = {tag} AND k.b = {alias}.row_id "
        f"AND {_listed(pool, 'p', 'k.a')}))"
    )


@dataclass(frozen=True)
class WinnowFixpoint:
    """Outcome of iterating Algorithm 1 server-side.

    ``committed_table`` holds the clean fragment — rows belonging to
    *every* common repair; ``remaining`` counts the rows whose groups
    the priority leaves ambiguous (zero means ``C-Rep`` restricted to
    this relation is a single repair: exactly the committed rows).
    ``stage_tables`` lists the per-stage winnow tables, newest last.
    """

    relation: str
    stages: int
    committed_table: str
    committed: int
    remaining: int
    stage_tables: Sequence[str]


def iterate_winnow(
    connection: sqlite3.Connection,
    profile: DirtyProfile,
    max_stages: int = 64,
) -> WinnowFixpoint:
    """Iterate Algorithm 1 to a fixpoint with staged temp-table passes.

    Requires :func:`~repro.prefsql.edges.materialize_conflicts` and
    :func:`~repro.prefsql.edges.materialize_edges` to have run for the
    relation.  On the profiled group structure the fixpoint is reached
    within three stages; ``max_stages`` is a defensive bound only.
    """
    base = profile.relation
    committed_table = f"_repro_clean_{base}"
    _create_keyed(connection, committed_table)
    remaining_table = f"_repro_remaining_{base}_0"
    _create_keyed(
        connection, remaining_table, f"SELECT rowid FROM {quote_identifier(base)}"
    )
    stage_tables: List[str] = []
    stage = 0
    while stage < max_stages:
        winnow_table = winnow_pass(
            connection,
            profile,
            source=remaining_table,
            target=f"_repro_winnow_{base}_{stage}",
        )
        stage_tables.append(winnow_table)
        # Step 3's unambiguous choices: winnow rows with no conflict
        # inside the winnow set — their whole class is forced.
        commit_table = f"_repro_commit_{base}_{stage}"
        _create_keyed(
            connection,
            commit_table,
            f"SELECT w.row_id FROM {quote_identifier(winnow_table)} w "
            f"WHERE NOT {_conflict_partner_in(profile, 'w', winnow_table)}",
        )
        if _count(connection, commit_table) == 0:
            break
        connection.execute(
            f"INSERT OR IGNORE INTO {quote_identifier(committed_table)} "
            f"SELECT row_id FROM {quote_identifier(commit_table)}"
        )
        # r ← r ∖ ({x} ∪ n(x)) for every committed x.
        next_table = f"_repro_remaining_{base}_{stage + 1}"
        _create_keyed(
            connection,
            next_table,
            f"SELECT m.row_id FROM {quote_identifier(remaining_table)} m "
            f"WHERE NOT {_listed(commit_table, 'c', 'm.row_id')} "
            f"AND NOT {_conflict_partner_in(profile, 'm', commit_table)}",
        )
        remaining_table = next_table
        stage += 1
    return WinnowFixpoint(
        relation=base,
        stages=stage + 1,
        committed_table=committed_table,
        committed=_count(connection, committed_table),
        remaining=_count(connection, remaining_table),
        stage_tables=tuple(stage_tables),
    )


# ---------------------------------------------------------------------------
# Per-family survivor tables
# ---------------------------------------------------------------------------


def survivor_table_name(relation: str, family: Family) -> str:
    return f"_repro_surv_{relation}_{family.name.lower()}"


def _survivor_select(profile: DirtyProfile, family: Family) -> str:
    """The SELECT producing the ``row_id`` list of preferred-class rows."""
    relation = quote_identifier(profile.relation)
    tag = text_literal(profile.relation)
    if family is Family.COMMON:
        # Class survives iff it contains a ≻-undominated row: Algorithm 1
        # may pick that row first, and only then (Proposition 7).
        return (
            f"SELECT r.rowid AS row_id FROM {relation} r "
            f"WHERE EXISTS (SELECT 1 FROM {relation} w "
            f"WHERE {_same_class('w', 'r', profile)} "
            f"AND {_undominated(profile, 'w')})"
        )
    if family is Family.LOCAL:
        # A swap of a single tuple needs the chosen class to be that
        # single tuple (an outsider conflicts with the *whole* class).
        return (
            f"SELECT r.rowid AS row_id FROM {relation} r "
            f"WHERE (SELECT COUNT(*) FROM {relation} c "
            f"WHERE {_same_class('c', 'r', profile)}) > 1 "
            f"OR {_undominated(profile, 'r')}"
        )
    if family is Family.SEMI_GLOBAL:
        # Class fails iff one group row dominates every class member.
        return (
            f"SELECT r.rowid AS row_id FROM {relation} r "
            f"WHERE NOT EXISTS (SELECT 1 FROM {relation} w "
            f"WHERE {_same_group('w', 'r', profile)} "
            f"AND NOT EXISTS (SELECT 1 FROM {relation} m "
            f"WHERE {_same_class('m', 'r', profile)} "
            f"AND NOT EXISTS (SELECT 1 FROM {SIDE_EDGES} e "
            f"WHERE e.relation = {tag} AND e.winner = w.rowid "
            f"AND e.loser = m.rowid)))"
        )
    if family is Family.GLOBAL:
        # Class fails iff another class covers it: every member is
        # dominated by some member of the other class (lifting ≪,
        # Proposition 5, restricted to one group switch).
        different_class = (
            "NOT (" + _same_class("j", "r", profile) + ")"
        )
        return (
            f"SELECT r.rowid AS row_id FROM {relation} r "
            f"WHERE NOT EXISTS (SELECT 1 FROM {relation} j "
            f"WHERE {_same_group('j', 'r', profile)} AND {different_class} "
            f"AND NOT EXISTS (SELECT 1 FROM {relation} m "
            f"WHERE {_same_class('m', 'r', profile)} "
            f"AND NOT EXISTS (SELECT 1 FROM {SIDE_EDGES} e "
            f"JOIN {relation} w ON w.rowid = e.winner "
            f"WHERE e.relation = {tag} AND e.loser = m.rowid "
            f"AND {_same_class('w', 'j', profile)})))"
        )
    raise QueryError(f"family {family} needs no survivor table")


def build_survivor_table(
    connection: sqlite3.Connection,
    profile: DirtyProfile,
    family: Family,
) -> str:
    """Materialize the family's surviving rows; returns the table name.

    ``Family.REP`` keeps every repair, so it intentionally has no
    survivor table — the caller should fall through to the
    preference-blind plan.
    """
    table = survivor_table_name(profile.relation, family)
    _create_keyed(connection, table, _survivor_select(profile, family))
    return table


def has_unresolved_group(
    connection: sqlite3.Connection,
    profile: DirtyProfile,
    survivor_table: str,
) -> bool:
    """Whether some group keeps two or more surviving classes.

    ``False`` means the preferred repair projected onto the relation is
    unique — the plan can collapse to a plain evaluation over the
    survivor rows.
    """
    columns = ", ".join(
        f"r.{quote_identifier(attr)}"
        for attr in profile.group + profile.classifier
    )
    # A bulk read of every survivor: the survivor table drives the
    # join (CROSS JOIN fixes SQLite's loop order) and each row is one
    # rowid search of the relation, unlike a served restriction
    # (survivor_condition), which probes the survivor table per row.
    classes = (
        f"SELECT DISTINCT {columns} FROM "
        f"{quote_identifier(survivor_table)} s CROSS JOIN "
        f"{quote_identifier(profile.relation)} r ON r.rowid = s.row_id"
    )
    if profile.group:
        group_columns = ", ".join(
            quote_identifier(attr) for attr in profile.group
        )
        sql = (
            f"SELECT 1 FROM ({classes}) GROUP BY {group_columns} "
            "HAVING COUNT(*) > 1 LIMIT 1"
        )
    else:
        sql = f"SELECT 1 FROM ({classes}) HAVING COUNT(*) > 1"
    return connection.execute(sql).fetchone() is not None
