"""Side-table materialization of conflicts and oriented priority edges.

The preference-aware rewriting needs two facts inside SQLite that the
mirrored data alone does not carry: which row pairs *conflict* (violate
a functional dependency together) and which conflicts the declared
priority *orients*.  Both are materialized as per-connection ``TEMP``
tables so a read-only source file is never mutated and a re-save of the
mirror (which reassigns rowids) simply triggers re-materialization via
the :class:`~repro.backend.mirror.SqliteMirror` refresh hooks:

``_repro_conflicts(relation, a, b)``
    One row per undirected conflict edge, as a ``rowid`` pair with
    ``a < b``, derived by a self-join on the relation's dirty profile
    (same group, different class).

``_repro_edges(relation, winner, loser)``
    One row per declared ``winner ≻ loser`` orientation, as a
    ``rowid`` pair — the flattened dominator index a
    :class:`~repro.priorities.priority.Priority` exports through
    :meth:`~repro.priorities.priority.Priority.dominance_rows`.

Materialization *validates* the declared edges exactly like the
in-memory :class:`~repro.cqa.engine.CqaEngine` does at construction:
edges must relate conflicting rows that exist in the stored instance
(:class:`NonConflictingPriorityError` otherwise) and the declared
digraph must be acyclic (:class:`CyclicPriorityError`).
"""

from __future__ import annotations

import sqlite3
from typing import Dict, Iterable, Optional, Sequence

from repro.backend.rewrite import DirtyProfile
from repro.constraints.fd import FunctionalDependency
from repro.exceptions import (
    CyclicPriorityError,
    NonConflictingPriorityError,
    SchemaError,
)
from repro.priorities.priority import PriorityEdge, digraph_has_cycle
from repro.relational.rows import Row
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.sqlite_io import quote_identifier

#: Temp side table holding undirected conflict edges as rowid pairs.
SIDE_CONFLICTS = "_repro_conflicts"
#: Temp side table holding oriented priority edges as rowid pairs.
SIDE_EDGES = "_repro_edges"


def text_literal(value: str) -> str:
    """A safely quoted SQL string literal (for relation-name tags)."""
    return "'" + value.replace("'", "''") + "'"


def ensure_side_tables(connection: sqlite3.Connection) -> None:
    """Create the (per-connection, temporary) side tables if missing."""
    connection.execute(
        f"CREATE TEMP TABLE IF NOT EXISTS {SIDE_EDGES} ("
        "relation TEXT NOT NULL, winner INTEGER NOT NULL, "
        "loser INTEGER NOT NULL, "
        "PRIMARY KEY (relation, winner, loser))"
    )
    connection.execute(
        f"CREATE TEMP TABLE IF NOT EXISTS {SIDE_CONFLICTS} ("
        "relation TEXT NOT NULL, a INTEGER NOT NULL, b INTEGER NOT NULL)"
    )
    # The survivor queries and winnow passes probe by loser; the loser
    # index carries the winner too, so it covers those probes and the
    # planner prefers it to the primary key's relation-only prefix.
    # The fixpoint probes by both conflict endpoints.
    connection.execute(
        f"CREATE INDEX IF NOT EXISTS {SIDE_EDGES}_by_loser "
        f"ON {SIDE_EDGES} (relation, loser, winner)"
    )
    connection.execute(
        f"CREATE INDEX IF NOT EXISTS {SIDE_CONFLICTS}_by_a "
        f"ON {SIDE_CONFLICTS} (relation, a)"
    )
    connection.execute(
        f"CREATE INDEX IF NOT EXISTS {SIDE_CONFLICTS}_by_b "
        f"ON {SIDE_CONFLICTS} (relation, b)"
    )


def materialize_conflicts(
    connection: sqlite3.Connection, profile: DirtyProfile
) -> int:
    """(Re)compute the conflict edges of one profiled relation.

    Two rows conflict iff they agree on the profile's group and differ
    on its classifier; the self-join emits each undirected edge once
    (``a.rowid < b.rowid``).  Returns the number of edges stored.
    """
    relation = quote_identifier(profile.relation)
    tag = text_literal(profile.relation)
    same_group = [
        f"a.{quote_identifier(attr)} = b.{quote_identifier(attr)}"
        for attr in profile.group
    ]
    same_class = [
        f"a.{quote_identifier(attr)} = b.{quote_identifier(attr)}"
        for attr in profile.classifier
    ]
    conditions = ["a.rowid < b.rowid"] + same_group
    conditions.append("NOT (" + " AND ".join(same_class) + ")")
    connection.execute(f"DELETE FROM {SIDE_CONFLICTS} WHERE relation = {tag}")
    cursor = connection.execute(
        f"INSERT INTO {SIDE_CONFLICTS} "
        f"SELECT {tag}, a.rowid, b.rowid FROM {relation} a, {relation} b "
        f"WHERE {' AND '.join(conditions)}"
    )
    return cursor.rowcount


def _conflicting(
    winner: Row, loser: Row, dependencies: Sequence[FunctionalDependency]
) -> bool:
    """Whether the pair violates some dependency (delegates to the FD
    class's pairwise check, the conflict-graph builder's semantics)."""
    for dependency in dependencies:
        try:
            if dependency.conflicting(winner, loser):
                return True
        except SchemaError:
            continue  # dependency names attributes the rows do not carry
    return False


def _rowid_of(
    connection: sqlite3.Connection, schema: RelationSchema, row: Row
) -> Optional[int]:
    """The stored rowid of ``row``, matched by full value tuple."""
    try:
        values = row.project(schema.attribute_names)
    except SchemaError:
        return None
    conditions = " AND ".join(
        f"{quote_identifier(attr)} = ?" for attr in schema.attribute_names
    )
    cursor = connection.execute(
        f"SELECT rowid FROM {quote_identifier(schema.name)} "
        f"WHERE {conditions} LIMIT 1",
        values,
    )
    record = cursor.fetchone()
    return record[0] if record else None


def materialize_edges(
    connection: sqlite3.Connection,
    schema: DatabaseSchema,
    dependencies: Sequence[FunctionalDependency],
    profiles: Dict[str, DirtyProfile],
    edges: Iterable[PriorityEdge],
    append: bool = False,
) -> Dict[str, int]:
    """Validate the declared priority and store its oriented edges.

    Every edge must relate two conflicting rows present in the stored
    instance (matching what ``Priority`` enforces over the in-memory
    conflict graph), and the declared digraph must be acyclic.  Edges
    over relations without a dirty profile (differing FD left-hand
    sides) are validated but *not* materialized — queries mentioning
    those relations are not rewritable anyway.

    ``append`` keeps existing edge rows (incremental maintenance: the
    mirror inserts newly declared orientations without re-deriving the
    whole table); the caller is then responsible for checking
    acyclicity of the *combined* edge set, since only the new edges
    are visible here.

    Validation runs to completion before anything is written, so a
    rejected declaration never leaves the side table half-updated (a
    failed ``extend_priority`` or engine rebuild must not change which
    orientations a later query sees).

    Returns the number of materialized edges per relation.
    """
    edge_list = tuple(edges)
    if digraph_has_cycle(edge_list):
        raise CyclicPriorityError("declared priority contains a cycle")
    rows_to_insert = []
    counts: Dict[str, int] = {}
    for winner, loser in edge_list:
        for endpoint in (winner, loser):
            if not schema.has_relation(endpoint.relation):
                raise NonConflictingPriorityError(
                    "priority references unknown relation "
                    f"{endpoint.relation!r}"
                )
        if not _conflicting(winner, loser, dependencies):
            raise NonConflictingPriorityError(
                f"priority relates non-conflicting tuples {winner!r} "
                f"and {loser!r}"
            )
        relation_schema = schema.relation(winner.relation)
        winner_id = _rowid_of(connection, relation_schema, winner)
        loser_id = _rowid_of(connection, relation_schema, loser)
        if winner_id is None or loser_id is None:
            missing = winner if winner_id is None else loser
            raise NonConflictingPriorityError(
                f"priority references tuple {missing!r} which is not in "
                "the stored instance"
            )
        if winner.relation not in profiles:
            continue
        rows_to_insert.append((winner.relation, winner_id, loser_id))
        counts[winner.relation] = counts.get(winner.relation, 0) + 1
    ensure_side_tables(connection)
    if not append:
        connection.execute(f"DELETE FROM {SIDE_EDGES}")
    connection.executemany(
        f"INSERT OR IGNORE INTO {SIDE_EDGES} VALUES (?, ?, ?)",
        rows_to_insert,
    )
    return counts
