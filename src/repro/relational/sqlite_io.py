"""SQLite persistence for relation instances and databases.

Uses only the standard-library :mod:`sqlite3` driver.  Each relation is
stored as a table whose columns mirror the schema (NAME attributes become
``TEXT``, NUMBER attributes become ``INTEGER``), plus a companion
``_repro_schema`` table recording declared attribute types so that
round-trips preserve domains exactly even for empty instances.

:func:`save_database` keeps the companion table *synchronized*: relations
that were dropped from the :class:`Database` since the last save have
their tables and schema records removed, so a later
:func:`load_database` never chases a stale entry.  Passing the
functional-dependency set to the save functions additionally creates
covering indexes on each dependency's attributes, in two orders
(``LHS…, RHS…`` and, per dependent attribute ``A``, ``A, LHS…``) — the
access paths the SQL certain-answer backend (:mod:`repro.backend`)
relies on.

Connections are always used through context managers and queries are
parameterized — never string-interpolated — per standard database-code
hygiene.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from repro.constraints.fd import FunctionalDependency
from repro.exceptions import SchemaError, UnknownRelationError
from repro.relational.domain import AttributeType
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema

_SCHEMA_TABLE = "_repro_schema"

_SQL_TYPES = {
    AttributeType.NAME: "TEXT",
    AttributeType.NUMBER: "INTEGER",
}

#: Declared-type fragments mapping to SQLite affinities we can load.
#: Mirrors the affinity rules of the SQLite datatype documentation:
#: INT* -> INTEGER, CHAR/CLOB/TEXT -> TEXT, REAL/FLOA/DOUB -> REAL.
_TEXT_AFFINITY_MARKS = ("CHAR", "CLOB", "TEXT")
_REAL_AFFINITY_MARKS = ("REAL", "FLOA", "DOUB")


def quote_identifier(name: str) -> str:
    """Quote an identifier; names are validated by the schema layer."""
    return '"' + name.replace('"', '""') + '"'


# Backwards-compatible private alias used throughout this module.
_quote_ident = quote_identifier


def _ensure_schema_table(connection: sqlite3.Connection) -> None:
    connection.execute(
        f"CREATE TABLE IF NOT EXISTS {_SCHEMA_TABLE} ("
        "relation TEXT NOT NULL, position INTEGER NOT NULL, "
        "attribute TEXT NOT NULL, type TEXT NOT NULL, "
        "PRIMARY KEY (relation, position))"
    )


def _table_exists(connection: sqlite3.Connection, name: str) -> bool:
    cursor = connection.execute(
        "SELECT 1 FROM sqlite_master WHERE type IN ('table', 'view') AND name = ?",
        (name,),
    )
    return cursor.fetchone() is not None


def _recorded_relations(connection: sqlite3.Connection) -> List[str]:
    cursor = connection.execute(
        f"SELECT DISTINCT relation FROM {_SCHEMA_TABLE} ORDER BY relation"
    )
    return [record[0] for record in cursor.fetchall()]


def save_instance(
    instance: RelationInstance,
    target: Union[str, Path, sqlite3.Connection],
    dependencies: Sequence[FunctionalDependency] = (),
) -> None:
    """Store ``instance`` into a SQLite database file or open connection.

    Any existing table of the same name is replaced.  When
    ``dependencies`` are given, each dependency applying to this
    relation gets its covering indexes: ``(LHS…, RHS…)`` and one
    ``(A, LHS…)`` per dependent attribute ``A`` (see
    :func:`ensure_fd_indexes`).
    """
    own = not isinstance(target, sqlite3.Connection)
    connection = sqlite3.connect(target) if own else target
    try:
        with connection:
            _ensure_schema_table(connection)
            name = instance.schema.name
            connection.execute(f"DROP TABLE IF EXISTS {_quote_ident(name)}")
            columns = ", ".join(
                f"{_quote_ident(attr.name)} {_SQL_TYPES[attr.type]} NOT NULL"
                for attr in instance.schema.attributes
            )
            connection.execute(f"CREATE TABLE {_quote_ident(name)} ({columns})")
            connection.execute(
                f"DELETE FROM {_SCHEMA_TABLE} WHERE relation = ?", (name,)
            )
            connection.executemany(
                f"INSERT INTO {_SCHEMA_TABLE} VALUES (?, ?, ?, ?)",
                [
                    (name, pos, attr.name, attr.type.value)
                    for pos, attr in enumerate(instance.schema.attributes)
                ],
            )
            placeholders = ", ".join("?" for _ in instance.schema.attributes)
            connection.executemany(
                f"INSERT INTO {_quote_ident(name)} VALUES ({placeholders})",
                [row.values for row in instance.sorted()],
            )
        if dependencies:
            ensure_fd_indexes(
                connection, DatabaseSchema([instance.schema]), dependencies
            )
    finally:
        if own:
            connection.close()


def load_instance(
    source: Union[str, Path, sqlite3.Connection], relation_name: str
) -> RelationInstance:
    """Load one relation instance from a SQLite database."""
    own = not isinstance(source, sqlite3.Connection)
    connection = sqlite3.connect(source) if own else source
    try:
        schema = _load_schema(connection, relation_name)
        if not _table_exists(connection, relation_name):
            raise UnknownRelationError(
                f"relation {relation_name!r} is recorded in {_SCHEMA_TABLE} "
                "but its table is missing; re-save the database to repair "
                "the metadata"
            )
        cursor = connection.execute(f"SELECT * FROM {_quote_ident(relation_name)}")
        loaded_columns = [description[0] for description in cursor.description]
        if tuple(loaded_columns) != schema.attribute_names:
            raise SchemaError(
                f"table columns {loaded_columns} do not match recorded schema "
                f"{schema.attribute_names}"
            )
        return RelationInstance.from_values(schema, cursor.fetchall())
    finally:
        if own:
            connection.close()


def _attribute_type_from_declared(
    declared: str, relation_name: str, attribute: str
) -> AttributeType:
    """Map a declared SQLite column type to a repro attribute domain.

    Follows SQLite's affinity rules: INTEGER affinity and NUMERIC
    affinity (which stores integers losslessly) load as NUMBER, TEXT
    affinity loads as NAME.  REAL affinity, BLOB, and typeless columns
    have no counterpart in the paper's name/natural domains and are
    rejected loudly instead of mis-loading as names.
    """
    upper = declared.strip().upper()
    if not upper:
        raise SchemaError(
            f"column {attribute!r} of table {relation_name!r} has no declared "
            "type (BLOB affinity); declare TEXT or INTEGER to load it"
        )
    if "INT" in upper:
        return AttributeType.NUMBER
    if any(mark in upper for mark in _TEXT_AFFINITY_MARKS):
        return AttributeType.NAME
    if "BLOB" in upper:
        raise SchemaError(
            f"column {attribute!r} of table {relation_name!r} is declared "
            f"{declared!r}; BLOB columns are unsupported"
        )
    if any(mark in upper for mark in _REAL_AFFINITY_MARKS):
        raise SchemaError(
            f"column {attribute!r} of table {relation_name!r} is declared "
            f"{declared!r}; floating-point columns have no natural-number "
            "counterpart"
        )
    # Remaining declarations (NUMERIC, DECIMAL, BOOLEAN, ...) carry
    # NUMERIC affinity: integers round-trip exactly, and non-integer
    # contents fail value validation with a targeted error at load.
    return AttributeType.NUMBER


def _load_schema(connection: sqlite3.Connection, relation_name: str) -> RelationSchema:
    _ensure_schema_table(connection)
    cursor = connection.execute(
        f"SELECT attribute, type FROM {_SCHEMA_TABLE} "
        "WHERE relation = ? ORDER BY position",
        (relation_name,),
    )
    records = cursor.fetchall()
    if records:
        return RelationSchema(
            relation_name,
            [Attribute(attr, AttributeType(type_text)) for attr, type_text in records],
        )
    # Fall back to SQLite's own catalog for tables created outside repro.
    cursor = connection.execute(
        "SELECT name, type FROM pragma_table_info(?) ORDER BY cid", (relation_name,)
    )
    records = cursor.fetchall()
    if not records:
        raise UnknownRelationError(
            f"no table {relation_name!r} in the SQLite database"
        )
    attributes = [
        Attribute(attr, _attribute_type_from_declared(sql_type, relation_name, attr))
        for attr, sql_type in records
    ]
    return RelationSchema(relation_name, attributes)


def load_schema(
    source: Union[str, Path, sqlite3.Connection],
    relation_names: Optional[Iterable[str]] = None,
) -> DatabaseSchema:
    """The :class:`DatabaseSchema` stored in a SQLite database.

    Without ``relation_names``, covers every relation recorded in the
    companion schema table; pass names explicitly to include tables
    created outside repro (their schemas come from the SQLite catalog).
    """
    own = not isinstance(source, sqlite3.Connection)
    connection = sqlite3.connect(source) if own else source
    try:
        if relation_names is None:
            _ensure_schema_table(connection)
            relation_names = _recorded_relations(connection)
        return DatabaseSchema(
            _load_schema(connection, name) for name in relation_names
        )
    finally:
        if own:
            connection.close()


def save_database(
    database: Database,
    target: Union[str, Path, sqlite3.Connection],
    dependencies: Sequence[FunctionalDependency] = (),
) -> None:
    """Store every relation of ``database`` (see :func:`save_instance`).

    The companion schema table is synchronized: relations recorded by a
    previous save but no longer present in ``database`` are dropped
    together with their metadata, so the file always mirrors exactly the
    database that was last saved.
    """
    own = not isinstance(target, sqlite3.Connection)
    connection = sqlite3.connect(target) if own else target
    try:
        kept = {instance.schema.name for instance in database}
        with connection:
            _ensure_schema_table(connection)
            for stale in _recorded_relations(connection):
                if stale not in kept:
                    connection.execute(
                        f"DROP TABLE IF EXISTS {_quote_ident(stale)}"
                    )
                    connection.execute(
                        f"DELETE FROM {_SCHEMA_TABLE} WHERE relation = ?", (stale,)
                    )
        for instance in database:
            save_instance(instance, connection, dependencies)
    finally:
        if own:
            connection.close()


def load_database(
    source: Union[str, Path, sqlite3.Connection],
    relation_names: Optional[Iterable[str]] = None,
) -> Database:
    """Load several relations into a :class:`Database`.

    Without ``relation_names``, loads every relation recorded in the
    companion schema table.
    """
    own = not isinstance(source, sqlite3.Connection)
    connection = sqlite3.connect(source) if own else source
    try:
        if relation_names is None:
            _ensure_schema_table(connection)
            relation_names = _recorded_relations(connection)
        instances: List[RelationInstance] = [
            load_instance(connection, name) for name in relation_names
        ]
        return Database(instances)
    finally:
        if own:
            connection.close()


def ensure_fd_indexes(
    target: Union[str, Path, sqlite3.Connection],
    schema: DatabaseSchema,
    dependencies: Sequence[FunctionalDependency],
) -> List[str]:
    """Create the covering indexes of each functional dependency.

    Per dependency and relation it applies to, one index spans the
    left-hand side followed by the effective right-hand side
    (``LHS…, RHS…``), so both the group lookup (``LHS``) and the class
    lookup (``LHS`` + ``RHS``) of the certain-answer rewriting are
    index-only scans.  Beside it, one index per dependent attribute
    ``A`` (``RHS − LHS``) spans ``(A, LHS…)``: a selection on ``A``
    becomes an index range that carries the key the rewriting's group
    lookups correlate on.  Attributes no dependency names stay
    unindexed.  An index is named ``_repro_idx_<relation>_<columns>``
    with the columns joined by ``_``; when that name already belongs to
    another column list (``A``, ``B_C`` and ``A_B``, ``C`` join alike),
    the first free ``<name>_<n>`` is taken instead.  Returns the index
    names that now exist, each once.
    """
    own = not isinstance(target, sqlite3.Connection)
    connection = sqlite3.connect(target) if own else target
    created: List[str] = []
    try:
        with connection:
            # Every existing index by name, with the table and columns it
            # covers: a name is reused only for the same column list.
            owners = {
                name: (table,) + tuple(
                    record[2]
                    for record in connection.execute(
                        f"PRAGMA index_info({_quote_ident(name)})"
                    )
                )
                for name, table in connection.execute(
                    "SELECT name, tbl_name FROM sqlite_master "
                    "WHERE type = 'index'"
                ).fetchall()
            }
            for relation in schema:
                if not _table_exists(connection, relation.name):
                    continue
                for dependency in dependencies:
                    if not dependency.applies_to(relation.name):
                        continue
                    if not all(
                        relation.has_attribute(attr)
                        for attr in dependency.lhs | dependency.rhs
                    ):
                        continue
                    lhs = sorted(dependency.lhs)
                    dependent = sorted(dependency.rhs - dependency.lhs)
                    orders = [lhs + dependent]
                    orders.extend([attr] + lhs for attr in dependent)
                    for columns in orders:
                        covered = (relation.name,) + tuple(columns)
                        base = "_repro_idx_{}_{}".format(
                            relation.name, "_".join(columns)
                        )
                        index_name, suffix = base, 0
                        while owners.get(index_name, covered) != covered:
                            suffix += 1
                            index_name = f"{base}_{suffix}"
                        if index_name not in owners:
                            column_list = ", ".join(
                                _quote_ident(column) for column in columns
                            )
                            connection.execute(
                                f"CREATE INDEX {_quote_ident(index_name)} "
                                f"ON {_quote_ident(relation.name)} "
                                f"({column_list})"
                            )
                            owners[index_name] = covered
                        if index_name not in created:
                            created.append(index_name)
        return created
    finally:
        if own:
            connection.close()
