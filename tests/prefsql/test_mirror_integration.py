"""SqliteMirror integration: refresh hooks and incremental edges."""

from __future__ import annotations

import pytest

from repro.backend.mirror import SqliteMirror
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.cqa.engine import CqaEngine
from repro.exceptions import CyclicPriorityError
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row
from repro.relational.schema import RelationSchema

SCHEMA = RelationSchema("R", ["K", "A:number", "B"])
FDS = [FunctionalDependency.parse("K -> A", "R")]

ROWS = [("k0", 0, "x"), ("k0", 1, "y"), ("k0", 2, "z"), ("c0", 9, "q")]


def _row(*values) -> Row:
    return Row(SCHEMA, values)


def _database(rows=ROWS) -> Database:
    return Database([RelationInstance.from_values(SCHEMA, rows)])


EDGE_A = (_row("k0", 1, "y"), _row("k0", 0, "x"))
EDGE_B = (_row("k0", 2, "z"), _row("k0", 1, "y"))


class TestRefreshHooks:
    def test_refresh_invalidates_the_pref_engine(self):
        with SqliteMirror(FDS) as mirror:
            first = mirror.pref_engine_for(_database(), [EDGE_A])
            mirror.mark_dirty()
            second = mirror.pref_engine_for(_database(), [EDGE_A])
            assert second is not first  # rowids were reassigned


class TestReadOnlyServing:
    """Readers share the mirror connection, so once ``pref_engine_for``
    has returned, answering must not write to it: DDL between another
    reader's statements is what made concurrent reads fail."""

    WRITES = ("CREATE", "DROP", "INSERT", "DELETE", "UPDATE")

    def _writes_while_answering(self, mirror, engine):
        statements = []
        mirror._connection.set_trace_callback(statements.append)
        try:
            for family in Family:
                open_query = "EXISTS b . R(x, y, b)"
                closed_query = "EXISTS b . R('k0', 1, b)"
                assert engine.explain(open_query, family=family).pushed
                assert engine.explain(closed_query, (), family=family).pushed
                assert engine.certain_answers(open_query, family=family).route
                assert engine.answer(closed_query, family).route
        finally:
            mirror._connection.set_trace_callback(None)
        return [
            statement
            for statement in statements
            if statement.lstrip().upper().startswith(self.WRITES)
        ]

    def test_no_writes_after_construction(self):
        with SqliteMirror(FDS) as mirror:
            engine = mirror.pref_engine_for(_database(), [EDGE_A])
            assert self._writes_while_answering(mirror, engine) == []

    def test_no_writes_after_extension(self):
        with SqliteMirror(FDS) as mirror:
            mirror.pref_engine_for(_database(), [EDGE_A])
            engine = mirror.pref_engine_for(_database(), [EDGE_A, EDGE_B])
            assert self._writes_while_answering(mirror, engine) == []


class TestIncrementalEdges:
    def test_growing_priority_reuses_the_engine(self):
        with SqliteMirror(FDS) as mirror:
            first = mirror.pref_engine_for(_database(), [EDGE_A])
            again = mirror.pref_engine_for(_database(), [EDGE_A, EDGE_B])
            assert again is first  # side tables extended in place
            assert len(again.priority_edges) == 2

    def test_extended_engine_answers_like_memory(self):
        query = "EXISTS b . R(x, y, b)"
        with SqliteMirror(FDS, Family.COMMON) as mirror:
            engine = mirror.pref_engine_for(_database(), [EDGE_A])
            engine.certain_answers(query)  # warm caches, then extend
            engine = mirror.pref_engine_for(_database(), [EDGE_A, EDGE_B])
            result = engine.certain_answers(query, family=Family.COMMON)
            assert engine.last_route == "prefsql"
        reference = CqaEngine(
            _database(), FDS, [EDGE_A, EDGE_B], Family.COMMON
        ).certain_answers(query)
        assert result.certain == reference.certain
        assert result.possible == reference.possible

    def test_shrunk_priority_rebuilds(self):
        with SqliteMirror(FDS) as mirror:
            first = mirror.pref_engine_for(_database(), [EDGE_A, EDGE_B])
            second = mirror.pref_engine_for(_database(), [EDGE_A])
            assert second is not first
            assert len(second.priority_edges) == 1

    def test_reused_engine_adopts_the_requested_family(self):
        with SqliteMirror(FDS) as mirror:
            first = mirror.pref_engine_for(
                _database(), [EDGE_A], family=Family.GLOBAL
            )
            assert first.family is Family.GLOBAL
            again = mirror.pref_engine_for(
                _database(), [EDGE_A], family=Family.LOCAL
            )
            assert again is first
            assert again.family is Family.LOCAL
            # Omitting family reverts to the mirror's default (REP).
            default = mirror.pref_engine_for(_database(), [EDGE_A])
            assert default is first
            assert default.family is mirror.family

    def test_cyclic_extension_is_rejected(self):
        reverse = (EDGE_A[1], EDGE_A[0])
        with SqliteMirror(FDS) as mirror:
            engine = mirror.pref_engine_for(_database(), [EDGE_A])
            with pytest.raises(CyclicPriorityError):
                engine.extend_priority([reverse])
            # The failed extension must not have half-applied.
            assert len(engine.priority_edges) == 1

    def test_failed_extension_leaves_no_partial_edges(self):
        """A batch whose second edge is invalid must change nothing:
        validation completes before any side-table write, otherwise a
        later query silently answers under a half-applied priority."""
        from repro.exceptions import NonConflictingPriorityError

        ghost = (_row("k0", 2, "z"), _row("k0", 0, "ghost"))
        query = "EXISTS b . R(x, y, b)"
        with SqliteMirror(FDS, Family.COMMON) as mirror:
            engine = mirror.pref_engine_for(_database(), [EDGE_A])
            engine.certain_answers(query)  # warm caches pre-failure
            with pytest.raises(NonConflictingPriorityError):
                engine.extend_priority([EDGE_B, ghost])
            assert len(engine.priority_edges) == 1
            # A family not queried before forces a fresh survivor build
            # from the side table — which must still hold EDGE_A only.
            after = engine.certain_answers(
                query, family=Family.SEMI_GLOBAL
            )
            reference = CqaEngine(
                _database(), FDS, [EDGE_A], Family.SEMI_GLOBAL
            ).certain_answers(query)
            assert after.certain == reference.certain
            assert after.possible == reference.possible


class TestServedMirrorRows:
    """The served mirror is saved from the broker's set of rows, so no
    table of it ever holds duplicate rows and the prefsql engine blocks
    no relation with RA303 (which stays for file-backed sources)."""

    def test_writes_never_duplicate_a_mirror_row(self):
        from repro.relational.sqlite_io import quote_identifier
        from repro.service.broker import RequestBroker

        query = "EXISTS b . R(k, a, b)"
        with RequestBroker() as broker:
            broker.register("db", _database(), FDS, [EDGE_A, EDGE_B])
            assert broker.query(query).engine == "prefsql"
            broker.insert(_row("k1", 3, "u"), "db")
            broker.insert(_row("k1", 4, "v"), "db")
            broker.delete(_row("k0", 2, "z"), "db")
            broker.insert(_row("k0", 1, "y"), "db")  # already present
            assert broker.query(query).engine == "prefsql"
            entry = broker._entry("db")
            pushed = entry.mirror.pref_engine_for(
                entry.engine.current_database,
                entry.engine.active_priority_edges(),
            )
            assert pushed._blocked == {}
            connection = entry.mirror._connection
            tables = [
                name
                for (name,) in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            ]
            assert "R" in tables and len(tables) > 1  # side tables too
            for name in tables:
                table = quote_identifier(name)
                total, distinct = connection.execute(
                    f"SELECT (SELECT COUNT(*) FROM {table}), "
                    f"(SELECT COUNT(*) FROM (SELECT DISTINCT * FROM {table}))"
                ).fetchone()
                assert total == distinct, name
