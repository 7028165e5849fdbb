"""Unit tests for CSV and SQLite persistence."""

import sqlite3

import pytest

from repro.exceptions import SchemaError, UnknownRelationError
from repro.relational.csv_io import (
    instance_to_csv_text,
    read_instance_csv,
    read_instance_csv_text,
    write_instance_csv,
)
from repro.relational.database import Database
from repro.relational.domain import AttributeType
from repro.relational.instance import RelationInstance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.constraints.fd import FunctionalDependency
from repro.relational.sqlite_io import (
    ensure_fd_indexes,
    load_database,
    load_instance,
    load_schema,
    save_database,
    save_instance,
)

SCHEMA = RelationSchema("Mgr", ["Name", "Dept", "Salary:number"])


def sample_instance():
    return RelationInstance.from_values(
        SCHEMA, [("Mary", "R&D", 40), ("John", "PR", 30)]
    )


class TestCsv:
    def test_round_trip_text(self):
        instance = sample_instance()
        text = instance_to_csv_text(instance)
        again = read_instance_csv_text(text, "Mgr")
        assert again == instance

    def test_round_trip_file(self, tmp_path):
        instance = sample_instance()
        path = tmp_path / "mgr.csv"
        write_instance_csv(instance, path)
        assert read_instance_csv(path, "Mgr") == instance

    def test_relation_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "Mgr.csv"
        write_instance_csv(sample_instance(), path)
        assert read_instance_csv(path).schema.name == "Mgr"

    def test_type_inference_without_suffix(self):
        text = "Name,Salary\nMary,40\nJohn,30\n"
        instance = read_instance_csv_text(text, "Emp")
        assert instance.schema.type_of("Salary") is AttributeType.NUMBER
        assert instance.schema.type_of("Name") is AttributeType.NAME

    def test_mixed_column_stays_name(self):
        text = "A\n1\nx\n"
        instance = read_instance_csv_text(text, "R")
        assert instance.schema.type_of("A") is AttributeType.NAME

    def test_explicit_schema_header_check(self):
        with pytest.raises(SchemaError):
            read_instance_csv_text("X,Y\n1,2\n", "Mgr", SCHEMA)

    def test_empty_input_rejected(self):
        with pytest.raises(SchemaError):
            read_instance_csv_text("", "R")

    def test_bad_record_arity(self):
        with pytest.raises(SchemaError):
            read_instance_csv_text("A,B\n1\n", "R")


class TestSqlite:
    def test_round_trip_file(self, tmp_path):
        instance = sample_instance()
        path = tmp_path / "db.sqlite"
        save_instance(instance, path)
        assert load_instance(path, "Mgr") == instance

    def test_round_trip_preserves_types_when_empty(self, tmp_path):
        empty = RelationInstance(SCHEMA)
        path = tmp_path / "db.sqlite"
        save_instance(empty, path)
        loaded = load_instance(path, "Mgr")
        assert loaded.schema == SCHEMA

    def test_unknown_relation(self, tmp_path):
        path = tmp_path / "db.sqlite"
        save_instance(sample_instance(), path)
        with pytest.raises(UnknownRelationError):
            load_instance(path, "Nope")

    def test_database_round_trip(self, tmp_path):
        other = RelationSchema("Dept", ["Dept", "Budget:number"])
        db = Database(
            [
                sample_instance(),
                RelationInstance.from_values(other, [("R&D", 100)]),
            ]
        )
        path = tmp_path / "db.sqlite"
        save_database(db, path)
        assert load_database(path) == db

    def test_load_foreign_table_via_pragma(self, tmp_path):
        path = tmp_path / "db.sqlite"
        with sqlite3.connect(path) as connection:
            connection.execute("CREATE TABLE T (X TEXT NOT NULL, N INTEGER NOT NULL)")
            connection.execute("INSERT INTO T VALUES ('a', 1)")
        instance = load_instance(str(path), "T")
        assert instance.schema.type_of("N") is AttributeType.NUMBER
        assert len(instance) == 1

    def test_save_replaces_existing_table(self, tmp_path):
        path = tmp_path / "db.sqlite"
        save_instance(sample_instance(), path)
        smaller = RelationInstance.from_values(SCHEMA, [("Solo", "IT", 1)])
        save_instance(smaller, path)
        assert load_instance(path, "Mgr") == smaller


def _dept_instance():
    schema = RelationSchema("Dept", ["Dept", "Budget:number"])
    return RelationInstance.from_values(schema, [("R&D", 100)])


class TestSqliteSchemaSync:
    def test_resave_drops_removed_relations(self, tmp_path):
        """save -> delete relation -> save -> load loads cleanly."""
        path = tmp_path / "db.sqlite"
        save_database(Database([sample_instance(), _dept_instance()]), path)
        shrunk = Database([sample_instance()])
        save_database(shrunk, path)
        assert load_database(path) == shrunk

    def test_resave_purges_stale_table_and_metadata(self, tmp_path):
        path = tmp_path / "db.sqlite"
        save_database(Database([sample_instance(), _dept_instance()]), path)
        save_database(Database([sample_instance()]), path)
        with pytest.raises(UnknownRelationError):
            load_instance(path, "Dept")
        with sqlite3.connect(path) as connection:
            cursor = connection.execute(
                "SELECT 1 FROM sqlite_master WHERE name = 'Dept'"
            )
            assert cursor.fetchone() is None

    def test_recorded_relation_with_missing_table(self, tmp_path):
        """Stale metadata surfaces as UnknownRelationError, not a raw
        sqlite3.OperationalError."""
        path = tmp_path / "db.sqlite"
        save_instance(sample_instance(), path)
        with sqlite3.connect(path) as connection:
            connection.execute('DROP TABLE "Mgr"')
        with pytest.raises(UnknownRelationError):
            load_instance(path, "Mgr")

    def test_load_schema_lists_recorded_relations(self, tmp_path):
        path = tmp_path / "db.sqlite"
        db = Database([sample_instance(), _dept_instance()])
        save_database(db, path)
        schema = load_schema(path)
        assert set(schema.relation_names) == {"Mgr", "Dept"}
        assert schema.relation("Mgr") == SCHEMA

    def test_load_schema_can_include_foreign_tables(self, tmp_path):
        path = tmp_path / "db.sqlite"
        with sqlite3.connect(path) as connection:
            connection.execute("CREATE TABLE T (X TEXT NOT NULL, N INTEGER NOT NULL)")
        schema = load_schema(path, ["T"])
        assert schema.relation("T").type_of("N") is AttributeType.NUMBER


class TestSqliteCatalogTypes:
    def _external(self, path, declaration):
        with sqlite3.connect(path) as connection:
            connection.execute(f"CREATE TABLE T (X TEXT NOT NULL, Y {declaration})")
        return path

    def test_numeric_affinity_loads_as_number(self, tmp_path):
        path = self._external(tmp_path / "db.sqlite", "NUMERIC NOT NULL")
        with sqlite3.connect(path) as connection:
            connection.execute("INSERT INTO T VALUES ('a', 3)")
        instance = load_instance(path, "T")
        assert instance.schema.type_of("Y") is AttributeType.NUMBER
        assert len(instance) == 1

    def test_varchar_loads_as_name(self, tmp_path):
        path = self._external(tmp_path / "db.sqlite", "VARCHAR(30) NOT NULL")
        assert load_instance(path, "T").schema.type_of("Y") is AttributeType.NAME

    def test_real_column_rejected(self, tmp_path):
        path = self._external(tmp_path / "db.sqlite", "REAL NOT NULL")
        with pytest.raises(SchemaError, match="floating-point"):
            load_instance(path, "T")

    def test_blob_column_rejected(self, tmp_path):
        path = self._external(tmp_path / "db.sqlite", "BLOB")
        with pytest.raises(SchemaError, match="BLOB"):
            load_instance(path, "T")

    def test_typeless_column_rejected(self, tmp_path):
        path = tmp_path / "db.sqlite"
        with sqlite3.connect(path) as connection:
            connection.execute("CREATE TABLE T (X TEXT NOT NULL, Y)")
        with pytest.raises(SchemaError, match="no declared"):
            load_instance(path, "T")


class TestFdIndexes:
    FDS = [FunctionalDependency.parse("Name -> Dept, Salary", "Mgr")]

    def _index_names(self, path):
        with sqlite3.connect(path) as connection:
            cursor = connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            )
            return {record[0] for record in cursor.fetchall()}

    def test_save_instance_creates_covering_index(self, tmp_path):
        path = tmp_path / "db.sqlite"
        save_instance(sample_instance(), path, self.FDS)
        assert "_repro_idx_Mgr_Name_Dept_Salary" in self._index_names(path)

    def test_save_database_creates_indexes(self, tmp_path):
        path = tmp_path / "db.sqlite"
        save_database(Database([sample_instance()]), path, self.FDS)
        assert any(
            name.startswith("_repro_idx_Mgr") for name in self._index_names(path)
        )

    def test_ensure_fd_indexes_is_idempotent(self, tmp_path):
        path = tmp_path / "db.sqlite"
        save_instance(sample_instance(), path)
        schema = load_schema(path)
        first = ensure_fd_indexes(path, schema, self.FDS)
        second = ensure_fd_indexes(path, schema, self.FDS)
        assert first == second
        assert "_repro_idx_Mgr_Name_Dept_Salary" in self._index_names(path)

    def test_dependent_side_indexes(self, tmp_path):
        # One (A, LHS...) index per dependent attribute A, beside the
        # (LHS..., RHS...) index; idempotent like it, and none at all
        # for a dependency naming an attribute the relation lacks.
        path = tmp_path / "db.sqlite"
        save_instance(sample_instance(), path)
        schema = load_schema(path)
        missing = [FunctionalDependency.parse("Name -> Budget", "Mgr")]
        first = ensure_fd_indexes(path, schema, self.FDS + missing)
        second = ensure_fd_indexes(path, schema, self.FDS + missing)
        expected = [
            "_repro_idx_Mgr_Name_Dept_Salary",
            "_repro_idx_Mgr_Dept_Name",
            "_repro_idx_Mgr_Salary_Name",
        ]
        assert first == second == expected
        assert {
            name
            for name in self._index_names(path)
            if name.startswith("_repro_idx_")
        } == set(expected)
        with sqlite3.connect(path) as connection:
            columns = [
                record[2]
                for record in connection.execute(
                    "SELECT * FROM pragma_index_info('_repro_idx_Mgr_Salary_Name')"
                )
            ]
        assert columns == ["Salary", "Name"]

    def test_column_lists_that_join_alike_get_distinct_names(self, tmp_path):
        # ("A", "B_C") and ("A_B", "C") both join to "A_B_C": the second
        # list must still get an index of its own, under another name.
        schema = RelationSchema("R", ["A", "B_C", "A_B", "C"])
        fds = [
            FunctionalDependency.parse("A -> B_C", "R"),
            FunctionalDependency.parse("A_B -> C", "R"),
        ]
        path = tmp_path / "db.sqlite"
        save_instance(
            RelationInstance.from_values(schema, [("a", "bc", "ab", "c")]),
            path,
        )
        first = ensure_fd_indexes(path, DatabaseSchema([schema]), fds)
        second = ensure_fd_indexes(path, DatabaseSchema([schema]), fds)
        with sqlite3.connect(path) as connection:
            indexes = {
                name: tuple(
                    record[2]
                    for record in connection.execute(
                        f'PRAGMA index_info("{name}")'
                    )
                )
                for (name,) in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'index' "
                    "AND tbl_name = 'R'"
                )
            }
        assert indexes == {
            "_repro_idx_R_A_B_C": ("A", "B_C"),
            "_repro_idx_R_B_C_A": ("B_C", "A"),
            "_repro_idx_R_A_B_C_1": ("A_B", "C"),
            "_repro_idx_R_C_A_B": ("C", "A_B"),
        }
        assert first == second == list(indexes)

    def test_each_index_name_is_returned_once(self, tmp_path):
        # Both dependencies ask for the (Dept, Name) index.
        path = tmp_path / "db.sqlite"
        save_instance(sample_instance(), path)
        fds = [
            FunctionalDependency.parse("Name -> Dept", "Mgr"),
            FunctionalDependency.parse("Name -> Dept, Salary", "Mgr"),
        ]
        names = ensure_fd_indexes(path, load_schema(path), fds)
        assert names == [
            "_repro_idx_Mgr_Name_Dept",
            "_repro_idx_Mgr_Dept_Name",
            "_repro_idx_Mgr_Name_Dept_Salary",
            "_repro_idx_Mgr_Salary_Name",
        ]

    def test_indexes_skip_inapplicable_dependencies(self, tmp_path):
        path = tmp_path / "db.sqlite"
        other = [FunctionalDependency.parse("Dept -> Budget", "Dept")]
        save_instance(sample_instance(), path, other)
        assert not {
            name
            for name in self._index_names(path)
            if name.startswith("_repro_idx_")
        }
