"""Immutable database tuples (rows).

A :class:`Row` is the paper's tuple ``t``: it belongs to a relation and
holds one value per attribute.  Rows are immutable and hashable so they
can serve as vertices of conflict graphs, members of repairs (frozensets)
and endpoints of priority edges.

Equality is by relation name and values — two rows loaded from different
schema objects with the same relation name and the same values are the
same tuple, mirroring the paper's set semantics.  Attribute access
``row["Salary"]`` (the paper's ``t.A``) goes through the carried schema.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from repro.relational.domain import Value
from repro.relational.schema import RelationSchema


class Row:
    """An immutable tuple of a relation instance."""

    __slots__ = ("schema", "values", "_hash")

    def __init__(self, schema: RelationSchema, values: Sequence[Value]) -> None:
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "values", schema.validate_values(values))
        object.__setattr__(self, "_hash", hash((schema.name, self.values)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Row is immutable")

    @property
    def relation(self) -> str:
        """Name of the relation this row belongs to."""
        return self.schema.name

    def __getitem__(self, attribute: str) -> Value:
        """Value of ``attribute`` (the paper's ``t.A``)."""
        return self.values[self.schema.index_of(attribute)]

    def project(self, attributes: Sequence[str]) -> Tuple[Value, ...]:
        """Values of the given attributes, in the given order."""
        return tuple(self[attribute] for attribute in attributes)

    def agrees_with(self, other: "Row", attributes: Sequence[str]) -> bool:
        """Whether both rows share values on all ``attributes``."""
        return all(self[attr] == other[attr] for attr in attributes)

    def replace(self, **updates: Value) -> "Row":
        """A copy of this row with some attribute values replaced."""
        values = list(self.values)
        for attribute, value in updates.items():
            values[self.schema.index_of(attribute)] = value
        return Row(self.schema, values)

    def __reduce__(self):
        # Rows block ``__setattr__`` (immutability), which breaks the
        # default slot-state pickling; reconstructing through __init__
        # keeps them picklable for process-pool shard payloads.
        return (Row, (self.schema, self.values))

    def __iter__(self) -> Iterator[Value]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self.relation == other.relation and self.values == other.values

    def __lt__(self, other: "Row") -> bool:
        """Deterministic (arbitrary) order used for stable output listings."""
        if not isinstance(other, Row):
            return NotImplemented
        return row_sort_key(self) < row_sort_key(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(repr(value) for value in self.values)
        return f"{self.relation}({inner})"


def values_sort_key(values: Sequence[Value]) -> Tuple[Tuple[int, str], ...]:
    """Mixed str/int sort key (ints before strs, each naturally ordered)
    of a value tuple: a row's values or an answer tuple."""
    return tuple(
        (0, f"{value:020d}") if isinstance(value, int) else (1, value)
        for value in values
    )


def row_sort_key(row: Row) -> Tuple[str, Tuple[Tuple[int, str], ...]]:
    """The key of the deterministic row order (``Row.__lt__``); sorting
    with it builds each key once instead of twice per comparison."""
    return (row.relation, values_sort_key(row.values))


def sorted_rows(rows) -> list:
    """Rows in the deterministic listing order used across the library."""
    return sorted(rows, key=row_sort_key)
