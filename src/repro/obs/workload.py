"""Workload capture: recorded traffic as a replayable, versioned file.

The flight recorder (:mod:`repro.obs.recorder`) retains what the
service actually executed — query text, family, database, latency.
This module turns that passive record (or a hand-authored spec) into an
**active** artifact: a JSON-lines workload file the load generator
(:mod:`repro.service.loadgen`) can replay against a live service or an
in-process broker under controlled concurrency and read/write mixes.

File format (one JSON object per line):

* line 1 — the **header**: ``{"workload": "repro-workload",
  "version": 1, "name": ..., "entries": N}``.  The version is checked
  on load; unknown versions are rejected rather than misread.
* every further line — one :class:`WorkloadEntry`:

  - ``{"kind": "query", "query": "...", "family": "G"|null,
    "variables": [...]|null, "database": null, "weight": 3}`` — a read
    operation.  ``weight`` is the entry's relative draw frequency
    (export derives it from how often the recorder saw the query).
  - ``{"kind": "churn", "relation": "W", "values": [...],
    "unique_column": 0, "base": 1000000, "weight": 1}`` — a write
    operation: insert one row, then delete it.  The value at
    ``unique_column`` is replaced by ``base + n`` for a fresh ``n`` on
    every draw, so concurrent replay never inserts or deletes the same
    physical row twice and the instance returns to its baseline state
    no matter how the operations interleave.

Exports are **deterministic**: entries are sorted by (kind, identity)
and weights aggregated, so exporting the same retained records twice
yields byte-identical files — they diff cleanly in version control.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.families import FAMILY_CODES, Family

from .recorder import QueryRecord

#: Magic + version the loader accepts.
FORMAT_NAME = "repro-workload"
FORMAT_VERSION = 1

#: Accept both the short codes and ``str(Family)`` forms ("G-Rep") on
#: input — recorder records carry the latter — normalising to the code.
_FAMILY_ALIASES: Dict[str, str] = {
    **{code: code for code in FAMILY_CODES},
    **{str(family): code for code, family in FAMILY_CODES.items()},
}


class WorkloadError(ValueError):
    """A malformed workload file or entry."""


@dataclass(frozen=True)
class WorkloadEntry:
    """One weighted operation of a workload.

    ``kind`` is ``"query"`` (read: the first-order query text, optional
    family code, answer columns, and target database) or ``"churn"``
    (write: insert-then-delete one row of ``relation``, with the value
    at ``unique_column`` replaced by ``base + n`` per draw).
    """

    kind: str
    weight: int = 1
    # query fields
    query: Optional[str] = None
    family: Optional[str] = None
    variables: Optional[Tuple[str, ...]] = None
    database: Optional[str] = None
    # churn fields
    relation: Optional[str] = None
    values: Optional[Tuple[object, ...]] = None
    unique_column: int = 0
    base: int = 1_000_000

    def __post_init__(self) -> None:
        if self.kind not in ("query", "churn"):
            raise WorkloadError(
                f"unknown entry kind {self.kind!r} (expected query|churn)"
            )
        if not isinstance(self.weight, int) or self.weight < 1:
            raise WorkloadError(f"weight must be a positive int: {self.weight!r}")
        if self.kind == "query":
            if not self.query or not isinstance(self.query, str):
                raise WorkloadError("query entries need a non-empty 'query'")
            if self.family is not None and self.family not in FAMILY_CODES:
                raise WorkloadError(
                    f"unknown family code {self.family!r} "
                    f"(expected one of {sorted(FAMILY_CODES)})"
                )
        else:
            if not self.relation or not isinstance(self.relation, str):
                raise WorkloadError("churn entries need a 'relation'")
            if self.values is None or not len(self.values):
                raise WorkloadError("churn entries need non-empty 'values'")
            if not 0 <= self.unique_column < len(self.values):
                raise WorkloadError(
                    f"unique_column {self.unique_column} outside values "
                    f"of arity {len(self.values)}"
                )

    @property
    def is_read(self) -> bool:
        return self.kind == "query"

    def family_enum(self) -> Optional[Family]:
        return FAMILY_CODES[self.family] if self.family else None

    def churn_values(self, draw: int) -> List[object]:
        """The concrete row values for the ``draw``-th churn of this
        entry — the unique column carries ``base + draw``."""
        assert self.values is not None
        values = list(self.values)
        values[self.unique_column] = self.base + draw
        return values

    def to_dict(self) -> Dict[str, object]:
        body: Dict[str, object] = {"kind": self.kind, "weight": self.weight}
        if self.kind == "query":
            body["query"] = self.query
            if self.family is not None:
                body["family"] = self.family
            if self.variables is not None:
                body["variables"] = list(self.variables)
            if self.database is not None:
                body["database"] = self.database
        else:
            body["relation"] = self.relation
            body["values"] = list(self.values or ())
            body["unique_column"] = self.unique_column
            body["base"] = self.base
            if self.database is not None:
                body["database"] = self.database
        return body

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "WorkloadEntry":
        if not isinstance(payload, dict):
            raise WorkloadError(f"entry must be a JSON object, got {payload!r}")
        kind = payload.get("kind", "query")
        weight = payload.get("weight", 1)
        if not isinstance(weight, int) or isinstance(weight, bool):
            raise WorkloadError(f"weight must be an int: {weight!r}")
        family = payload.get("family")
        if family is not None:
            family = _FAMILY_ALIASES.get(str(family))
            if family is None:
                raise WorkloadError(
                    f"unknown family {payload.get('family')!r}"
                )
        variables = payload.get("variables")
        if variables is not None:
            if not isinstance(variables, (list, tuple)):
                raise WorkloadError("'variables' must be a list")
            variables = tuple(str(name) for name in variables)
        values = payload.get("values")
        if values is not None:
            if not isinstance(values, (list, tuple)):
                raise WorkloadError("'values' must be a list")
            values = tuple(values)
        return cls(
            kind=str(kind),
            weight=weight,
            query=payload.get("query"),
            family=family,
            variables=variables,
            database=payload.get("database"),
            relation=payload.get("relation"),
            values=values,
            unique_column=int(payload.get("unique_column", 0)),
            base=int(payload.get("base", 1_000_000)),
        )


@dataclass(frozen=True)
class Workload:
    """A named, versioned sequence of weighted operations."""

    entries: Tuple[WorkloadEntry, ...]
    name: str = "workload"
    source: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.entries:
            raise WorkloadError("a workload needs at least one entry")

    @property
    def reads(self) -> Tuple[WorkloadEntry, ...]:
        return tuple(entry for entry in self.entries if entry.is_read)

    @property
    def writes(self) -> Tuple[WorkloadEntry, ...]:
        return tuple(entry for entry in self.entries if not entry.is_read)

    def header(self) -> Dict[str, object]:
        body: Dict[str, object] = {
            "workload": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "name": self.name,
            "entries": len(self.entries),
        }
        if self.source is not None:
            body["source"] = self.source
        return body

    def dumps(self) -> str:
        """The full JSON-lines file body (header + one line per entry)."""
        lines = [json.dumps(self.header(), sort_keys=True)]
        lines.extend(
            json.dumps(entry.to_dict(), sort_keys=True)
            for entry in self.entries
        )
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())
        return path


def _entry_sort_key(entry: WorkloadEntry) -> Tuple:
    return (
        entry.kind,
        entry.query or "",
        entry.family or "",
        entry.relation or "",
        tuple(map(repr, entry.values or ())),
        entry.database or "",
    )


def normalize_entries(
    entries: Iterable[WorkloadEntry],
) -> Tuple[WorkloadEntry, ...]:
    """Deterministic entry order with duplicate identities merged —
    weights add, so 'the same query seen three times' becomes one entry
    of weight 3 regardless of arrival order."""
    merged: Dict[Tuple, WorkloadEntry] = {}
    for entry in entries:
        key = _entry_sort_key(entry)
        existing = merged.get(key)
        if existing is None:
            merged[key] = entry
        else:
            merged[key] = replace(
                existing, weight=existing.weight + entry.weight
            )
    return tuple(merged[key] for key in sorted(merged))


def export_from_records(
    records: Sequence[QueryRecord],
    name: str = "recorded",
    source: Optional[str] = None,
) -> Workload:
    """Distill retained flight-recorder records into a workload.

    Each distinct (query, family, database) becomes one query entry
    whose weight is the number of retained records that executed it —
    the replayed traffic shape follows what the recorder actually saw.
    """
    if not records:
        raise WorkloadError("no retained records to export")
    entries = [
        WorkloadEntry(
            kind="query",
            query=record.query,
            family=_FAMILY_ALIASES.get(record.family),
            database=record.database,
        )
        for record in records
    ]
    return Workload(normalize_entries(entries), name=name, source=source)


def export_from_debug_payload(
    payload: Dict[str, object],
    name: str = "recorded",
    source: Optional[str] = None,
) -> Workload:
    """Build a workload from a ``GET /debug/queries`` response body."""
    queries = payload.get("queries")
    if not isinstance(queries, list) or not queries:
        raise WorkloadError("debug payload holds no retained queries")
    records = [QueryRecord.from_dict(entry) for entry in queries]
    return export_from_records(records, name=name, source=source)


def loads(text: str) -> Workload:
    """Parse a workload file body, validating header and every entry."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise WorkloadError("empty workload file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise WorkloadError(f"bad header line: {exc}")
    if not isinstance(header, dict) or header.get("workload") != FORMAT_NAME:
        raise WorkloadError(
            f"not a {FORMAT_NAME} file (bad or missing header line)"
        )
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise WorkloadError(
            f"unsupported workload version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    entries: List[WorkloadEntry] = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise WorkloadError(f"line {number}: bad JSON: {exc}")
        try:
            entries.append(WorkloadEntry.from_dict(payload))
        except WorkloadError as exc:
            raise WorkloadError(f"line {number}: {exc}")
    declared = header.get("entries")
    if isinstance(declared, int) and declared != len(entries):
        raise WorkloadError(
            f"header declares {declared} entries, file holds {len(entries)}"
        )
    return Workload(
        tuple(entries),
        name=str(header.get("name", "workload")),
        source=header.get("source"),
    )


def load(path: str) -> Workload:
    """Load and validate a workload file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())
