"""A lazily refreshed SQLite mirror of a mutating instance.

The service broker keeps one :class:`~repro.incremental.engine.
IncrementalCqaEngine` per database while requests insert and delete
tuples (``repro serve``, ``repro session``, ``repro query``).  With
pushdown enabled it
also keeps this mirror: an (in-memory by default) SQLite database that
is re-saved from the engine's current state the first time a query
arrives after an update, so rewritable queries run pushed down while
updates stay incremental.  Refreshes are O(instance) and rebuild the
dependencies' covering indexes (see :func:`~repro.relational.sqlite_io.
ensure_fd_indexes`); a burst of updates between two queries costs one
refresh.  A pushed plan's outer selection searches those indexes when
it binds a dependency's left-hand side (a key lookup or key join) or
constrains a dependent attribute (an equality or range on it); a
selection on an attribute no dependency names scans the relation.

The mirror also hosts the preference-aware pushdown
(:mod:`repro.prefsql`): :meth:`pref_engine_for` hands out a
:class:`~repro.prefsql.engine.PrefSqlCqaEngine` whose conflict/edge
side tables live on the mirror connection.  Because a re-save
reassigns rowids, every refresh drops the preference engine; the next
:meth:`pref_engine_for` rebuilds its side tables.  The re-save writes
the engine's set of rows, so no mirror table ever holds duplicate rows.

The engines handed out here only push: a query they decline raises, and
the broker serves it from its incremental engine instead.  This class is
the only constructor of either pushed engine on the served path.

Every write to the connection happens in :meth:`engine_for` and
:meth:`pref_engine_for`: the re-save, and the preference engine's
edge, conflict and per-family survivor tables, which it builds in full
when it is constructed or its priority grows.  Answering a query only
reads, so once those calls return (the broker makes them under its
per-database mirror lock) concurrent readers may share the connection.
"""

from __future__ import annotations

import sqlite3
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Sequence, Union

from repro.backend.engine import SqlCqaEngine
from repro.cache import STATS_FIELDS, add_stats, tally
from repro.constraints.fd import FunctionalDependency
from repro.core.families import Family
from repro.priorities.priority import PriorityEdge
from repro.relational.database import Database
from repro.relational.sqlite_io import save_database


class SqliteMirror:
    """Owns a SQLite connection kept in sync with a changing database."""

    def __init__(
        self,
        dependencies: Sequence[FunctionalDependency],
        family: Family = Family.REP,
        target: str = ":memory:",
    ) -> None:
        # The service broker refreshes and queries the mirror from
        # whichever front-end thread holds the per-database refresh
        # lock, so writes are serialized but not thread-affine, and
        # read-only queries may overlap.
        self._connection = sqlite3.connect(target, check_same_thread=False)
        self.dependencies = tuple(dependencies)
        self.family = family
        self._dirty = True
        self._engine: Optional[SqlCqaEngine] = None
        self._pref_engine = None
        self._pref_edges: Optional[FrozenSet[PriorityEdge]] = None
        #: Per family, what the decision caches of the pushed engines
        #: dropped so far counted; guarded by the caller's refresh lock.
        self._retired: Dict[str, Dict[str, int]] = {
            "sql_decision": dict.fromkeys(STATS_FIELDS, 0),
            "prefsql_decision": dict.fromkeys(STATS_FIELDS, 0),
        }

    def mark_dirty(self) -> None:
        """Record that the source instance changed since the last refresh."""
        self._dirty = True

    @property
    def dirty(self) -> bool:
        """Whether the next :meth:`engine_for` will re-save the source."""
        return self._dirty or self._engine is None

    def _refresh(
        self, database: Union[Database, Callable[[], Database]]
    ) -> None:
        if callable(database):
            database = database()
        save_database(database, self._connection, self.dependencies)
        self._retire(self._engine)
        self._retire(self._pref_engine)
        self._engine = SqlCqaEngine(
            self._connection, self.dependencies, family=self.family
        )
        # The preference side tables reference rowids, which the
        # re-save reassigned.
        self._pref_engine = None
        self._pref_edges = None
        self._dirty = False

    def engine_for(
        self, database: Union[Database, Callable[[], Database]]
    ) -> SqlCqaEngine:
        """A :class:`SqlCqaEngine` over an up-to-date mirror of ``database``.

        ``database`` may be a zero-argument callable, invoked only when
        a refresh is actually due — callers whose source snapshot is
        itself O(instance) to assemble (the broker's
        ``current_database()``) skip that cost on clean mirrors.
        """
        if self.dirty:
            self._refresh(database)
        return self._engine

    def pref_engine_for(
        self,
        database: Union[Database, Callable[[], Database]],
        priority_edges: Iterable[PriorityEdge],
        family: Optional[Family] = None,
    ):
        """A :class:`~repro.prefsql.engine.PrefSqlCqaEngine` over an
        up-to-date mirror, rebuilt when the data or the declared
        priority changed since the last call."""
        from repro.prefsql.engine import PrefSqlCqaEngine  # cycle guard

        edges = frozenset(priority_edges)
        effective_family = family or self.family
        if self.dirty:
            self._refresh(database)
        if (
            self._pref_engine is not None
            and self._pref_edges is not None
            and edges >= self._pref_edges
        ):
            # Priority grew but the data did not change: maintain the
            # side tables incrementally instead of rebuilding.
            extra = edges - self._pref_edges
            if extra:
                self._pref_engine.extend_priority(sorted(extra))
                self._pref_edges = edges
            if self._pref_engine.family is not effective_family:
                # The default family is per-call state on the engine
                # (answers are keyed per family internally); omitting
                # ``family`` always means the mirror's own default.
                self._pref_engine.family = effective_family
        else:
            self._retire(self._pref_engine)
            self._pref_engine = PrefSqlCqaEngine(
                self._connection,
                self.dependencies,
                sorted(edges),
                effective_family,
            )
            self._pref_edges = edges
        return self._pref_engine

    def _retire(self, engine) -> None:
        """Carry a dropped engine's decision-cache counts into the
        running totals; its entries go with it."""
        if engine is not None:
            counts = {**engine.decisions.stats(), "entries": 0}
            add_stats(self._retired, engine.decisions.family, counts)

    def add_cache_stats(self, totals: Dict[str, Dict[str, int]]) -> None:
        """Add the live pushed engines' decision-cache stats and the
        retired counts to ``totals``; callers hold the refresh lock."""
        for family, counts in self._retired.items():
            add_stats(totals, family, counts)
        engines = (self._engine, self._pref_engine)
        tally([engine.decisions for engine in engines if engine is not None], totals)

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "SqliteMirror":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
