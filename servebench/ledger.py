"""Per-layer spans recorded from outside the program.

:class:`SpanLog` wraps the public entry point of every layer — the
function a caller in the layer above uses — with a timing shim, for the
traced run only.  Each call records a span (layer, start, end, parent
span, request id) in memory; :meth:`SpanLog.write` dumps them as JSON
lines when the run ends.  A layer's *self time* is its span's duration
minus the time its child spans cover, so the self times of all layers
add up to the time of the root spans (one ``server`` span per op).

Nothing in ``src/`` is edited: the shims are installed by
:meth:`SpanLog.install` and removed by :meth:`SpanLog.uninstall`, and
functions imported by name into other modules are replaced at every
such binding.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: A recorded span: [layer, start, end, parent span or None, request
#: id, mirror-was-dirty flag].  Lists keep the shim cheap.
Span = list

LAYER = 0
START = 1
END = 2
PARENT = 3
REQUEST = 4
DIRTY = 5


def _targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, layer) of every wrapped entry point."""
    from repro.analysis import analyzer
    from repro.backend import rewrite
    from repro.backend.engine import SqlCqaEngine
    from repro.backend.mirror import SqliteMirror
    from repro.incremental.engine import IncrementalCqaEngine
    from repro.prefsql.engine import PrefSqlCqaEngine
    from repro.query import parser
    from repro.service.broker import RequestBroker
    from repro.service.rwlock import ReadWriteLock
    from repro.service.server import ServiceFrontEnd

    return [
        (ServiceFrontEnd, "handle", "server"),
        (RequestBroker, "submit", "broker"),
        (RequestBroker, "insert", "broker"),
        (RequestBroker, "delete", "broker"),
        (ReadWriteLock, "acquire_read", "rwlock.read"),
        (ReadWriteLock, "acquire_write", "rwlock.write"),
        (parser, "parse_query", "query.parse"),
        (analyzer, "analyze", "analysis"),
        (rewrite, "analyze_query", "analysis"),
        (SqliteMirror, "engine_for", "backend.mirror"),
        (SqliteMirror, "pref_engine_for", "backend.mirror"),
        (SqlCqaEngine, "explain", "backend.sql"),
        (SqlCqaEngine, "answer", "backend.sql"),
        (SqlCqaEngine, "certain_answers", "backend.sql"),
        (PrefSqlCqaEngine, "__init__", "prefsql.build"),
        (PrefSqlCqaEngine, "explain", "prefsql.sql"),
        (PrefSqlCqaEngine, "answer", "prefsql.sql"),
        (PrefSqlCqaEngine, "certain_answers", "prefsql.sql"),
        (IncrementalCqaEngine, "answer", "incremental.answer"),
        (IncrementalCqaEngine, "certain_answers", "incremental.answer"),
        (IncrementalCqaEngine, "insert", "incremental.update"),
        (IncrementalCqaEngine, "delete", "incremental.update"),
    ]


class SpanLog:
    """In-memory span store plus the shims that fill it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    # Request scoping ----------------------------------------------------------

    def set_request(self, request: Optional[int]) -> None:
        """Tag the spans this thread opens next with ``request``."""
        self._local.request = request

    # Shims --------------------------------------------------------------------

    def _shim(self, layer: str, function: Callable) -> Callable:
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        mirror = layer == "backend.mirror"

        @functools.wraps(function)
        def shim(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [
                layer,
                0.0,
                0.0,
                stack[-1] if stack else None,
                getattr(local, "request", None),
                bool(args[0].dirty) if mirror else False,
            ]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return shim

    def install(self) -> None:
        """Wrap every target, including each by-name import of it."""
        if self._patched:
            raise RuntimeError("span shims are already installed")
        for owner, attribute, layer in _targets():
            original = owner.__dict__[attribute]
            shim = self._shim(layer, original)
            if isinstance(owner, type):
                bindings: Iterable[Tuple[object, str]] = [(owner, attribute)]
            else:
                # A module-level function: also replace every binding
                # that ``from module import name [as alias]`` created.
                bindings = [
                    (module, name)
                    for module in list(sys.modules.values())
                    for name, value in list(getattr(module, "__dict__", {}).items())
                    if value is original
                ]
            for target, name in bindings:
                self._patched.append((target, name, original))
                setattr(target, name, shim)

    def uninstall(self) -> None:
        """Restore every wrapped function (idempotent)."""
        while self._patched:
            target, attribute, original = self._patched.pop()
            setattr(target, attribute, original)

    # Output -------------------------------------------------------------------

    def write(self, path: str, origin: float) -> None:
        """Dump the spans as JSON lines, times relative to ``origin``."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as stream:
            for index, span in enumerate(self.spans):
                parent = span[PARENT]
                record = {
                    "id": index,
                    "name": span[LAYER],
                    "start_ms": round((span[START] - origin) * 1e3, 6),
                    "end_ms": round((span[END] - origin) * 1e3, 6),
                    "parent": ids[id(parent)] if parent is not None else None,
                    "request": span[REQUEST],
                }
                if span[DIRTY]:
                    record["dirty"] = True
                stream.write(json.dumps(record) + "\n")


def tree_problems(spans: List[Span]) -> List[str]:
    """Ways in which ``spans`` fail to form well-nested request trees."""
    known = {id(span) for span in spans}
    problems: List[str] = []
    for index, span in enumerate(spans):
        if span[END] < span[START]:
            problems.append(f"span {index} ({span[LAYER]}) ends before it starts")
        parent = span[PARENT]
        if parent is None:
            continue
        if id(parent) not in known:
            problems.append(f"span {index} ({span[LAYER]}) has an unknown parent")
        elif parent[START] > span[START] or span[END] > parent[END]:
            problems.append(
                f"span {index} ({span[LAYER]}) lies outside its parent "
                f"({parent[LAYER]})"
            )
        elif parent[REQUEST] != span[REQUEST]:
            problems.append(
                f"span {index} ({span[LAYER]}) belongs to another request "
                "than its parent"
            )
    return problems


class LayerTotals:
    """Self time, inclusive time and call count per (request, layer)."""

    def __init__(self, spans: List[Span]) -> None:
        covered: Dict[int, float] = defaultdict(float)
        for span in spans:
            parent = span[PARENT]
            if parent is not None:
                covered[id(parent)] += span[END] - span[START]
        #: request id -> layer -> [self seconds, inclusive seconds, calls]
        self.by_request: Dict[object, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0.0, 0])
        )
        #: request id -> [dirty mirror calls, their inclusive seconds]
        self.refreshes: Dict[object, List[float]] = defaultdict(
            lambda: [0, 0.0]
        )
        for span in spans:
            duration = span[END] - span[START]
            cell = self.by_request[span[REQUEST]][span[LAYER]]
            cell[0] += duration - covered.get(id(span), 0.0)
            cell[1] += duration
            cell[2] += 1
            if span[DIRTY]:
                refresh = self.refreshes[span[REQUEST]]
                refresh[0] += 1
                refresh[1] += duration

    def total(self, requests: Iterable[object], layer: str, column: int) -> float:
        """Sum of one column of ``layer`` over ``requests``."""
        return sum(
            self.by_request[request][layer][column]
            for request in requests
            if request in self.by_request and layer in self.by_request[request]
        )

    def self_seconds(self, requests: Iterable[object]) -> float:
        """Self time of every layer over ``requests``."""
        return sum(
            cell[0]
            for request in requests
            if request in self.by_request
            for cell in self.by_request[request].values()
        )

    def refresh_totals(self, requests: Iterable[object]) -> Tuple[int, float]:
        count, seconds = 0, 0.0
        for request in requests:
            if request in self.refreshes:
                count += self.refreshes[request][0]
                seconds += self.refreshes[request][1]
        return int(count), seconds
