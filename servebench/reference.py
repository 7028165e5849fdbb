"""Serial reference answers, computed outside the service.

The reference owns its own engines, built from the generated instance
before any write: one :class:`~repro.incremental.engine.
IncrementalCqaEngine` and one SQLite mirror per database.  Each
distinct request is answered once, serially, with no answer cache and
no broker, on the engine the broker's documented routing picks (the
pushed engine when its ``explain`` says the query is pushed, the
in-memory engine otherwise), and encoded with the service's own wire
codec.  A reply matches when it equals the reference in every key but
the volatile ones (:data:`repro.service.loadgen.VOLATILE_KEYS`).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.backend.mirror import SqliteMirror
from repro.incremental.engine import IncrementalCqaEngine
from repro.query.parser import parse_query
from repro.service.broker import BrokerResult, Request
from repro.service.loadgen import VOLATILE_KEYS, canonical_answer
from repro.service.server import FAMILY_CODES, encode_result

from .workloads import Workload

FAILURE_KINDS = ("error", "escaped", "rejected", "mismatch")


class Reference:
    """Memoized serial answers for one workload's base instance."""

    def __init__(self, workload: Workload) -> None:
        #: database -> (in-memory engine, mirror, pushed engine, label)
        self._engines: Dict[str, Tuple] = {}
        for spec in workload.databases:
            engine = IncrementalCqaEngine(
                spec.database, spec.dependencies, spec.priority
            )
            mirror = SqliteMirror(spec.dependencies)
            active = engine.active_priority_edges()
            if active:
                pushed = mirror.pref_engine_for(spec.database, active)
            else:
                pushed = mirror.engine_for(spec.database)
            label = "prefsql" if active else "sqlite"
            self._engines[spec.name] = (engine, mirror, pushed, label)
        self._answers: Dict[Tuple, str] = {}

    def close(self) -> None:
        for _, mirror, _, _ in self._engines.values():
            mirror.close()

    def expected(self, key: Tuple) -> str:
        """Canonical reply to the request ``key`` (see ``request_key``)."""
        answer = self._answers.get(key)
        if answer is None:
            answer = self._answers[key] = self._compute(key)
        return answer

    def _compute(self, key: Tuple) -> str:
        database, text, variables, code = key
        engine, _, pushed, label = self._engines[database]
        family = FAMILY_CODES[code] if code is not None else engine.family
        formula = parse_query(text)
        if variables is None:
            variables = (
                () if formula.is_closed else tuple(sorted(formula.free_variables()))
            )
        closed = formula.is_closed and not variables
        if pushed.explain(formula, variables, family=family).pushed:
            outcome = (
                pushed.answer(formula, family)
                if closed
                else pushed.certain_answers(formula, variables, family)
            )
            route = outcome.route or label
        else:
            label = "incremental"
            outcome = (
                engine.answer(formula, family)
                if closed
                else engine.certain_answers(formula, variables, family)
            )
            route = outcome.route or "indexed"
        result = BrokerResult(
            Request(text, family, variables, database), outcome, database, label, route
        )
        return canonical_answer(encode_result(result))


def failure_kind(key: Optional[Tuple], reply: dict) -> Optional[str]:
    """Why a reply failed without looking at the reference, or None.

    A write (``key`` None) fails unless the service applied it.
    """
    if reply.get("escaped"):
        return "escaped"
    if reply.get("rejected"):
        return "rejected"
    if "error" in reply:
        return "error"
    if key is None and reply.get("applied") is not True:
        return "mismatch"
    return None


class Replies:
    """The distinct replies of one phase, counted per request key.

    Each distinct reply is kept once rather than every reply, so the
    harness's memory grows with the request space and not with the op
    count, and peak RSS measures the service.  Thread-safe.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: request key -> [[reply without volatile keys, count], ...]
        self._variants: Dict[Tuple, List[list]] = {}  # guarded-by: _lock
        self._failures = dict.fromkeys(FAILURE_KINDS, 0)  # guarded-by: _lock

    def add(self, key: Optional[Tuple], reply: dict) -> None:
        kind = failure_kind(key, reply)
        if kind is None and key is None:
            return
        stable = {name: value for name, value in reply.items() if name not in VOLATILE_KEYS}
        with self._lock:
            if kind is not None:
                self._failures[kind] += 1
                return
            variants = self._variants.setdefault(key, [])
            for variant in variants:
                if variant[0] == stable:
                    variant[1] += 1
                    return
            variants.append([stable, 1])

    def check(self, reference: Reference) -> Dict[str, int]:
        """Failure counts by kind, every distinct reply compared with
        the reference."""
        with self._lock:
            kinds = dict(self._failures)
            variants = {key: list(found) for key, found in self._variants.items()}
        for key, found in variants.items():
            expected = reference.expected(key)
            for reply, count in found:
                if canonical_answer(reply) != expected:
                    kinds["mismatch"] += count
        return kinds
