"""Open- and closed-loop load generation over captured workloads.

The flight recorder captures what the service executed; :mod:`repro.obs.
workload` turns that into a replayable file.  This module closes the
loop: it replays a :class:`~repro.obs.workload.Workload` against a live
HTTP service or an in-process front end, under a swept grid of
concurrency levels × read/write mixes, with a seeded RNG so every run
issues the identical operation sequence.

**Correctness, not just speed.**  Before each swept cell the generator
runs a *serial reference pass* — every distinct query executed once,
alone — and records its canonical answer (the JSON wire form with the
volatile provenance keys stripped and keys sorted).  During the
concurrent replay every response is compared **bit-identical** against
that reference; a single differing byte is a mismatch and fails the
cell.  This is sound even with writes in the mix because workload churn
entries are *insert-then-delete of a unique row* in a relation the
queries never mention: the answers are provably independent of how the
churn interleaves, while the writes still exercise the real exclusive
write path (per-database write lock, fingerprint recomputation, mirror
invalidation).

**Two loop disciplines** (``mode``):

* ``closed`` — each worker thread issues its next operation the moment
  the previous one completes; concurrency *is* the offered load.
  Latency is measured call-to-return.
* ``open`` — operations get planned arrival times on a fixed-rate
  schedule and latency is measured from the *planned* start, so time an
  overloaded service makes requests wait in line is charged to the
  service, not silently absorbed (no coordinated omission).

Shared mutable state (the latency sink and churn draw counter) is
guarded by explicit locks with ``# guarded-by:`` annotations; the file
is checked by ``tools/lint/guarded_by.py``.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.recorder import FlightRecorder
from repro.obs.workload import Workload, WorkloadEntry

#: Response keys that legitimately differ between the serial reference
#: pass and a concurrent replay (cache state, dedup sharing, recorder
#: sampling, client correlation) — everything else must match exactly.
VOLATILE_KEYS = ("cached", "shared", "trace_id", "tag")


class LoadGenError(RuntimeError):
    """A workload/target combination that cannot be replayed."""


def canonical_answer(response: Dict[str, object]) -> str:
    """The bit-comparable form of one query response.

    Sorted-key JSON of the response minus :data:`VOLATILE_KEYS`; answer
    listings are already deterministically ordered by the wire codec.
    """
    body = {
        key: value
        for key, value in response.items()
        if key not in VOLATILE_KEYS
    }
    return json.dumps(body, sort_keys=True)


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------


class InProcessTarget:
    """Replay against a :class:`~repro.service.server.ServiceFrontEnd`.

    Goes through the same JSON codec as HTTP (``front.handle``), so a
    workload behaves identically in-process and over the wire.
    """

    def __init__(self, front) -> None:
        self.front = front

    def call(self, payload: Dict[str, object]) -> Dict[str, object]:
        return self.front.handle(payload)


class HttpTarget:
    """Replay against a live ``repro serve`` instance over HTTP."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def call(self, payload: Dict[str, object]) -> Dict[str, object]:
        from urllib.error import HTTPError
        from urllib.request import Request as UrlRequest, urlopen

        path = "/update" if payload.get("op") in ("insert", "delete") else "/query"
        request = UrlRequest(
            self.base_url + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urlopen(request, timeout=self.timeout) as response:
                return json.load(response)
        except HTTPError as exc:
            # 400/503 carry an error object body; surface it as the
            # response so rejection counting works identically.
            try:
                return json.load(exc)
            except Exception:
                return {"error": str(exc)}


# ---------------------------------------------------------------------------
# Specs and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellSpec:
    """One swept cell: a concurrency level and a read/write mix."""

    concurrency: int
    write_fraction: float
    requests: int = 200
    mode: str = "closed"
    #: Open-loop offered rate in operations/second (whole cell, spread
    #: across the workers); ignored in closed mode.
    rate: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise LoadGenError("concurrency must be >= 1")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise LoadGenError("write_fraction must be in [0, 1]")
        if self.requests < 1:
            raise LoadGenError("requests must be >= 1")
        if self.mode not in ("closed", "open"):
            raise LoadGenError(f"unknown mode {self.mode!r}")
        if self.mode == "open" and (self.rate is None or self.rate <= 0):
            raise LoadGenError("open-loop cells need a positive rate")


@dataclass
class Mismatch:
    """A replayed answer that differed from the serial reference."""

    query: str
    expected: str
    actual: str


@dataclass
class CellResult:
    """Measured outcome of one swept cell."""

    spec: CellSpec
    duration_s: float
    completed: int
    errors: int
    rejected: int
    mismatches: List[Mismatch]
    latencies_ms: List[float] = field(repr=False, default_factory=list)
    trace_exemplars: List[str] = field(default_factory=list)

    @property
    def verified(self) -> bool:
        """Every replayed answer matched the serial reference."""
        return not self.mismatches and not self.errors

    @property
    def throughput(self) -> float:
        return self.completed / self.duration_s if self.duration_s else 0.0

    def percentile(self, q: float) -> float:
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered))) - 1))
        return ordered[rank]

    def to_dict(self) -> Dict[str, object]:
        return {
            "concurrency": self.spec.concurrency,
            "write_fraction": self.spec.write_fraction,
            "mode": self.spec.mode,
            "requests": self.spec.requests,
            "completed": self.completed,
            "errors": self.errors,
            "rejected": self.rejected,
            "verified": self.verified,
            "mismatches": len(self.mismatches),
            "duration_s": round(self.duration_s, 6),
            "throughput_rps": round(self.throughput, 3),
            "p50_ms": round(self.percentile(50), 3),
            "p95_ms": round(self.percentile(95), 3),
            "p99_ms": round(self.percentile(99), 3),
            "trace_exemplars": list(self.trace_exemplars),
        }


# ---------------------------------------------------------------------------
# Schedule construction (deterministic per seed)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Op:
    """One scheduled operation: a workload entry plus its churn draw."""

    entry: WorkloadEntry
    draw: int = 0


def build_schedule(workload: Workload, spec: CellSpec) -> List[List[_Op]]:
    """The per-thread operation lists for one cell.

    One seeded RNG draws the whole sequence up front (read-vs-write by
    ``write_fraction``, the entry within each side by weight), then ops
    are dealt round-robin to the workers — the schedule depends only on
    (workload, spec), never on execution timing.  Churn draws number
    globally so no two concurrent writes ever touch the same row.
    """
    reads, writes = workload.reads, workload.writes
    if spec.write_fraction > 0 and not writes:
        raise LoadGenError(
            "write_fraction > 0 but the workload has no churn entries"
        )
    if spec.write_fraction < 1 and not reads:
        raise LoadGenError(
            "write_fraction < 1 but the workload has no query entries"
        )
    rng = random.Random(spec.seed)
    read_weights = [entry.weight for entry in reads]
    write_weights = [entry.weight for entry in writes]
    ops: List[_Op] = []
    draw = 0
    for _ in range(spec.requests):
        if writes and (not reads or rng.random() < spec.write_fraction):
            entry = rng.choices(writes, write_weights)[0]
            ops.append(_Op(entry, draw))
            draw += 1
        else:
            ops.append(_Op(rng.choices(reads, read_weights)[0]))
    return [ops[worker :: spec.concurrency] for worker in range(spec.concurrency)]


def _query_payload(entry: WorkloadEntry) -> Dict[str, object]:
    payload: Dict[str, object] = {"op": "query", "query": entry.query}
    if entry.family is not None:
        payload["family"] = entry.family
    if entry.variables is not None:
        payload["variables"] = list(entry.variables)
    if entry.database is not None:
        payload["database"] = entry.database
    return payload


def _churn_payloads(
    entry: WorkloadEntry, draw: int
) -> Tuple[Dict[str, object], Dict[str, object]]:
    values = entry.churn_values(draw)
    base: Dict[str, object] = {"relation": entry.relation, "values": values}
    if entry.database is not None:
        base["database"] = entry.database
    return {**base, "op": "insert"}, {**base, "op": "delete"}


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------


class LoadGenerator:
    """Replays a workload against one target across a swept grid.

    ``target`` is anything with ``call(payload) -> dict`` —
    :class:`InProcessTarget` or :class:`HttpTarget`.  ``recorder``
    (optional, in-process runs) supplies flight-recorder trace-id
    exemplars for each cell's tail.
    """

    def __init__(
        self,
        target,
        workload: Workload,
        recorder: Optional[FlightRecorder] = None,
    ) -> None:
        self.target = target
        self.workload = workload
        self.recorder = recorder
        self._lock = threading.Lock()
        self._latencies: List[float] = []  # guarded-by: _lock
        self._errors = 0  # guarded-by: _lock
        self._rejected = 0  # guarded-by: _lock
        self._completed = 0  # guarded-by: _lock
        self._mismatches: List[Mismatch] = []  # guarded-by: _lock

    # Reference ---------------------------------------------------------------

    def serial_reference(self) -> Dict[str, str]:
        """Canonical answer of every distinct query, executed alone.

        Keyed by the entry's query payload JSON, so replay lookups are
        exact.  Raises :class:`LoadGenError` if any reference execution
        errors — a workload that cannot run serially cannot be swept.
        """
        reference: Dict[str, str] = {}
        for entry in self.workload.reads:
            payload = _query_payload(entry)
            response = self.target.call(payload)
            if "error" in response:
                raise LoadGenError(
                    f"reference pass failed for {entry.query!r}: "
                    f"{response['error']}"
                )
            reference[json.dumps(payload, sort_keys=True)] = canonical_answer(
                response
            )
        return reference

    # Replay ------------------------------------------------------------------

    def _reset_counters(self) -> None:
        with self._lock:
            self._latencies = []
            self._errors = 0
            self._rejected = 0
            self._completed = 0
            self._mismatches = []

    def _record(self, response: Dict[str, object], seconds: float) -> None:
        with self._lock:
            if response.get("rejected"):
                self._rejected += 1
            elif "error" in response:
                self._errors += 1
            else:
                self._completed += 1
                self._latencies.append(seconds * 1e3)

    def _verify(
        self, payload_key: str, query: str, response: Dict[str, object],
        reference: Dict[str, str],
    ) -> None:
        if "error" in response:
            return  # counted by _record; nothing to compare
        expected = reference[payload_key]
        actual = canonical_answer(response)
        if actual != expected:
            with self._lock:
                if len(self._mismatches) < 16:  # keep reports bounded
                    self._mismatches.append(Mismatch(query, expected, actual))
                else:
                    self._errors += 1

    def _worker(
        self,
        ops: Sequence[_Op],
        reference: Dict[str, str],
        epoch: float,
        planned: Optional[Sequence[float]],
    ) -> None:
        for index, op in enumerate(ops):
            if planned is not None:
                delay = epoch + planned[index] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                started = epoch + planned[index]
            else:
                started = time.perf_counter()
            if op.entry.is_read:
                payload = _query_payload(op.entry)
                response = self.target.call(payload)
                self._record(response, time.perf_counter() - started)
                self._verify(
                    json.dumps(payload, sort_keys=True),
                    op.entry.query or "",
                    response,
                    reference,
                )
            else:
                insert, delete = _churn_payloads(op.entry, op.draw)
                response = self.target.call(insert)
                if "error" not in response:
                    # Only undo an insert that actually landed; a
                    # rejected insert has no row to delete.
                    response = self.target.call(delete)
                self._record(response, time.perf_counter() - started)

    def run_cell(
        self,
        spec: CellSpec,
        reference: Optional[Dict[str, str]] = None,
    ) -> CellResult:
        """One cell: serial reference (unless supplied), then replay."""
        if reference is None:
            reference = self.serial_reference()
        schedule = build_schedule(self.workload, spec)
        planned: List[Optional[List[float]]] = [None] * spec.concurrency
        if spec.mode == "open":
            assert spec.rate is not None
            # Op k of the global sequence arrives at k/rate; worker w
            # executes ops w, w+concurrency, ... of that sequence.
            planned = [
                [
                    (worker + position * spec.concurrency) / spec.rate
                    for position in range(len(schedule[worker]))
                ]
                for worker in range(spec.concurrency)
            ]
        self._reset_counters()
        epoch = time.perf_counter()
        threads = [
            threading.Thread(
                target=self._worker,
                args=(schedule[worker], reference, epoch, planned[worker]),
                name=f"loadgen-{worker}",
                daemon=True,
            )
            for worker in range(spec.concurrency)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        duration = time.perf_counter() - epoch
        exemplars: List[str] = []
        if self.recorder is not None:
            exemplars = [
                record.trace_id
                for record in self.recorder.records(slowest=True, limit=3)
            ]
        with self._lock:
            return CellResult(
                spec=spec,
                duration_s=duration,
                completed=self._completed,
                errors=self._errors,
                rejected=self._rejected,
                mismatches=list(self._mismatches),
                latencies_ms=list(self._latencies),
                trace_exemplars=exemplars,
            )

    def sweep(
        self,
        concurrencies: Sequence[int],
        write_fractions: Sequence[float],
        requests: int = 200,
        mode: str = "closed",
        rate: Optional[float] = None,
        seed: int = 0,
        on_cell: Optional[Callable[[CellResult], None]] = None,
    ) -> List[CellResult]:
        """The full grid, one serial reference shared by every cell.

        Cells run in deterministic grid order (mix-major, concurrency
        within); ``on_cell`` fires after each for progress reporting.
        """
        reference = self.serial_reference()
        results: List[CellResult] = []
        for write_fraction in write_fractions:
            for concurrency in concurrencies:
                spec = CellSpec(
                    concurrency=concurrency,
                    write_fraction=write_fraction,
                    requests=requests,
                    mode=mode,
                    rate=rate,
                    seed=seed,
                )
                result = self.run_cell(spec, reference)
                results.append(result)
                if on_cell is not None:
                    on_cell(result)
        return results
