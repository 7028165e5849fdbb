"""The closed-loop driver: client threads calling the service directly.

Each client thread sends its next payload the moment the previous
reply returns (no think time), through
:meth:`repro.service.server.ServiceFrontEnd.handle` — the JSON entry
point both transports share.  A phase ends when its stop event is set;
every op records its latency and files its reply with the phase's
:class:`~servebench.reference.Replies`, to be checked against the
serial reference afterwards.

A measured phase runs in blocks of BLOCK_S seconds and records, per
block, the share of CPU time the hypervisor stole from this (virtual)
machine.  Stolen time slows the program without being its cost, so a
measured phase lasts until it holds its length in blocks at or below
STEAL_MAX (at most QUIET_CAP times its length), and the metrics come
from its least-stolen blocks (:meth:`Phase.select`).
"""

from __future__ import annotations

import bisect
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from .ledger import SpanLog
from .reference import Replies
from .workloads import request_key

#: Client threads (closed loop).
CLIENTS = 2
#: A warm-up ends once a window of this many ops grows the answer
#: cache by less than WARMUP_GROWTH of its capacity (or fills it).
WARMUP_WINDOW = 400
WARMUP_GROWTH = 0.01
#: Wall-clock cap on the warm-up, so a run always ends in time.
WARMUP_CAP_S = 45.0
#: Length of one block of a measured phase.
BLOCK_S = 1.0
#: Largest steal share of a block that counts as quiet.
STEAL_MAX = 0.01
#: A measured phase of S seconds stops after QUIET_CAP * S seconds
#: even when it has fewer than S quiet ones.
QUIET_CAP = 1.5


def cpu_ticks() -> Optional[List[int]]:
    """The machine's aggregate CPU tick counters (Linux), or None."""
    try:
        with open("/proc/stat", encoding="utf-8") as stream:
            return [int(field) for field in stream.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: Optional[List[int]], after: Optional[List[int]]):
    """Share of CPU time the hypervisor stole between two readings of
    :func:`cpu_ticks` (the eighth counter), or None where unknown."""
    if before is None or after is None or len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def is_hit(reply: dict) -> bool:
    """Served without executing: from the answer cache or an in-batch
    duplicate."""
    return bool(reply.get("cached") or reply.get("shared"))


@dataclass(slots=True)
class Sample:
    """One completed op (its reply goes to the phase's :class:`Replies`)."""

    client: int
    request: int
    write: bool
    start: float
    end: float
    hit: bool
    route: Optional[str]
    repairs: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(slots=True)
class Block:
    """One block of a measured phase and its steal share (None where
    the machine does not report one)."""

    start: float
    end: float
    steal: Optional[float]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Phase:
    """Samples of one phase, plus its wall-clock bounds (and blocks)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[Sample] = []
        self.replies = Replies()
        self.started = 0.0
        self.ended = 0.0
        self.blocks: List[Block] = []

    @property
    def elapsed(self) -> float:
        return self.ended - self.started

    def select(self, seconds: float) -> "Selection":
        """The least-stolen blocks, taken until they cover ``seconds``
        (all of the phase when it has no blocks)."""
        if not self.blocks:
            return Selection(self, [Block(self.started, self.ended, None)])
        chosen: List[Block] = []
        covered = 0.0
        for block in sorted(self.blocks, key=lambda block: block.steal or 0.0):
            if covered >= seconds - 1e-9:
                break
            chosen.append(block)
            covered += block.seconds
        return Selection(self, chosen)

    def reads(self) -> List[Sample]:
        return [sample for sample in self.samples if not sample.write]

    def writes(self) -> List[Sample]:
        return [sample for sample in self.samples if sample.write]


class Selection:
    """The samples of a phase that fall in some of its blocks: an op's
    latency counts when it started and ended inside selected blocks, and
    it counts towards throughput when it ended inside one."""

    def __init__(self, phase: Phase, blocks: List[Block]) -> None:
        self.blocks = sorted(blocks, key=lambda block: block.start)
        self.seconds = sum(block.seconds for block in self.blocks)
        spans: List[Tuple[float, float]] = []
        for block in self.blocks:
            if spans and spans[-1][1] == block.start:
                spans[-1] = (spans[-1][0], block.end)
            else:
                spans.append((block.start, block.end))
        starts = [start for start, _ in spans]

        def span_of(moment: float) -> Optional[Tuple[float, float]]:
            index = bisect.bisect_right(starts, moment) - 1
            if index >= 0 and moment <= spans[index][1]:
                return spans[index]
            return None

        self.samples: List[Sample] = []
        self.ended = 0
        for sample in phase.samples:
            span = span_of(sample.end)
            if span is None:
                continue
            self.ended += 1
            if sample.start >= span[0]:
                self.samples.append(sample)
        self.steal = (
            sum(block.seconds * (block.steal or 0.0) for block in self.blocks)
            / self.seconds
            if self.seconds > 0
            else 0.0
        )

    @property
    def throughput(self) -> float:
        """Ops that ended in the selected blocks, per selected second."""
        return self.ended / self.seconds if self.seconds > 0 else 0.0

    def reads(self) -> List[Sample]:
        return [sample for sample in self.samples if not sample.write]

    def writes(self) -> List[Sample]:
        return [sample for sample in self.samples if sample.write]


class Driver:
    """Runs phases of a workload against one front end."""

    def __init__(self, front, streams: List[Iterator[dict]]) -> None:
        self.front = front
        self.streams = streams
        self._next_request = 0
        self._request_lock = threading.Lock()

    def _request_id(self) -> int:
        with self._request_lock:
            self._next_request += 1
            return self._next_request

    def call(
        self,
        phase: Phase,
        client: int,
        payload: dict,
        spans: Optional[SpanLog] = None,
    ) -> None:
        """Send one payload and record the sample."""
        write = payload.get("op") in ("insert", "delete")
        request = self._request_id()
        if spans is not None:
            spans.set_request(request)
        started = time.perf_counter()
        try:
            reply = self.front.handle(payload)
        except Exception as exc:
            # handle() turns every request error into an error object;
            # anything escaping it is a service failure (over HTTP, a
            # dropped connection), counted like an error reply.
            reply = {"error": f"{type(exc).__name__}: {exc}", "escaped": True}
        ended = time.perf_counter()
        phase.replies.add(None if write else request_key(payload), reply)
        phase.samples.append(
            Sample(
                client,
                request,
                write,
                started,
                ended,
                is_hit(reply),
                reply.get("route"),
                reply.get("repairs_considered", 0),
            )
        )

    def serial(
        self, phase: Phase, payloads: List[dict], spans: Optional[SpanLog] = None
    ) -> Phase:
        """Send ``payloads`` one after another from this thread."""
        phase.started = time.perf_counter()
        for payload in payloads:
            self.call(phase, 0, payload, spans)
        phase.ended = time.perf_counter()
        return phase

    def closed_loop(
        self,
        phase: Phase,
        until: Callable[[Phase, threading.Event], None],
        spans: Optional[SpanLog] = None,
    ) -> Phase:
        """Run every client until ``until`` (run on this thread) returns."""
        stop = threading.Event()
        errors: List[BaseException] = []

        def client(index: int) -> None:
            stream = self.streams[index]
            try:
                while not stop.is_set():
                    self.call(phase, index, next(stream), spans)
            except BaseException as exc:  # reported after the join
                errors.append(exc)
                stop.set()

        threads = [
            threading.Thread(target=client, args=(index,), daemon=True)
            for index in range(len(self.streams))
        ]
        phase.started = time.perf_counter()
        for thread in threads:
            thread.start()
        try:
            until(phase, stop)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60.0)
        phase.ended = max(
            [phase.started] + [sample.end for sample in phase.samples]
        )
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError(f"{phase.name}: a client did not finish")
        if errors:
            raise errors[0]
        return phase


def for_quiet_seconds(seconds: float) -> Callable[[Phase, threading.Event], None]:
    """Stop condition of a measured phase: blocks of BLOCK_S seconds
    (shorter when ``seconds`` is) until ``seconds`` of them had a steal
    share of at most STEAL_MAX, or QUIET_CAP * ``seconds`` have passed."""
    length = min(BLOCK_S, seconds)

    def until(phase: Phase, stop: threading.Event) -> None:
        quiet = 0.0
        begin, ticks = phase.started, cpu_ticks()
        while quiet < seconds - 1e-9 and begin - phase.started < QUIET_CAP * seconds:
            if stop.wait(max(0.0, begin + length - time.perf_counter())):
                return
            end, after = time.perf_counter(), cpu_ticks()
            block = Block(begin, end, steal_share(ticks, after))
            phase.blocks.append(block)
            if block.steal is None or block.steal <= STEAL_MAX:
                quiet += block.seconds
            begin, ticks = end, after

    return until


def until_cache_settles(
    occupancy: Callable[[], int], capacity: int
) -> Callable[[Phase, threading.Event], None]:
    """Stop condition of the warm-up: the answer cache is full, or the
    last WARMUP_WINDOW ops grew it by less than WARMUP_GROWTH of its
    capacity."""

    def until(phase: Phase, stop: threading.Event) -> None:
        marks = [(0, occupancy())]
        while not stop.wait(0.05):
            done, size = len(phase.samples), occupancy()
            if size >= capacity:
                return
            if time.perf_counter() - phase.started > WARMUP_CAP_S:
                phase.name = "warm-up (capped)"
                return
            if done - marks[-1][0] >= WARMUP_WINDOW:
                if size - marks[-1][1] < WARMUP_GROWTH * capacity:
                    return
                marks.append((done, size))

    return until
