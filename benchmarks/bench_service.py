"""Benchmark: the serving subsystem — parallel sharding + batch brokering.

Two measurements, both on the Fig. 5 conjunctive self-join over
Figure-4 conflict chains (the workload of ``bench_evaluator``):

* **parallel speedup** — ``CqaEngine.certain_answers(..., parallel=N)``
  shards the repair space across a process pool versus the in-process
  fold (``parallel=None``).  Both fold the same per-family repair plan,
  so the ratio measures pool parallelism plus the context policy: the
  in-process fold shares the engine's ``ContextCache`` (indexes and
  join plans), while each shard builds a fresh context per repair.
  Answers are asserted bit-identical at every size; the >=2x
  wall-clock criterion is asserted on full (non ``--smoke``) runs when
  the hardware has at least one core per worker (with fewer, the pool
  cannot do better than the core count, and 2x on 2 cores is the
  ceiling rather than a reachable target, so there the measured ratio
  is only reported).
* **batch throughput** — a burst of requests with heavy duplication
  served through :class:`~repro.service.broker.RequestBroker` (dedup +
  routing + answer memoization) versus the same burst answered one by
  one on a plain :class:`CqaEngine`.  The >=2x criterion is asserted on
  full runs regardless of core count — deduplication is algorithmic,
  not hardware, leverage.  A repeat of the same batch measures the
  answer-cache hit path.
* **route-decision latency** — ``RequestBroker.analyze`` cold (first
  sight of a query: parse + static analysis, a cache miss in the
  broker's RouteReport cache) versus cached (every later sight: one
  dict lookup under the report lock).  This is the per-request routing
  overhead serving pays before any answer work starts.

Results land in ``BENCH_service.json`` (see ``benchmarks/_cli.py``).
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from typing import List

if not __package__:
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks._cli import apply_seed, bench_parser, emit_result

from repro.cqa.engine import CqaEngine
from repro.datagen.generators import CHAIN_FDS, chain_instance
from repro.query.parser import parse_query

#: Fig. 5's conjunctive self-join, open in the shared A-group.
OPEN = parse_query(
    "EXISTS b1, b2, c1, c2, d1, d2 . "
    "R(a, b1, c1, d1) AND R(a, b2, c2, d2) AND b1 != b2"
)


def warm_pool(workers: int) -> None:
    """Pay the one-time pool startup (forkserver + child imports) before
    timing: a deployed service keeps its pool alive across requests."""
    engine = CqaEngine(chain_instance(4), CHAIN_FDS)
    engine.certain_answers(OPEN, ("a",), parallel=workers)


def measure_parallel(length: int, workers: int):
    """Serial vs sharded certain answers on one chain instance."""
    instance = chain_instance(length)
    serial_engine = CqaEngine(instance, CHAIN_FDS)
    start = time.perf_counter()
    serial = serial_engine.certain_answers(OPEN, ("a",))
    serial_s = time.perf_counter() - start
    parallel_engine = CqaEngine(instance, CHAIN_FDS)
    start = time.perf_counter()
    parallel = parallel_engine.certain_answers(OPEN, ("a",), parallel=workers)
    parallel_s = time.perf_counter() - start
    assert parallel == serial, f"parallel answers diverged at length {length}"
    assert parallel.repairs_considered == serial.repairs_considered
    return serial_s, parallel_s, serial.repairs_considered


def _batch_queries(distinct: int) -> List[str]:
    """Distinct closed self-join probes (one per threshold)."""
    return [
        "EXISTS a, b1, b2, c1, c2, d1, d2 . "
        "R(a, b1, c1, d1) AND R(a, b2, c2, d2) AND b1 != b2 "
        f"AND a >= {threshold}"
        for threshold in range(distinct)
    ]


def measure_broker(length: int, requests: int, distinct: int, repeats: int):
    """Broker batch (dedup + memo) vs a per-request serial loop."""
    from repro.service.broker import Request, RequestBroker

    instance = chain_instance(length)
    queries = _batch_queries(distinct)
    batch = [Request(queries[index % distinct]) for index in range(requests)]

    loop_samples = []
    for _ in range(repeats):
        reference_engine = CqaEngine(instance, CHAIN_FDS)
        start = time.perf_counter()
        reference = [
            reference_engine.answer(request.query) for request in batch
        ]
        loop_samples.append(time.perf_counter() - start)

    broker = RequestBroker()
    broker.register("chain", instance, CHAIN_FDS)
    start = time.perf_counter()
    served = broker.submit(batch)
    first_batch_s = time.perf_counter() - start
    start = time.perf_counter()
    revisited = broker.submit(batch)
    cached_batch_s = time.perf_counter() - start
    broker.close()

    for theirs, mine in zip(reference, served):
        assert theirs.verdict == mine.outcome.verdict, (
            f"broker verdict diverged on {mine.request.query!r}"
        )
    assert all(result.cached or result.shared for result in revisited)
    return statistics.median(loop_samples), first_batch_s, cached_batch_s


def measure_route_decisions(length: int, distinct: int, warm_repeats: int):
    """Broker route-decision time, cold (analysis) vs cached (lookup).

    Every distinct query is analyzed once on a fresh broker (cold: full
    parse + static analysis, a RouteReport-cache miss) and then
    ``warm_repeats`` more times (cached: the fingerprint lookup the
    serving path performs on every request once the report exists).
    """
    from repro.service.broker import RequestBroker

    broker = RequestBroker()
    broker.register("chain", chain_instance(length), CHAIN_FDS)
    queries = _batch_queries(distinct)

    cold_samples = []
    for query in queries:
        start = time.perf_counter()
        broker.analyze(query)
        cold_samples.append(time.perf_counter() - start)

    warm_samples = []
    for _ in range(warm_repeats):
        for query in queries:
            start = time.perf_counter()
            broker.analyze(query)
            warm_samples.append(time.perf_counter() - start)

    stats = broker.stats()["route_reports"]
    assert stats["misses"] == distinct, "every distinct query misses once"
    assert stats["hits"] == distinct * warm_repeats, "repeats all hit"
    broker.close()
    return statistics.median(cold_samples), statistics.median(warm_samples)


def main(argv=None) -> int:
    parser = bench_parser(__doc__)
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[28, 32],
        help="chain lengths for the parallel-speedup sweep",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="process-pool width"
    )
    parser.add_argument(
        "--batch-size", type=int, default=40, help="requests per broker batch"
    )
    parser.add_argument(
        "--distinct", type=int, default=5, help="distinct queries in the batch"
    )
    parser.add_argument(
        "--batch-length", type=int, default=16,
        help="chain length behind the broker batch",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="baseline-loop timing repeats (median reported)",
    )
    parser.add_argument(
        "--no-assert",
        action="store_true",
        help="report without enforcing the >=2x criteria",
    )
    args = parser.parse_args(argv)
    seed = apply_seed(args)

    if args.smoke:
        args.sizes = [16, 20]
        args.batch_size, args.batch_length, args.repeats = 12, 10, 2

    cores = os.cpu_count() or 1
    print(
        f"service layer on the Fig. 5 conjunctive workload "
        f"(seed {seed}, {cores} cores, {args.workers} workers)"
    )

    warm_pool(args.workers)
    parallel_measurements: List[dict] = []
    parallel_speedups: List[float] = []
    for length in args.sizes:
        serial_s, parallel_s, repairs = measure_parallel(length, args.workers)
        speedup = serial_s / parallel_s
        parallel_speedups.append(speedup)
        parallel_measurements.append(
            {
                "chain": length,
                "repairs": repairs,
                "serial_s": round(serial_s, 6),
                "parallel_s": round(parallel_s, 6),
                "speedup": round(speedup, 2),
            }
        )
        print(
            f"[chain {length:>3}, {repairs:>6} repairs] serial "
            f"{serial_s * 1000:9.1f} ms | parallel({args.workers}) "
            f"{parallel_s * 1000:9.1f} ms | speedup {speedup:5.2f}x "
            "(answers identical)"
        )

    loop_s, batch_s, cached_s = measure_broker(
        args.batch_length, args.batch_size, args.distinct, args.repeats
    )
    batch_speedup = loop_s / batch_s
    cached_speedup = loop_s / cached_s if cached_s else float("inf")
    print(
        f"[batch {args.batch_size} reqs, {args.distinct} distinct] "
        f"per-request loop {loop_s * 1000:9.1f} ms | broker batch "
        f"{batch_s * 1000:9.1f} ms ({batch_speedup:5.2f}x) | repeat batch "
        f"{cached_s * 1000:7.2f} ms ({cached_speedup:,.0f}x, all cache hits)"
    )

    cold_s, warm_s = measure_route_decisions(
        args.batch_length, args.distinct, warm_repeats=max(args.repeats, 2)
    )
    route_speedup = cold_s / warm_s if warm_s else float("inf")
    print(
        f"[route decision, {args.distinct} distinct] cold analyze "
        f"{cold_s * 1e6:8.1f} us | cached {warm_s * 1e6:8.1f} us "
        f"({route_speedup:,.0f}x, RouteReport cache)"
    )

    emit_result(
        __file__,
        {
            "cores": cores,
            "workers": args.workers,
            "parallel": parallel_measurements,
            "batch": {
                "requests": args.batch_size,
                "distinct": args.distinct,
                "loop_s": round(loop_s, 6),
                "batch_s": round(batch_s, 6),
                "cached_batch_s": round(cached_s, 6),
                "speedup": round(batch_speedup, 2),
                "cached_speedup": round(cached_speedup, 2),
            },
            "route_decision": {
                "distinct": args.distinct,
                "cold_s": round(cold_s, 9),
                "cached_s": round(warm_s, 9),
                "speedup": round(route_speedup, 2),
            },
        },
    )

    if not args.no_assert and not args.smoke:
        assert batch_speedup >= 2, (
            f"broker batch speedup {batch_speedup:.2f}x below the 2x criterion"
        )
        best = max(parallel_speedups)
        if cores >= args.workers:
            assert best >= 2, (
                f"parallel speedup {best:.2f}x below the 2x criterion "
                f"on {cores} cores"
            )
            print(
                f"criteria met: >={best:.1f}x parallel and "
                f">={batch_speedup:.1f}x batch speedup"
            )
        else:
            print(
                f"batch criterion met ({batch_speedup:.1f}x); parallel "
                f"criterion skipped: {cores} core(s) for {args.workers} "
                f"workers cannot reach a 2x wall-clock speedup reliably "
                f"(measured {best:.2f}x)"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
