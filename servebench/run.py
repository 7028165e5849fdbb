"""The repository benchmark: served CQA workloads, checked end to end.

Usage (from the repository root)::

    python3 servebench/run.py --workload pushed-read --seed 1 \\
        --seconds 20 --trace 0

One run sets the workload up a fixed number of times (reporting the
median as ``setup_s``), warms the service up until its answer cache
stops growing, and then measures two closed-loop clients for
``--seconds`` of quiet blocks (see :mod:`servebench.loop`: blocks in
which the hypervisor stole CPU time are replaced by later ones, within
a cap).  With ``--trace 1`` the measured time is split: an untraced
half, then a half with the per-layer shims of :mod:`servebench.ledger`
installed; the per-layer metrics come from the traced half.  Every
reply of every phase is then checked against the serial reference of
:mod:`servebench.reference`.

The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it holds the run metadata.
Both, plus the spans of a traced run, are also written under
``.servebench_out/``.  The exit code is 0 only when every reply was
correct and the traced ledger closed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ".servebench_out"

#: Set-ups timed per run, by workload; ``setup_s`` is their median.
SETUPS = {"pushed-read": 5, "memory-read": 25, "write-mix": 5}
#: Percentiles reported (each needs >= 10 samples beyond it).
READ_TAIL = 0.99
WRITE_TAIL = 0.95
#: Largest share of the traced per-op time the layer self times may
#: leave unexplained.
LEDGER_TOLERANCE = 0.10
#: Route labels with a share metric; cache hits are counted as "cached".
SHARE_LABELS = ("sqlite", "prefsql", "witness-index", "indexed", "cached")
#: End-to-end metrics on the result line.  The others (read_p50_ms,
#: throughput_ops_s, and write latencies where there are writes) go to
#: the metadata's "unlisted_metrics": on the shared machines this
#: benchmark was written on, their spread across runs of the same code
#: reached the largest bound BENCHMARK.json allows (see README.md).
LISTED_END_TO_END = ("read_p99_ms", "setup_s", "peak_rss_mb")


def rank(count: int, share: float) -> int:
    """1-based nearest rank of the ``share`` percentile of ``count``
    samples (rounded first, so that 0.99 * 1000 is 990, not 991)."""
    return min(count, max(1, math.ceil(round(share * count, 9))))


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[rank(len(values), share) - 1]


def beyond(count: int, share: float) -> int:
    """Samples strictly above the nearest-rank ``share`` percentile."""
    return count - rank(count, share) if count else 0


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def build_service(workload):
    """Register every database as ``repro serve`` would; returns the
    broker, its front end and the set-up queries."""
    from repro.service.broker import RequestBroker
    from repro.service.server import ServiceFrontEnd

    broker = RequestBroker()
    for spec in workload.databases:
        broker.register(spec.name, spec.database, spec.dependencies, spec.priority)
    return broker, ServiceFrontEnd(broker), setup_queries(workload)


def setup_queries(workload) -> List[dict]:
    """One query per database and family it is asked in, each naming
    every relation of its database: together they build the SQLite
    mirrors, the prefsql side tables (conflicts, edges and per-family
    survivor tables of every relation) and the in-memory per-family
    repair fragments, so that the service is ready."""
    from repro.query.ast import relations_of
    from repro.query.parser import parse_query

    payloads: List[dict] = []
    for spec in workload.databases:
        names = {instance.schema.name for instance in spec.database}
        database, text, variables = next(
            entry
            for entry in workload.texts
            if entry[0] == spec.name and relations_of(parse_query(entry[1])) == names
        )
        for family in workload.families[database]:
            payload = {"query": text, "database": database}
            if family is not None:
                payload["family"] = family
            if variables is not None:
                payload["variables"] = list(variables)
            payloads.append(payload)
    return payloads


def set_up(factory, seed: int, scale: float, count: int):
    """``count`` timed set-ups.  Returns the last service (workload,
    broker, front end), the phase holding every set-up query, and
    (seconds, steal share) of every set-up."""
    from .loop import Driver, Phase, cpu_ticks, steal_share

    runs: List[Tuple[float, Optional[float]]] = []
    phase = Phase("setup")
    service = None
    for _ in range(count):
        if service is not None:
            # The previous service is gone before the next one is built.
            service[1].close()
            service = None
            gc.collect()
        ticks = cpu_ticks()
        started = time.perf_counter()
        workload = factory(seed, scale)
        broker, front, queries = build_service(workload)
        Driver(front, []).serial(phase, queries)
        runs.append((time.perf_counter() - started, steal_share(ticks, cpu_ticks())))
        service = (workload, broker, front)
        del workload, broker, front
    return service, phase, runs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def hit_ratio(samples) -> float:
    reads = [sample for sample in samples if not sample.write]
    return sum(sample.hit for sample in reads) / len(reads) if reads else 0.0


def route_mix(samples) -> Dict[str, float]:
    """Share of reads per route label; hits counted as ``cached``."""
    reads = [sample for sample in samples if not sample.write]
    counts = dict.fromkeys(SHARE_LABELS, 0)
    for sample in reads:
        label = "cached" if sample.hit else str(sample.route)
        counts[label] = counts.get(label, 0) + 1
    return {label: count / max(1, len(reads)) for label, count in counts.items()}


def end_to_end(measured, setup_times, rss_mb) -> Dict[str, dict]:
    """End-to-end metrics of a :class:`~servebench.loop.Selection` of
    the measured phase; write latencies only when there were writes."""
    read_ms = [sample.seconds * 1e3 for sample in measured.reads()]
    write_ms = [sample.seconds * 1e3 for sample in measured.writes()]
    metrics = {
        "read_p50_ms": (percentile(read_ms, 0.5), "ms"),
        "read_p99_ms": (percentile(read_ms, READ_TAIL), "ms"),
    }
    if write_ms:
        metrics["write_p50_ms"] = (percentile(write_ms, 0.5), "ms")
        metrics["write_p95_ms"] = (percentile(write_ms, WRITE_TAIL), "ms")
    metrics["throughput_ops_s"] = (measured.throughput, "1/s")
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def per_layer(
    traced, spans, cache_delta, report_delta, traced_tput, untraced_tput
) -> Tuple[Dict[str, dict], Dict[str, object]]:
    """Per-layer metrics of the traced phase, plus the ledger check.

    The check compares the summed layer self times with the client's
    time per op.  Self times are durations minus children, and the root
    ``server`` span wraps the same call the client times, so the two
    agree by construction up to the shims' own entry and exit: the check
    guards the span bookkeeping (a lost, doubled or badly nested span
    opens the gap), not the layers' coverage.  Time no shim covers is
    counted as the self time of the enclosing layer.

    The write-path metrics (lock waits and engine updates per write,
    mirror refreshes, prefsql rebuilds) are emitted only when the
    traced phase had writes.
    """
    from .ledger import LayerTotals

    totals = LayerTotals(spans.spans)
    ops = [sample.request for sample in traced.samples]
    writes = [sample.request for sample in traced.writes()]
    n_ops = max(1, len(ops))
    executed = [sample for sample in traced.reads() if not sample.hit]
    n_exec = max(1, len(executed))

    def ms_per(requests, layer, count):
        return totals.total(requests, layer, 0) * 1e3 / count

    refreshes, refresh_seconds = totals.refresh_totals(ops)
    client_seconds = sum(sample.seconds for sample in traced.samples)
    gap = abs(client_seconds - totals.self_seconds(ops)) / max(client_seconds, 1e-12)
    lookups = cache_delta["hits"] + cache_delta["misses"]
    reports = report_delta["hits"] + report_delta["misses"]
    routes = route_mix(traced.samples)
    metrics = {
        "server.self_ms_per_op": (ms_per(ops, "server", n_ops), "ms/op"),
        "broker.self_ms_per_op": (ms_per(ops, "broker", n_ops), "ms/op"),
        "broker.answer_cache_hit_ratio": (
            cache_delta["hits"] / lookups if lookups else 0.0, "ratio"
        ),
        "broker.answer_cache_evictions_per_op": (
            cache_delta["evictions"] / n_ops, "count/op"
        ),
        "broker.route_report_hit_ratio": (
            report_delta["hits"] / reports if reports else 0.0, "ratio"
        ),
        "rwlock.read_wait_ms_per_op": (ms_per(ops, "rwlock.read", n_ops), "ms/op"),
        "query.parse_ms_per_op": (ms_per(ops, "query.parse", n_ops), "ms/op"),
        "analysis.analyze_calls_per_exec": (
            totals.total(ops, "analysis", 2) / n_exec, "count/exec"
        ),
        "analysis.analyze_ms_per_op": (ms_per(ops, "analysis", n_ops), "ms/op"),
        "backend.sql_ms_per_op": (ms_per(ops, "backend.sql", n_ops), "ms/op"),
        "prefsql.sql_ms_per_op": (ms_per(ops, "prefsql.sql", n_ops), "ms/op"),
        "incremental.answer_ms_per_op": (
            ms_per(ops, "incremental.answer", n_ops), "ms/op"
        ),
        "cqa.repairs_considered_per_exec": (
            sum(sample.repairs for sample in executed) / n_exec,
            "count/exec",
        ),
    }
    rebuilds = int(totals.total(ops, "prefsql.build", 2))
    if writes:
        metrics.update(
            {
                "rwlock.write_wait_ms_per_write": (
                    ms_per(writes, "rwlock.write", len(writes)), "ms/write"
                ),
                "incremental.update_ms_per_write": (
                    ms_per(writes, "incremental.update", len(writes)), "ms/write"
                ),
                "backend.mirror_refreshes": (refreshes, "count"),
                "backend.mirror_refresh_ms_per_op": (
                    refresh_seconds * 1e3 / n_ops, "ms/op"
                ),
                "prefsql.engine_rebuilds": (rebuilds, "count"),
            }
        )
    for label in SHARE_LABELS:
        metrics[f"route.{label}_share"] = (routes.get(label, 0.0), "share")
    metrics["trace.overhead_share"] = (1.0 - traced_tput / untraced_tput, "share")
    ledger = {
        "client_ms_per_op": client_seconds * 1e3 / n_ops,
        "layer_self_ms_per_op": totals.self_seconds(ops) * 1e3 / n_ops,
        "gap_share": gap,
        "closed": gap <= LEDGER_TOLERANCE,
        "traced_ops": len(ops),
        "traced_writes": len(writes),
        "mirror_refreshes": refreshes,
        "prefsql_engine_rebuilds": rebuilds,
        "executed": len(executed),
        "other_routes": {
            label: share for label, share in routes.items() if label not in SHARE_LABELS
        },
    }
    return (
        {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        ledger,
    )


# ---------------------------------------------------------------------------
# Metadata
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_revision(root: Path) -> str:
    """HEAD of the checkout's git directory, if it has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cache_counters(broker) -> Tuple[Dict[str, int], Dict[str, int]]:
    stats = broker.stats()
    return broker.cache_stats()["answer"], dict(stats["route_reports"])


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    out_dir: Optional[str] = OUT_DIR,
) -> Tuple[dict, dict]:
    """Run one workload; returns (result line, metadata)."""
    from repro.obs import RECORDER

    from .ledger import SpanLog, tree_problems
    from .loop import (
        CLIENTS,
        STEAL_MAX,
        Driver,
        Phase,
        Selection,
        for_quiet_seconds,
        until_cache_settles,
    )
    from .reference import Reference
    from .workloads import WORKLOADS

    factory = WORKLOADS[workload_name]
    RECORDER.reset(seed)
    RECORDER.configure(sample_rate=1.0)
    (workload, broker, front), setup_phase, setup_runs = set_up(
        factory, seed, scale, SETUPS[workload_name]
    )
    setup_times = [took for took, _ in setup_runs]
    phase_seconds = seconds / 2 if trace else seconds
    driver = Driver(front, [workload.client_ops(c) for c in range(CLIENTS)])
    spans = SpanLog()
    phases: List[Phase] = [setup_phase]
    try:
        gc.collect()
        capacity = broker.cache.max_entries
        warmup = driver.closed_loop(
            Phase("warm-up"), until_cache_settles(lambda: len(broker.cache), capacity)
        )
        phases.append(warmup)
        warmup_entries = len(broker.cache)
        gc.collect()
        cache_before = cache_counters(broker)
        measured = driver.closed_loop(
            Phase("measured"), for_quiet_seconds(phase_seconds)
        )
        phases.append(measured)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = None
        if trace:
            gc.collect()
            cache_before = cache_counters(broker)
            spans.install()
            try:
                traced = driver.closed_loop(
                    Phase("traced"), for_quiet_seconds(phase_seconds), spans
                )
            finally:
                spans.uninstall()
            phases.append(traced)
        cache_after = cache_counters(broker)
        components = {}
        for name in broker.databases:
            summary = broker.engine(name).summary()
            components[name] = {
                key: summary[key] for key in ("components", "conflict_components")
            }
    finally:
        broker.close()

    reference = Reference(workload)
    try:
        attempted = 0
        failed = 0
        failures: Dict[str, Dict[str, int]] = {}
        for phase in phases:
            kinds = phase.replies.check(reference)
            attempted += len(phase.samples)
            failed += sum(kinds.values())
            failures[phase.name] = kinds
    finally:
        reference.close()

    selected = measured.select(phase_seconds)
    writes = selected.writes()
    reads = selected.reads()
    half = measured.started + measured.elapsed / 2
    metadata: Dict[str, object] = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "scale": scale,
        "loop": f"closed, {CLIENTS} clients, no think time",
        "cores": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_revision": git_revision(ROOT),
        "instance": dict(workload.shape, databases=components),
        "query_texts": len(workload.texts),
        "request_space": workload.request_space(),
        "answer_cache_capacity": capacity,
        "setup_s_runs": [
            {"seconds": took, "steal_share": steal} for took, steal in setup_runs
        ],
        "warmup": {
            "ops": len(warmup.samples),
            "seconds": warmup.elapsed,
            "capped": warmup.name != "warm-up",
            "cache_entries": warmup_entries,
        },
        "measured": {
            "ops": len(measured.samples),
            "seconds": measured.elapsed,
            "blocks": len(measured.blocks),
            "quiet_blocks": sum(
                block.steal is None or block.steal <= STEAL_MAX
                for block in measured.blocks
            ),
            "selected_seconds": selected.seconds,
            "selected_ops": selected.ended,
            "reads": len(reads),
            "writes": len(writes),
            "read_samples_beyond_p99": beyond(len(reads), READ_TAIL),
            "write_samples_beyond_p95": beyond(len(writes), WRITE_TAIL),
            "hit_ratio_first_half": hit_ratio(
                [s for s in measured.samples if s.end <= half]
            ),
            "hit_ratio_second_half": hit_ratio(
                [s for s in measured.samples if s.end > half]
            ),
            "hit_ratio": hit_ratio(measured.samples),
            "host_cpu_steal_share": Selection(measured, measured.blocks).steal,
            "selected_steal_share": selected.steal,
            "block_steal_and_ops": [
                [block.steal, Selection(measured, [block]).ended]
                for block in measured.blocks
            ],
            "route_mix": route_mix(measured.samples),
        },
        "failures": failures,
        "failed_share": failed / max(1, attempted),
    }
    correct = failed == 0
    if trace:
        metrics, ledger = per_layer(
            traced,
            spans,
            delta(cache_after[0], cache_before[0]),
            delta(cache_after[1], cache_before[1]),
            traced.select(phase_seconds).throughput,
            selected.throughput,
        )
        problems = tree_problems(spans.spans)
        ledger["span_tree_problems"] = problems[:10]
        ledger["spans"] = len(spans.spans)
        metadata["ledger"] = ledger
        correct = correct and ledger["closed"] and not problems
    else:
        every = end_to_end(selected, setup_times, rss_mb)
        metrics = {name: every.pop(name) for name in LISTED_END_TO_END}
        metadata["unlisted_metrics"] = every
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, f"{workload_name}-seed{seed}-trace{int(trace)}")
        with open(stem + ".json", "w", encoding="utf-8") as stream:
            json.dump({"metadata": metadata, "result": result}, stream, indent=2)
        if trace:
            spans.write(stem + "-spans.jsonl", phases[0].started)
    return result, metadata


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    from .workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (one of {sorted(WORKLOADS)})")
    result, metadata = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"metadata": metadata}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"servebench: cannot import the repro package: {exc}", file=sys.stderr)
        sys.exit(2)
    from servebench.run import main as _main

    sys.exit(_main())
