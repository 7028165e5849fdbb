"""Uniform command-line surface for the benchmark suite.

Every ``benchmarks/bench_*.py`` accepts the same two flags:

``--smoke``
    A seconds-long, correctness-focused configuration for CI: sweeps
    shrink to their smallest sizes and (for the pytest-benchmark
    modules) timing is disabled, so only the assertions run.
``--seed``
    Seeds whatever randomness the workload uses (random instances,
    sampled repair candidates, shuffled insertion orders), making a
    run reproducible and letting CI vary the draw.

The standalone scripts (``bench_backend``, ``bench_incremental``,
``bench_evaluator``) consume the parsed flags directly.  The
pytest-benchmark modules re-execute themselves through ``pytest``; the
chosen values travel through environment variables so the module
re-imported by pytest picks them up when computing its parametrized
sweep sizes via :func:`sizes`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

#: Environment toggles the pytest-benchmark modules read at import time.
SMOKE_ENV = "REPRO_BENCH_SMOKE"
SEED_ENV = "REPRO_BENCH_SEED"

#: Directory the ``BENCH_<name>.json`` result files land in (default:
#: the working directory, so CI can archive them as artifacts).
RESULTS_ENV = "REPRO_BENCH_RESULTS"

DEFAULT_SEED = 7


def bench_parser(doc: str) -> argparse.ArgumentParser:
    """The shared ``--smoke`` / ``--seed`` parser; add extra flags freely."""
    first_line = (doc or "benchmark").strip().splitlines()[0]
    parser = argparse.ArgumentParser(description=first_line)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small, seconds-long CI configuration (assertions only)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"workload randomness seed (default: ${SEED_ENV} or {DEFAULT_SEED})",
    )
    return parser


def smoke_active() -> bool:
    return bool(os.environ.get(SMOKE_ENV))


def sizes(full, smoke):
    """Pick a sweep parametrization based on the smoke toggle."""
    return smoke if smoke_active() else full


def bench_seed(override: "int | None" = None) -> int:
    """The effective workload seed: flag, then environment, then default."""
    if override is not None:
        return override
    value = os.environ.get(SEED_ENV)
    return int(value) if value else DEFAULT_SEED


def apply_seed(args) -> int:
    """Resolve a standalone script's ``--seed``, export it, return it.

    Exporting through ``$REPRO_BENCH_SEED`` lets shared workload
    builders (:mod:`benchmarks.workloads`) pick the value up without
    threading it through every call.  The smoke flag is exported the
    same way so :func:`emit_result` records the run configuration.
    """
    seed = bench_seed(args.seed)
    os.environ[SEED_ENV] = str(seed)
    if getattr(args, "smoke", False):
        os.environ[SMOKE_ENV] = "1"
    return seed


#: Fewest samples a route needs before its p95 is written: below that
#: the 95th percentile of a handful of queries is their maximum, one
#: garbage-collection pause.
P95_MIN_SAMPLES = 40


def query_latency_summary() -> dict:
    """Per-route query latencies from the process registry: the p50,
    plus the p95 for routes with at least :data:`P95_MIN_SAMPLES`
    queries.

    Engines record every answered query into the shared
    ``repro_query_seconds`` histogram family, so any bench that runs
    queries in-process accumulates a latency distribution for free;
    this folds it into the result file.  Empty when no queries ran (or
    :mod:`repro` is not importable).
    """
    try:
        from repro.obs import REGISTRY
    except ImportError:  # pragma: no cover - repro not on sys.path
        return {}
    family = REGISTRY.snapshot().get("repro_query_seconds")
    if not family:
        return {}
    summary = {}
    for route, entry in family["values"].items():
        latency = {"count": entry["count"], "p50_s": entry["p50"]}
        if entry["count"] >= P95_MIN_SAMPLES:
            latency["p95_s"] = entry["p95"]
        summary[route or "all"] = latency
    return summary


def emit_result(module_file: str, payload: dict) -> str:
    """Write a ``BENCH_<name>.json`` result file recording this run.

    ``<name>`` is the bench module's stem without the ``bench_`` prefix
    (``bench_evaluator.py`` → ``BENCH_evaluator.json``).  The payload is
    wrapped with run metadata — wall-clock timestamp, python version,
    smoke/seed configuration, and the per-route query latencies the
    metrics registry observed during the run — so successive CI
    runs accumulate a machine-readable perf trajectory.  Returns the
    file path.
    """
    stem = os.path.splitext(os.path.basename(module_file))[0]
    name = stem[len("bench_"):] if stem.startswith("bench_") else stem
    directory = os.environ.get(RESULTS_ENV, ".")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    record = {
        "bench": name,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "smoke": smoke_active(),
        "seed": bench_seed(),
        "query_latency": query_latency_summary(),
        **payload,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_pytest_module(module_file: str, doc: str, argv=None) -> int:
    """argparse front-end for a pytest-benchmark module.

    Parses the uniform flags, exports them through the environment, and
    re-runs the module under pytest — with ``--benchmark-disable`` in
    smoke mode (one plain call per case, assertions still enforced) and
    ``--benchmark-only`` otherwise.  Every run emits its
    ``BENCH_<name>.json`` result file (exit status plus duration; the
    detailed timings live in pytest-benchmark's own output).
    """
    args = bench_parser(doc).parse_args(argv)
    if args.smoke:
        os.environ[SMOKE_ENV] = "1"
    if args.seed is not None:
        os.environ[SEED_ENV] = str(args.seed)
    import pytest

    pytest_args = [module_file, "-q", "-p", "no:cacheprovider"]
    pytest_args.append("--benchmark-disable" if args.smoke else "--benchmark-only")
    started = time.perf_counter()
    exit_code = int(pytest.main(pytest_args))
    emit_result(
        module_file,
        {
            "mode": "pytest-benchmark",
            "exit_code": exit_code,
            "duration_s": round(time.perf_counter() - started, 3),
        },
    )
    return exit_code
