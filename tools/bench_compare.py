#!/usr/bin/env python3
"""Compare freshly emitted BENCH_*.json files against committed copies.

The benchmark harness (``benchmarks/_cli.py``) writes one
``BENCH_<name>.json`` per suite; the repository commits a reference copy
of each.  CI runs the smoke tier into a scratch directory
(``REPRO_BENCH_RESULTS``) and calls this tool to diff every numeric
metric against the committed baseline, so the perf trajectory of a PR
is visible in the log without gating merges on noisy numbers.

Per-metric output: committed value, fresh value, and the ratio.  Three
metric classes get **regression warnings** at a 2x threshold:

* ``*speedup`` metrics (higher is better) warn when the fresh value
  falls below half the committed one;
* ``*throughput*`` / ``*_rps`` metrics (higher is better) warn the
  same way when throughput halves;
* ``*p95*`` latency metrics (lower is better) warn when the fresh value
  exceeds twice the committed one.  A p95 missing on either side is
  skipped: the harness writes one only for routes with enough samples.

Exit status is 0 even with warnings — the CI step is informational —
unless ``--strict`` is given (then warnings exit 1).  Missing files on
either side are reported but never fatal: suites come and go, and the
smoke tier may legitimately emit a subset of metrics.

Usage::

    python tools/bench_compare.py --fresh bench_fresh [--committed .]
    python tools/bench_compare.py --fresh bench_fresh --strict
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

#: Ratio beyond which a tracked metric counts as regressed.
REGRESSION_FACTOR = 2.0

#: Keys that are environment descriptors, not performance metrics.
_IGNORED_LEAVES = {"python", "bench", "mode", "limit", "seed", "count"}


def _flatten(payload, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every numeric leaf."""
    if isinstance(payload, dict):
        for key, value in sorted(payload.items()):
            yield from _flatten(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(payload, bool):
        return  # booleans are flags (e.g. answers_identical), not metrics
    elif isinstance(payload, (int, float)):
        yield prefix, float(payload)


def _load_metrics(path: Path) -> Dict[str, float]:
    data = json.loads(path.read_text())
    return {
        key: value
        for key, value in _flatten(data)
        if key.rsplit(".", 1)[-1] not in _IGNORED_LEAVES
    }


def _is_speedup(metric: str) -> bool:
    return metric.rsplit(".", 1)[-1].endswith("speedup")


def _is_throughput(metric: str) -> bool:
    leaf = metric.rsplit(".", 1)[-1]
    return "throughput" in leaf or leaf.endswith("_rps")


def _is_p95(metric: str) -> bool:
    return "p95" in metric.rsplit(".", 1)[-1]


def compare_file(
    committed: Path, fresh: Path
) -> Tuple[List[str], List[str]]:
    """Diff one suite's metrics; returns (report lines, warnings)."""
    base = _load_metrics(committed)
    new = _load_metrics(fresh)
    lines: List[str] = []
    warnings: List[str] = []
    for metric in sorted(set(base) | set(new)):
        if _is_p95(metric) and (metric not in base or metric not in new):
            continue
        if metric not in base:
            lines.append(f"  {metric}: (new) {new[metric]:g}")
            continue
        if metric not in new:
            lines.append(f"  {metric}: {base[metric]:g} -> (absent)")
            continue
        before, after = base[metric], new[metric]
        ratio = after / before if before else float("inf") if after else 1.0
        marker = ""
        if _is_speedup(metric) and ratio < 1.0 / REGRESSION_FACTOR:
            marker = "  << REGRESSION (speedup halved)"
            warnings.append(
                f"{committed.name}:{metric} speedup {before:g} -> {after:g}"
            )
        elif _is_throughput(metric) and ratio < 1.0 / REGRESSION_FACTOR:
            marker = "  << REGRESSION (throughput halved)"
            warnings.append(
                f"{committed.name}:{metric} throughput {before:g} -> {after:g}"
            )
        elif _is_p95(metric) and ratio > REGRESSION_FACTOR:
            marker = "  << REGRESSION (p95 doubled)"
            warnings.append(
                f"{committed.name}:{metric} p95 {before:g}s -> {after:g}s"
            )
        lines.append(
            f"  {metric}: {before:g} -> {after:g} (x{ratio:.2f}){marker}"
        )
    return lines, warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh",
        required=True,
        help="directory holding freshly emitted BENCH_*.json files",
    )
    parser.add_argument(
        "--committed",
        default=".",
        help="directory holding the committed baselines (default: repo root)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any regression warning fires (default: exit 0)",
    )
    args = parser.parse_args(argv)

    fresh_dir = Path(args.fresh)
    committed_dir = Path(args.committed)
    fresh_files = sorted(fresh_dir.glob("BENCH_*.json"))
    if not fresh_files:
        print(f"no BENCH_*.json files in {fresh_dir}", file=sys.stderr)
        return 0 if not args.strict else 1

    all_warnings: List[str] = []
    for fresh in fresh_files:
        committed = committed_dir / fresh.name
        print(f"== {fresh.name} ==")
        if not committed.is_file():
            print("  (no committed baseline — first run of this suite)")
            continue
        lines, warnings = compare_file(committed, fresh)
        print("\n".join(lines))
        all_warnings.extend(warnings)
    for committed in sorted(committed_dir.glob("BENCH_*.json")):
        if not (fresh_dir / committed.name).is_file():
            print(f"== {committed.name} == (not emitted by this run)")

    if all_warnings:
        print(f"\n{len(all_warnings)} regression warning(s):")
        for warning in all_warnings:
            print(f"  WARNING: {warning}")
        if args.strict:
            return 1
    else:
        print("\nno regressions beyond the 2x threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
