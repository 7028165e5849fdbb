"""Benchmark: incremental re-answering vs fresh-engine rebuilds.

Scenario (the serving workload the incremental subsystem targets): a
relation ``R(A, B)`` with key ``A -> B`` holding many singleton tuples
plus ``pairs`` two-tuple conflict components, a total "newer value wins"
priority, and a cached conjunctive query that is re-answered after every
single-tuple update.

Three measurements:

* **incremental** — one :class:`IncrementalCqaEngine` absorbs each
  update and re-answers; only the touched component's repairs are
  recomputed and the witness index is maintained semi-naively.
* **fresh (exact)** — at a reduced component count where the one-shot
  engine can finish, rebuild a :class:`CqaEngine` per update and
  re-answer, asserting answers agree with the incremental engine.
* **fresh (budgeted)** — at the full scale (>= 200 tuples, >= 20
  conflict components, i.e. >= 2^20 repairs) the one-shot engine cannot
  finish; its per-repair stream is driven against a wall-clock budget,
  yielding a *lower bound* on the rebuild cost and hence on the speedup.

Run directly (``python benchmarks/bench_incremental.py``); ``--smoke``
runs a seconds-long correctness-focused configuration for CI.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from typing import List, Tuple

if not __package__:
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks._cli import apply_seed, bench_parser, bench_seed, emit_result

from repro.core.families import Family
from repro.cqa.engine import CqaEngine
from repro.datagen.generators import GRID_FDS, GRID_SCHEMA
from repro.incremental import IncrementalCqaEngine
from repro.query.evaluator import evaluate
from repro.query.parser import parse_query
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row

QUERY = "EXISTS x, y . R(x, y) AND y > 0"
FAMILY = Family.REP


def build_workload(pairs: int, singles: int):
    """``pairs`` two-tuple conflict components plus consistent filler.

    The insertion order is shuffled under the uniform ``--seed`` so the
    dynamic graph's bucket build order varies between runs.
    """
    values = [(key, b) for key in range(pairs) for b in (0, 1)]
    values += [(pairs + i, 0) for i in range(singles)]
    random.Random(bench_seed()).shuffle(values)
    instance = RelationInstance.from_values(GRID_SCHEMA, values)
    priority = [
        (Row(GRID_SCHEMA, (key, 1)), Row(GRID_SCHEMA, (key, 0)))
        for key in range(pairs)
    ]
    return instance, priority


def probe_row() -> Row:
    """The churned tuple: a third value for key 0 (conflicts with both)."""
    return Row(GRID_SCHEMA, (0, 2))


def toggle(engine: IncrementalCqaEngine, row: Row) -> None:
    if row in engine.graph:
        engine.delete(row)
    else:
        engine.insert(row)


def time_incremental(pairs: int, singles: int, iterations: int) -> Tuple[float, List[frozenset]]:
    instance, priority = build_workload(pairs, singles)
    engine = IncrementalCqaEngine(instance, GRID_FDS, priority, FAMILY)
    engine.answer(QUERY)  # warm component caches + witness index
    row = probe_row()
    samples: List[float] = []
    rows_after: List[frozenset] = []
    for _ in range(iterations):
        start = time.perf_counter()
        toggle(engine, row)
        engine.answer(QUERY)
        samples.append(time.perf_counter() - start)
        rows_after.append(engine.current_rows())
    return statistics.median(samples), rows_after


def fresh_answer(rows: frozenset, priority, budget: float):
    """Rebuild a one-shot engine and answer, stopping at ``budget`` seconds.

    Folds ``CqaEngine.answer``'s repair plan in the same index order,
    checking the deadline after every repair; returns
    ``(seconds, finished, verdict)``.
    """
    formula = parse_query(QUERY)
    deadline = time.perf_counter() + budget
    start = time.perf_counter()
    engine = CqaEngine(RelationInstance(GRID_SCHEMA, rows), GRID_FDS, priority, FAMILY)
    satisfying = 0
    considered = 0
    for repair in engine._plan(FAMILY):
        considered += 1
        if evaluate(formula, repair):
            satisfying += 1
        if time.perf_counter() > deadline:
            return time.perf_counter() - start, False, None
    verdict = "true" if satisfying == considered else (
        "false" if satisfying == 0 else "undetermined"
    )
    return time.perf_counter() - start, True, verdict


def time_fresh_exact(pairs: int, singles: int, iterations: int, budget: float):
    """Per-update fresh rebuilds at a scale the one-shot engine can finish,
    cross-checked against the incremental engine's answers."""
    instance, priority = build_workload(pairs, singles)
    engine = IncrementalCqaEngine(instance, GRID_FDS, priority, FAMILY)
    engine.answer(QUERY)
    row = probe_row()
    fresh_samples: List[float] = []
    incremental_samples: List[float] = []
    for _ in range(iterations):
        start = time.perf_counter()
        toggle(engine, row)
        mine = engine.answer(QUERY)
        incremental_samples.append(time.perf_counter() - start)
        active = list(engine.active_priority_edges())
        rows = engine.current_rows()
        start = time.perf_counter()
        fresh = CqaEngine(RelationInstance(GRID_SCHEMA, rows), GRID_FDS, active, FAMILY)
        theirs = fresh.answer(QUERY)
        fresh_samples.append(time.perf_counter() - start)
        assert (theirs.verdict, theirs.repairs_considered, theirs.satisfying) == (
            mine.verdict,
            mine.repairs_considered,
            mine.satisfying,
        ), f"incremental answer diverged: {mine} vs {theirs}"
    return statistics.median(fresh_samples), statistics.median(incremental_samples)


def main(argv=None) -> int:
    parser = bench_parser(__doc__)
    parser.add_argument("--pairs", type=int, default=40, help="conflict components")
    parser.add_argument("--singles", type=int, default=160, help="consistent tuples")
    parser.add_argument("--exact-pairs", type=int, default=8,
                        help="component count for the exact fresh baseline")
    parser.add_argument("--iterations", type=int, default=30)
    parser.add_argument("--budget", type=float, default=20.0,
                        help="wall-clock budget (s) for the full-scale fresh attempt")
    parser.add_argument("--no-assert", action="store_true",
                        help="report without enforcing the >=10x criterion")
    args = parser.parse_args(argv)
    apply_seed(args)

    if args.smoke:
        args.pairs, args.singles, args.exact_pairs = 20, 180, 5
        args.iterations, args.budget = 4, 3.0

    tuples = args.pairs * 2 + args.singles
    print(f"instance: {tuples} tuples, {args.pairs} conflict components, "
          f"family={FAMILY}, query={QUERY!r}")

    # Exact comparison where the one-shot engine can finish.
    exact_tuples = args.exact_pairs * 2 + (tuples - args.exact_pairs * 2)
    fresh_exact, incr_at_exact = time_fresh_exact(
        args.exact_pairs, tuples - args.exact_pairs * 2,
        max(2, min(args.iterations, 5)), args.budget,
    )
    exact_speedup = fresh_exact / incr_at_exact
    print(f"[exact   @ {args.exact_pairs:>3} components, {exact_tuples} tuples] "
          f"fresh rebuild+answer: {fresh_exact * 1000:9.2f} ms | "
          f"incremental update+answer: {incr_at_exact * 1000:7.3f} ms | "
          f"speedup: {exact_speedup:,.0f}x")

    # Full scale: incremental measured, fresh bounded by budget.
    incr_full, rows_after = time_incremental(args.pairs, args.singles, args.iterations)
    _, priority = build_workload(args.pairs, args.singles)
    spent, finished, _ = fresh_answer(rows_after[-1], priority, args.budget)
    if finished:
        full_speedup = spent / incr_full
        bound = ""
    else:
        full_speedup = spent / incr_full
        bound = ">="
    print(f"[full    @ {args.pairs:>3} components, {tuples} tuples] "
          f"fresh rebuild+answer: {bound}{spent * 1000:9.2f} ms"
          f"{'' if finished else ' (budget exhausted)'} | "
          f"incremental update+answer: {incr_full * 1000:7.3f} ms | "
          f"speedup: {bound}{full_speedup:,.0f}x")

    emit_result(
        __file__,
        {
            "tuples": tuples,
            "components": args.pairs,
            "exact_speedup": round(exact_speedup, 2),
            "full_speedup": round(full_speedup, 2),
            "full_speedup_is_lower_bound": not finished,
            "incremental_update_answer_s": round(incr_full, 6),
        },
    )
    if not args.no_assert and not args.smoke:
        assert exact_speedup >= 10, (
            f"exact speedup {exact_speedup:.1f}x below the 10x criterion"
        )
        assert full_speedup >= 10, (
            f"full-scale speedup {'lower bound ' if not finished else ''}"
            f"{full_speedup:.1f}x below the 10x criterion"
        )
        print("criterion met: >=10x speedup at both scales")
    return 0


if __name__ == "__main__":
    sys.exit(main())
