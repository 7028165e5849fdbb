"""The one repair source: preferred repairs as per-component shard plans.

Repairs are maximal independent sets of the conflict graph, and those
factor through its connected components: every repair is the union of
the conflict-free base (singleton components) with exactly one *repair
fragment* per conflicted component.  A :class:`ShardPlan` captures that
product structure — the base row set plus one fragment tuple per
component — so the repair space becomes an addressable integer range
``[0, total)`` under the mixed-radix encoding of
:func:`itertools.product` (last component varies fastest).  Every
engine that answers by visiting repairs folds a plan: ``CqaEngine``
keeps one per family, the incremental engine builds one from its
per-component fragment table, and the baselines fold their
alternatives as a one-component plan.

:func:`run_closed` and :func:`run_open` are the only code that decides
how a plan is folded, and both fold it with the one Definition 3 fold
(:func:`~repro.cqa.answers.fold_closed` /
:func:`~repro.cqa.answers.fold_open`).  With ``parallel=None`` the
plan is iterated in index order in the calling process, and each
repair is evaluated through the caller's
:class:`~repro.query.evaluator.ContextCache`, so indexes and join
plans carry over between queries (span ``stream-repairs``).  With
``parallel>=1`` (``0`` = hardware width) the range is cut into
contiguous chunks executed by a :mod:`multiprocessing` pool (span
``shard-fan-out``); ``parallel=1`` runs the same shard code
in-process, so the pool path is differentially testable without a
pool.  Task payloads are pickle-safe: fragments are row sets, and
:class:`~repro.relational.rows.Row` reconstructs through its schema on
unpickle.  Workers rebuild each repair from its index and evaluate it
in a fresh context (the cache stays in the parent process).  Each shard
returns its range's :class:`~repro.cqa.answers.ClosedFold` or
:class:`~repro.cqa.answers.OpenFold`, a mergeable partial:

* closed queries — (considered, satisfying, first falsifier and its index);
* open queries — (considered, certain ∩, possible ∪).

The merge is deterministic: counts add, answer sets intersect/union
(orderless), and the counterexample is the repair at the *smallest*
falsifying index — the repair the in-process fold meets first.  Every
``parallel`` setting therefore returns the same counts, answer sets
and counterexample, for every family.
"""

from __future__ import annotations

import atexit
import os
import time
from dataclasses import dataclass
from itertools import product
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.constraints.conflict_graph import ConflictGraph
from repro.core.families import Family, select_preferred
from repro.cqa.answers import ClosedFold, OpenFold, fold_closed, fold_open
from repro.obs import REGISTRY, Span, annotate, current_tracer, trace
from repro.obs import span as obs_span
from repro.priorities.priority import Priority
from repro.query.ast import Formula
from repro.query.evaluator import ContextCache
from repro.relational.rows import Row
from repro.repairs.enumerate import _component_repairs, repair_sort_key

Repair = FrozenSet[Row]

#: Contiguous chunks handed to each worker; more than one per worker
#: smooths imbalance between cheap and expensive repairs.
_CHUNKS_PER_WORKER = 4


def default_workers() -> int:
    """Worker count used when ``parallel=True``-style callers ask for
    "as many as the hardware allows"."""
    return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Shard plans: the repair space as a product of per-component fragments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """The preferred-repair space factored per component.

    ``base`` holds the rows present in every repair; ``fragments`` is
    one tuple of repair fragments per component.  Iterating a plan
    yields its repairs in index order: the repair at product index
    ``i`` is the ``i``-th one visited.
    """

    base: FrozenSet[Row]
    fragments: Tuple[Tuple[Repair, ...], ...]

    @property
    def total(self) -> int:
        """Number of repairs in the product space."""
        count = 1
        for options in self.fragments:
            count *= len(options)
        return count

    def repair_at(self, index: int) -> Repair:
        """The repair at one product index (mixed-radix decode)."""
        return _assemble(self.base, self.fragments, index)

    def __iter__(self) -> Iterator[Repair]:
        """Every repair, in index order."""
        for parts in product(*self.fragments):
            yield self.base.union(*parts)


def _assemble(
    base: FrozenSet[Row],
    fragments: Sequence[Tuple[Repair, ...]],
    index: int,
) -> Repair:
    parts: List[Repair] = []
    for options in reversed(fragments):
        index, position = divmod(index, len(options))
        parts.append(options[position])
    return base.union(*parts) if parts else base


def shard_plan(
    graph: ConflictGraph, priority: Priority, family: Family
) -> ShardPlan:
    """Factor a family's preferred repairs into a :class:`ShardPlan`.

    Every preferred family decomposes across connected components
    (see :meth:`repro.incremental.cache.ComponentRepairCache.
    preferred_fragments`): witnesses of local/semi-global failure are
    confined to one component, ≪-lifting compares inside components,
    and Algorithm 1 steps in distinct components commute.  Fragments
    are produced in :func:`~repro.repairs.enumerate.enumerate_repairs`
    order and filtered per component, so for Rep, L and S the index
    order is ``enumerate_repairs`` order with the non-preferred repairs
    left out: filtering a lexicographic product coordinate-wise yields
    the product of the filtered coordinate lists in the same
    lexicographic order.
    """
    fixed: List[Row] = []
    fragment_lists: List[Tuple[Repair, ...]] = []
    for component in graph.connected_components():
        if len(component) == 1:
            fixed.extend(component)
            continue
        options = _component_repairs(graph, component, pivoting=True)
        if family is not Family.REP:
            options = select_preferred(
                family, priority.restricted_to(component), options
            )
            if family is Family.COMMON:
                # In the order all_cleaning_results lists C-Rep.
                options.sort(key=repair_sort_key)
        fragment_lists.append(tuple(options))
    return ShardPlan(frozenset(fixed), tuple(fragment_lists))


def plan_from_fragments(fragments: Sequence[Sequence[Repair]]) -> ShardPlan:
    """A :class:`ShardPlan` over explicit fragment lists.

    Used by the incremental engine (whose per-component fragment table
    already exists) and by callers folding a flat repair list (pass it
    as a single pseudo-component)."""
    return ShardPlan(
        frozenset(), tuple(tuple(options) for options in fragments)
    )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: Task payload: (base, fragments, formula, variables|None, start, stop,
#: naive, stop_on_false, traced).  Everything in it pickles: rows
#: reconstruct through their schema, formulas are frozen dataclasses.
_Task = Tuple[
    FrozenSet[Row],
    Tuple[Tuple[Repair, ...], ...],
    Formula,
    Optional[Tuple[str, ...]],
    int,
    int,
    bool,
    bool,
    bool,
]


def _run_shard(task: _Task):
    """Fold one contiguous index range of the repair space.

    Module-level so it imports under ``spawn`` start methods; returns
    ``(fold, elapsed, span)`` where ``fold`` is the range's
    :class:`ClosedFold` (closed queries) or :class:`OpenFold` (open
    ones).  ``elapsed`` is the shard's own wall time: workers run
    in separate processes and cannot write the parent's metrics
    registry, so durations travel home with the partials and the merge
    records them.  When the parent was tracing (``traced``), the shard
    runs its own tracer and ``span`` is the finished tree in
    :meth:`~repro.obs.tracing.Span.to_dict` form — a pickle-safe dict
    the parent grafts under its fan-out span; otherwise ``span`` is
    None.
    """
    (
        base, fragments, formula, variables,
        start, stop, naive, stop_on_false, traced,
    ) = task
    if not traced:
        return _eval_shard(
            base, fragments, formula, variables, start, stop, naive,
            stop_on_false,
        ) + (None,)
    with trace("shard") as tracer:
        tracer.annotate(start=start, stop=stop, pid=os.getpid())
        partial = _eval_shard(
            base, fragments, formula, variables, start, stop, naive,
            stop_on_false,
        )
        tracer.annotate(considered=partial[0].considered)
    return partial + (tracer.root.to_dict(),)


def _eval_shard(
    base: FrozenSet[Row],
    fragments: Tuple[Tuple[Repair, ...], ...],
    formula: Formula,
    variables: Optional[Tuple[str, ...]],
    start: int,
    stop: int,
    naive: bool,
    stop_on_false: bool,
):
    shard_started = time.perf_counter()
    folded = _fold_repairs(
        (_assemble(base, fragments, index) for index in range(start, stop)),
        formula, variables, None, naive, stop_on_false, start,
    )
    return folded, time.perf_counter() - shard_started


def _fold_repairs(
    repairs: Iterable[Repair],
    formula: Formula,
    variables: Optional[Tuple[str, ...]],
    contexts: Optional[ContextCache],
    naive: bool,
    stop_on_false: bool,
    start: int = 0,
) -> Union[ClosedFold, OpenFold]:
    """The closed (``variables is None``) or open fold of ``repairs``."""
    if variables is None:
        return fold_closed(
            repairs, formula, contexts, stop_on_false, naive, start
        )
    return fold_open(repairs, formula, variables, contexts, naive)


# ---------------------------------------------------------------------------
# Pool management
# ---------------------------------------------------------------------------

_POOLS: Dict[int, "multiprocessing.pool.Pool"] = {}


def _pool(workers: int) -> "multiprocessing.pool.Pool":
    """A lazily created, process-wide pool per worker count.

    Pools are reused across calls (fork/spawn cost is paid once per
    engine lifetime, not per query) and torn down at interpreter exit.
    """
    pool = _POOLS.get(workers)
    if pool is None:
        # Imported here: serial serving never loads multiprocessing.
        import multiprocessing

        # Never plain fork: the first pool is often created lazily from
        # a broker/HTTP request thread, and forking a multi-threaded
        # process can inherit locks mid-acquisition.  forkserver forks
        # from a clean helper process; spawn is the portable fallback.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "forkserver" if "forkserver" in methods else "spawn"
        )
        pool = context.Pool(processes=workers)
        if not _POOLS:
            atexit.register(shutdown_pools)
        _POOLS[workers] = pool
    return pool


def shutdown_pools() -> None:
    """Terminate every cached worker pool (idempotent)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.terminate()
        pool.join()


def _chunks(total: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` ranges covering ``[0, total)``."""
    if total == 0:
        return []
    count = min(total, max(1, workers) * _CHUNKS_PER_WORKER)
    size, leftover = divmod(total, count)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for position in range(count):
        stop = start + size + (1 if position < leftover else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def _map_tasks(tasks: List[_Task], workers: int) -> List:
    if workers <= 1 or len(tasks) <= 1:
        return [_run_shard(task) for task in tasks]
    return _pool(workers).map(_run_shard, tasks)


# ---------------------------------------------------------------------------
# Public execution surface
# ---------------------------------------------------------------------------


def _record_shards(durations: List[float]) -> None:
    """Record per-shard wall times and the fan-out's merge skew.

    Skew is ``max - min`` shard duration within one fan-out: the time
    the merge spends waiting on the slowest shard after the fastest
    finished — the load-imbalance signal for the future
    Synchrobench-style sweep.
    """
    if not REGISTRY.enabled or not durations:
        return
    shard_seconds = REGISTRY.histogram(
        "repro_shard_seconds", "Per-shard evaluation wall time"
    )
    for duration in durations:
        shard_seconds.observe(duration)
    REGISTRY.histogram(
        "repro_merge_skew_seconds",
        "Slowest minus fastest shard duration per fan-out",
    ).observe(max(durations) - min(durations))
    REGISTRY.counter(
        "repro_fanouts_total", "Sharded parallel fan-outs executed"
    ).inc()


def _graft_shards(results: List) -> None:
    """Attach shipped shard span trees under the caller's open span.

    Each traced shard returns its finished span tree as a dict (the
    pickle-safe wire format); rebuilt here and grafted in shard order,
    the parent's ``shard-fan-out`` span gains one ``shard`` child per
    chunk — making merge skew attributable to a specific index range
    and worker pid.
    """
    tracer = current_tracer()
    if tracer is None:
        return
    for result in results:
        payload = result[2]
        if payload is not None:
            tracer.graft(Span.from_dict(payload))


def _tasks_for(
    plan: ShardPlan,
    formula: Formula,
    variables: Optional[Tuple[str, ...]],
    workers: int,
    naive: bool,
    stop_on_false: bool,
) -> List[_Task]:
    traced = current_tracer() is not None
    return [
        (
            plan.base,
            plan.fragments,
            formula,
            variables,
            start,
            stop,
            naive,
            stop_on_false,
            traced,
        )
        for start, stop in _chunks(plan.total, workers)
    ]


def run_closed(
    plan: ShardPlan,
    formula: Formula,
    contexts: Optional[ContextCache] = None,
    parallel: Optional[int] = None,
    stop_on_false: bool = False,
) -> ClosedFold:
    """Fold a closed query over the plan's repairs.

    ``contexts`` supplies the per-repair evaluation contexts of an
    in-process fold (``None``: a fresh indexed context per repair) and,
    through its ``naive`` flag, the evaluator the shards use.  With
    ``stop_on_false`` the fold (each shard, when sharded) abandons its
    range at the first falsifying repair (counts are then lower bounds
    — enough for the boolean certainty check); otherwise counts are
    exact.  Either way the counterexample is the falsifier at the
    smallest index.
    """
    return ClosedFold.merge(
        _run_plan(plan, formula, None, contexts, parallel, stop_on_false)
    )


def run_open(
    plan: ShardPlan,
    formula: Formula,
    variables: Sequence[str],
    contexts: Optional[ContextCache] = None,
    parallel: Optional[int] = None,
) -> OpenFold:
    """Certain/possible answer sets over the plan's repairs (see
    :func:`run_closed` for ``contexts`` and ``parallel``)."""
    return OpenFold.merge(
        _run_plan(
            plan, formula, tuple(variables), contexts, parallel, False
        )
    )


def _run_plan(
    plan: ShardPlan,
    formula: Formula,
    variables: Optional[Tuple[str, ...]],
    contexts: Optional[ContextCache],
    parallel: Optional[int],
    stop_on_false: bool,
) -> List:
    """Fold the plan in-process or fan its shards out; returns the
    folds in index order."""
    naive = contexts is not None and contexts.naive
    workers = resolve_workers(parallel)
    if workers is None:
        with obs_span("stream-repairs", route="naive" if naive else "indexed"):
            folded = _fold_repairs(
                plan, formula, variables, contexts, naive, stop_on_false
            )
            if not stop_on_false:
                annotate(repairs=folded.considered)
        return [folded]
    with obs_span("shard-fan-out", workers=workers):
        results = _map_tasks(
            _tasks_for(
                plan, formula, variables, workers, naive, stop_on_false
            ),
            workers,
        )
        _graft_shards(results)
    _record_shards([result[1] for result in results])
    return [result[0] for result in results]


def resolve_workers(parallel: Optional[int]) -> Optional[int]:
    """Normalize a ``parallel`` argument to a worker count.

    ``None`` folds in-process; ``0`` means "hardware width";
    positive values are taken literally.  Negative values are invalid.
    """
    if parallel is None:
        return None
    if parallel < 0:
        raise ValueError(f"parallel must be >= 0, got {parallel}")
    return parallel or default_workers()
