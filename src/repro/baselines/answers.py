"""Query answering over baseline resolutions.

Each related-work baseline resolves an inconsistent instance into one or
more alternative row sets: classical cleaning keeps a (possibly still
inconsistent) main table, rank-based resolution keeps the winners, and
stratified preferred subtheories produce a whole family.  To compare
those outcomes against Definition 3 answering on equal footing, this
module evaluates queries over the alternatives with the same indexed
:class:`~repro.query.evaluator.EvaluationContext` machinery (and the
same ``naive=True`` scan-based escape hatch) the CQA engines use — the
certain/possible split over the alternatives mirrors
:class:`~repro.cqa.answers.OpenAnswers` exactly.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple, Union

from repro.core.families import Family
from repro.cqa.answers import OpenAnswers
from repro.exceptions import QueryError
from repro.query.ast import Formula
from repro.query.evaluator import ContextCache
from repro.query.parser import parse_query
from repro.relational.rows import Row

from repro.baselines.cleaning import CleaningOutcome


def baseline_answers(
    alternatives: Iterable[Iterable[Row]],
    query: Union[str, Formula],
    variables: Optional[Tuple[str, ...]] = None,
    naive: bool = False,
    parallel: Optional[int] = None,
) -> OpenAnswers:
    """Certain/possible answers of ``query`` over baseline alternatives.

    ``alternatives`` is any iterable of row collections (e.g. the output
    of :func:`~repro.baselines.stratified.preferred_subtheories`, or a
    single cleaned table).  A tuple is *certain* when every alternative
    yields it and *possible* when at least one does — the same
    definitions the repair families use, so the result is directly
    comparable with engine output.  The ``family`` field is ``Rep``
    (baselines carry no preference semantics of their own).

    ``parallel`` shards the alternatives across the service layer's
    process pool (``0`` = hardware width); merged answers are identical
    to the in-process fold.
    """
    formula = parse_query(query) if isinstance(query, str) else query
    variables = tuple(
        sorted(formula.free_variables()) if variables is None else variables
    )
    from repro.service.parallel import plan_from_fragments, run_open

    # One pseudo-component whose fragments are the alternatives: the
    # product over a single list enumerates exactly the pool.
    plan = plan_from_fragments(
        [[frozenset(alternative) for alternative in alternatives]]
    )
    folded = run_open(
        plan, formula, variables, ContextCache(naive=naive), parallel
    )
    if folded.considered == 0:
        raise QueryError("baseline_answers() needs at least one alternative")
    return folded.to_answers(
        Family.REP, variables, "naive" if naive else "indexed"
    )


def cleaned_answers(
    outcome: CleaningOutcome,
    query: Union[str, Formula],
    variables: Optional[Tuple[str, ...]] = None,
    naive: bool = False,
) -> OpenAnswers:
    """Answers over the kept part of a cleaning outcome.

    One alternative only, so certain and possible coincide — precisely
    the over-confidence of the cleaning baseline the paper's Example 3
    criticizes: answers resting on unresolved conflicts are reported as
    if they were certain.
    """
    return baseline_answers([outcome.kept], query, variables, naive)
