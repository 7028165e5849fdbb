"""Command-line interface.

Subcommands::

    repro conflicts  --csv data.csv --fd "A -> B" [--fd ...]
    repro repairs    --csv data.csv --fd "A -> B" [--limit N]
    repro clean      --csv data.csv --fd "A -> B" --prefer-new Timestamp
    repro cqa        --csv data.csv --fd "A -> B" --family G
                     --query "EXISTS x . R(x, 1)"
    repro query      --sqlite db.sqlite --fd "R: A -> B" --backend sqlite
                     --query "EXISTS y . R(x, y)"
    repro query      --sqlite db.sqlite --relation R --fd "A -> B"
                     --backend prefsql --prefer-new TS [--explain]
                     --query "EXISTS y . R(x, y)"
    repro session    --csv data.csv --fd "A -> B" --script script.txt
    repro serve      --csv data.csv --fd "A -> B" [--stdio]
    repro examples   [--name mgr]

Data can come from CSV (``--csv``, relation named after the file stem
unless ``--relation`` is given) or from a SQLite database
(``--sqlite db.sqlite --relation R``).  Priorities are supplied either
with ``--prefer-new COLUMN`` (newer/larger value wins conflicts) or
``--prefer-source COLUMN --source-order "s1>s3,s2>s3"``.  Either flag
is one orientation rule (:mod:`repro.priorities.builders`): it orients
the loaded conflicts, and ``serve``, ``session`` and ``loadtest`` hand
it to the broker, which orients every conflict a later insert creates.

``query``, ``analyze``, ``session`` and ``serve`` register the data on
one :class:`~repro.service.broker.RequestBroker`, so they route alike:
``--backend memory`` registers no SQLite mirror, ``sqlite`` a mirror
with the preference-aware pushdown off, ``prefsql`` both.  A query no
pushed engine takes is served by the broker's incremental engine and
reported as ``fallback: <reason>``.  ``session`` replays its script
through :class:`~repro.service.server.ServiceFrontEnd`, one ``insert``,
``delete`` or ``query`` payload per line, and ``query --json`` prints
the front end's answer encoding plus the ``backend`` route label.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.constraints.conflict_graph import build_conflict_graph, render_conflict_graph
from repro.constraints.fd import FunctionalDependency
from repro.core.cleaning import clean
from repro.core.families import FAMILY_CODES, preferred_repairs
from repro.cqa.engine import CqaEngine
from repro.exceptions import ReproError
from repro.priorities.builders import (
    priority_from_rule,
    ranking_rule,
    source_order_rule,
)
from repro.priorities.priority import empty_priority
from repro.relational.csv_io import read_instance_csv
from repro.relational.instance import RelationInstance
from repro.relational.rows import sorted_rows
from repro.relational.sqlite_io import load_database, load_instance


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--csv", help="CSV file holding the relation instance")
    parser.add_argument("--sqlite", help="SQLite database file")
    parser.add_argument("--relation", help="relation name (SQLite, or CSV override)")
    parser.add_argument(
        "--fd",
        action="append",
        default=[],
        metavar="SPEC",
        help='functional dependency, e.g. "Name -> Dept, Salary" (repeatable)',
    )
    parser.add_argument(
        "--prefer-new",
        metavar="COLUMN",
        help="orient conflicts toward larger values of COLUMN (timestamp style)",
    )
    parser.add_argument(
        "--prefer-source",
        metavar="COLUMN",
        help="column holding the source label of each tuple",
    )
    parser.add_argument(
        "--source-order",
        metavar="ORDER",
        help='reliability order like "s1>s3,s2>s3" (with --prefer-source)',
    )


def _load_instance(args: argparse.Namespace) -> RelationInstance:
    if args.csv:
        return read_instance_csv(args.csv, args.relation)
    if args.sqlite:
        if not args.relation:
            raise SystemExit("--sqlite requires --relation")
        return load_instance(args.sqlite, args.relation)
    raise SystemExit("provide --csv or --sqlite")


def _build_setting(args: argparse.Namespace):
    """The loaded instance, its FDs and conflict graph, the priority the
    ``--prefer-*`` flags give its conflicts, and those flags' rule
    (``None`` without them), which a broker applies to later inserts."""
    instance = _load_instance(args)
    dependencies = [
        FunctionalDependency.parse(spec, instance.schema.name) for spec in args.fd
    ]
    if not dependencies:
        raise SystemExit("at least one --fd is required")
    graph = build_conflict_graph(instance, dependencies)
    orient = None
    if args.prefer_new:
        column = args.prefer_new
        orient = ranking_rule(lambda row: row[column])
    elif args.prefer_source:
        column = args.prefer_source
        orient = source_order_rule(
            lambda row: row[column], _parse_source_order(args)
        )
    priority = (
        empty_priority(graph) if orient is None else priority_from_rule(graph, orient)
    )
    return instance, dependencies, graph, priority, orient


def _parse_source_order(args: argparse.Namespace):
    """``"s1>s3,s2>s3"`` → [(better, worse), ...]."""
    if not args.source_order:
        raise SystemExit("--prefer-source requires --source-order")
    pairs = []
    for chunk in args.source_order.split(","):
        better, _, worse = chunk.partition(">")
        if not worse:
            raise SystemExit(f"bad --source-order chunk {chunk!r}")
        pairs.append((better.strip(), worse.strip()))
    return pairs


def _cmd_conflicts(args: argparse.Namespace) -> int:
    _, _, graph, priority, _ = _build_setting(args)
    print(
        f"{graph.vertex_count} tuples, {graph.edge_count} conflicts, "
        f"{len(priority.edges)} oriented"
    )
    print(render_conflict_graph(graph, orientation=priority.edges))
    return 0


def _cmd_repairs(args: argparse.Namespace) -> int:
    _, _, graph, priority, _ = _build_setting(args)
    family = FAMILY_CODES[args.family]
    repairs = preferred_repairs(family, priority)
    shown = repairs[: args.limit] if args.limit else repairs
    print(f"{family}: {len(repairs)} repair(s)")
    for index, repair in enumerate(shown):
        rows = ", ".join(repr(row) for row in sorted_rows(repair))
        print(f"  [{index}] {{{rows}}}")
    if args.limit and len(repairs) > args.limit:
        print(f"  ... {len(repairs) - args.limit} more")
    return 0


def _cmd_clean(args: argparse.Namespace) -> int:
    _, _, graph, priority, _ = _build_setting(args)
    result = clean(priority)
    if not priority.is_total:
        print(
            "note: priority is partial; Algorithm 1 output below is one of "
            "the common repairs (C-Rep)"
        )
    for row in sorted_rows(result):
        print(repr(row))
    return 0


def _cmd_cqa(args: argparse.Namespace) -> int:
    instance, dependencies, _, priority, _ = _build_setting(args)
    family = FAMILY_CODES[args.family]
    engine = CqaEngine(instance, dependencies, priority, family)
    answer = engine.answer(args.query)
    print(f"family={family} verdict={answer.verdict.value}")
    print(
        f"repairs considered: {answer.repairs_considered}, "
        f"satisfying: {answer.satisfying}"
    )
    if answer.counterexample is not None:
        rows = ", ".join(repr(row) for row in sorted_rows(answer.counterexample))
        print(f"counterexample repair: {{{rows}}}")
    return 0 if answer.verdict.value != "undetermined" else 2


def _listing(answers) -> str:
    """Answer tuples, already in wire order, as one text line."""
    return ", ".join(str(tuple(answer)) for answer in answers) or "(none)"


def _register(args: argparse.Namespace, backend: str = "memory"):
    """The data flags registered on a one-database broker.

    ``backend`` maps like ``repro serve``'s: ``memory`` registers no
    SQLite mirror, ``sqlite`` a mirror with prefsql off, and
    ``prefsql`` both.  Returns the broker and the request to serve or
    analyze (``--sql`` is translated against the registered schema).
    """
    from repro.service.broker import Request, RequestBroker

    family = FAMILY_CODES[args.family]
    if args.prefer_new or args.prefer_source:
        data, dependencies, _, priority, _ = _build_setting(args)
        edges = priority.edges
    else:
        dependencies = [
            FunctionalDependency.parse(spec, args.relation) for spec in args.fd
        ]
        if args.csv:
            data = read_instance_csv(args.csv, args.relation)
        elif args.sqlite:
            data = (
                load_instance(args.sqlite, args.relation)
                if args.relation
                else load_database(args.sqlite)
            )
        else:
            raise SystemExit("provide --csv or --sqlite")
        edges = ()
    broker = RequestBroker()
    broker.register(
        "cli", data, dependencies, edges, family,
        sqlite_pushdown=backend != "memory",
        prefsql_pushdown=backend == "prefsql",
    )
    if args.sql:
        from repro.query.sql import sql_to_formula

        formula, variables = sql_to_formula(args.sql, broker.engine().schema)
        return broker, Request(formula, family, variables)
    return broker, Request(args.query, family)


def _print_explain(args: argparse.Namespace, decision, family) -> int:
    """Print the broker's pushdown decision (``--explain``)."""
    import json

    if decision is None:
        if args.json:
            print(
                json.dumps(
                    {
                        "backend": "memory",
                        "family": str(family),
                        "route": "memory",
                        "reason": "in-memory repair streaming (no SQL)",
                    }
                )
            )
        else:
            print("route: memory (in-memory repair streaming, no SQL)")
        return 0
    plan = decision.plan
    route = (decision.route or "sqlite") if plan else "fallback"
    if args.json:
        payload = {
            "backend": args.backend,
            "family": str(family),
            "route": route,
            "reason": decision.reason,
            "plan": plan.description if plan else None,
            "certain_sql": plan.certain_sql if plan else None,
            "possible_sql": plan.possible_sql if plan else None,
            "diagnostics": [d.to_dict() for d in decision.diagnostics],
        }
        print(json.dumps(payload))
        return 0
    if plan:
        print(f"route: {route} (pushed down, not executed)")
        print(f"plan: {plan.description}")
        if plan.certain_sql:
            print(f"certain SQL: {plan.certain_sql}")
        if plan.possible_sql:
            print(f"possible SQL: {plan.possible_sql}")
    else:
        print("route: fallback (in-memory repair streaming)")
        print(f"reason: {decision.reason}")
    _print_diagnostics(decision.diagnostics)
    return 0


def _print_diagnostics(diagnostics) -> None:
    """Render analyzer diagnostics (codes, messages, hints) as text."""
    if not diagnostics:
        return
    print("diagnostics:")
    for diagnostic in diagnostics:
        print(f"  {diagnostic.render()}")
        print(f"    hint: {diagnostic.hint}")


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Static route analysis, as the broker routes the query: nothing
    executes."""
    import json

    broker, request = _register(args)
    with broker:
        report = broker.analyze(request.query, request.family, request.variables)

    if args.json:
        payload = report.to_dict()
        payload["expected_last_routes"] = {
            engine_name: report.expected_last_route(engine_name)
            for engine_name in report.routes
        }
        print(json.dumps(payload))
        return 0 if not report.errors else 3

    print(f"query: {report.query}")
    print(f"fingerprint: {report.fingerprint}")
    print(f"plan: {report.plan_kind or '(blocked: repair streaming)'}")
    if report.relations:
        mentioned = ", ".join(report.relations)
        print(f"relations: {mentioned}")
    if report.prioritized:
        print(f"prioritized: {', '.join(report.prioritized)}")
    print("routes:")
    for engine_name in ("memory", "sqlite", "prefsql"):
        label = report.routes[engine_name]
        if report.blocked(engine_name):
            blocker = report.blocking(engine_name)[0]
            print(
                f"  {engine_name}: fallback "
                f"(blocked by {blocker.full_code})"
            )
        else:
            print(f"  {engine_name}: {label}")
    _print_diagnostics(report.diagnostics)
    # Exit status mirrors `cqa`'s convention: 0 = fully pushable
    # somewhere, 3 = at least one engine is statically blocked.
    return 0 if not report.errors else 3


def _cmd_query(args: argparse.Namespace) -> int:
    """Certain answers for open or closed queries, served by a broker
    exactly as ``repro serve`` serves them."""
    import contextlib
    import json

    from repro.obs import format_tree, trace
    from repro.service.server import encode_result

    if args.backend == "sqlite":
        if not args.sqlite:
            raise SystemExit("--backend sqlite requires --sqlite")
        if args.prefer_new or args.prefer_source:
            raise SystemExit(
                "--prefer-* flags are preference-aware; use --backend prefsql "
                "(pushed) or --backend memory (repair streaming)"
            )
    broker, request = _register(args, args.backend)
    with broker:
        if args.explain:
            decision = broker.explain(
                request.query, request.family, request.variables
            )
            return _print_explain(args, decision, request.family)
        # --profile collects the query-lifecycle span tree while the
        # broker serves, then renders it after the normal output.
        profiling = trace("query") if args.profile else contextlib.nullcontext()
        with profiling as tracer:
            result = broker.submit([request])[0]
        if result.engine != "incremental":
            route = f"{result.route} (pushed down)"
        else:
            decision = broker.explain(
                request.query, request.family, request.variables
            )
            route = "memory" if decision is None else decision.fallback_route
    payload = {"backend": route, **encode_result(result)}
    if args.profile:
        tracer.root.attributes.setdefault("backend", args.backend)
        tracer.root.attributes.setdefault("route", route)
        if args.json:
            # Under --json the tree is embedded as the payload's "trace"
            # key (stdout stays one JSON object) and pretty-printed to
            # stderr for humans.
            payload["trace"] = tracer.root.to_dict()
    if args.json:
        print(json.dumps(payload))
    else:
        _print_answer(payload)
    if args.profile:
        stream = sys.stderr if args.json else sys.stdout
        print(format_tree(tracer.root), file=stream)
    return 2 if payload.get("verdict") == "undetermined" else 0


def _print_answer(payload: dict) -> None:
    """One served answer's wire form (``encode_result``) as text."""
    print(f"backend: {payload['backend']}")
    if payload["kind"] == "closed":
        print(f"family={payload['family']} verdict={payload['verdict']}")
        return
    print(f"variables: {', '.join(payload['variables'])}")
    print(f"certain: {_listing(payload['certain'])}")
    print(f"possible: {_listing(payload['possible'])}")


def _cmd_aggregate(args: argparse.Namespace) -> int:
    from fractions import Fraction

    from repro.cqa.aggregation import (
        Aggregate,
        key_range_consistent_answer,
        range_consistent_answer,
    )

    _, _, graph, priority, _ = _build_setting(args)
    aggregate = Aggregate[args.agg.upper().replace("(*)", "_STAR")]
    if aggregate.needs_attribute and not args.attribute:
        raise SystemExit(f"{aggregate.value} requires --attribute")
    family = FAMILY_CODES[args.family]
    if args.closed_form:
        result = key_range_consistent_answer(graph, aggregate, args.attribute)
    else:
        result = range_consistent_answer(
            priority, aggregate, args.attribute, family
        )

    def fmt(value):
        return f"{float(value):.3f}" if isinstance(value, Fraction) else str(value)

    label = aggregate.value + (f"({args.attribute})" if args.attribute else "")
    kind = "exact" if result.is_exact else "range"
    print(f"{label} over {family}: [{fmt(result.lower)}, {fmt(result.upper)}] ({kind})")
    return 0


def _parse_session_values(schema, payload: str):
    """Parse ``v1, v2, ...`` against the relation schema's types.

    Raises a :class:`~repro.exceptions.ReproError` subclass so the
    session loop can report the offending script line.
    """
    from repro.exceptions import UpdateError

    fields = [field.strip() for field in payload.split(",")]
    if len(fields) != len(schema.attributes):
        raise UpdateError(
            f"expected {len(schema.attributes)} values for {schema.name}, "
            f"got {len(fields)}: {payload!r}"
        )
    return [
        attribute.type.parse(field)
        for attribute, field in zip(schema.attributes, fields)
    ]


def _cmd_session(args: argparse.Namespace) -> int:
    """Replay a ``+``/``-``/``?`` update-and-query script through the
    service's front end: each line becomes one ``insert``, ``delete`` or
    ``query`` payload, and its event is the front end's reply."""
    import json

    from repro.service.broker import RequestBroker
    from repro.service.server import ServiceFrontEnd

    instance, dependencies, _, priority, orient = _build_setting(args)
    schema = instance.schema
    if args.script and args.script != "-":
        with open(args.script, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = sys.stdin.readlines()
    # The session is one registered database: rewritable queries run
    # on the SQLite mirror with --backend sqlite unless a priority is
    # active (prioritized reads stay in memory, as with prefsql off).
    broker = RequestBroker()
    name = broker.register(
        schema.name, instance, dependencies, priority.edges,
        FAMILY_CODES[args.family],
        sqlite_pushdown=args.backend == "sqlite",
        prefsql_pushdown=False,
        orient=orient,
    )
    front = ServiceFrontEnd(broker)
    events = []
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        op, text = line[0], line[1:].strip()
        if op == "?":
            request = {"op": "query", "query": text}
        elif op in ("+", "-"):
            try:
                values = _parse_session_values(schema, text)
            except ReproError as exc:
                raise SystemExit(f"line {number}: {exc}")
            request = {"op": "insert" if op == "+" else "delete", "values": values}
        else:
            raise SystemExit(
                f"line {number}: expected '+', '-' or '?', got {line!r}"
            )
        reply = front.handle({**request, "database": name})
        if "error" in reply:
            raise SystemExit(f"line {number}: {reply['error']}")
        # A trace id names one run's recording; events stay reproducible.
        reply.pop("trace_id", None)
        events.append({"op": request["op"], "line": number, **request, **reply})
    broker.close()
    summary = broker.engine(name).summary()
    if args.json:
        print(json.dumps({"events": events, "summary": summary}, default=str))
        return 0
    for event in events:
        if event["op"] == "insert":
            print(
                f"+ {event['values']} -> {event['new_conflicts']} new conflict(s), "
                f"{event['tuples']} tuples"
            )
        elif event["op"] == "delete":
            print(
                f"- {event['values']} -> {event['removed_conflicts']} conflict(s) removed, "
                f"{event['tuples']} tuples"
            )
        elif event["kind"] == "closed":
            detail = (
                "pushed to sqlite"
                if event["engine"] == "sqlite"
                else f"{event['satisfying']}/{event['repairs_considered']} repairs"
            )
            print(
                f"? {event['query']} [{event['family']}] = {event['verdict']} "
                f"({detail})"
            )
        else:
            suffix = " (via sqlite)" if event["engine"] == "sqlite" else ""
            print(
                f"? {event['query']} [{event['family']}] certain: "
                f"{_listing(event['certain'])}{suffix}"
            )
    print(
        f"session end: {summary['tuples']} tuples, {summary['conflicts']} conflicts, "
        f"{summary['updates_applied']} updates applied"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the batched CQA service over one loaded instance."""
    from repro.obs import RECORDER
    from repro.service.broker import RequestBroker
    from repro.service.server import (
        ServiceFrontEnd,
        make_http_server,
        serve_stdio,
    )

    instance, dependencies, _, priority, orient = _build_setting(args)
    if args.trace_sample is not None:
        if not 0.0 <= args.trace_sample <= 1.0:
            raise SystemExit("--trace-sample must be in [0, 1]")
        RECORDER.configure(sample_rate=args.trace_sample)
    if args.slow_ms is not None:
        if args.slow_ms < 0:
            raise SystemExit("--slow-ms must be >= 0")
        RECORDER.configure(slow_ms=args.slow_ms)
    if args.max_inflight is not None and args.max_inflight < 1:
        raise SystemExit("--max-inflight must be >= 1")
    broker = RequestBroker(
        parallel=args.parallel,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
    )
    broker.register(
        args.name,
        instance,
        dependencies,
        priority.edges,
        FAMILY_CODES[args.family],
        sqlite_pushdown=args.backend != "memory",
        prefsql_pushdown=args.backend == "prefsql",
        orient=orient,
    )
    access_stream = None
    owns_stream = False
    if getattr(args, "access_log", None):
        if args.access_log == "-":
            access_stream = sys.stderr
        else:
            access_stream = open(args.access_log, "a", encoding="utf-8")
            owns_stream = True
    front = ServiceFrontEnd(broker, access_log=access_stream)
    try:
        if args.stdio:
            return serve_stdio(front, sys.stdin, sys.stdout)
        server = make_http_server(front, args.host, args.port)
        host, port = server.server_address[:2]
        print(f"repro service on http://{host}:{port} "
              f"(POST /query, POST /update, GET /healthz, GET /stats, "
              f"GET /metrics, GET /debug/queries)")
        try:
            server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            server.server_close()
            broker.close()
        return 0
    finally:
        if owns_stream:
            access_stream.close()


def _debug_fetch(url: str):
    """GET a debug endpoint of a running service; SystemExit on failure."""
    import json
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    try:
        with urlopen(url) as response:
            return json.load(response)
    except HTTPError as exc:
        try:
            detail = json.load(exc).get("error", str(exc))
        except Exception:
            detail = str(exc)
        raise SystemExit(f"{url}: {detail}")
    except URLError as exc:
        raise SystemExit(
            f"cannot reach {url}: {exc.reason} (is `repro serve` running?)"
        )


def _render_top(args: argparse.Namespace) -> None:
    """One fetch-and-print round of the `repro top` table."""
    import json
    from urllib.parse import urlencode

    params = {"limit": args.limit}
    if args.route:
        params["route"] = args.route
    if args.min_ms is not None:
        params["min_ms"] = args.min_ms
    if args.slowest:
        params["order"] = "slowest"
    body = _debug_fetch(
        f"{args.url.rstrip('/')}/debug/queries?{urlencode(params)}"
    )
    if args.json:
        print(json.dumps(body))
        return
    queries = body.get("queries", [])
    if not queries:
        print("no recorded queries (is sampling enabled on the server?)")
        return
    print(
        f"{'TRACE':<18} {'ROUTE':<14} {'ENGINE':<12} {'FAM':<4} "
        f"{'MS':>10} {'SLOW':<4} QUERY"
    )
    for query in queries:
        print(
            f"{query['trace_id']:<18} {query['route']:<14} "
            f"{query['engine']:<12} {query['family']:<4} "
            f"{query['millis']:>10.3f} {'*' if query['slow'] else '':<4} "
            f"{query['query']}"
        )


def _cmd_top(args: argparse.Namespace) -> int:
    """Table of recent/slowest recorded queries from a running service."""
    import time as _time
    from datetime import datetime, timezone

    if args.watch is None:
        _render_top(args)
        return 0
    if args.watch <= 0:
        raise SystemExit("--watch needs a positive refresh interval")
    rounds = 0
    try:
        while True:
            if not args.json:
                stamp = datetime.now(timezone.utc).strftime("%H:%M:%S")
                print(f"--- repro top @ {stamp}Z "
                      f"(refresh {args.watch:g}s, ctrl-c to stop) ---")
            _render_top(args)
            rounds += 1
            if args.iterations is not None and rounds >= args.iterations:
                break
            _time.sleep(args.watch)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """One recorded query's span tree, fetched from a running service."""
    import json

    from repro.obs import Span, format_tree

    trace_id = args.trace_id
    if trace_id in ("latest", "slowest"):
        # Shorthands: resolve through the listing endpoint so tail
        # attribution during a sweep needs no copied trace ids.
        suffix = "&order=slowest" if trace_id == "slowest" else ""
        listing = _debug_fetch(
            f"{args.url.rstrip('/')}/debug/queries?limit=1{suffix}"
        )
        queries = listing.get("queries", [])
        if not queries:
            raise SystemExit(
                "no recorded queries (is sampling enabled on the server?)"
            )
        trace_id = queries[0]["trace_id"]
    body = _debug_fetch(
        f"{args.url.rstrip('/')}/debug/queries/{trace_id}"
    )
    if args.json:
        print(json.dumps(body))
        return 0
    print(f"trace {body['trace_id']}: {body['query']}")
    print(
        f"engine={body['engine']} route={body['route']} "
        f"family={body['family']} latency_ms={body['millis']:.3f} "
        f"db={body.get('database') or '-'}"
    )
    if body.get("fingerprint"):
        print(f"fingerprint: {body['fingerprint']}")
    if body.get("blocking"):
        print(f"blocking: {', '.join(body['blocking'])}")
    if body.get("trace"):
        print(format_tree(Span.from_dict(body["trace"])))
    else:
        print("(no span tree retained for this record)")
    return 0


def _parse_churn_spec(spec: str):
    """``"W:1,2"`` → a churn WorkloadEntry over relation W."""
    from repro.obs.workload import WorkloadEntry, WorkloadError

    relation, _, raw = spec.partition(":")
    if not relation or not raw:
        raise SystemExit(
            f"bad --churn spec {spec!r} (expected RELATION:v1,v2,...)"
        )
    values = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        try:
            values.append(int(chunk))
        except ValueError:
            values.append(chunk)
    try:
        return WorkloadEntry(kind="churn", relation=relation, values=tuple(values))
    except WorkloadError as exc:
        raise SystemExit(f"bad --churn spec {spec!r}: {exc}")


def _cmd_workload(args: argparse.Namespace) -> int:
    """Export recorded traffic to a workload file, or inspect one."""
    import json

    from repro.obs import workload as wl

    if args.action == "show":
        try:
            loaded = wl.load(args.file)
        except (OSError, wl.WorkloadError) as exc:
            raise SystemExit(f"{args.file}: {exc}")
        if args.json:
            print(json.dumps({
                "header": loaded.header(),
                "entries": [entry.to_dict() for entry in loaded.entries],
            }))
            return 0
        read_weight = sum(entry.weight for entry in loaded.reads)
        write_weight = sum(entry.weight for entry in loaded.writes)
        total = read_weight + write_weight
        print(f"workload {loaded.name!r}: {len(loaded.entries)} entries "
              f"({len(loaded.reads)} query, {len(loaded.writes)} churn), "
              f"mix {read_weight}/{total} read")
        if loaded.source:
            print(f"source: {loaded.source}")
        print(f"{'KIND':<6} {'WEIGHT':>6} {'FAM':<4} DETAIL")
        for entry in loaded.entries:
            if entry.is_read:
                detail = entry.query
            else:
                detail = (f"{entry.relation}{list(entry.values or ())} "
                          f"(unique col {entry.unique_column})")
            print(f"{entry.kind:<6} {entry.weight:>6} "
                  f"{entry.family or '-':<4} {detail}")
        return 0

    # export
    if args.url:
        from urllib.parse import urlencode

        payload = _debug_fetch(
            f"{args.url.rstrip('/')}/debug/queries?"
            f"{urlencode({'limit': args.limit})}"
        )
        source = args.url
    elif args.from_json:
        try:
            with open(args.from_json, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"{args.from_json}: {exc}")
        source = args.from_json
    else:
        raise SystemExit("workload export needs --url or --from-json")
    churn = [_parse_churn_spec(spec) for spec in args.churn]
    try:
        exported = wl.export_from_debug_payload(
            payload, name=args.name, source=source
        )
        if churn:
            exported = wl.Workload(
                wl.normalize_entries(exported.entries + tuple(churn)),
                name=exported.name,
                source=exported.source,
            )
    except wl.WorkloadError as exc:
        raise SystemExit(str(exc))
    if args.output:
        exported.save(args.output)
        print(f"wrote {len(exported.entries)} entries to {args.output}")
    else:
        sys.stdout.write(exported.dumps())
    return 0


def _churn_schemas(loaded):
    """Empty relation instances for a workload's churn relations, typed
    from the spec values (number vs text)."""
    from repro.relational.schema import RelationSchema

    instances = []
    for entry in loaded.writes:
        attributes = [
            f"c{index}:{'number' if isinstance(value, (int, float)) else 'text'}"
            for index, value in enumerate(entry.values or ())
        ]
        instances.append(
            RelationInstance(RelationSchema(entry.relation, attributes))
        )
    return instances


def _cmd_loadtest(args: argparse.Namespace) -> int:
    """Replay a workload file across a concurrency × mix sweep."""
    import json

    from repro.obs import RECORDER
    from repro.obs import workload as wl
    from repro.service.loadgen import (
        HttpTarget,
        InProcessTarget,
        LoadGenError,
        LoadGenerator,
    )

    try:
        loaded = wl.load(args.workload)
    except (OSError, wl.WorkloadError) as exc:
        raise SystemExit(f"{args.workload}: {exc}")
    try:
        concurrencies = [int(c) for c in args.concurrency.split(",")]
        write_fractions = [float(f) for f in args.write_fraction.split(",")]
    except ValueError as exc:
        raise SystemExit(f"bad sweep grid: {exc}")

    recorder = None
    broker = None
    if args.url:
        target = HttpTarget(args.url)
    else:
        from repro.relational.database import Database
        from repro.service.broker import RequestBroker
        from repro.service.server import ServiceFrontEnd

        instance, dependencies, _, priority, orient = _build_setting(args)
        database = Database([instance] + _churn_schemas(loaded))
        broker = RequestBroker(parallel=args.parallel)
        broker.register(
            "default",
            database,
            dependencies,
            priority.edges,
            FAMILY_CODES[args.family],
            orient=orient,
        )
        target = InProcessTarget(ServiceFrontEnd(broker))
        RECORDER.reset()
        RECORDER.configure(sample_rate=1.0)
        recorder = RECORDER

    generator = LoadGenerator(target, loaded, recorder=recorder)
    try:
        results = generator.sweep(
            concurrencies,
            write_fractions,
            requests=args.requests,
            mode=args.mode,
            rate=args.rate,
            seed=args.seed,
        )
    except LoadGenError as exc:
        raise SystemExit(str(exc))
    finally:
        if broker is not None:
            broker.close()
    if args.json:
        print(json.dumps({
            "workload": loaded.name,
            "cells": [result.to_dict() for result in results],
        }))
    else:
        print(f"{'CONC':>4} {'WRITES':>6} {'MODE':<6} {'DONE':>6} "
              f"{'REJ':>4} {'RPS':>10} {'P50MS':>8} {'P95MS':>8} "
              f"{'P99MS':>8} {'VERIFIED':<8}")
        for result in results:
            cell = result.to_dict()
            print(
                f"{cell['concurrency']:>4} {cell['write_fraction']:>6.2f} "
                f"{cell['mode']:<6} {cell['completed']:>6} "
                f"{cell['rejected']:>4} {cell['throughput_rps']:>10.1f} "
                f"{cell['p50_ms']:>8.3f} {cell['p95_ms']:>8.3f} "
                f"{cell['p99_ms']:>8.3f} "
                f"{'yes' if cell['verified'] else 'NO':<8}"
            )
        for result in results:
            for mismatch in result.mismatches[:3]:
                print(f"MISMATCH {mismatch.query}: expected "
                      f"{mismatch.expected} got {mismatch.actual}")
    return 0 if all(result.verified for result in results) else 1


def _cmd_examples(args: argparse.Namespace) -> int:
    from repro.core.families import family_chain
    from repro.datagen import paper_instances

    scenarios = {sc.name: sc for sc in paper_instances.all_scenarios()}
    chosen = [scenarios[args.name]] if args.name else scenarios.values()
    for scenario in chosen:
        names = {row: label for label, row in scenario.rows.items()}
        print(f"=== {scenario.name}: {scenario.graph.edge_count} conflicts ===")
        print(render_conflict_graph(scenario.graph, names, scenario.priority.edges))
        for family, repairs in family_chain(scenario.priority).items():
            rendered = [
                "{" + ", ".join(sorted(names.get(r, repr(r)) for r in repair)) + "}"
                for repair in repairs
            ]
            print(f"  {family}: {', '.join(rendered)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Preference-driven querying of inconsistent databases",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    conflicts = subparsers.add_parser("conflicts", help="show the conflict graph")
    _add_data_arguments(conflicts)
    conflicts.set_defaults(handler=_cmd_conflicts)

    repairs = subparsers.add_parser("repairs", help="list preferred repairs")
    _add_data_arguments(repairs)
    repairs.add_argument("--family", choices=FAMILY_CODES, default="Rep")
    repairs.add_argument("--limit", type=int, default=20)
    repairs.set_defaults(handler=_cmd_repairs)

    clean_cmd = subparsers.add_parser("clean", help="run Algorithm 1")
    _add_data_arguments(clean_cmd)
    clean_cmd.set_defaults(handler=_cmd_clean)

    cqa = subparsers.add_parser("cqa", help="preferred consistent query answer")
    _add_data_arguments(cqa)
    cqa.add_argument("--family", choices=FAMILY_CODES, default="Rep")
    cqa.add_argument("--query", required=True, help="closed first-order query")
    cqa.set_defaults(handler=_cmd_cqa)

    query_cmd = subparsers.add_parser(
        "query",
        help="certain answers, optionally pushed down into SQLite",
        description=(
            "Compute certain (and possible) answers of an open or closed "
            "query.  The data is read into memory and served as "
            "'repro serve' serves it.  With --backend sqlite, safe "
            "conjunctive queries are compiled to a single self-join SQL "
            "rewriting and evaluated on a SQLite mirror of the data — no "
            "repair enumeration; the query's route line names the "
            "blocking reason when it is served in memory instead."
        ),
    )
    _add_data_arguments(query_cmd)
    query_cmd.add_argument("--family", choices=FAMILY_CODES, default="Rep")
    query_target = query_cmd.add_mutually_exclusive_group(required=True)
    query_target.add_argument("--query", help="first-order query (open or closed)")
    query_target.add_argument("--sql", help="conjunctive SELECT query")
    query_cmd.add_argument(
        "--backend",
        choices=["memory", "sqlite", "prefsql"],
        default="memory",
        help=(
            "evaluation backend (sqlite = push rewritable queries down; "
            "prefsql = preference-aware pushdown, accepts --prefer-* flags)"
        ),
    )
    query_cmd.add_argument(
        "--explain",
        action="store_true",
        help=(
            "print the routing decision (route, fallback reason, generated "
            "SQL when pushed) without executing the query"
        ),
    )
    query_cmd.add_argument(
        "--json", action="store_true", help="emit the result as JSON"
    )
    query_cmd.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print the query-lifecycle span tree (per-stage timings and "
            "the chosen route) after the answer; with --json the tree "
            "goes to stderr"
        ),
    )
    query_cmd.set_defaults(handler=_cmd_query)

    analyze_cmd = subparsers.add_parser(
        "analyze",
        help="static route analysis: diagnostics without executing",
        description=(
            "Classify a query against the schema, FDs, and priority "
            "theory without executing it: which engine would push it "
            "down, which would fall back, and every blocking "
            "diagnostic (with fix hints).  The report depends on the "
            "theory, not the rows; it is the one the broker routes "
            "'repro query' by."
        ),
    )
    _add_data_arguments(analyze_cmd)
    analyze_cmd.add_argument("--family", choices=FAMILY_CODES, default="Rep")
    analyze_target = analyze_cmd.add_mutually_exclusive_group(required=True)
    analyze_target.add_argument(
        "--query", help="first-order query (open or closed)"
    )
    analyze_target.add_argument("--sql", help="conjunctive SELECT query")
    analyze_cmd.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    analyze_cmd.set_defaults(handler=_cmd_analyze)

    aggregate = subparsers.add_parser(
        "aggregate", help="range-consistent aggregate answer"
    )
    _add_data_arguments(aggregate)
    aggregate.add_argument(
        "--agg",
        required=True,
        choices=["count_star", "count", "min", "max", "sum", "avg"],
        help="aggregate function (count_star = COUNT(*))",
    )
    aggregate.add_argument("--attribute", help="attribute to aggregate")
    aggregate.add_argument("--family", choices=FAMILY_CODES, default="Rep")
    aggregate.add_argument(
        "--closed-form",
        action="store_true",
        help="use the PTIME single-key closed form (classic Rep only)",
    )
    aggregate.set_defaults(handler=_cmd_aggregate)

    session = subparsers.add_parser(
        "session",
        help="incremental update-and-query session over one instance",
        description=(
            "Load an instance, then apply a script (file via --script, or "
            "stdin) of lines: '+ v1, v2, ...' inserts a tuple, "
            "'- v1, v2, ...' deletes one, '? QUERY' answers a first-order "
            "query (closed: verdict; open: certain answers).  The session "
            "is one database on the service broker, so repeated queries "
            "hit its answer cache and reuse per-component repair caches "
            "across updates."
        ),
    )
    _add_data_arguments(session)
    session.add_argument("--family", choices=FAMILY_CODES, default="Rep")
    session.add_argument(
        "--script", help="script file ('-' or omitted reads stdin)"
    )
    session.add_argument(
        "--json", action="store_true", help="emit events + summary as JSON"
    )
    session.add_argument(
        "--backend",
        choices=["memory", "sqlite"],
        default="memory",
        help=(
            "query backend: sqlite keeps a lazily refreshed SQLite mirror "
            "and answers rewritable queries by SQL pushdown while no "
            "priority is active"
        ),
    )
    session.set_defaults(handler=_cmd_session)

    serve = subparsers.add_parser(
        "serve",
        help="run the batched CQA service (HTTP or JSON-lines stdio)",
        description=(
            "Load an instance and serve it through the request broker: "
            "batches are deduplicated, answers are memoized "
            "content-keyed, and each query runs on the cheapest capable "
            "engine (SQLite pushdown, witness index, or indexed "
            "in-memory streaming — optionally sharded across a process "
            "pool with --parallel).  Default transport is JSON over "
            "HTTP; --stdio reads one JSON request per line instead."
        ),
    )
    _add_data_arguments(serve)
    serve.add_argument("--family", choices=FAMILY_CODES, default="Rep")
    serve.add_argument(
        "--name", default="default", help="name the database registers under"
    )
    serve.add_argument(
        "--stdio",
        action="store_true",
        help="serve JSON lines over stdin/stdout instead of HTTP",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080, help="HTTP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="shard repair enumeration across N workers (0 = all cores)",
    )
    serve.add_argument(
        "--backend",
        choices=["memory", "sqlite", "prefsql"],
        default="prefsql",
        help=(
            "pushdown policy: prefsql = preference-aware SQL for "
            "prioritized requests, sqlite = preference-blind mirror only "
            "(prioritized requests stream in memory), memory = no mirror "
            "(always answer in memory)"
        ),
    )
    serve.add_argument(
        "--access-log",
        nargs="?",
        const="-",
        metavar="PATH",
        help=(
            "write one line per served query (latency, route, answer "
            "cardinality, trace id) to PATH; with no PATH, log to stderr"
        ),
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help=(
            "admission control: serve at most N requests concurrently; "
            "excess waits in a bounded queue (see --max-queue) and "
            "overflow is rejected with HTTP 503 (default: unlimited)"
        ),
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=None,
        metavar="N",
        help=(
            "accept-queue bound used with --max-inflight "
            "(default: equal to --max-inflight)"
        ),
    )
    serve.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="RATE",
        help=(
            "flight-recorder sampling rate in [0, 1]: fraction of "
            "executed queries whose trace record is retained "
            "(default: 1.0, record everything)"
        ),
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="N",
        help=(
            "retain every query at or above N milliseconds "
            "unconditionally (slow-query reservoir), regardless of "
            "the sampling rate"
        ),
    )
    serve.set_defaults(handler=_cmd_serve)

    top = subparsers.add_parser(
        "top",
        help="recent/slowest recorded queries of a running service",
        description=(
            "Fetch the flight recorder's retained queries from a running "
            "`repro serve` instance (GET /debug/queries) and render them "
            "as a table: trace id, route, engine, family, latency.  Use "
            "`repro trace <id>` on any trace id for the full span tree."
        ),
    )
    top.add_argument(
        "--url", default="http://127.0.0.1:8080", help="service base URL"
    )
    top.add_argument("--route", help="only queries served by this route")
    top.add_argument(
        "--min-ms", type=float, default=None, metavar="N",
        help="only queries at or above N milliseconds",
    )
    top.add_argument(
        "--limit", type=int, default=20, help="maximum rows (default: 20)"
    )
    top.add_argument(
        "--slowest",
        action="store_true",
        help="order by descending latency instead of recency",
    )
    top.add_argument(
        "--json", action="store_true", help="emit the raw records as JSON"
    )
    top.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="refresh the table every SECONDS until interrupted",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="with --watch, stop after N refreshes (default: run forever)",
    )
    top.set_defaults(handler=_cmd_top)

    trace_cmd = subparsers.add_parser(
        "trace",
        help="span tree of one recorded query (by trace id)",
        description=(
            "Fetch one retained query record from a running `repro serve` "
            "instance (GET /debug/queries/<trace_id>) and pretty-print "
            "its span tree — per-stage timings including per-shard spans "
            "shipped home from parallel workers."
        ),
    )
    trace_cmd.add_argument(
        "trace_id",
        help=(
            "trace id (see `repro top`), or the shorthands 'latest' / "
            "'slowest' for the most recent / highest-latency record"
        ),
    )
    trace_cmd.add_argument(
        "--url", default="http://127.0.0.1:8080", help="service base URL"
    )
    trace_cmd.add_argument(
        "--json", action="store_true", help="emit the raw record as JSON"
    )
    trace_cmd.set_defaults(handler=_cmd_trace)

    workload_cmd = subparsers.add_parser(
        "workload",
        help="export recorded traffic to a replayable workload file",
        description=(
            "Turn the flight recorder's retained queries into a "
            "versioned JSON-lines workload file (`export`, from a "
            "running service's /debug/queries or a saved copy of that "
            "payload), or validate and summarize an existing file "
            "(`show`).  Workload files drive `repro loadtest`."
        ),
    )
    workload_sub = workload_cmd.add_subparsers(dest="action", required=True)
    workload_export = workload_sub.add_parser(
        "export", help="write a workload file from recorded traffic"
    )
    workload_export.add_argument(
        "--url", help="base URL of a running service to scrape"
    )
    workload_export.add_argument(
        "--from-json",
        metavar="FILE",
        help="a saved /debug/queries JSON payload instead of a live URL",
    )
    workload_export.add_argument(
        "--limit", type=int, default=500, help="records to scrape (default: 500)"
    )
    workload_export.add_argument(
        "--name", default="recorded", help="workload name in the header"
    )
    workload_export.add_argument(
        "--churn",
        action="append",
        default=[],
        metavar="SPEC",
        help=(
            "append a write op 'RELATION:v1,v2,...' — replay inserts "
            "then deletes one unique row per draw (repeatable)"
        ),
    )
    workload_export.add_argument(
        "-o", "--output", help="output file (default: stdout)"
    )
    workload_show = workload_sub.add_parser(
        "show", help="validate and summarize a workload file"
    )
    workload_show.add_argument("file", help="workload file to inspect")
    workload_show.add_argument(
        "--json", action="store_true", help="emit header and entries as JSON"
    )
    workload_cmd.set_defaults(handler=_cmd_workload)

    loadtest = subparsers.add_parser(
        "loadtest",
        help="replay a workload across a concurrency × mix sweep",
        description=(
            "Drive a workload file against a live service (--url) or an "
            "in-process broker (data arguments), sweeping concurrency "
            "levels × read/write mixes with a seeded RNG.  Every "
            "replayed answer is verified bit-identical against a serial "
            "reference pass; exit status 1 if any cell fails "
            "verification.  Churn relations named by the workload are "
            "registered automatically for in-process runs."
        ),
    )
    loadtest.add_argument("workload", help="workload file (see `repro workload`)")
    loadtest.add_argument(
        "--url", help="base URL of a running service (default: in-process)"
    )
    _add_data_arguments(loadtest)
    loadtest.add_argument("--family", choices=FAMILY_CODES, default="Rep")
    loadtest.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="in-process broker worker count (0 = all cores)",
    )
    loadtest.add_argument(
        "--concurrency",
        default="1,4",
        metavar="LIST",
        help="comma-separated worker counts to sweep (default: 1,4)",
    )
    loadtest.add_argument(
        "--write-fraction",
        default="0,0.2",
        metavar="LIST",
        help="comma-separated write fractions to sweep (default: 0,0.2)",
    )
    loadtest.add_argument(
        "--requests", type=int, default=200,
        help="operations per swept cell (default: 200)",
    )
    loadtest.add_argument(
        "--mode", choices=["closed", "open"], default="closed",
        help="closed = issue on completion; open = fixed arrival rate",
    )
    loadtest.add_argument(
        "--rate", type=float, default=None, metavar="OPS",
        help="open-loop offered rate in ops/second (whole cell)",
    )
    loadtest.add_argument(
        "--seed", type=int, default=0, help="RNG seed (default: 0)"
    )
    loadtest.add_argument(
        "--json", action="store_true", help="emit per-cell results as JSON"
    )
    loadtest.set_defaults(handler=_cmd_loadtest)

    examples = subparsers.add_parser("examples", help="show the paper's examples")
    examples.add_argument("--name", help="scenario name (default: all)")
    examples.set_defaults(handler=_cmd_examples)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        # Malformed input: one line on stderr, exit status 1.
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
