#!/usr/bin/env python3
"""Concurrency lint: ``# guarded-by`` checking and lock-order cycles.

The threaded layers (broker, rwlock, metrics registry, shared caches)
protect their mutable attributes with per-object locks.  Nothing in
Python enforces that an attribute annotated as lock-protected is only
touched while the lock is held — a refactor can silently move an access
outside the ``with`` block and the race only shows up under load.  This
tool makes the convention checkable:

* **guarded-by pass** — an instance attribute whose initialising
  assignment carries a trailing ``# guarded-by: <lock>`` comment must,
  in every method of the class except ``__init__`` (the object is not
  shared during construction), be read or written only inside a
  lexically enclosing ``with self.<lock>:`` block.  A deliberate
  unsynchronised access (a racy-but-benign snapshot read, a
  double-checked fast path) is marked on its line with
  ``# lint: unguarded-ok``.

* **lock-order pass** — every ``with`` acquiring a lock-like object
  (``self._lock``, ``entry.compute_lock``, ``entry.rw.read()`` /
  ``.write()``, names containing ``lock`` or ``_condition``) while
  another is lexically held contributes a directed edge
  *held → acquired*.  A cycle in the union of these edges across all
  linted files is a potential deadlock and fails the lint.

Both passes are purely lexical (``ast`` + ``tokenize``): they cannot
see locks passed through helper calls, so they under-approximate — a
clean run is a necessary, not sufficient, condition.  That is the right
trade for a zero-dependency CI gate.

Usage::

    python tools/lint/guarded_by.py            # lint the default modules
    python tools/lint/guarded_by.py FILE...    # lint specific files
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent

#: The threaded modules the convention applies to (relative to repo
#: root).
DEFAULT_FILES = (
    "src/repro/cache.py",
    "src/repro/service/broker.py",
    "src/repro/service/loadgen.py",
    "src/repro/service/rwlock.py",
    "src/repro/obs/registry.py",
    "src/repro/obs/recorder.py",
    "src/repro/query/evaluator.py",
    "src/repro/incremental/cache.py",
    "src/repro/prefsql/engine.py",
)

GUARDED_BY_MARK = "guarded-by:"
SUPPRESS_MARK = "lint: unguarded-ok"


def _comments_by_line(source: str) -> Dict[int, str]:
    """Map line number -> comment text (without ``#``) for ``source``."""
    comments: Dict[int, str] = {}
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for token in tokens:
        if token.type == tokenize.COMMENT:
            comments[token.start[0]] = token.string.lstrip("#").strip()
    return comments


def _self_attribute(node: ast.expr) -> Optional[str]:
    """``self.X`` -> ``"X"``, anything else -> None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _lock_token(item: ast.withitem, class_name: str) -> Optional[str]:
    """A stable name for the lock a ``with`` item acquires, or None.

    ``self.<name>`` -> ``Class.<name>``; ``entry.compute_lock`` ->
    ``entry.compute_lock``; ``entry.rw.read()`` -> ``entry.rw``.  Bare
    names (e.g. a lock chosen conditionally into a local) are opaque to
    a lexical pass and yield None.
    """
    expr = item.context_expr
    # with x.rw.read():  /  with x.rw.write():
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in ("read", "write")
    ):
        expr = expr.func.value
    if not isinstance(expr, ast.Attribute):
        return None
    name = expr.attr
    if "lock" not in name.lower() and name not in ("_condition", "rw"):
        return None
    owner = _self_attribute(expr)
    if owner is not None or (
        isinstance(expr.value, ast.Name) and expr.value.id == "self"
    ):
        return f"{class_name}.{name}"
    try:
        return ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return None


class Violation:
    def __init__(self, path: Path, line: int, message: str) -> None:
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.message}"


class _ClassLinter:
    """Guarded-by pass over one class definition."""

    def __init__(
        self,
        path: Path,
        class_node: ast.ClassDef,
        comments: Dict[int, str],
    ) -> None:
        self.path = path
        self.node = class_node
        self.comments = comments
        #: attribute name -> guarding lock attribute name
        self.guards: Dict[str, str] = {}
        self.violations: List[Violation] = []

    def collect_guards(self) -> None:
        for assign in ast.walk(self.node):
            if not isinstance(assign, (ast.Assign, ast.AnnAssign)):
                continue
            comment = self.comments.get(assign.lineno, "")
            if GUARDED_BY_MARK not in comment:
                continue
            lock = comment.split(GUARDED_BY_MARK, 1)[1].strip()
            targets = (
                assign.targets
                if isinstance(assign, ast.Assign)
                else [assign.target]
            )
            for target in targets:
                attr = _self_attribute(target)
                if attr is not None:
                    self.guards[attr] = lock

    def check(self) -> None:
        self.collect_guards()
        if not self.guards:
            return
        for item in self.node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                continue  # not shared during construction
            self._check_function(item, held=frozenset())

    def _check_function(
        self, func: ast.AST, held: "frozenset[str]"
    ) -> None:
        body = getattr(func, "body", [])
        for statement in body:
            self._check_statement(statement, held)

    def _check_statement(self, node: ast.stmt, held: "frozenset[str]") -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set(held)
            for item in node.items:
                self._check_expression(item.context_expr, held)
                lock = self._held_lock_name(item)
                if lock is not None:
                    acquired.add(lock)
            for inner in node.body:
                self._check_statement(inner, frozenset(acquired))
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested function may escape the lock scope; check it as
            # if no lock were held (conservative).
            self._check_function(node, held=frozenset())
            return
        for child_expr in ast.iter_child_nodes(node):
            if isinstance(child_expr, ast.expr):
                self._check_expression(child_expr, held)
            elif isinstance(child_expr, ast.stmt):
                self._check_statement(child_expr, held)
            elif isinstance(child_expr, (ast.excepthandler,)):
                for inner in child_expr.body:
                    self._check_statement(inner, held)
        # Compound statements carry their bodies in list fields that
        # iter_child_nodes already yields as stmt nodes, so the loop
        # above covers if/for/while/try bodies.

    def _held_lock_name(self, item: ast.withitem) -> Optional[str]:
        """The ``self.<lock>`` attribute a with-item acquires, or None."""
        expr = item.context_expr
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("read", "write")
        ):
            expr = expr.func.value
        attr = _self_attribute(expr)
        return attr

    def _check_expression(
        self, node: ast.expr, held: "frozenset[str]"
    ) -> None:
        for sub in ast.walk(node):
            attr = (
                _self_attribute(sub) if isinstance(sub, ast.Attribute) else None
            )
            if attr is None or attr not in self.guards:
                continue
            lock = self.guards[attr]
            if lock in held:
                continue
            comment = self.comments.get(sub.lineno, "")
            if SUPPRESS_MARK in comment:
                continue
            self.violations.append(
                Violation(
                    self.path,
                    sub.lineno,
                    f"{self.node.name}.{attr} is guarded by "
                    f"self.{lock} but accessed without it "
                    f"(add `with self.{lock}:` or `# {SUPPRESS_MARK}`)",
                )
            )


def _collect_lock_edges(
    path: Path, tree: ast.Module
) -> Set[Tuple[str, str, int]]:
    """(held, acquired, line) triples from lexically nested ``with``s."""
    edges: Set[Tuple[str, str, int]] = set()

    def walk(node: ast.AST, held: Tuple[str, ...], class_name: str) -> None:
        if isinstance(node, ast.ClassDef):
            for child in ast.iter_child_nodes(node):
                walk(child, held, node.name)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner_held = list(held)
            for item in node.items:
                token = _lock_token(item, class_name)
                if token is None:
                    continue
                for outer in inner_held:
                    if outer != token:
                        edges.add((outer, token, node.lineno))
                inner_held.append(token)
            for statement in node.body:
                walk(statement, tuple(inner_held), class_name)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in ast.iter_child_nodes(node):
                walk(child, (), class_name)
            return
        for child in ast.iter_child_nodes(node):
            walk(child, held, class_name)

    walk(tree, (), path.stem)
    return edges


def _find_cycle(
    edges: Iterable[Tuple[str, str, int]]
) -> Optional[List[str]]:
    """A lock-order cycle as a token list, or None if the graph is a DAG."""
    graph: Dict[str, Set[str]] = {}
    for held, acquired, _ in edges:
        graph.setdefault(held, set()).add(acquired)
        graph.setdefault(acquired, set())
    WHITE, GREY, BLACK = 0, 1, 2
    color = {token: WHITE for token in graph}
    stack: List[str] = []

    def visit(token: str) -> Optional[List[str]]:
        color[token] = GREY
        stack.append(token)
        for successor in sorted(graph[token]):
            if color[successor] == GREY:
                return stack[stack.index(successor):] + [successor]
            if color[successor] == WHITE:
                cycle = visit(successor)
                if cycle is not None:
                    return cycle
        stack.pop()
        color[token] = BLACK
        return None

    for token in sorted(graph):
        if color[token] == WHITE:
            cycle = visit(token)
            if cycle is not None:
                return cycle
    return None


def lint_source(
    path: Path, source: str
) -> Tuple[List[Violation], Set[Tuple[str, str, int]], int]:
    """Lint one file: (violations, lock edges, guarded attribute count)."""
    comments = _comments_by_line(source)
    tree = ast.parse(source, filename=str(path))
    violations: List[Violation] = []
    guarded = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            linter = _ClassLinter(path, node, comments)
            linter.check()
            guarded += len(linter.guards)
            violations.extend(linter.violations)
    edges = _collect_lock_edges(path, tree)
    return violations, edges, guarded


def run(paths: Sequence[Path]) -> int:
    all_violations: List[Violation] = []
    all_edges: Set[Tuple[str, str, int]] = set()
    guarded_total = 0
    for path in paths:
        source = path.read_text(encoding="utf-8")
        violations, edges, guarded = lint_source(path, source)
        all_violations.extend(violations)
        all_edges.update(edges)
        guarded_total += guarded
    for violation in sorted(
        all_violations, key=lambda v: (str(v.path), v.line)
    ):
        print(violation, file=sys.stderr)
    cycle = _find_cycle(all_edges)
    if cycle is not None:
        print(
            "lock-order cycle (potential deadlock): " + " -> ".join(cycle),
            file=sys.stderr,
        )
    status = 1 if (all_violations or cycle) else 0
    print(
        f"guarded-by lint: {guarded_total} guarded attributes, "
        f"{len(all_violations)} violation(s); lock-order graph: "
        f"{len(all_edges)} edge(s), "
        f"{'CYCLIC' if cycle else 'acyclic'}"
    )
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files",
        nargs="*",
        help="files to lint (default: the threaded repro modules)",
    )
    args = parser.parse_args(argv)
    if args.files:
        paths = [Path(name) for name in args.files]
    else:
        paths = [ROOT / name for name in DEFAULT_FILES]
    missing = [path for path in paths if not path.is_file()]
    if missing:
        for path in missing:
            print(f"no such file: {path}", file=sys.stderr)
        return 2
    return run(paths)


if __name__ == "__main__":
    sys.exit(main())
