"""Seeded generators for the three served workloads.

Each workload is a set of registered databases plus, per client, an
endless deterministic stream of JSON payloads for
:meth:`repro.service.server.ServiceFrontEnd.handle`.  The seed fixes
every request and, for the pushed instances, which keys conflict and
which conflicts carry priorities; the sizes and shares below are
fixed, so runs with different seeds see instances of identical shape.

* ``pushed-read`` — ``R(K, A, B)`` with ``K -> A`` and a dirty
  ``S(A, C)`` with ``A -> C``, registered twice: ``plain`` (no
  priority: sqlite route) and ``ranked`` (priorities on its conflicts:
  prefsql route).  Key lookups, narrow ``A`` range scans and
  ``R ⋈ S`` key joins, drawn with Zipf skew from a text space more
  than ten times the broker's answer cache.
* ``memory-read`` — the Figure-4 conflict chain (with priorities) and
  the Example-4 grid, tens of tuples each; dirty self-joins and
  negated probes that the analysis layer blocks from pushdown, each
  request under a family drawn from Rep/L/S/G/C.
* ``write-mix`` — the pushed-read instance at a smaller scale, with
  one op in ten an insert or delete on the queried relation ``R``.
  Written keys are never probed and written ``A`` values lie outside
  every range, so every answer equals the one on the unwritten
  instance under any interleaving.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.constraints.fd import FunctionalDependency
from repro.datagen.generators import (
    CHAIN_FDS,
    GRID_FDS,
    chain_instance,
    chain_rows,
)
from repro.datagen.paper_instances import example4_instance
from repro.relational.database import Database
from repro.relational.instance import RelationInstance
from repro.relational.rows import Row
from repro.relational.schema import RelationSchema

FAMILY_CODES = ("Rep", "L", "S", "G", "C")

R_SCHEMA = RelationSchema("R", ["K:number", "A:number", "B"])
S_SCHEMA = RelationSchema("S", ["A:number", "C"])
PUSHED_FDS = (
    FunctionalDependency.parse("K -> A", "R"),
    FunctionalDependency.parse("A -> C", "S"),
)

#: Share of ``R`` keys (and of ``S`` A-values) that carry a conflict.
CONFLICT_SHARE = 0.05
#: Zipf exponent of the text popularity ranking.
ZIPF_EXPONENT = 0.9
#: Share of write ops in write-mix.
WRITE_SHARE = 0.1
#: Keys per client that write-mix cycles its writes through.
WRITE_KEYS_PER_CLIENT = 4


@dataclass
class DatabaseSpec:
    """One database to register on the broker."""

    name: str
    database: Database
    dependencies: Tuple[FunctionalDependency, ...]
    priority: Tuple[Tuple[Row, Row], ...] = ()


@dataclass
class Workload:
    """Databases plus per-client request streams of one workload."""

    name: str
    seed: int
    databases: List[DatabaseSpec]
    #: Query kinds, each a list of (database, query text, answer
    #: columns).  A read picks a kind uniformly, then a text of that
    #: kind by Zipf rank, so every seed gets the same mix of kinds.
    kinds: List[List[Tuple[str, str, Optional[Tuple[str, ...]]]]]
    #: Family codes a read of each database is drawn under (None = the
    #: database default).
    families: Dict[str, Sequence[Optional[str]]]
    #: Share of ops that are writes, and each client's write stream.
    write_share: float = 0.0
    writer: Optional[Callable[[int], Iterator[dict]]] = None
    #: Instance shape, for the run metadata.
    shape: Dict[str, object] = field(default_factory=dict)

    @property
    def texts(self) -> List[Tuple[str, str, Optional[Tuple[str, ...]]]]:
        """Every distinct (database, query text, answer columns)."""
        return [entry for kind in self.kinds for entry in kind]

    def request_space(self) -> int:
        """Distinct (database, text, family) requests the streams draw."""
        return sum(len(self.families[database]) for database, _, _ in self.texts)

    def client_ops(self, client: int) -> Iterator[dict]:
        """Endless deterministic payload stream of one client."""
        rng = random.Random(f"{self.name}/{self.seed}/client{client}")
        ranked: List[List[Tuple[str, str, Optional[Tuple[str, ...]]]]] = []
        cumulative: List[List[float]] = []
        for index, kind in enumerate(self.kinds):
            # Popularity ranks are shared by all clients (same seeded
            # permutation), so the clients contend for the same texts.
            order = list(kind)
            random.Random(f"{self.name}/{self.seed}/ranks{index}").shuffle(order)
            ranked.append(order)
            cumulative.append(
                list(
                    itertools.accumulate(
                        1.0 / (rank + 1) ** ZIPF_EXPONENT
                        for rank in range(len(order))
                    )
                )
            )
        writes = self.writer(client) if self.writer is not None else None
        while True:
            if writes is not None and rng.random() < self.write_share:
                yield next(writes)
                continue
            kind = rng.randrange(len(ranked))
            weights = cumulative[kind]
            rank = bisect.bisect_left(weights, rng.random() * weights[-1])
            database, text, variables = ranked[kind][min(rank, len(weights) - 1)]
            payload: Dict[str, object] = {"query": text, "database": database}
            family = rng.choice(self.families[database])
            if family is not None:
                payload["family"] = family
            if variables is not None:
                payload["variables"] = list(variables)
            yield payload


def request_key(payload: dict) -> Tuple:
    """The identity of a query payload for the answer check."""
    variables = payload.get("variables")
    return (
        payload["database"],
        payload["query"],
        tuple(variables) if variables is not None else None,
        payload.get("family"),
    )


# ---------------------------------------------------------------------------
# pushed-read / write-mix instance
# ---------------------------------------------------------------------------


def _conflict_groups(
    rng: random.Random, universe: int
) -> List[Tuple[int, int]]:
    """(value, extra tuples) for exactly CONFLICT_SHARE of ``universe``;
    groups alternate between two and three conflicting tuples."""
    count = max(1, round(CONFLICT_SHARE * universe))
    chosen = sorted(rng.sample(range(universe), count))
    return [(value, 1 + index % 2) for index, value in enumerate(chosen)]


def _orient(
    rng: random.Random, group_index: int, rows: List[Row]
) -> List[Tuple[Row, Row]]:
    """Priority edges for one conflict group (acyclic by construction).

    Three of every four groups are ranked: the first totally, the
    second only on its top pair (a partial order the families read
    differently), the third totally; the fourth stays unranked.
    """
    mode = group_index % 4
    if mode == 3:
        return []
    ranked = list(rows)
    rng.shuffle(ranked)
    if mode == 1:
        return [(ranked[0], ranked[1])]
    return [
        (ranked[i], ranked[j])
        for i in range(len(ranked))
        for j in range(i + 1, len(ranked))
    ]


def pushed_instance(
    seed: int, keys: int
) -> Tuple[Database, Tuple[Tuple[Row, Row], ...], Dict[str, object]]:
    """``R(K, A, B)`` over ``keys`` keys and ``S(A, C)`` over
    ``keys // 2`` A-values, plus the priority of the ranked copy."""
    rng = random.Random(f"pushed/{seed}")
    a_values = keys // 2
    r_values: List[Tuple[int, int, str]] = []
    priority: List[Tuple[Row, Row]] = []
    base_a = [rng.randrange(a_values) for _ in range(keys)]
    r_groups = _conflict_groups(rng, keys)
    extra = dict(r_groups)
    for key in range(keys):
        r_values.append((key, base_a[key], f"b{key}"))
    for index, (key, count) in enumerate(r_groups):
        others = rng.sample(
            [a for a in range(a_values) if a != base_a[key]], count
        )
        group = [Row(R_SCHEMA, (key, base_a[key], f"b{key}"))]
        for j, a in enumerate(others):
            r_values.append((key, a, f"b{key}x{j}"))
            group.append(Row(R_SCHEMA, (key, a, f"b{key}x{j}")))
        priority.extend(_orient(rng, index, group))
    s_values: List[Tuple[int, str]] = [(a, f"c{a}") for a in range(a_values)]
    s_groups = _conflict_groups(rng, a_values)
    for index, (a, count) in enumerate(s_groups):
        group = [Row(S_SCHEMA, (a, f"c{a}"))]
        for j in range(count):
            s_values.append((a, f"c{a}x{j}"))
            group.append(Row(S_SCHEMA, (a, f"c{a}x{j}")))
        priority.extend(_orient(rng, index, group))
    rng.shuffle(r_values)
    rng.shuffle(s_values)
    database = Database(
        [
            RelationInstance.from_values(R_SCHEMA, r_values),
            RelationInstance.from_values(S_SCHEMA, s_values),
        ]
    )
    shape = {
        "rows": {"R": len(r_values), "S": len(s_values)},
        "conflicting_keys": {"R": len(extra), "S": len(s_groups)},
        "priority_edges_ranked": len(priority),
    }
    return database, tuple(priority), shape


def pushed_kinds(keys: int) -> List[List[Tuple[str, Optional[Tuple[str, ...]]]]]:
    """Key lookups (two projections), key joins with ``S`` (two
    projections) and narrow ``A`` ranges of width 1 to 4."""
    a_values = keys // 2
    return [
        [(f"R({key}, a, b)", None) for key in range(keys)],
        [(f"EXISTS b . R({key}, a, b)", None) for key in range(keys)],
        [(f"EXISTS b . R({key}, a, b) AND S(a, c)", None) for key in range(keys)],
        [(f"EXISTS a, b . R({key}, a, b) AND S(a, c)", None) for key in range(keys)],
        [
            (
                f"EXISTS b . R(k, a, b) AND a >= {low} AND a <= {low + width - 1}",
                None,
            )
            for width in range(1, 5)
            for low in range(a_values - width + 1)
        ],
    ]


def _pushed_workload(
    name: str, seed: int, keys: int, write_share: float
) -> Workload:
    database, priority, shape = pushed_instance(seed, keys)
    databases = [
        DatabaseSpec("plain", database, PUSHED_FDS),
        DatabaseSpec("ranked", database, PUSHED_FDS, priority),
    ]
    kinds = [
        [(spec.name, text, variables) for text, variables in kind]
        for kind in pushed_kinds(keys)
        for spec in databases
    ]
    workload = Workload(
        name=name,
        seed=seed,
        databases=databases,
        kinds=kinds,
        families={"plain": (None,), "ranked": FAMILY_CODES},
        write_share=write_share,
        shape=shape,
    )
    if write_share:

        # Writes go to keys no text probes and to A values above every
        # range, and never touch S.
        a_hidden = keys // 2 + 10

        def writer(client: int) -> Iterator[dict]:
            # Insert a clean row, add a second A for its key (a key
            # conflict), remove the conflict, remove the row; cycle
            # over this client's own keys and both databases.
            for cycle in itertools.count():
                database_name = ("plain", "ranked")[cycle % 2]
                key = keys + 1 + client * WRITE_KEYS_PER_CLIENT + (
                    cycle // 2
                ) % WRITE_KEYS_PER_CLIENT
                first = [key, a_hidden, f"w{client}"]
                second = [key, a_hidden + 1, f"w{client}x"]
                for op, values in (
                    ("insert", first),
                    ("insert", second),
                    ("delete", second),
                    ("delete", first),
                ):
                    yield {
                        "op": op,
                        "database": database_name,
                        "relation": "R",
                        "values": values,
                    }

        workload.writer = writer
    return workload


# ---------------------------------------------------------------------------
# memory-read
# ---------------------------------------------------------------------------


def chain_priority(length: int) -> Tuple[Tuple[Row, Row], ...]:
    """Orient two of every three consecutive conflicts of the chain,
    the direction flipping from one triple to the next.

    The orientation is fixed rather than seeded: how much repair
    enumeration the families need depends on it, and a seeded one made
    set-up cost vary fourfold between seeds.
    """
    rows = chain_rows(chain_instance(length))
    edges: List[Tuple[Row, Row]] = []
    for index in range(length - 1):
        if index % 3 == 2:
            continue
        pair = (rows[index], rows[index + 1])
        edges.append(pair if (index // 3) % 2 == 0 else (pair[1], pair[0]))
    return tuple(edges)


def memory_kinds(
    chain_length: int, grid_groups: int
) -> List[List[Tuple[str, str, Optional[Tuple[str, ...]]]]]:
    """Dirty self-joins over A- and C-ranges of the chain (closed and
    open), self-joins (closed and open) and negated probes over
    A-ranges of the grid."""
    a_groups = (chain_length + 1) // 2 + 1
    c_first = chain_length + 1
    chain_ranges = [
        (low, high) for low in range(a_groups) for high in range(low, a_groups)
    ]
    grid_ranges = [
        (low, high) for low in range(grid_groups) for high in range(low, grid_groups)
    ]

    def a_join(low: int, high: int) -> str:
        return (
            "R(a, b1, c1, d1) AND R(a, b2, c2, d2) AND b1 != b2 "
            f"AND a >= {low} AND a <= {high}"
        )

    def c_join(low: int, high: int) -> str:
        return (
            "R(a1, b1, c, d1) AND R(a2, b2, c, d2) AND d1 != d2 "
            f"AND c >= {c_first + low} AND c <= {c_first + high}"
        )

    def grid_join(low: int, high: int) -> str:
        return f"R(a, b1) AND R(a, b2) AND b1 < b2 AND a >= {low} AND a <= {high}"

    return [
        [
            ("chain", f"EXISTS a, b1, b2, c1, c2, d1, d2 . {a_join(*r)}", None)
            for r in chain_ranges
        ],
        [
            ("chain", f"EXISTS b1, b2, c1, c2, d1, d2 . {a_join(*r)}", ("a",))
            for r in chain_ranges
        ],
        [
            ("chain", f"EXISTS a1, a2, b1, b2, c, d1, d2 . {c_join(*r)}", None)
            for r in chain_ranges
        ],
        [
            ("chain", f"EXISTS a1, a2, b1, b2, d1, d2 . {c_join(*r)}", ("c",))
            for r in chain_ranges
        ],
        [("grid", f"EXISTS a, b1, b2 . {grid_join(*r)}", None) for r in grid_ranges],
        [("grid", f"EXISTS b1, b2 . {grid_join(*r)}", ("a",)) for r in grid_ranges],
        [
            (
                "grid",
                f"EXISTS a . R(a, 0) AND NOT R(a, 1) AND a >= {low} AND a <= {high}",
                None,
            )
            for low, high in grid_ranges
        ],
    ]


def memory_read(seed: int, scale: float = 1.0) -> Workload:
    chain_length = max(6, round(20 * scale))
    grid_groups = max(3, round(7 * scale))
    chain = chain_instance(chain_length)
    grid = example4_instance(grid_groups)
    priority = chain_priority(chain_length)
    databases = [
        DatabaseSpec("chain", Database([chain]), CHAIN_FDS, priority),
        DatabaseSpec("grid", Database([grid]), GRID_FDS),
    ]
    return Workload(
        name="memory-read",
        seed=seed,
        databases=databases,
        kinds=memory_kinds(chain_length, grid_groups),
        shape={
            "rows": {"chain.R": len(chain), "grid.R": len(grid)},
            "chain_priority_edges": len(priority),
        },
        families={"chain": FAMILY_CODES, "grid": FAMILY_CODES},
    )


#: Key count of the pushed-read instance at scale 1.
PUSHED_KEYS = 2000
#: Key count of the write-mix instance at scale 1.
WRITE_MIX_KEYS = 150


def pushed_read(seed: int, scale: float = 1.0) -> Workload:
    return _pushed_workload(
        "pushed-read", seed, max(20, round(PUSHED_KEYS * scale)), 0.0
    )


def write_mix(seed: int, scale: float = 1.0) -> Workload:
    return _pushed_workload(
        "write-mix", seed, max(20, round(WRITE_MIX_KEYS * scale)), WRITE_SHARE
    )


WORKLOADS = {
    "pushed-read": pushed_read,
    "memory-read": memory_read,
    "write-mix": write_mix,
}

