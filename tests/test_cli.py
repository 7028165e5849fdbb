"""End-to-end tests of the command-line interface."""

import io
import json

import pytest

from repro.cli import main
from repro.datagen.paper_instances import mgr_scenario
from repro.relational.csv_io import write_instance_csv
from repro.relational.sqlite_io import save_instance


@pytest.fixture
def mgr_csv(tmp_path):
    path = tmp_path / "Mgr.csv"
    scenario = mgr_scenario()
    # Add a Source column so the CLI can build the reliability priority.
    from repro.relational.instance import RelationInstance
    from repro.relational.schema import RelationSchema
    from repro.datagen.paper_instances import mgr_source_of

    schema = RelationSchema(
        "Mgr", ["Name", "Dept", "Salary:number", "Reports:number", "Source"]
    )
    sources = mgr_source_of()
    instance = RelationInstance.from_values(
        schema,
        [tuple(row.values) + (sources[row],) for row in scenario.instance],
    )
    write_instance_csv(instance, path)
    return path


MGR_FDS = ["Dept -> Name, Salary, Reports", "Name -> Dept, Salary, Reports"]


def fd_args():
    args = []
    for spec in MGR_FDS:
        args.extend(["--fd", spec])
    return args


class TestConflictsCommand:
    def test_renders_graph(self, mgr_csv, capsys):
        assert main(["conflicts", "--csv", str(mgr_csv), *fd_args()]) == 0
        out = capsys.readouterr().out
        assert "3 conflicts" in out


class TestRepairsCommand:
    def test_lists_repairs(self, mgr_csv, capsys):
        assert main(["repairs", "--csv", str(mgr_csv), *fd_args()]) == 0
        out = capsys.readouterr().out
        assert "Rep: 3 repair(s)" in out

    def test_family_with_source_priority(self, mgr_csv, capsys):
        code = main(
            [
                "repairs",
                "--csv",
                str(mgr_csv),
                *fd_args(),
                "--family",
                "G",
                "--prefer-source",
                "Source",
                "--source-order",
                "s1>s3,s2>s3",
            ]
        )
        assert code == 0
        assert "G-Rep: 2 repair(s)" in capsys.readouterr().out


class TestCleanCommand:
    def test_clean_with_ranking(self, mgr_csv, capsys):
        code = main(
            [
                "clean",
                "--csv",
                str(mgr_csv),
                *fd_args(),
                "--prefer-new",
                "Salary",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Mary" in out


class TestCqaCommand:
    def test_cqa_verdict(self, mgr_csv, capsys):
        code = main(
            [
                "cqa",
                "--csv",
                str(mgr_csv),
                *fd_args(),
                "--family",
                "G",
                "--prefer-source",
                "Source",
                "--source-order",
                "s1>s3,s2>s3",
                "--query",
                "EXISTS x1,y1,z1,s1,x2,y2,z2,s2 . "
                "Mgr(Mary,x1,y1,z1,s1) AND Mgr(John,x2,y2,z2,s2) AND y1 > y2",
            ]
        )
        assert code == 0
        assert "verdict=true" in capsys.readouterr().out

    def test_undetermined_exit_code(self, mgr_csv, capsys):
        code = main(
            [
                "cqa",
                "--csv",
                str(mgr_csv),
                *fd_args(),
                "--query",
                "EXISTS x1,y1,z1,s1,x2,y2,z2,s2 . "
                "Mgr(Mary,x1,y1,z1,s1) AND Mgr(John,x2,y2,z2,s2) AND y1 > y2",
            ]
        )
        assert code == 2
        assert "verdict=undetermined" in capsys.readouterr().out


class TestSqliteSource:
    def test_repairs_from_sqlite(self, tmp_path, capsys):
        scenario = mgr_scenario()
        path = tmp_path / "db.sqlite"
        save_instance(scenario.instance, path)
        code = main(
            [
                "repairs",
                "--sqlite",
                str(path),
                "--relation",
                "Mgr",
                *fd_args(),
            ]
        )
        assert code == 0
        assert "3 repair(s)" in capsys.readouterr().out

    def test_sqlite_requires_relation(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["repairs", "--sqlite", str(tmp_path / "x.sqlite"), "--fd", "A -> B"])


class TestExamplesCommand:
    def test_all_examples(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "example9_reconstructed" in out
        assert "G-Rep" in out

    def test_single_example(self, capsys):
        assert main(["examples", "--name", "example7"]) == 0
        out = capsys.readouterr().out
        assert "example7" in out


class TestAggregateCommand:
    def test_sum_range(self, mgr_csv, capsys):
        code = main(
            [
                "aggregate",
                "--csv",
                str(mgr_csv),
                *fd_args(),
                "--agg",
                "sum",
                "--attribute",
                "Salary",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SUM(Salary) over Rep: [30, 70]" in out

    def test_preferred_family_range(self, mgr_csv, capsys):
        code = main(
            [
                "aggregate",
                "--csv",
                str(mgr_csv),
                *fd_args(),
                "--agg",
                "max",
                "--attribute",
                "Salary",
                "--family",
                "G",
                "--prefer-source",
                "Source",
                "--source-order",
                "s1>s3,s2>s3",
            ]
        )
        assert code == 0
        assert "MAX(Salary) over G-Rep: [20, 40]" in capsys.readouterr().out

    def test_count_star(self, mgr_csv, capsys):
        code = main(
            ["aggregate", "--csv", str(mgr_csv), *fd_args(), "--agg", "count_star"]
        )
        assert code == 0
        assert "(exact)" in capsys.readouterr().out

    def test_missing_attribute(self, mgr_csv):
        with pytest.raises(SystemExit):
            main(["aggregate", "--csv", str(mgr_csv), *fd_args(), "--agg", "sum"])


class TestArgumentErrors:
    def test_missing_data_source(self):
        with pytest.raises(SystemExit):
            main(["repairs", "--fd", "A -> B"])

    def test_missing_fd(self, mgr_csv):
        with pytest.raises(SystemExit):
            main(["repairs", "--csv", str(mgr_csv)])

    def test_bad_source_order(self, mgr_csv):
        with pytest.raises(SystemExit):
            main(
                [
                    "repairs",
                    "--csv",
                    str(mgr_csv),
                    *fd_args(),
                    "--prefer-source",
                    "Source",
                    "--source-order",
                    "garbage",
                ]
            )

    @pytest.mark.parametrize("command", ["query", "analyze", "cqa"])
    @pytest.mark.parametrize(
        "query, message",
        [
            ("R(x", "expected \\) at end of input"),
            ("Q(x)", "unknown relation 'Q'"),
        ],
        ids=["malformed", "unknown-relation"],
    )
    def test_a_bad_query_exits_with_one_line(
        self, tmp_path, command, query, message
    ):
        path = tmp_path / "R.csv"
        path.write_text("A:number,B:number\n0,0\n0,1\n1,0\n")
        with pytest.raises(SystemExit, match=message) as excinfo:
            main(
                [command, "--csv", str(path), "--fd", "A -> B",
                 "--query", query]
            )
        # A string code: Python prints it to stderr and exits with 1.
        assert isinstance(excinfo.value.code, str)
        assert "\n" not in excinfo.value.code

    def test_an_unknown_aggregate_attribute_exits_with_one_line(self, mgr_csv):
        with pytest.raises(SystemExit, match="no attribute 'Bonus'") as excinfo:
            main(
                ["aggregate", "--csv", str(mgr_csv), *fd_args(),
                 "--agg", "sum", "--attribute", "Bonus"]
            )
        assert isinstance(excinfo.value.code, str)


@pytest.fixture
def kv_sqlite(tmp_path):
    """R(K, A:number, B) with fd K -> A persisted to a SQLite file."""
    from repro.constraints.fd import FunctionalDependency
    from repro.relational.database import Database
    from repro.relational.instance import RelationInstance
    from repro.relational.schema import RelationSchema
    from repro.relational.sqlite_io import save_database

    schema = RelationSchema("R", ["K", "A:number", "B"])
    rows = [("k1", 0, "x"), ("k1", 1, "x"), ("k2", 5, "y"), ("k3", 7, "w")]
    path = tmp_path / "db.sqlite"
    save_database(
        Database([RelationInstance.from_values(schema, rows)]),
        path,
        [FunctionalDependency.parse("K -> A", "R")],
    )
    return path


class TestQueryCommand:
    def test_pushed_open_query(self, kv_sqlite, capsys):
        code = main(
            [
                "query", "--sqlite", str(kv_sqlite), "--fd", "R: K -> A",
                "--backend", "sqlite", "--query", "EXISTS b . R(x, y, b)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend: sqlite (pushed down)" in out
        assert "certain: ('k2', 5), ('k3', 7)" in out

    def test_memory_backend_matches(self, kv_sqlite, capsys):
        import json

        results = {}
        for backend in ("memory", "sqlite"):
            assert (
                main(
                    [
                        "query", "--sqlite", str(kv_sqlite), "--fd", "R: K -> A",
                        "--backend", backend, "--json",
                        "--query", "EXISTS b . R(x, y, b)",
                    ]
                )
                == 0
            )
            results[backend] = json.loads(capsys.readouterr().out)
        assert results["memory"]["certain"] == results["sqlite"]["certain"]
        assert results["memory"]["possible"] == results["sqlite"]["possible"]

    def test_closed_query_exit_codes(self, kv_sqlite, capsys):
        code = main(
            [
                "query", "--sqlite", str(kv_sqlite), "--fd", "R: K -> A",
                "--backend", "sqlite", "--query", "EXISTS k, b . R(k, 1, b)",
            ]
        )
        assert code == 2  # undetermined
        assert "verdict=undetermined" in capsys.readouterr().out

    def test_sql_frontend(self, kv_sqlite, capsys):
        code = main(
            [
                "query", "--sqlite", str(kv_sqlite), "--fd", "R: K -> A",
                "--backend", "sqlite",
                "--sql", "SELECT t.K FROM R t WHERE t.A >= 1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "certain: ('k2',), ('k3',)" in out

    def test_fallback_is_reported(self, kv_sqlite, capsys):
        code = main(
            [
                "query", "--sqlite", str(kv_sqlite), "--fd", "R: K -> A",
                "--backend", "sqlite",
                "--query", "FORALL k, a, b . R(k, a, b) IMPLIES a < 10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend: fallback:" in out
        assert "verdict=true" in out

    def test_sqlite_backend_requires_sqlite_source(self, mgr_csv):
        with pytest.raises(SystemExit):
            main(
                [
                    "query", "--csv", str(mgr_csv), "--fd", MGR_FDS[0],
                    "--backend", "sqlite", "--query", "EXISTS x . Mgr(x, x, x, x)",
                ]
            )

    def test_prefer_flags_rejected_on_sqlite_backend(self, kv_sqlite):
        with pytest.raises(SystemExit):
            main(
                [
                    "query", "--sqlite", str(kv_sqlite), "--fd", "R: K -> A",
                    "--backend", "sqlite", "--prefer-new", "A",
                    "--query", "EXISTS b . R(x, y, b)",
                ]
            )


class TestPrefsqlQueryCommand:
    def test_prioritized_query_is_pushed(self, kv_sqlite, capsys):
        code = main(
            [
                "query", "--sqlite", str(kv_sqlite), "--relation", "R",
                "--fd", "K -> A", "--backend", "prefsql",
                "--prefer-new", "A", "--family", "C",
                "--query", "EXISTS b . R(x, y, b)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend: prefsql (pushed down)" in out
        # A=1 wins the k1 conflict group under --prefer-new A.
        assert "certain: ('k1', 1), ('k2', 5), ('k3', 7)" in out

    def test_matches_memory_backend_with_priority(self, kv_sqlite, capsys):
        import json

        results = {}
        for backend in ("memory", "prefsql"):
            assert (
                main(
                    [
                        "query", "--sqlite", str(kv_sqlite), "--relation", "R",
                        "--fd", "K -> A", "--backend", backend,
                        "--prefer-new", "A", "--family", "S", "--json",
                        "--query", "EXISTS b . R(x, y, b)",
                    ]
                )
                == 0
            )
            results[backend] = json.loads(capsys.readouterr().out)
        assert results["memory"]["certain"] == results["prefsql"]["certain"]
        assert results["memory"]["possible"] == results["prefsql"]["possible"]

    def test_prefsql_from_csv_source(self, mgr_csv, capsys):
        code = main(
            [
                "query", "--csv", str(mgr_csv), "--fd", MGR_FDS[0],
                "--fd", MGR_FDS[1], "--backend", "prefsql",
                "--query", "EXISTS d, s, r, src . Mgr(x, d, s, r, src)",
            ]
        )
        assert code == 0
        assert "backend:" in capsys.readouterr().out


class TestExplainFlag:
    def test_explain_prints_sql_without_executing(self, kv_sqlite, capsys):
        code = main(
            [
                "query", "--sqlite", str(kv_sqlite), "--relation", "R",
                "--fd", "K -> A", "--backend", "prefsql",
                "--prefer-new", "A", "--family", "C", "--explain",
                "--query", "EXISTS b . R(x, y, b)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "route: prefsql (pushed down, not executed)" in out
        assert "certain SQL: SELECT" in out
        assert "certain:" not in out  # no answers were computed

    def test_explain_reports_fallback_reason(self, kv_sqlite, capsys):
        code = main(
            [
                "query", "--sqlite", str(kv_sqlite), "--fd", "R: K -> A",
                "--backend", "sqlite", "--explain",
                "--query", "FORALL k, a, b . R(k, a, b) IMPLIES a < 10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "route: fallback" in out
        assert "reason:" in out

    def test_explain_json(self, kv_sqlite, capsys):
        import json

        code = main(
            [
                "query", "--sqlite", str(kv_sqlite), "--fd", "R: K -> A",
                "--backend", "sqlite", "--explain", "--json",
                "--query", "EXISTS b . R(x, y, b)",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["route"] == "sqlite"
        assert payload["certain_sql"].startswith("SELECT")

    def test_explain_on_memory_backend(self, kv_sqlite, capsys):
        code = main(
            [
                "query", "--sqlite", str(kv_sqlite), "--fd", "R: K -> A",
                "--backend", "memory", "--explain",
                "--query", "EXISTS b . R(x, y, b)",
            ]
        )
        assert code == 0
        assert "route: memory" in capsys.readouterr().out


@pytest.fixture
def forest_sqlite(tmp_path):
    """R(K, A:number, B) and S(A:number, C) — BOTH dirty — in SQLite."""
    from repro.constraints.fd import FunctionalDependency
    from repro.relational.database import Database
    from repro.relational.instance import RelationInstance
    from repro.relational.schema import RelationSchema
    from repro.relational.sqlite_io import save_database

    r_schema = RelationSchema("R", ["K", "A:number", "B"])
    s_schema = RelationSchema("S", ["A:number", "C"])
    path = tmp_path / "forest.sqlite"
    save_database(
        Database(
            [
                RelationInstance.from_values(
                    r_schema, [("k1", 0, "x"), ("k1", 1, "x"), ("k2", 5, "y")]
                ),
                RelationInstance.from_values(
                    s_schema, [(0, "c0"), (0, "c1"), (5, "c5")]
                ),
            ]
        ),
        path,
        [
            FunctionalDependency.parse("K -> A", "R"),
            FunctionalDependency.parse("A -> C", "S"),
        ],
    )
    return path


FOREST_FDS = ["--fd", "R: K -> A", "--fd", "S: A -> C"]


class TestAnalyzeCommand:
    """Exit codes and ``--json`` for ``repro analyze`` on RA011 shapes:
    key-join forests are informational now, not blocking (exit 0)."""

    def test_forest_shape_exits_zero(self, forest_sqlite, capsys):
        code = main(
            [
                "analyze", "--sqlite", str(forest_sqlite), *FOREST_FDS,
                "--query", "EXISTS b . R(x, y, b) AND S(y, c)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan: forest" in out
        assert "sqlite: sqlite" in out
        assert "RA011" in out
        assert "RA201" not in out

    def test_forest_shape_json(self, forest_sqlite, capsys):
        import json

        code = main(
            [
                "analyze", "--sqlite", str(forest_sqlite), *FOREST_FDS,
                "--json",
                "--query", "EXISTS b . R(x, y, b) AND S(y, c)",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"] == "forest"
        assert payload["expected_last_routes"]["sqlite"] == "sqlite"
        codes = [d["code"] for d in payload["diagnostics"]]
        assert any(c.startswith("RA011") for c in codes)
        assert not any(d["blocks"] for d in payload["diagnostics"])

    def test_isolated_trees_are_informational(self, forest_sqlite, capsys):
        import json

        code = main(
            [
                "analyze", "--sqlite", str(forest_sqlite), *FOREST_FDS,
                "--json",
                "--query", "EXISTS b . R(x, y, b) AND S(5, c)",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"] == "forest"
        ra011 = [
            d for d in payload["diagnostics"] if d["code"].startswith("RA011")
        ]
        assert ra011 and "independent dirty atoms" in ra011[0]["message"]

    def test_non_key_join_still_exits_three(self, forest_sqlite, capsys):
        import json

        code = main(
            [
                "analyze", "--sqlite", str(forest_sqlite), *FOREST_FDS,
                "--json",
                "--query", "EXISTS a, c . R(x, a, b) AND S(c, b)",
            ]
        )
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        codes = [d["code"] for d in payload["diagnostics"]]
        assert any(c.startswith("RA201") for c in codes)
        assert payload["expected_last_routes"]["sqlite"].startswith("fallback")


class TestServeBackendFlag:
    PRIORITY = ["--prefer-new", "Salary"]

    @pytest.mark.parametrize(
        "flags,engine",
        [
            (["--backend", "memory"], "incremental"),
            (["--backend", "memory", *PRIORITY], "incremental"),
            (["--backend", "sqlite"], "sqlite"),
            (["--backend", "sqlite", *PRIORITY], "incremental"),
            (["--backend", "prefsql"], "sqlite"),
            (["--backend", "prefsql", *PRIORITY], "prefsql"),
            (PRIORITY, "prefsql"),
        ],
    )
    def test_backend_picks_the_serving_engine(
        self, mgr_csv, monkeypatch, capsys, flags, engine
    ):
        # A rewritable query: --backend memory registers no SQLite
        # mirror, so it stays in memory even without a priority; the
        # default is prefsql.
        script = "\n".join(
            [
                json.dumps({"op": "health"}),
                json.dumps({"query": "EXISTS n, s, r, o . Mgr(n, d, s, r, o)"}),
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        assert main(
            ["serve", "--stdio", "--csv", str(mgr_csv), "--fd", MGR_FDS[0]]
            + flags
        ) == 0
        health, answer = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert health["backends"] == {"default": engine}
        assert answer["engine"] == engine


class TestPreferRuleOrientsInserts:
    """``--prefer-*`` is one rule the broker applies on every insert:
    after an insert that creates a conflict, ``serve``, ``session`` and
    ``cqa`` over the final instance give the same answer."""

    CASES = {
        "prefer-new": (
            "A:number,B:number",
            ["1,0", "2,0"],
            [1, 5],
            ["--prefer-new", "B"],
            "EXISTS x . R(x, 5)",
        ),
        "prefer-source": (
            "A:number,B:number,S",
            ["1,0,s2", "2,0,s2"],
            [1, 5, "s1"],
            ["--prefer-source", "S", "--source-order", "s1>s2"],
            "EXISTS x, s . R(x, 5, s)",
        ),
    }

    @pytest.mark.parametrize("backend", ["memory", "prefsql"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_serve_session_and_cqa_agree(
        self, tmp_path, monkeypatch, capsys, case, backend
    ):
        header, rows, inserted, flags, query = self.CASES[case]

        def data_args(name, lines):
            path = tmp_path / name / "R.csv"
            path.parent.mkdir()
            path.write_text("\n".join([header, *lines]) + "\n")
            return ["--csv", str(path), "--fd", "A -> B", "--family", "G", *flags]

        initial = data_args("initial", rows)
        requests = [{"op": "insert", "values": inserted}, {"query": query}]
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("\n".join(map(json.dumps, requests)))
        )
        assert main(["serve", "--stdio", "--backend", backend, *initial]) == 0
        insert_reply, served = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert served["verdict"] == "true"
        assert (insert_reply["applied"], insert_reply["new_conflicts"]) == (True, 1)

        script = tmp_path / "script.txt"
        script.write_text(f"+ {', '.join(map(str, inserted))}\n? {query}\n")
        assert main(["session", "--script", str(script), "--json", *initial]) == 0
        assert json.loads(capsys.readouterr().out)["events"][-1]["verdict"] == "true"

        final = data_args("final", [*rows, ",".join(map(str, inserted))])
        assert main(["cqa", "--query", query, *final]) == 0
        assert "verdict=true" in capsys.readouterr().out
