"""End-to-end tests of the ``repro session`` subcommand."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def kv_csv(tmp_path):
    path = tmp_path / "R.csv"
    path.write_text("A:number,B:number\n0,0\n0,1\n1,0\n")
    return path


def run_session(script_text, tmp_path, kv_csv, *extra, capsys=None):
    script = tmp_path / "script.txt"
    script.write_text(script_text)
    return main(
        [
            "session",
            "--csv",
            str(kv_csv),
            "--relation",
            "R",
            "--fd",
            "A -> B",
            "--script",
            str(script),
            *extra,
        ]
    )


class TestSessionScript:
    def test_updates_and_queries_flow_through_one_engine(
        self, tmp_path, kv_csv, capsys
    ):
        script = (
            "# warm-up query, then update, then re-query\n"
            "? EXISTS x . R(x, 0)\n"
            "+ 1, 1\n"
            "? EXISTS x . R(x, 0)\n"
            "- 0, 1\n"
            "? EXISTS x . R(x, 0)\n"
        )
        assert run_session(script, tmp_path, kv_csv) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert "= true (2/2 repairs)" in lines[0]
        assert "1 new conflict(s)" in lines[1]
        assert "= undetermined (3/4 repairs)" in lines[2]
        assert "1 conflict(s) removed" in lines[3]
        assert "= true (2/2 repairs)" in lines[4]
        assert "session end: 3 tuples, 1 conflicts, 2 updates applied" in out

    def test_open_queries_report_certain_answers(self, tmp_path, kv_csv, capsys):
        assert run_session("? R(x, y)\n", tmp_path, kv_csv) == 0
        out = capsys.readouterr().out
        assert "certain: (1, 0)" in out

    def test_json_output(self, tmp_path, kv_csv, capsys):
        script = "+ 2, 0\n? EXISTS x . R(x, 0)\n"
        assert run_session(script, tmp_path, kv_csv, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        insert_event, query_event = payload["events"]
        assert insert_event["op"] == "insert"
        assert insert_event["values"] == [2, 0]
        assert insert_event["applied"] is True
        assert query_event["verdict"] == "true"
        assert query_event["repairs_considered"] == 2
        assert payload["summary"]["tuples"] == 4
        assert payload["summary"]["updates_applied"] == 1

    def test_json_output_is_reproducible(self, tmp_path, kv_csv, capsys):
        """Two runs of one script print the same bytes: events carry no
        per-run trace id."""
        script = "? R(x, y)\n+ 2, 0\n? EXISTS x . R(x, 0)\n- 0, 1\n? R(x, y)\n"
        outputs = []
        for _ in range(2):
            assert run_session(script, tmp_path, kv_csv, "--json") == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        events = json.loads(outputs[0])["events"]
        assert [event["op"] for event in events] == [
            "query", "insert", "query", "delete", "query",
        ]
        assert all("trace_id" not in event for event in events)
        assert events[1]["new_conflicts"] == 0
        assert events[3]["removed_conflicts"] == 1

    def test_family_selection(self, tmp_path, kv_csv, capsys):
        # Prefer the newer (larger B) tuple: under L-Rep only {(0,1),(1,0)}
        # survives, so the query is certainly true.
        script = "? EXISTS x . R(x, 1)\n"
        assert (
            run_session(script, tmp_path, kv_csv, "--family", "L", "--prefer-new", "B")
            == 0
        )
        out = capsys.readouterr().out
        assert "[L-Rep] = true (1/1 repairs)" in out

    def test_prefer_new_extends_to_inserted_conflicts(self, tmp_path, capsys):
        """--prefer-new must also orient conflicts created by '+' lines,
        so the session agrees with `repro cqa` on the final instance."""
        csv = tmp_path / "R.csv"
        csv.write_text("A:number,B:number\n1,0\n2,0\n")
        script = tmp_path / "script.txt"
        script.write_text("+ 1, 5\n? EXISTS x . R(x, 5)\n")
        assert (
            main(
                [
                    "session",
                    "--csv",
                    str(csv),
                    "--relation",
                    "R",
                    "--fd",
                    "A -> B",
                    "--prefer-new",
                    "B",
                    "--family",
                    "G",
                    "--script",
                    str(script),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[G-Rep] = true (1/1 repairs)" in out

    def test_values_validated_against_domain(self, tmp_path, kv_csv):
        with pytest.raises(SystemExit, match="line 1.*non-negative"):
            run_session("+ -5, 1\n", tmp_path, kv_csv)
        with pytest.raises(SystemExit, match="line 1.*natural number"):
            run_session("+ x, 1\n", tmp_path, kv_csv)
        with pytest.raises(SystemExit, match="line 1.*expected 2 values"):
            run_session("+ 1, 2, 3\n", tmp_path, kv_csv)

    def test_bad_line_aborts_with_location(self, tmp_path, kv_csv):
        with pytest.raises(SystemExit, match="line 1"):
            run_session("* what\n", tmp_path, kv_csv)

    def test_deleting_missing_tuple_aborts_with_location(self, tmp_path, kv_csv):
        with pytest.raises(SystemExit, match="line 1"):
            run_session("- 9, 9\n", tmp_path, kv_csv)

    def test_stdin_script(self, tmp_path, kv_csv, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("? EXISTS x . R(x, 0)\n"))
        assert (
            main(
                [
                    "session",
                    "--csv",
                    str(kv_csv),
                    "--relation",
                    "R",
                    "--fd",
                    "A -> B",
                ]
            )
            == 0
        )
        assert "= true" in capsys.readouterr().out

    def test_sqlite_source(self, tmp_path, capsys):
        from repro.relational.instance import RelationInstance
        from repro.relational.schema import RelationSchema
        from repro.relational.sqlite_io import save_instance

        schema = RelationSchema("R", ["A:number", "B:number"])
        instance = RelationInstance.from_values(schema, [(0, 0), (0, 1)])
        db_path = tmp_path / "data.sqlite"
        save_instance(instance, db_path)
        script = tmp_path / "script.txt"
        script.write_text("? EXISTS x . R(x, 0)\n")
        assert (
            main(
                [
                    "session",
                    "--sqlite",
                    str(db_path),
                    "--relation",
                    "R",
                    "--fd",
                    "A -> B",
                    "--script",
                    str(script),
                ]
            )
            == 0
        )
        assert "= undetermined" in capsys.readouterr().out


class TestSessionSqliteBackend:
    def test_rewritable_queries_are_pushed(self, tmp_path, kv_csv, capsys):
        script = (
            "? EXISTS x . R(x, 0)\n"
            "+ 1, 1\n"
            "? R(x, y)\n"
            "? FORALL x, y . R(x, y) IMPLIES x < 5\n"
        )
        assert (
            run_session(script, tmp_path, kv_csv, "--backend", "sqlite") == 0
        )
        out = capsys.readouterr().out
        assert "= true (pushed to sqlite)" in out
        assert "(via sqlite)" in out
        # non-conjunctive queries stay on the incremental engine
        assert "= true (4/4 repairs)" in out

    def test_json_events_carry_backend_and_match_memory(
        self, tmp_path, kv_csv, capsys
    ):
        script = "? R(x, y)\n+ 2, 0\n? R(x, y)\n"
        assert (
            run_session(script, tmp_path, kv_csv, "--json", "--backend", "sqlite")
            == 0
        )
        sqlite_events = json.loads(capsys.readouterr().out)["events"]
        assert run_session(script, tmp_path, kv_csv, "--json") == 0
        memory_events = json.loads(capsys.readouterr().out)["events"]
        for pushed, reference in zip(sqlite_events, memory_events):
            if pushed["op"] != "query":
                continue
            assert (pushed["engine"], pushed["route"]) == ("sqlite", "sqlite")
            assert reference["engine"] == "incremental"
            assert pushed["certain"] == reference["certain"]
            assert pushed["possible"] == reference["possible"]

    def test_priority_flags_keep_memory_routing(self, tmp_path, kv_csv, capsys):
        script = "? EXISTS x . R(x, 1)\n"
        assert (
            run_session(
                script, tmp_path, kv_csv,
                "--backend", "sqlite", "--prefer-new", "B", "--family", "L",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pushed to sqlite" not in out
        assert "= true" in out
