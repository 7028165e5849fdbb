"""tools/bench_compare.py: metric flattening, regression warnings,
strict-mode exit codes, and resilience to missing files."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from tools.bench_compare import _load_metrics, compare_file, main


def _write(directory: Path, name: str, payload: dict) -> Path:
    path = directory / name
    path.write_text(json.dumps(payload))
    return path


class TestFlattening:
    def test_nested_numeric_leaves_get_dotted_paths(self, tmp_path):
        path = _write(
            tmp_path,
            "BENCH_x.json",
            {
                "outer": {"inner": {"p95": 0.5}},
                "speedup": 3.0,
                "answers_identical": True,  # bool: not a metric
                "label": "text",  # string: not a metric
            },
        )
        metrics = _load_metrics(path)
        assert metrics == {"outer.inner.p95": 0.5, "speedup": 3.0}

    def test_environment_descriptors_are_ignored(self, tmp_path):
        path = _write(
            tmp_path,
            "BENCH_x.json",
            {"python": 3.12, "seed": 7, "limit": 0.05, "real_metric": 1.0},
        )
        assert _load_metrics(path) == {"real_metric": 1.0}


class TestCompare:
    def test_stable_metrics_produce_no_warnings(self, tmp_path):
        committed = _write(tmp_path, "a.json", {"speedup": 2.0, "p95_s": 0.1})
        fresh = _write(tmp_path, "b.json", {"speedup": 1.9, "p95_s": 0.11})
        lines, warnings = compare_file(committed, fresh)
        assert not warnings
        assert any("speedup" in line and "x0.95" in line for line in lines)

    def test_halved_speedup_warns(self, tmp_path):
        committed = _write(tmp_path, "a.json", {"sql_speedup": 4.0})
        fresh = _write(tmp_path, "b.json", {"sql_speedup": 1.0})
        lines, warnings = compare_file(committed, fresh)
        assert len(warnings) == 1 and "sql_speedup" in warnings[0]
        assert any("REGRESSION" in line for line in lines)

    def test_halved_throughput_warns(self, tmp_path):
        committed = _write(
            tmp_path, "a.json",
            {"cells": {"c4": {"throughput_rps": 5000.0}}, "best_throughput_rps": 6000.0},
        )
        fresh = _write(
            tmp_path, "b.json",
            {"cells": {"c4": {"throughput_rps": 2000.0}}, "best_throughput_rps": 5900.0},
        )
        lines, warnings = compare_file(committed, fresh)
        assert len(warnings) == 1 and "throughput_rps" in warnings[0]
        assert any("throughput halved" in line for line in lines)

    def test_stable_throughput_does_not_warn(self, tmp_path):
        committed = _write(tmp_path, "a.json", {"throughput_rps": 5000.0})
        fresh = _write(tmp_path, "b.json", {"throughput_rps": 3000.0})
        _, warnings = compare_file(committed, fresh)
        assert not warnings

    def test_doubled_p95_warns(self, tmp_path):
        committed = _write(tmp_path, "a.json", {"open": {"p95": 0.01}})
        fresh = _write(tmp_path, "b.json", {"open": {"p95": 0.05}})
        _, warnings = compare_file(committed, fresh)
        assert len(warnings) == 1 and "open.p95" in warnings[0]

    def test_new_and_absent_metrics_are_reported_not_fatal(self, tmp_path):
        committed = _write(tmp_path, "a.json", {"gone": 1.0})
        fresh = _write(tmp_path, "b.json", {"added": 2.0})
        lines, warnings = compare_file(committed, fresh)
        assert not warnings
        assert any("(new)" in line for line in lines)
        assert any("(absent)" in line for line in lines)

    def test_p95_missing_on_either_side_is_skipped(self, tmp_path):
        committed = _write(
            tmp_path, "a.json", {"q": {"p50_s": 0.01, "p95_s": 0.02}}
        )
        fresh = _write(tmp_path, "b.json", {"q": {"p50_s": 0.01}})
        for before, after in ((committed, fresh), (fresh, committed)):
            lines, warnings = compare_file(before, after)
            assert not warnings
            assert not any("p95" in line for line in lines)
            assert any("q.p50_s" in line for line in lines)


class TestLatencySummary:
    def test_p95_is_written_only_for_routes_with_enough_samples(
        self, monkeypatch
    ):
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[2] / "benchmarks")
        )
        import _cli

        from repro.obs import REGISTRY

        def entry(count):
            return {"count": count, "p50": 0.001, "p95": 0.002}

        snapshot = {
            "repro_query_seconds": {
                "values": {
                    "sqlite": entry(_cli.P95_MIN_SAMPLES),
                    "indexed": entry(_cli.P95_MIN_SAMPLES - 1),
                }
            }
        }
        monkeypatch.setattr(REGISTRY, "snapshot", lambda: snapshot)
        summary = _cli.query_latency_summary()
        assert summary["sqlite"] == {
            "count": _cli.P95_MIN_SAMPLES, "p50_s": 0.001, "p95_s": 0.002,
        }
        assert summary["indexed"] == {
            "count": _cli.P95_MIN_SAMPLES - 1, "p50_s": 0.001,
        }


class TestMain:
    @pytest.fixture
    def dirs(self, tmp_path):
        committed = tmp_path / "committed"
        fresh = tmp_path / "fresh"
        committed.mkdir()
        fresh.mkdir()
        return committed, fresh

    def _argv(self, committed: Path, fresh: Path, *extra: str):
        return ["--fresh", str(fresh), "--committed", str(committed), *extra]

    def test_regression_exits_zero_by_default(self, dirs, capsys):
        committed, fresh = dirs
        _write(committed, "BENCH_a.json", {"speedup": 4.0})
        _write(fresh, "BENCH_a.json", {"speedup": 1.0})
        assert main(self._argv(committed, fresh)) == 0
        out = capsys.readouterr().out
        assert "1 regression warning(s):" in out
        assert "WARNING:" in out

    def test_strict_turns_warnings_into_failure(self, dirs):
        committed, fresh = dirs
        _write(committed, "BENCH_a.json", {"speedup": 4.0})
        _write(fresh, "BENCH_a.json", {"speedup": 1.0})
        assert main(self._argv(committed, fresh, "--strict")) == 1

    def test_clean_run_reports_no_regressions(self, dirs, capsys):
        committed, fresh = dirs
        _write(committed, "BENCH_a.json", {"p95_s": 0.1})
        _write(fresh, "BENCH_a.json", {"p95_s": 0.12})
        assert main(self._argv(committed, fresh, "--strict")) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_missing_baseline_and_missing_fresh_are_informational(
        self, dirs, capsys
    ):
        committed, fresh = dirs
        _write(fresh, "BENCH_new.json", {"metric": 1.0})
        _write(committed, "BENCH_old.json", {"metric": 1.0})
        assert main(self._argv(committed, fresh, "--strict")) == 0
        out = capsys.readouterr().out
        assert "no committed baseline" in out
        assert "not emitted by this run" in out

    def test_empty_fresh_directory_is_not_fatal(self, dirs, capsys):
        committed, fresh = dirs
        assert main(self._argv(committed, fresh)) == 0
        assert "no BENCH_*.json" in capsys.readouterr().err
