"""Tests for the pairwise bench gate (``perfreport diff``) and its CLI.

The gate is the thing that keeps BENCH_*.json honest, so it is proven
here against fixture sessions: a self-diff must pass, an injected 10x
slowdown must fail with exit code 1, and schema garbage must exit 2 —
the flatlint exit-code convention.  The ``TestCompare*`` classes keep
the names of the tests of the retired ``compare`` subcommand, whose
behaviours ``diff`` now carries.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import diffprof, trend
from repro.obs.diffprof import (
    DEFAULT_MIN_RUNTIME_S,
    DEFAULT_TOLERANCE,
    diff_bench_sessions,
    render_json,
    render_text,
)
from tools.perfreport.__main__ import main


def make_session(walls, label="bench", **env_overrides):
    """A minimal schema-valid BENCH session with the given wall times."""
    environment = {
        "python": "3.11.7", "implementation": "CPython",
        "platform": "Linux-test", "machine": "x86_64", "cpu_count": 8,
        "networkx": "3.6.1", "numpy": None, "scipy": None,
        "repro": "1.0.0", "git_commit": None, "git_dirty": None,
    }
    environment.update(env_overrides)
    return {
        "schema": 1,
        "label": label,
        "ts": 1754500000.0,
        "environment": environment,
        "benchmarks": {
            key: {"wall_s": wall, "mean_s": wall, "stddev_s": 0.0,
                  "rounds": 1, "metrics": {}}
            for key, wall in walls.items()
        },
    }


def statuses(diff):
    return [d.status for d in diff.deltas]


class TestCompareSessions:
    def test_self_compare_is_clean(self):
        session = make_session({"a.py::t1": 0.5, "a.py::t2": 1.25})
        diff = diff_bench_sessions(session, session)
        assert diff.exit_code == 0
        assert set(statuses(diff)) == {"steady"}
        assert diff.environment_drift == []

    def test_injected_10x_slowdown_is_a_regression(self):
        base = make_session({"a.py::t": 0.5})
        slow = make_session({"a.py::t": 5.0})
        diff = diff_bench_sessions(base, slow)
        assert statuses(diff) == ["grown"]
        assert diff.deltas[0].ratio == pytest.approx(10.0)
        assert diff.exit_code == 1

    def test_below_floor_never_judged(self):
        base = make_session({"a.py::t": 0.0001})
        new = make_session({"a.py::t": 0.004})  # 40x, but both < 5 ms
        diff = diff_bench_sessions(base, new)
        assert statuses(diff) == ["below-floor"]
        assert diff.exit_code == 0

    def test_floor_applies_only_when_both_sides_are_under(self):
        base = make_session({"a.py::t": 0.001})
        new = make_session({"a.py::t": 0.5})  # new side is well over
        diff = diff_bench_sessions(base, new)
        assert statuses(diff) == ["grown"]

    def test_zero_base_above_floor_in_new_is_grown(self):
        # A bench that took 0 s in BASE and is over the floor in NEW has
        # grown, however the ratio is undefined.
        diff = diff_bench_sessions(make_session({"a.py::t": 0.0}),
                                   make_session({"a.py::t": 0.5}))
        assert statuses(diff) == ["grown"]
        assert diff.deltas[0].ratio is None
        assert diff.exit_code == 1

    def test_added_and_removed(self):
        base = make_session({"old.py::t": 0.5})
        new = make_session({"new.py::t": 0.5})
        judged = {d.path: d.status
                  for d in diff_bench_sessions(base, new).deltas}
        assert judged == {"new.py::t": "new", "old.py::t": "gone"}

    def test_improvement_does_not_fail_the_gate(self):
        diff = diff_bench_sessions(make_session({"a.py::t": 1.0}),
                                   make_session({"a.py::t": 0.5}))
        assert statuses(diff) == ["shrunk"]
        assert diff.exit_code == 0

    def test_within_default_tolerance_is_ok(self):
        diff = diff_bench_sessions(make_session({"a.py::t": 1.0}),
                                   make_session({"a.py::t": 1.2}))
        assert statuses(diff) == ["steady"]

    def test_custom_tolerance_tightens_the_gate(self):
        diff = diff_bench_sessions(
            make_session({"a.py::t": 1.0}), make_session({"a.py::t": 1.2}),
            tolerance=0.10)
        assert statuses(diff) == ["grown"]

    def test_environment_drift_reported(self):
        base = make_session({"a.py::t": 1.0})
        new = make_session({"a.py::t": 1.0}, python="3.12.1", cpu_count=4)
        drift = "\n".join(diff_bench_sessions(base, new).environment_drift)
        assert "python" in drift and "cpu_count" in drift
        assert "3.12.1" in drift

    def test_defaults_are_documented_values(self):
        assert DEFAULT_TOLERANCE == 0.25
        assert DEFAULT_MIN_RUNTIME_S == 0.005
        # One definition of noise: the trend gate's band floors are the
        # pairwise gate's defaults, not a copy of them.
        assert trend.DEFAULT_REL_FLOOR is diffprof.DEFAULT_TOLERANCE
        assert trend.DEFAULT_MIN_RUNTIME_S is diffprof.DEFAULT_MIN_RUNTIME_S


class TestRenderers:
    def test_text_orders_regressions_first_and_summarizes(self):
        base = make_session({"a.py::fast": 0.5, "b.py::slow": 0.5})
        new = make_session({"a.py::fast": 0.5, "b.py::slow": 5.0},
                           python="3.12.0")
        text = render_text(diff_bench_sessions(base, new))
        lines = text.splitlines()
        assert "! environment drift — python changed" in text
        first_status_line = next(l for l in lines if l.startswith(
            ("grown", "steady")))
        assert first_status_line.startswith("grown")
        assert "b.py::slow" in first_status_line
        assert lines[-1] == "1 grown, 0 shrunk across 2 aligned bench(s)"

    def test_json_shape(self):
        diff = diff_bench_sessions(make_session({"a.py::t": 0.5}),
                                   make_session({"a.py::t": 5.0},
                                                cpu_count=4))
        document = render_json(diff)
        assert document["grown"] == 1
        (delta,) = document["deltas"]
        assert delta["status"] == "grown"
        assert delta["ratio"] == pytest.approx(10.0)
        assert document["environment_drift"] == ["cpu_count changed 8 -> 4"]
        json.dumps(document)  # must be JSON-serializable as-is


def write_session(tmp_path, name, session):
    path = tmp_path / name
    path.write_text(json.dumps(session) + "\n", encoding="utf-8")
    return str(path)


class TestCompareCli:
    def test_self_compare_exits_zero(self, tmp_path, capsys):
        path = write_session(tmp_path, "BENCH_1.json",
                             make_session({"a.py::t": 0.5}))
        assert main(["diff", path, path]) == 0
        assert "0 grown, 0 shrunk" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        base = write_session(tmp_path, "BENCH_1.json",
                             make_session({"a.py::t": 0.5}))
        slow = write_session(tmp_path, "BENCH_2.json",
                             make_session({"a.py::t": 5.0}))
        assert main(["diff", base, slow]) == 1
        assert "1 grown" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        path = write_session(tmp_path, "BENCH_1.json",
                             make_session({"a.py::t": 0.5}))
        assert main(["diff", str(tmp_path / "nope.json"), path]) == 2
        assert "perfreport:" in capsys.readouterr().err

    def test_schema_violation_exits_two(self, tmp_path, capsys):
        good = write_session(tmp_path, "BENCH_1.json",
                             make_session({"a.py::t": 0.5}))
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text('{"schema": 99, "benchmarks": {}}\n', encoding="utf-8")
        assert main(["diff", good, str(bad)]) == 2
        assert "fails the bench schema" in capsys.readouterr().err
        bad.write_text('{"schema": 99}\n', encoding="utf-8")
        assert main(["diff", good, str(bad)]) == 2
        assert "perfreport:" in capsys.readouterr().err

    def test_environment_drift_printed_above_the_verdict(self, tmp_path,
                                                          capsys):
        base = write_session(tmp_path, "BENCH_1.json",
                             make_session({"a.py::t": 0.5}))
        new = write_session(tmp_path, "BENCH_2.json",
                            make_session({"a.py::t": 0.5}, numpy="2.1"))
        assert main(["diff", base, new]) == 0
        out = capsys.readouterr().out
        assert "! environment drift — numpy changed None -> '2.1'" in out

    def test_json_format_parses(self, tmp_path, capsys):
        path = write_session(tmp_path, "BENCH_1.json",
                             make_session({"a.py::t": 0.5}))
        assert main(["diff", path, path, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["grown"] == 0
        assert document["environment_drift"] == []

    def test_no_subcommand_exits_two(self, capsys):
        assert main([]) == 2
        assert "diff" in capsys.readouterr().out

    def test_retired_compare_subcommand_is_a_usage_error(self, tmp_path,
                                                        capsys):
        path = write_session(tmp_path, "BENCH_1.json",
                             make_session({"a.py::t": 0.5}))
        with pytest.raises(SystemExit) as exc:
            main(["compare", path, path])
        assert exc.value.code == 2
        assert "invalid choice: 'compare'" in capsys.readouterr().err


def write_trace(tmp_path):
    events = [
        {"ts": 1.0, "name": "convert", "kind": "span", "duration_s": 0.25,
         "path": "cli/convert", "depth": 1, "span_id": 2, "parent_id": 1},
        {"ts": 1.0, "name": "cli", "kind": "span", "duration_s": 1.0,
         "path": "cli", "depth": 0, "span_id": 1, "parent_id": None},
    ]
    path = tmp_path / "run.jsonl"
    path.write_text("\n".join(json.dumps(e) for e in events) + "\n",
                    encoding="utf-8")
    return str(path)


class TestProfileCli:
    def test_profile_text_report(self, tmp_path, capsys):
        assert main(["profile", write_trace(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 spans, 1 roots" in out
        assert "critical path:" in out

    def test_profile_json_report(self, tmp_path, capsys):
        assert main(["profile", write_trace(tmp_path),
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["spans"] == 2
        assert [n["name"] for n in document["critical_path"]] == [
            "cli", "convert"]

    def test_flamegraph_stdout(self, tmp_path, capsys):
        assert main(["flamegraph", write_trace(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cli 750000" in out
        assert "cli;convert 250000" in out

    def test_flamegraph_out_file(self, tmp_path, capsys):
        folded = tmp_path / "run.folded"
        assert main(["flamegraph", write_trace(tmp_path),
                     "--out", str(folded)]) == 0
        assert "cli;convert 250000" in folded.read_text()

    def test_empty_trace_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["profile", str(empty)]) == 2
        assert "no span events" in capsys.readouterr().err

    def test_garbage_trace_exits_two(self, tmp_path, capsys):
        garbage = tmp_path / "bad.jsonl"
        garbage.write_text("{not json\n", encoding="utf-8")
        assert main(["flamegraph", str(garbage)]) == 2
        assert "not valid JSONL" in capsys.readouterr().err


class TestCompareAutoSelect:
    def test_picks_two_newest_numbered_sessions(self, tmp_path, capsys):
        write_session(tmp_path, "BENCH_1.json",
                      make_session({"a.py::t": 0.5}))
        write_session(tmp_path, "BENCH_2.json",
                      make_session({"a.py::t": 0.5}))
        write_session(tmp_path, "BENCH_10.json",
                      make_session({"a.py::t": 0.5}))
        write_session(tmp_path, "BENCH_smoke.json",
                      make_session({"a.py::t": 99.0}))
        assert main(["diff", "--root", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert ("auto-selected BENCH_2.json (base) vs BENCH_10.json"
                in captured.err)
        assert "0 grown, 0 shrunk" in captured.out

    def test_fewer_than_two_sessions_exits_zero_with_message(
            self, tmp_path, capsys):
        write_session(tmp_path, "BENCH_1.json",
                      make_session({"a.py::t": 0.5}))
        assert main(["diff", "--root", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "found 1 BENCH_<seq>.json" in err
        assert "flattree bench" in err

    def test_empty_root_exits_zero(self, tmp_path, capsys):
        assert main(["diff", "--root", str(tmp_path)]) == 0
        assert "found 0" in capsys.readouterr().err

    def test_auto_selected_json_is_clean_stdout(self, tmp_path, capsys):
        write_session(tmp_path, "BENCH_1.json",
                      make_session({"a.py::t": 0.5}))
        write_session(tmp_path, "BENCH_2.json",
                      make_session({"a.py::t": 0.5}))
        assert main(["diff", "--root", str(tmp_path),
                     "--format", "json"]) == 0
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert document["grown"] == 0
        assert ("perfreport: auto-selected BENCH_1.json (base) vs "
                "BENCH_2.json (new)" in captured.err)

    def test_single_positional_is_a_usage_error(self, tmp_path, capsys):
        path = write_session(tmp_path, "BENCH_1.json",
                             make_session({"a.py::t": 0.5}))
        assert main(["diff", path]) == 2
        assert "both BASE and NEW" in capsys.readouterr().err

    def test_auto_selected_regression_still_gates(self, tmp_path, capsys):
        write_session(tmp_path, "BENCH_1.json",
                      make_session({"a.py::t": 0.5}))
        write_session(tmp_path, "BENCH_2.json",
                      make_session({"a.py::t": 5.0}))
        assert main(["diff", "--root", str(tmp_path)]) == 1
        assert "1 grown" in capsys.readouterr().out


def write_hotspots(tmp_path):
    from repro.obs import bench, hotspots
    from repro.obs.sampler import SampleProfile

    counts = {
        ("hotspots.campaign/hotspots.mcf", ("mod.solve", "mod.dijkstra")): 8,
        ("hotspots.campaign/hotspots.build", ("mod.build",)): 2,
    }
    profile = SampleProfile(counts, samples=10, duration_s=2.0, hz=97.0)
    stages = [
        {"name": "build", "span": "hotspots.campaign/hotspots.build",
         "wall_s": 0.5},
        {"name": "mcf", "span": "hotspots.campaign/hotspots.mcf",
         "wall_s": 1.5},
    ]
    document = hotspots.build_document(profile, stages, k=8, label="test")
    path = tmp_path / "HOTSPOTS_1.json"
    bench.write_json(path, document, hotspots.validate_document, "hotspot")
    return str(path)


class TestHotspotsCli:
    def test_renders_valid_artifact(self, tmp_path, capsys):
        assert main(["hotspots", write_hotspots(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "mod.dijkstra" in out
        assert "mcf" in out

    def test_json_format_round_trips(self, tmp_path, capsys):
        assert main(["hotspots", write_hotspots(tmp_path),
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["samples"] == 10

    def test_folded_re_export(self, tmp_path, capsys):
        folded = tmp_path / "campaign.folded"
        assert main(["hotspots", write_hotspots(tmp_path),
                     "--folded", str(folded)]) == 0
        lines = folded.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            assert stack and int(weight) > 0

    def test_bad_artifact_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "HOTSPOTS_1.json"
        bad.write_text('{"schema": "nope"}\n', encoding="utf-8")
        assert main(["hotspots", str(bad)]) == 2
        assert "perfreport:" in capsys.readouterr().err


class TestAutoSelectNotices:
    def test_single_session_message_names_the_session(self, tmp_path,
                                                      capsys):
        write_session(tmp_path, "BENCH_7.json",
                      make_session({"a.py::t": 0.5}))
        assert main(["diff", "--root", str(tmp_path)]) == 0
        assert "existing: BENCH_7.json" in capsys.readouterr().err

    def test_empty_root_message_says_none(self, tmp_path, capsys):
        assert main(["diff", "--root", str(tmp_path)]) == 0
        assert "existing: none" in capsys.readouterr().err

    def test_gapped_sequence_is_flagged_with_ids(self, tmp_path, capsys):
        write_session(tmp_path, "BENCH_1.json",
                      make_session({"a.py::t": 0.5}))
        write_session(tmp_path, "BENCH_2.json",
                      make_session({"a.py::t": 0.5}))
        write_session(tmp_path, "BENCH_5.json",
                      make_session({"a.py::t": 0.5}))
        assert main(["diff", "--root", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "auto-selected BENCH_2.json (base) vs BENCH_5.json" in err
        assert "missing seq 3, 4" in err
        assert "BENCH_1.json, BENCH_2.json, BENCH_5.json" in err

    def test_contiguous_sequence_has_no_gap_note(self, tmp_path, capsys):
        write_session(tmp_path, "BENCH_1.json",
                      make_session({"a.py::t": 0.5}))
        write_session(tmp_path, "BENCH_2.json",
                      make_session({"a.py::t": 0.5}))
        assert main(["diff", "--root", str(tmp_path)]) == 0
        assert "missing seq" not in capsys.readouterr().out


class TestDiffCli:
    def test_bench_diff_attributes_injected_slowdown(self, tmp_path,
                                                     capsys):
        base = write_session(tmp_path, "BENCH_1.json",
                             make_session({"a.py::slow": 0.5,
                                           "a.py::ok": 1.0}))
        new = write_session(tmp_path, "BENCH_2.json",
                            make_session({"a.py::slow": 5.0,
                                          "a.py::ok": 1.0}))
        assert main(["diff", base, new]) == 1
        out = capsys.readouterr().out
        grown_rows = [l for l in out.splitlines() if l.startswith("grown")]
        assert len(grown_rows) == 1
        assert "a.py::slow" in grown_rows[0]
        assert "10.00x" in grown_rows[0]

    def test_trace_diff_via_jsonl_inputs(self, tmp_path, capsys):
        base = write_trace(tmp_path)
        assert main(["diff", base, base]) == 0
        out = capsys.readouterr().out
        assert "perfreport diff (trace)" in out
        assert "critical path" in out

    def test_hotspot_diff_and_folded_export(self, tmp_path, capsys):
        artifact = write_hotspots(tmp_path)
        folded = tmp_path / "diff.folded"
        assert main(["diff", artifact, artifact,
                     "--folded", str(folded)]) == 0
        lines = folded.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            stack, base_us, new_us = line.rsplit(" ", 2)
            assert stack
            assert base_us == new_us  # self-diff: both columns equal

    def test_folded_refused_for_bench_sessions(self, tmp_path, capsys):
        base = write_session(tmp_path, "BENCH_1.json",
                             make_session({"a.py::t": 0.5}))
        assert main(["diff", base, base,
                     "--folded", str(tmp_path / "x.folded")]) == 2
        assert "no stacks" in capsys.readouterr().err

    def test_mixed_kinds_exit_two(self, tmp_path, capsys):
        bench = write_session(tmp_path, "BENCH_1.json",
                              make_session({"a.py::t": 0.5}))
        trace = write_trace(tmp_path)
        assert main(["diff", bench, trace]) == 2
        assert "same kind" in capsys.readouterr().err

    def test_auto_select_diffs_two_newest_sessions(self, tmp_path, capsys):
        write_session(tmp_path, "BENCH_1.json",
                      make_session({"a.py::t": 0.5}))
        write_session(tmp_path, "BENCH_2.json",
                      make_session({"a.py::t": 5.0}))
        assert main(["diff", "--root", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "auto-selected BENCH_1.json (base) vs BENCH_2.json" in err

    def test_json_format_parses(self, tmp_path, capsys):
        base = write_session(tmp_path, "BENCH_1.json",
                             make_session({"a.py::t": 0.5}))
        assert main(["diff", base, base, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "bench"
        assert document["grown"] == 0

    def test_unrecognized_input_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "mystery.json"
        bad.write_text('{"what": "is this"}\n', encoding="utf-8")
        assert main(["diff", str(bad), str(bad)]) == 2
        assert "neither" in capsys.readouterr().err


class TestTrendCli:
    def fill_root(self, tmp_path, last_wall):
        for seq, wall in enumerate((0.50, 0.52, 0.48), start=1):
            write_session(tmp_path, f"BENCH_{seq}.json",
                          make_session({"a.py::t": wall}))
        write_session(tmp_path, "BENCH_4.json",
                      make_session({"a.py::t": last_wall}))

    def test_step_up_exits_one(self, tmp_path, capsys):
        self.fill_root(tmp_path, last_wall=5.0)
        assert main(["trend", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "step-up" in out
        assert "1 regression(s)" in out

    def test_flat_noisy_trajectory_exits_zero(self, tmp_path, capsys):
        self.fill_root(tmp_path, last_wall=0.55)
        assert main(["trend", "--root", str(tmp_path)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_out_writes_the_json_artifact(self, tmp_path, capsys):
        self.fill_root(tmp_path, last_wall=0.55)
        report = tmp_path / "TREND_REPORT.json"
        assert main(["trend", "--root", str(tmp_path),
                     "--out", str(report)]) == 0
        document = json.loads(report.read_text(encoding="utf-8"))
        assert document["schema"] == "flattree.trend/1"
        assert document["regressions"] == 0

    def test_markdown_format(self, tmp_path, capsys):
        self.fill_root(tmp_path, last_wall=5.0)
        assert main(["trend", "--root", str(tmp_path),
                     "--format", "markdown"]) == 1
        out = capsys.readouterr().out
        assert "## Performance trajectory" in out
        assert "| **step-up** |" in out

    def test_empty_root_exits_zero(self, tmp_path, capsys):
        assert main(["trend", "--root", str(tmp_path)]) == 0
        assert "0 session(s)" in capsys.readouterr().out
