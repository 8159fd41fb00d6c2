"""The shared session store: BENCH_<seq>.json discovery, write and load."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.obs import bench


def touch(tmp_path, name):
    (tmp_path / name).write_text("{}\n", encoding="utf-8")


def numbered(tmp_path):
    return [p.name for p in bench.numbered_paths(tmp_path, "BENCH")]


def next_slot(tmp_path):
    return bench.next_numbered_path(tmp_path, "BENCH").name


class TestBenchPaths:
    def test_empty_directory(self, tmp_path):
        assert numbered(tmp_path) == []

    def test_sorted_numerically_not_lexically(self, tmp_path):
        for name in ("BENCH_10.json", "BENCH_2.json", "BENCH_1.json"):
            touch(tmp_path, name)
        assert numbered(tmp_path) == [
            "BENCH_1.json", "BENCH_2.json", "BENCH_10.json"]

    def test_gaps_in_the_sequence_survive(self, tmp_path):
        touch(tmp_path, "BENCH_1.json")
        touch(tmp_path, "BENCH_3.json")
        assert numbered(tmp_path) == ["BENCH_1.json", "BENCH_3.json"]

    def test_free_form_tags_ignored(self, tmp_path):
        touch(tmp_path, "BENCH_1.json")
        touch(tmp_path, "BENCH_smoke.json")
        touch(tmp_path, "BENCH_.json")
        touch(tmp_path, "BENCH_1.json.bak")
        assert numbered(tmp_path) == ["BENCH_1.json"]


class TestNextBenchPath:
    def test_first_slot_is_one(self, tmp_path):
        assert next_slot(tmp_path) == "BENCH_1.json"

    def test_next_is_max_plus_one_even_with_gaps(self, tmp_path):
        touch(tmp_path, "BENCH_1.json")
        touch(tmp_path, "BENCH_3.json")
        assert next_slot(tmp_path) == "BENCH_4.json"

    def test_tags_never_claim_a_slot(self, tmp_path):
        touch(tmp_path, "BENCH_smoke.json")
        assert next_slot(tmp_path) == "BENCH_1.json"


class TestLoadSession:
    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "BENCH_1.json"
        path.write_text(json.dumps([1, 2]), encoding="utf-8")
        with pytest.raises(ReproError, match="not a JSON object"):
            bench.load_json(path, bench.validate_session, "bench")


def make_session(wall, **env_overrides):
    environment = {"python": "3.11.7", "cpu_count": 8, "networkx": "3.6.1",
                   "numpy": "2.0", "repro": "1.0.0"}
    environment.update(env_overrides)
    return {"schema": bench.BENCH_SCHEMA_VERSION, "label": "t", "ts": 1.0,
            "environment": environment,
            "benchmarks": {"a.py::t": {"wall_s": wall, "metrics": {}}}}


class TestSessionStore:
    def test_seq_of_numbered_and_tagged(self, tmp_path):
        assert bench.seq_of(tmp_path / "BENCH_12.json") == 12
        assert bench.seq_of(tmp_path / "HOTSPOTS_3.json") == 3
        assert bench.seq_of(tmp_path / "BENCH_smoke.json") == -1

    @pytest.mark.parametrize("wall", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_wall_is_invalid(self, wall):
        problems = bench.validate_session(make_session(wall))
        assert any("'wall_s'" in p for p in problems)

    def test_write_scrubs_nan_then_refuses_the_session(self, tmp_path):
        path = tmp_path / "BENCH_1.json"
        with pytest.raises(ReproError, match="refusing to write invalid"):
            bench.write_json(path, make_session(float("nan")),
                             bench.validate_session, "bench")
        assert not path.exists()

    def test_round_trip_sorted_keys(self, tmp_path):
        path = tmp_path / "BENCH_1.json"
        bench.write_json(path, make_session(0.5), bench.validate_session,
                         "bench")
        decoded = json.loads(path.read_text(encoding="utf-8"))
        assert list(decoded) == sorted(decoded)
        loaded = bench.load_json(path, bench.validate_session, "bench")
        assert bench.wall_times(loaded) == {"a.py::t": 0.5}

    def test_load_names_the_schema_it_fails(self, tmp_path):
        path = tmp_path / "BENCH_1.json"
        path.write_text(json.dumps(make_session(float("nan"))),
                        encoding="utf-8")
        with pytest.raises(ReproError, match="fails the bench schema"):
            bench.load_json(path, bench.validate_session, "bench")

    def test_wall_times_skips_entries_without_a_number(self):
        session = make_session(0.5)
        session["benchmarks"]["b.py::t"] = {"wall_s": None, "metrics": {}}
        session["benchmarks"]["c.py::t"] = "garbage"
        assert bench.wall_times(session) == {"a.py::t": 0.5}

    def test_environment_drift_names_each_changed_key(self):
        notes = bench.environment_drift(
            make_session(0.5), make_session(0.5, numpy="2.1", cpu_count=4))
        assert notes == ["cpu_count changed 8 -> 4",
                         "numpy changed '2.0' -> '2.1'"]
        assert bench.environment_drift(make_session(0.5),
                                       make_session(0.5)) == []
