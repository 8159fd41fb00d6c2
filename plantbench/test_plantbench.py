"""Tests of the plant benchmark itself.

    python3 -m pytest plantbench/test_plantbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
from refclock import RefClock  # noqa: E402
from workloads import WORKLOADS, ConvertRoute  # noqa: E402

DIGEST = ("import sys; sys.path[:0] = [{here!r}, {src!r}]; "
          "from workloads import WORKLOADS; "
          "print(WORKLOADS[{name!r}](3).digest)")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_digest_does_not_depend_on_hash_seed(name):
    digests = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        code = DIGEST.format(here=str(HERE), src=str(ROOT / "src"), name=name)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def _reference(name):
    doc = json.loads((HERE / "reference.json").read_text())
    return doc["workloads"][name]


def test_corrupted_reference_fails_the_op():
    doc = _reference("convert-route")
    doc["shared"][0]["converters"] += 1
    bench = harness.setup(ConvertRoute, 0)
    ref = harness.Reference(doc, bench)
    result = harness.run_pass(bench, ref, ConvertRoute.cycle, RefClock())
    assert result.failed == 1
    assert "converters" in result.failures[0]


def _checkout(tmp_path, with_src=True):
    shutil.copytree(HERE, tmp_path / "plantbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_src:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def _run(checkout, *args):
    return subprocess.run(
        [sys.executable, "plantbench/run.py", *args], cwd=checkout,
        capture_output=True, text=True, timeout=170)


def test_corrupted_reference_exits_nonzero(tmp_path):
    checkout = _checkout(tmp_path)
    path = checkout / "plantbench" / "reference.json"
    doc = json.loads(path.read_text())
    entry = doc["workloads"]["convert-route"]["seeds"]["0"]["ops"][0]
    entry["lengths"] = "0" * 64
    path.write_text(json.dumps(doc))
    proc = _run(checkout, "--workload", "convert-route", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_without_the_plant_exits_nonzero_and_prints_no_result(tmp_path):
    checkout = _checkout(tmp_path, with_src=False)
    proc = _run(checkout, "--workload", "mcf-bracket", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_span_self_times_sum_to_op_wall(tmp_path):
    metrics, report, result = harness.traced(
        ConvertRoute, 0, 1.0, _reference("convert-route"), tmp_path)
    assert result.failed == 0
    assert report["self_time_residual_us"] < 1000
    assert metrics["routing.ksp.calls"] > 0
    assert 0 < metrics["routing.route_cache.hit_ratio"] < 1
