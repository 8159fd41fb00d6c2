"""Durable perf sessions: the ``BENCH_<seq>.json`` trajectory and its store.

``benchmarks/METRICS.json`` is overwritten on every bench run and
pytest-benchmark's tables scroll away with the terminal, so the repo
had no way to say "this PR made the KSP solver 30% slower".  This
module defines the durable record: one repo-root ``BENCH_<seq>.json``
per bench session, carrying

* an **environment fingerprint** (python / networkx / numpy / scipy
  versions, CPU count, platform, git commit + dirty flag) so numbers
  are only ever compared like-for-like;
* one entry per benchmark with its **wall time** (pytest-benchmark's
  per-round minimum — the low-noise statistic — plus mean / stddev /
  rounds) merged with the **registry counters** the bench harness
  snapshots into ``benchmarks/METRICS.json`` (solver iterations,
  repair loops, cache hits);
* a monotonically growing sequence number, so ``BENCH_1.json``,
  ``BENCH_2.json``, ... form the repository's perf trajectory.

It is also the one session store for every numbered repo-root artifact
(``BENCH_<seq>.json`` and the hotspot campaigns' ``HOTSPOTS_<seq>.json``):
sequence discovery (:func:`numbered_paths`, :func:`next_numbered_path`,
:func:`seq_of`), the NaN-scrubbed, schema-checked, sorted-key writer
(:func:`write_json`) and the checked reader (:func:`load_json`), plus
the two rules every consumer shares — :func:`wall_times` and
:func:`environment_drift`.

Produced by ``flattree bench`` (see :mod:`repro.cli`), consumed by the
pairwise gate ``python -m tools.perfreport diff BASE NEW``, by the
trajectory gate ``perfreport trend`` and by ``make bench-compare`` /
``make bench-smoke``.  The schema is documented in
``docs/performance.md``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import posixpath
import re
import subprocess
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.errors import ReproError

#: Version of the BENCH_*.json layout; bump on breaking change.
BENCH_SCHEMA_VERSION = 1

#: Numbered repo-root session files (``BENCH_<seq>.json``,
#: ``HOTSPOTS_<seq>.json``); free-form tags such as ``BENCH_smoke.json``
#: are throwaway runs that never join the trajectory.
_NUMBERED = re.compile(r"^[A-Z]+_(\d+)\.json$")

#: Fingerprint keys whose drift makes two sessions incomparable.
_DRIFT_KEYS = ("python", "implementation", "machine", "cpu_count",
               "networkx", "numpy", "scipy")

#: One bench entry: wall stats plus the registry snapshot.
BenchEntry = Dict[str, Any]

#: A full decoded session document.
BenchSession = Dict[str, Any]


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=str(root), capture_output=True,
            text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def environment_fingerprint(root: Optional[Path] = None) -> Dict[str, object]:
    """The comparability context a bench session was recorded under."""
    fingerprint: Dict[str, object] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }
    for dep in ("networkx", "numpy", "scipy"):
        try:
            module = __import__(dep)
            fingerprint[dep] = str(module.__version__)
        except ImportError:
            fingerprint[dep] = None
    from repro import __version__  # function-level: avoids a facade cycle

    fingerprint["repro"] = __version__
    root = root if root is not None else repo_root()
    commit = _git(root, "rev-parse", "HEAD")
    fingerprint["git_commit"] = commit
    status = _git(root, "status", "--porcelain")
    fingerprint["git_dirty"] = bool(status) if status is not None else None
    return fingerprint


def repo_root() -> Path:
    """The checkout root (two levels above the ``repro`` package)."""
    return Path(__file__).resolve().parents[3]


def seq_of(path: Path) -> int:
    """The ``<seq>`` of a numbered session file; -1 for a free-form tag."""
    match = _NUMBERED.match(path.name)
    return int(match.group(1)) if match else -1


def numbered_paths(root: Path, prefix: str) -> List[Path]:
    """Existing ``<prefix>_<seq>.json`` files under ``root``, oldest first."""
    found = sorted((seq_of(path), path)
                   for path in root.glob(f"{prefix}_*.json"))
    return [path for seq, path in found if seq >= 0]


def next_numbered_path(root: Path, prefix: str) -> Path:
    """The next free ``<prefix>_<seq>.json`` slot under ``root``."""
    taken = numbered_paths(root, prefix)
    seq = seq_of(taken[-1]) + 1 if taken else 1
    return root / f"{prefix}_{seq}.json"


def normalize_nodeid(nodeid: str) -> str:
    """Canonical bench key: ``test_bench_x.py::test_y``.

    pytest-benchmark's ``fullname`` and the METRICS.json node ids
    disagree on whether the file part carries the ``benchmarks/``
    directory prefix depending on the invocation's rootdir; dropping
    the directory makes the two join keys identical.
    """
    file_part, sep, rest = nodeid.partition("::")
    return posixpath.basename(file_part) + sep + rest


def build_session(
    bench_stats: Mapping[str, Mapping[str, object]],
    metrics: Optional[Mapping[str, Mapping[str, object]]] = None,
    label: str = "bench",
    root: Optional[Path] = None,
) -> BenchSession:
    """Merge per-bench wall stats with registry snapshots.

    ``bench_stats`` maps node ids to ``{"wall_s", "mean_s", "stddev_s",
    "rounds"}`` (see :func:`parse_pytest_benchmark_json`); ``metrics``
    is the decoded ``benchmarks/METRICS.json`` (may be ``None`` when
    the session ran with ``REPRO_TELEMETRY=0``).
    """
    metric_map = {normalize_nodeid(k): v for k, v in (metrics or {}).items()}
    benchmarks: Dict[str, BenchEntry] = {}
    for nodeid, stats in bench_stats.items():
        key = normalize_nodeid(nodeid)
        entry: BenchEntry = dict(stats)
        entry["metrics"] = dict(metric_map.get(key, {}))
        benchmarks[key] = entry
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "label": label,
        # Session metadata by contract: ``ts`` records when the bench
        # ran and is excluded from baseline comparison (see
        # wall_times), so wall time here cannot skew replays.
        "ts": time.time(),  # flatlint: disable=FT007
        "environment": environment_fingerprint(root),
        "benchmarks": benchmarks,
    }


def parse_pytest_benchmark_json(
        raw: Mapping[str, object]) -> Dict[str, Dict[str, object]]:
    """Extract per-bench wall stats from ``--benchmark-json`` output."""
    stats: Dict[str, Dict[str, object]] = {}
    benches = raw.get("benchmarks")
    if not isinstance(benches, list):
        raise ReproError("pytest-benchmark JSON has no 'benchmarks' list")
    for bench in benches:
        if not isinstance(bench, dict):
            continue
        fullname = bench.get("fullname")
        bench_stats = bench.get("stats")
        if not isinstance(fullname, str) or not isinstance(bench_stats, dict):
            continue
        stats[fullname] = {
            "wall_s": bench_stats.get("min"),
            "mean_s": bench_stats.get("mean"),
            "stddev_s": bench_stats.get("stddev"),
            "rounds": bench_stats.get("rounds"),
        }
    return stats


def finite_nonnegative(value: object) -> bool:
    """A real, finite, non-negative number (no bool, NaN or inf)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value >= 0)


def validate_session(session: Mapping[str, object]) -> List[str]:
    """Schema-check a decoded session document (empty = valid)."""
    problems: List[str] = []
    if session.get("schema") != BENCH_SCHEMA_VERSION:
        problems.append(
            f"'schema' must be {BENCH_SCHEMA_VERSION}, "
            f"got {session.get('schema')!r}")
    env = session.get("environment")
    if not isinstance(env, dict):
        problems.append("missing 'environment' fingerprint object")
    else:
        for key in ("python", "cpu_count", "networkx", "repro"):
            if key not in env:
                problems.append(f"environment missing {key!r}")
    benchmarks = session.get("benchmarks")
    if not isinstance(benchmarks, dict):
        problems.append("missing 'benchmarks' object")
        return problems
    for key, entry in benchmarks.items():
        if not isinstance(entry, dict):
            problems.append(f"bench {key!r} is not an object")
            continue
        if not finite_nonnegative(entry.get("wall_s")):
            problems.append(
                f"bench {key!r} missing finite non-negative 'wall_s'")
        if not isinstance(entry.get("metrics"), dict):
            problems.append(f"bench {key!r} missing 'metrics' object")
    return problems


def wall_times(session: Mapping[str, object]) -> Dict[str, float]:
    """``{bench key: wall_s}`` for every entry with a numeric wall time.

    Session metadata (``ts``, ``label``) never enters a comparison.
    """
    benchmarks = session.get("benchmarks")
    walls: Dict[str, float] = {}
    for key, entry in (benchmarks.items()
                       if isinstance(benchmarks, dict) else []):
        wall = entry.get("wall_s") if isinstance(entry, dict) else None
        if isinstance(wall, (int, float)) and not isinstance(wall, bool):
            walls[str(key)] = float(wall)
    return walls


def environment_drift(prev: Mapping[str, object],
                      cur: Mapping[str, object]) -> List[str]:
    """One note per fingerprint key that differs between two sessions."""
    prev_env = prev.get("environment")
    cur_env = cur.get("environment")
    if not isinstance(prev_env, dict) or not isinstance(cur_env, dict):
        return []
    return [f"{key} changed {prev_env.get(key)!r} -> {cur_env.get(key)!r}"
            for key in _DRIFT_KEYS if prev_env.get(key) != cur_env.get(key)]


#: A document schema check: the list of problems, empty when valid.
Validator = Callable[[Mapping[str, object]], List[str]]


def _scrub(value: Any) -> Any:
    """Replace non-finite floats with ``None`` (JSON has no NaN)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _scrub(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_scrub(item) for item in value]
    return value


def write_json(path: Path, document: Mapping[str, Any],
               validate: Validator, what: str) -> None:
    """Write one session document (NaN-scrubbed, schema-checked, sorted
    keys, trailing newline); ``what`` names the kind in errors."""
    scrubbed = _scrub(document)
    problems = validate(scrubbed)
    if problems:
        raise ReproError(f"refusing to write invalid {what} file {path}: "
                         + "; ".join(problems))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scrubbed, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_json(path: Path, validate: Validator, what: str) -> Dict[str, Any]:
    """Read and schema-check one session document."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ReproError(f"{path} is not a JSON object")
    problems = validate(document)
    if problems:
        raise ReproError(f"{path} fails the {what} schema: "
                         + "; ".join(problems))
    return document
