"""Set-up, the timed and traced passes, and the result line.

The timed pass runs with no spans and telemetry off; the traced pass is
a separate pass over the same ops, with benchmark spans and the obs
registry on.  Both check every op's outputs.  Op and set-up times are
taken at the reference speed (see ``refclock``); the report keeps the
plain wall times beside them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.obs.bench import environment_fingerprint

import layers
from refclock import RefClock
from tracing import NULL_TRACER, Tracer, patched
from workloads import Workload

#: Set-ups per run (three times as many while they take under 2 s in
#: all); ``setup_s`` is their median.
SETUP_REPEATS = 3

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("flows_per_s", "flows/s"),
    ("approx_ratio_min", "ratio"),
    ("peak_rss_mb", "MB"),
]


class Pass:
    """Op times, outputs and failures of one pass."""

    def __init__(self) -> None:
        #: Wall time of each op, the speed probes around it, and the op
        #: time at the reference speed.
        self.walls: List[float] = []
        self.probes: List[Tuple[float, float]] = []
        self.refs: List[float] = []
        self.flows = 0
        self.ratios: List[float] = []
        self.failures: List[str] = []
        self.failed = 0
        self.outputs: List[Tuple[int, Dict[str, Any]]] = []

    @property
    def busy(self) -> float:
        """Summed op time at the reference speed."""
        return sum(self.refs)


class Reference:
    """Recorded outputs of one workload: per seed, plus seed-free fields."""

    def __init__(self, doc: Dict[str, Any], bench: Workload) -> None:
        self.shared = doc.get("shared")
        entry = doc.get("seeds", {}).get(str(bench.seed))
        self.mismatch = entry is not None and entry["digest"] != bench.digest
        self.ops = entry["ops"] if entry is not None and not self.mismatch else None
        self.period = bench.period

    @property
    def kind(self) -> str:
        if self.mismatch:
            return "digest-mismatch"
        if self.ops is not None:
            return "seed"
        return "none" if self.shared is None else "shared-only"

    def op(self, i: int) -> Optional[Dict[str, Any]]:
        return None if self.ops is None else self.ops[i % self.period]

    def shared_op(self, i: int) -> Optional[Dict[str, Any]]:
        return None if self.shared is None else self.shared[i % self.period]


def op_count(bench: Workload, seconds: float, least: int) -> int:
    """Ops in a pass: the whole number of cycles nearest ``seconds`` at the
    workload's nominal cycle time, ``least`` at least.  Every run of a
    seed then does the same work, however fast the machine or the plant
    is.  The timed pass asks for two cycles, which puts the op-tail
    percentile of mcf-bracket on all-to-all ops."""
    return max(least, round(seconds / bench.cycle_s)) * bench.cycle


def run_pass(bench: Workload, ref: Reference, count: int, clock: RefClock,
             tracer: Optional[Tracer] = None, keep: bool = False) -> Pass:
    """Run and check ops 1 .. count (op 0 warmed up in set-up); speed
    probes and checks run between ops, outside the op times."""
    result = Pass()
    for i in range(1, count + 1):
        before = clock.probe()
        out, errors, wall = _one_op(bench, i, tracer)
        result.probes.append((before, clock.probe()))
        if out is not None:
            errors += bench.check(i, out, ref.op(i), ref.shared_op(i))
            if ref.mismatch:
                errors.append("inputs differ from the reference's "
                              "(workload digest changed)")
        result.walls.append(wall)
        if errors:
            result.failed += 1
            result.failures.extend(f"op {i}: {e}" for e in errors[:2])
        else:
            result.flows += bench.flows(out)
            if "approx" in out:
                result.ratios.append(out["approx"] / out["exact"])
            if keep:
                result.outputs.append((i, out))
    result.refs = RefClock.scale(result.walls, result.probes)
    return result


def _one_op(bench: Workload, i: int, tracer: Optional[Tracer]
            ) -> Tuple[Optional[Dict[str, Any]], List[str], float]:
    try:
        if tracer is None:
            start = perf_counter()
            out = bench.op(i)
            return out, [], perf_counter() - start
        tracer.op = i
        start = perf_counter()
        with tracer.span("op", index=i):
            out = bench.op(i)
        return out, [], perf_counter() - start
    except Exception:  # an op that raises is a failed op, not a crash
        return None, [traceback.format_exc(limit=3)], perf_counter() - start
    finally:
        if tracer is not None:
            tracer.op = None


def setup(cls: type, seed: int, tracer: Any = NULL_TRACER) -> Workload:
    """Build inputs and plant state, then run the warm-up op (op 0)."""
    bench = cls(seed, tracer)
    bench.op(0)
    return bench


def tail(walls: List[float]) -> Tuple[float, float, int]:
    """Highest nearest-rank percentile with >= 10 ops beyond it.

    Returns (value, percentile, ops beyond).  With 10 ops or fewer no
    percentile qualifies and the fastest op is returned.
    """
    ordered = sorted(walls)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def timed(cls: type, seed: int, seconds: float, ref_doc: Dict[str, Any]
          ) -> Tuple[Dict[str, Any], Dict[str, Any], Pass]:
    if obs.enabled():
        raise RuntimeError("telemetry is on; refusing to time")
    clock = RefClock()
    setup_walls: List[float] = []
    setup_probes: List[Tuple[float, float]] = []
    while len(setup_walls) < SETUP_REPEATS or (
            len(setup_walls) < 3 * SETUP_REPEATS and sum(setup_walls) < 2.0):
        bench = None  # let the previous set-up be collected first
        gc.collect()
        before = clock.probe()
        start = perf_counter()
        bench = setup(cls, seed)
        setup_walls.append(perf_counter() - start)
        setup_probes.append((before, clock.probe()))
    setups = RefClock.scale(setup_walls, setup_probes)
    ref = Reference(ref_doc, bench)
    gc.collect()
    result = run_pass(bench, ref, op_count(bench, seconds, least=2), clock)
    value, pct, beyond = tail(result.refs)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(result.refs) / result.busy,
        "op_p50_ms": statistics.median(result.refs) * 1e3,
        "op_tail_ms": value * 1e3,
        "flows_per_s": result.flows / result.busy,
        "approx_ratio_min": min(result.ratios, default=1.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "digest": bench.digest, "reference": ref.kind,
        "ops": len(result.walls), "cycles": len(result.walls) // bench.cycle,
        "op_tail_percentile": pct, "op_tail_ops_beyond": beyond,
        "failed_ratio": result.failed / len(result.walls),
        "setup_s_samples": setups,
        "setup_wall_s_samples": setup_walls,
        "op_ms": [round(t * 1e3, 3) for t in result.refs],
        "op_wall_ms": [round(wall * 1e3, 3) for wall in result.walls],
        "probe_ms_p50": statistics.median(clock.probes) * 1e3,
    }
    return metrics, report, result


def traced(cls: type, seed: int, seconds: float, ref_doc: Dict[str, Any],
           out_dir: Path) -> Tuple[Dict[str, Any], Dict[str, Any], Pass]:
    """Untraced then traced pass over the same ops; per-layer metrics."""
    tracer = Tracer()
    clock = RefClock()
    with patched(tracer):
        bench = setup(cls, seed, tracer)
    ref = Reference(ref_doc, bench)
    bench.tracer = NULL_TRACER
    gc.collect()
    plain = run_pass(bench, ref, op_count(bench, seconds / 2, least=1), clock)
    bench.tracer = tracer
    gc.collect()
    obs.registry.reset()
    obs.enable()
    try:
        with patched(tracer):
            traced_pass = run_pass(bench, ref, len(plain.walls), clock,
                                   tracer=tracer, keep=True)
        registry = obs.registry.snapshot()
    finally:
        obs.disable()
    walls = dict(enumerate(traced_pass.walls, start=1))
    metrics = layers.per_layer(tracer, traced_pass.outputs, registry,
                               traced_pass.busy / plain.busy)
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_file = out_dir / f"spans-{cls.name}-{seed}.jsonl"
    tracer.dump(str(spans_file))
    report = {
        "digest": bench.digest, "reference": ref.kind,
        "ops": len(traced_pass.walls),
        "self_time_residual_us": layers.self_time_residual(tracer, walls) * 1e6,
        "spans_file": spans_file.name,
    }
    combined = Pass()
    for part in (plain, traced_pass):
        combined.walls += part.walls
        combined.refs += part.refs
        combined.failed += part.failed
        combined.failures += part.failures
    report["failed_ratio"] = combined.failed / len(combined.walls)
    return metrics, report, combined


def source_digest(src: Path) -> str:
    """sha256 over the plant's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run(cls: type, seed: int, seconds: float, trace: bool, root: Path,
        ref_doc: Dict[str, Any]) -> int:
    if trace:
        metrics, report, result = traced(cls, seed, seconds, ref_doc,
                                         root / "plantbench" / "out")
        units = dict(layers.PER_LAYER)
    else:
        metrics, report, result = timed(cls, seed, seconds, ref_doc)
        units = dict(END_TO_END)
    fingerprint = environment_fingerprint(root)
    fingerprint["source_sha256"] = source_digest(root / "src" / "repro")
    report.update(workload=cls.name, seed=seed, seconds=seconds,
                  trace=int(trace), failures=result.failures[:10],
                  environment=fingerprint)
    correct = result.failed == 0
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(result.walls),
        "failed": result.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1
