"""Per-layer metrics of the traced pass, computed from spans and counters.

Every traced run prints every metric, as the runner requires, so a layer
a workload does not use reads 0 there.  Zero is a valid reading here
because per-layer metrics carry no bound; the end-to-end metrics, whose
bounds are shares of a median, never read 0.  ``PER_LAYER`` lists name
and unit (``DEFINITION.md`` maps each to the end-to-end metric it should
move).
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from tracing import Span, Tracer

PER_LAYER: List[Tuple[str, str]] = [
    ("mcf.commodities.build_ms", "ms"),
    ("mcf.exact.solve_ms.a2a", "ms"),
    ("mcf.exact.solve_ms.bcast", "ms"),
    ("mcf.exact.busy_share", "ratio"),
    ("mcf.exact.iterations", "count"),
    ("mcf.exact.lp_vars", "count"),
    ("mcf.exact.time_exp", "slope"),
    ("mcf.approx.solve_ms.a2a", "ms"),
    ("mcf.approx.solve_ms.bcast", "ms"),
    ("mcf.approx.busy_share", "ratio"),
    ("mcf.approx.phases", "count"),
    ("mcf.approx.dijkstra_calls", "count"),
    ("mcf.approx.ratio_min.a2a", "ratio"),
    ("mcf.approx.ratio_min.bcast", "ratio"),
    ("mcf.approx.time_exp", "slope"),
    ("core.apply_layout_ms", "ms"),
    ("core.materialize_ms", "ms"),
    ("core.failures.materialize_ms", "ms"),
    ("core.plan.converters", "count"),
    ("core.plan.links_changed", "count"),
    ("core.plan.servers_moved", "count"),
    ("routing.routes_ms", "ms"),
    ("routing.ksp.calls", "count"),
    ("routing.ksp_ms", "ms"),
    ("routing.route_cache.hit_ratio", "ratio"),
    ("routing.route_ms", "ms"),
    ("routing.sdn.compile_ms", "ms"),
    ("flowsim.run_ms", "ms"),
    ("flowsim.self_ms", "ms"),
    ("flowsim.events", "count"),
    ("flowsim.rerouted", "count"),
    ("flowsim.fct_mean", "sim_s"),
    ("flowsim.fct_p99", "sim_s"),
    ("flowsim.fairshare.calls", "count"),
    ("flowsim.fairshare.call_ms_p50", "ms"),
    ("flowsim.fairshare.call_ms_p90", "ms"),
    ("flowsim.fairshare.busy_share", "ratio"),
    ("flowsim.fairshare.active_flows_p50", "count"),
    ("flowsim.fairshare.active_flows_max", "count"),
    ("flowsim.fairshare.time_exp", "slope"),
    ("topology.build_ms", "ms"),
    ("traffic.generate_ms", "ms"),
    ("obs.trace_overhead", "ratio"),
]


def _p(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no values (layer not used)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def slope(points: Iterable[Tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size); 0 if undefined."""
    logs = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in logs}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in logs)
    my = statistics.fmean(y for _, y in logs)
    sxx = sum((x - mx) ** 2 for x, _ in logs)
    return sum((x - mx) * (y - my) for x, y in logs) / sxx


def _counter(snapshot: Dict[str, Dict[str, Any]], name: str) -> float:
    entry = snapshot.get(name)
    if entry is None:
        return 0.0
    return float(entry["sum"] if entry["kind"] == "histogram" else entry["value"])


def per_layer(tracer: Tracer, outputs: List[Tuple[int, Dict[str, Any]]],
              registry: Dict[str, Dict[str, Any]],
              overhead: float) -> Dict[str, float]:
    """Per-layer values from the traced set-up and pass.

    ``outputs`` are the traced pass's (op index, op outputs); ``registry``
    the metrics registry snapshot taken after the traced pass.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    by_name: Dict[str, List[Span]] = {}      # spans of the traced ops
    in_setup: Dict[str, List[Span]] = {}     # spans of the traced set-up
    for span in spans:
        into = in_setup if span.op is None else by_name
        into.setdefault(span.name, []).append(span)

    def ms(name: str, pattern: Optional[str] = None) -> List[float]:
        return [s.dur * 1e3 for s in by_name.get(name, [])
                if pattern is None or s.attrs.get("pattern") == pattern]

    def setup_ms(name: str) -> List[float]:
        return [s.dur * 1e3 for s in in_setup.get(name, [])]

    def total(name: str) -> float:
        return sum(s.dur for s in by_name.get(name, []))

    ops = by_name.get("op", [])
    op_time = sum(s.dur for s in ops) or math.inf
    n_ops = len(ops) or 1
    m: Dict[str, float] = {}

    m["mcf.commodities.build_ms"] = _p(ms("mcf.commodities.build"), 0.5)
    for solver in ("exact", "approx"):
        name = f"mcf.{solver}.solve"
        for pattern in ("a2a", "bcast"):
            m[f"mcf.{solver}.solve_ms.{pattern}"] = _p(ms(name, pattern), 0.5)
        m[f"mcf.{solver}.busy_share"] = total(name) / op_time
        m[f"mcf.{solver}.time_exp"] = slope(
            (s.attrs["lp_vars"], s.dur) for s in by_name.get(name, []))
    solves = len(by_name.get("mcf.exact.solve", [])) or 1
    m["mcf.exact.iterations"] = _counter(registry, "mcf.exact.iterations") / solves
    m["mcf.exact.lp_vars"] = _p([s.attrs["lp_vars"] for s in
                                 by_name.get("mcf.exact.solve", [])], 0.5)
    m["mcf.approx.phases"] = _counter(registry, "mcf.approx.phases") / solves
    m["mcf.approx.dijkstra_calls"] = (
        _counter(registry, "mcf.approx.dijkstra_calls") / solves)
    for pattern in ("a2a", "bcast"):
        ratios = [out["approx"] / out["exact"] for _, out in outputs
                  if out.get("pattern") == pattern and out["exact"] > 0]
        m[f"mcf.approx.ratio_min.{pattern}"] = min(ratios) if ratios else 0.0

    m["core.apply_layout_ms"] = _p(ms("core.apply_layout"), 0.5)
    # Conversions happen in ops on convert-route and in set-up elsewhere.
    m["core.materialize_ms"] = _p(ms("core.flattree.materialize")
                                  or setup_ms("core.flattree.materialize"), 0.5)
    m["core.failures.materialize_ms"] = _p(ms("core.failures.materialize"), 0.5)
    plans = [out["plan"] for _, out in outputs if "plan" in out]
    count = len(plans) or 1
    m["core.plan.converters"] = sum(p.converter_count for p in plans) / count
    m["core.plan.links_changed"] = sum(
        len(p.links_removed) + len(p.links_added) for p in plans) / count
    m["core.plan.servers_moved"] = sum(len(p.servers_moved) for p in plans) / count

    m["routing.routes_ms"] = _p(ms("routing.routes"), 0.5)
    ksp_calls = by_name.get("routing.ksp", [])
    m["routing.ksp.calls"] = len(ksp_calls) / n_ops
    m["routing.ksp_ms"] = _p([s.dur * 1e3 for s in ksp_calls], 0.5)
    hits = _counter(registry, "core.controller.route_cache_hits")
    misses = _counter(registry, "core.controller.route_cache_misses")
    m["routing.route_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["routing.route_ms"] = _p(ms("routing.route"), 0.5)
    m["routing.sdn.compile_ms"] = _p(ms("routing.sdn.compile"), 0.5)

    runs = [i for i, s in enumerate(spans)
            if s.name == "flowsim.run" and s.op is not None]
    m["flowsim.run_ms"] = _p([spans[i].dur * 1e3 for i in runs], 0.5)
    m["flowsim.self_ms"] = _p([selfs[i] * 1e3 for i in runs], 0.5)
    m["flowsim.events"] = _counter(registry, "flowsim.events") / n_ops
    results = [out["result"] for _, out in outputs if "result" in out]
    count = len(results) or 1
    m["flowsim.rerouted"] = sum(r.rerouted for r in results) / count
    m["flowsim.fct_mean"] = sum(r.mean_fct for r in results) / count
    m["flowsim.fct_p99"] = sum(r.p99_fct for r in results) / count
    fair = by_name.get("flowsim.fairshare", [])
    m["flowsim.fairshare.calls"] = len(fair) / n_ops
    m["flowsim.fairshare.call_ms_p50"] = _p([s.dur * 1e3 for s in fair], 0.5)
    m["flowsim.fairshare.call_ms_p90"] = _p([s.dur * 1e3 for s in fair], 0.9)
    m["flowsim.fairshare.busy_share"] = total("flowsim.fairshare") / op_time
    active = [s.attrs["active"] for s in fair]
    m["flowsim.fairshare.active_flows_p50"] = _p(active, 0.5)
    m["flowsim.fairshare.active_flows_max"] = float(max(active, default=0))
    m["flowsim.fairshare.time_exp"] = slope((s.attrs["active"], s.dur) for s in fair)

    m["topology.build_ms"] = _p(setup_ms("topology.build"), 0.5)
    m["traffic.generate_ms"] = _p(setup_ms("traffic.generate"), 0.5)
    m["obs.trace_overhead"] = overhead
    if set(m) != {name for name, _ in PER_LAYER}:
        raise RuntimeError("per-layer metrics out of step with PER_LAYER")
    return {name: m[name] for name, _ in PER_LAYER}


def self_time_residual(tracer: Tracer, walls: Dict[int, float]) -> float:
    """Largest |sum of span self times in an op - the op's wall time| (s)."""
    selfs = tracer.self_times()
    sums: Dict[int, float] = {}
    for span, own in zip(tracer.spans, selfs):
        if span.op is not None:
            sums[span.op] = sums.get(span.op, 0.0) + own
    return max((abs(sums.get(op, 0.0) - wall) for op, wall in walls.items()),
               default=0.0)
