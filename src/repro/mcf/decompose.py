"""Path decomposition of edge-flow solutions.

The exact LP returns *edge* flows per demand group; routing and
simulation want *paths*.  Classic flow decomposition recovers them: walk
from the source along positive-flow arcs to a sink, peel off the
bottleneck, repeat.  Any feasible group flow decomposes into at most
``#arcs`` paths (plus cycles, which carry no demand and are dropped).

This converts an optimal LP solution into an explicit routing — e.g. to
program SDN rules that *achieve* the LP throughput, or to feed the
fluid simulator with provably-optimal path sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import SolverError
from repro.mcf.commodities import DemandGroup, FlowProblem

_EPS = 1e-9


@dataclass(frozen=True)
class PathFlow:
    """One decomposed path with the amount of flow it carries."""

    source: int
    sink: int
    nodes: Tuple[int, ...]
    amount: float


def decompose_group(
    problem: FlowProblem, group: DemandGroup, flow: np.ndarray
) -> List[PathFlow]:
    """Decompose one group's arc-flow vector into sink-terminated paths.

    ``flow`` has one entry per arc.  The remaining per-sink demand is
    tracked so each peeled path is attributed to a sink that still needs
    flow; residual circulation (cycles) is discarded.
    """
    if flow.shape != (problem.num_arcs,):
        raise SolverError("flow vector shape mismatch")
    residual = flow.astype(np.float64).copy()
    need: Dict[int, float] = {
        int(sink): float(demand)
        for sink, demand in zip(group.sinks, group.demands)
    }
    # The group's λ-scaled delivery: total outflow minus inflow at the
    # source tells how much each sink actually receives per unit demand.
    scale = _delivered_fraction(problem, group, residual)
    for sink in need:
        need[sink] *= scale

    paths: List[PathFlow] = []
    for _ in range(problem.num_arcs + len(need) + 1):
        sink_needs = {t for t, d in need.items() if d > _EPS}
        if not sink_needs:
            break
        walk = _walk_to_sink(problem.arcs, residual, group.source,
                             sink_needs)
        if walk is None:
            break
        nodes, arcs, sink = walk
        bottleneck = min(
            float(residual[arcs].min()), need[sink]
        )
        if bottleneck <= _EPS:
            break
        residual[arcs] -= bottleneck
        need[sink] -= bottleneck
        paths.append(
            PathFlow(
                source=group.source,
                sink=sink,
                nodes=tuple(nodes),
                amount=bottleneck,
            )
        )
    return paths


def _delivered_fraction(
    problem: FlowProblem, group: DemandGroup, flow: np.ndarray
) -> float:
    """Fraction of the group demand this flow actually delivers (λ)."""
    net_out = 0.0
    for arc in range(problem.num_arcs):
        if int(problem.arcs.src[arc]) == group.source:
            net_out += float(flow[arc])
        if int(problem.arcs.dst[arc]) == group.source:
            net_out -= float(flow[arc])
    total = group.total_demand
    return max(0.0, net_out / total) if total > 0 else 0.0


def _walk_to_sink(arcs, residual, source, sinks):
    """BFS along positive-residual arcs to the nearest needy sink.

    BFS (rather than a greedy walk) is robust to circulation in the LP
    solution: if any sink is reachable through positive flow, BFS finds
    a simple path to it.  Out-arcs are scanned in arc-id order.
    """
    from collections import deque

    via_arc: Dict[int, int] = {}
    via_node: Dict[int, int] = {}
    queue = deque([source])
    seen = {source}
    target = -1
    while queue:
        here = queue.popleft()
        if here in sinks and here != source:
            target = here
            break
        out = arcs.order[arcs.indptr[here]:arcs.indptr[here + 1]]
        for arc in sorted(out.tolist()):
            if float(residual[arc]) <= _EPS:
                continue
            nxt = int(arcs.dst[arc])
            if nxt in seen:
                continue
            seen.add(nxt)
            via_arc[nxt] = arc
            via_node[nxt] = here
            queue.append(nxt)
    if target < 0:
        return None
    nodes = [target]
    arcs: List[int] = []
    here = target
    while here != source:
        arcs.append(via_arc[here])
        here = via_node[here]
        nodes.append(here)
    nodes.reverse()
    arcs.reverse()
    return nodes, np.asarray(arcs, dtype=np.int64), target


def decompose_solution(
    problem: FlowProblem, flows: np.ndarray
) -> List[PathFlow]:
    """Decompose every group of a ``return_flows=True`` LP solution."""
    if flows.shape != (problem.num_groups, problem.num_arcs):
        raise SolverError("flows matrix shape mismatch")
    out: List[PathFlow] = []
    for group, row in zip(problem.groups, flows):
        out.extend(decompose_group(problem, group, row))
    return out


def delivered_per_commodity(
    paths: List[PathFlow],
) -> Dict[Tuple[int, int], float]:
    """Total decomposed flow per (source, sink) commodity."""
    totals: Dict[Tuple[int, int], float] = {}
    for path in paths:
        key = (path.source, path.sink)
        totals[key] = totals.get(key, 0.0) + path.amount
    return totals
